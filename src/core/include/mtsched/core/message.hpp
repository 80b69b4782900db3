// One point-to-point message of a communication pattern. Every pattern
// mtsched models is sparse (a 1-D block redistribution from p_src to p_dst
// ranks has at most p_src + p_dst - 1 non-zero messages, the analytical
// ring p), so a pattern — the `B` of a Ptask_L07 parallel task — is the
// list of its non-zero messages in row-major (src, dst) order: the order a
// dense scan would visit them, so byte sums over the list equal the dense
// ones bit for bit.
#pragma once

namespace mtsched::core {

/// `bytes` sent from rank `src` to rank `dst`.
struct Message {
  int src = 0;
  int dst = 0;
  double bytes = 0.0;

  friend bool operator==(const Message&, const Message&) = default;
};

}  // namespace mtsched::core
