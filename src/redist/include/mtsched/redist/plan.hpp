// Data redistribution planning (paper Section IV-2).
//
// When task u consumes the matrix produced by task t, and t and u ran on
// different processor sets (or the same set with different sizes), the
// matrix must be redistributed from t's 1-D layout to u's 1-D layout. The
// messages are fully determined by the overlaps of the two layouts' column
// intervals; this module computes them. TGrid performs exactly these
// point-to-point transfers; the simulator feeds the same messages into the
// parallel-task network model.
#pragma once

#include <vector>

#include "mtsched/core/message.hpp"

namespace mtsched::redist {

/// The messages of a redistribution: source rank `src` sends `bytes` to
/// destination rank `dst`. Only non-zero messages are listed, in row-major
/// (src, dst) order; ranks are logical (0..p_src-1 and 0..p_dst-1).
struct RedistPlan {
  std::vector<core::Message> messages;

  /// Total payload (the full matrix size when layouts cover it).
  double total_bytes() const;

  /// Number of point-to-point messages.
  int num_messages() const { return static_cast<int>(messages.size()); }
};

/// Computes the redistribution plan for an n-by-n matrix moving from a
/// 1-D column-block layout over p_src processors to one over p_dst
/// processors. Both layouts partition the columns into contiguous blocks,
/// so one merge walk over the two partitions finds every overlap. If
/// source and destination ranks share a physical node the transfer is a
/// local copy; the plan itself is purely logical.
RedistPlan plan_block_redistribution(int n, int p_src, int p_dst);

}  // namespace mtsched::redist
