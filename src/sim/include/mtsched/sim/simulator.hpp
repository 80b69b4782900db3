// The simulator front-end: replays a schedule on the discrete-event engine
// under a given cost model and reports the simulated makespan and trace.
//
// The replay protocol is sched::DagReplay's (see sched/replay.hpp); the
// simulator supplies only the costs, all from the cost model:
//   * startup: the model's startup overhead as a timer (none when zero);
//   * redistribution: the model's protocol overhead (zero for the
//     analytical model) elapses, then the payload is transferred;
//   * execution: a fluid parallel task (analytical model: flop vector +
//     ring messages) or a fixed duration (profile/empirical models:
//     measured/regressed time).
// A redistribution starts as soon as its producer finishes; it does not
// wait for the consumer's startup.
//
// The simulator is deterministic: no randomness exists in any cost model.
#pragma once

#include "mtsched/dag/dag.hpp"
#include "mtsched/models/cost_model.hpp"
#include "mtsched/obs/trace.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/sched/schedule.hpp"
#include "mtsched/sched/trace.hpp"

namespace mtsched::sim {

class Simulator {
 public:
  /// `model` must outlive the simulator. The platform spec is taken from
  /// the model (cost models are platform-bound). When `trace` is a live
  /// track, replay spans and engine events go there; when disabled (the
  /// default), each run() falls back to the calling thread's
  /// obs::current_track().
  explicit Simulator(const models::CostModel& model, obs::Track trace = {});

  /// Simulates one schedule replay. Validates the schedule first.
  sched::RunTrace run(const dag::Dag& g, const sched::Schedule& s) const;

  /// Convenience: simulated makespan only.
  double makespan(const dag::Dag& g, const sched::Schedule& s) const;

  const models::CostModel& model() const { return model_; }

 private:
  const models::CostModel& model_;
  obs::Track trace_;
};

}  // namespace mtsched::sim
