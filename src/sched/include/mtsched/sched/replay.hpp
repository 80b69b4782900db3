// The one schedule replay: the protocol the simulator (sim::Simulator) and
// the execution framework (tgrid::TGridEmulator) share. The two differ only
// in what each step costs, which they supply as three hooks, and in one
// sequencing rule, which they fix at construction.
//
// Replay semantics:
//   * a task seizes its processors when all tasks preceding it in any of
//     its processors' orders have finished; its startup phase begins
//     (start hook);
//   * a redistribution is requested when its producer finishes and, if the
//     front end says so, the consumer's startup has also finished (its
//     processes must exist to take part); the request's cost elapses
//     (request hook), then the payload moves through the simulated network
//     as a communication-only parallel task of the 1-D block
//     redistribution, contention included;
//   * a task begins executing when its startup has finished and all its
//     inbound redistributions are done (execute hook);
//   * a finished task releases its processors to their order successors
//     and requests its outbound redistributions;
//   * the makespan is the completion time of the last task.
//
// The schedule is validated before anything is replayed. Each hook submits
// its own engine callbacks and reports back through started(), transfer()
// or finished(). The core knows nothing of cost models or machine models.
#pragma once

#include <cstddef>
#include <vector>

#include "mtsched/dag/dag.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/sched/schedule.hpp"
#include "mtsched/sched/trace.hpp"
#include "mtsched/simcore/cluster_sim.hpp"
#include "mtsched/simcore/engine.hpp"

namespace mtsched::sched {

class DagReplay {
 public:
  DagReplay(const DagReplay&) = delete;
  DagReplay& operator=(const DagReplay&) = delete;

  /// Replays the schedule to completion and returns its trace. Call once.
  RunTrace run();

 protected:
  /// Validates `s` against `g` on `spec`'s node count (throws
  /// core::InvalidArgument) and builds the engine, the cluster and the
  /// replay state. `g` and `s` must outlive the replay.
  DagReplay(const dag::Dag& g, const Schedule& s,
            const platform::ClusterSpec& spec, bool redist_waits_for_startup);
  virtual ~DagReplay() = default;

  /// Task `t` seized its processors; call started(t) when its startup
  /// phase is over.
  virtual void start(dag::TaskId t) = 0;
  /// Edge `e` (index into g.edges()) is ready; call transfer(e, when) when
  /// its protocol overhead is over.
  virtual void request(std::size_t e) = 0;
  /// Task `t` may compute; call finished(t, when) when it is done.
  virtual void execute(dag::TaskId t) = 0;

  void started(dag::TaskId t);
  void transfer(std::size_t e, double when);
  void finished(dag::TaskId t, double when);

  /// Number of processors task `t` runs on.
  int procs(dag::TaskId t) const;

  const dag::Dag& g_;
  const Schedule& s_;
  simcore::Engine engine_;
  simcore::ClusterSim cluster_;

 private:
  void maybe_spawn(dag::TaskId t);
  void maybe_request(std::size_t e);
  void maybe_execute(dag::TaskId t);

  const bool redist_waits_for_startup_;
  RunTrace trace_;
  std::vector<int> order_preds_left_;  ///< processor-order gate
  std::vector<int> edges_left_;        ///< inbound redistributions
  std::vector<bool> spawned_;          ///< startup submitted
  std::vector<bool> started_up_;       ///< startup finished
  std::vector<bool> executing_;        ///< execution submitted
  std::vector<bool> producer_done_;    ///< per edge
  std::vector<std::vector<std::size_t>> out_edges_;
  std::vector<std::vector<std::size_t>> in_edges_;  ///< only when waiting
  std::vector<std::vector<dag::TaskId>> order_succs_;
};

}  // namespace mtsched::sched
