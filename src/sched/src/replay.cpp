#include "mtsched/sched/replay.hpp"

#include <algorithm>
#include <string>

#include "mtsched/core/error.hpp"
#include "mtsched/redist/plan.hpp"

namespace mtsched::sched {

DagReplay::DagReplay(const dag::Dag& g, const Schedule& s,
                     const platform::ClusterSpec& spec,
                     bool redist_waits_for_startup)
    : g_(g),
      s_(s),
      cluster_(engine_, spec),
      redist_waits_for_startup_(redist_waits_for_startup) {
  validate_schedule(g, s, spec.num_nodes);

  const std::size_t n = g.num_tasks();
  trace_.tasks.resize(n);
  trace_.edges.resize(g.num_edges());
  spawned_.assign(n, false);
  started_up_.assign(n, false);
  executing_.assign(n, false);
  producer_done_.assign(g.num_edges(), false);
  edges_left_.assign(n, 0);
  out_edges_.resize(n);
  if (redist_waits_for_startup_) in_edges_.resize(n);
  for (std::size_t i = 0; i < g.num_edges(); ++i) {
    const auto& e = g.edges()[i];
    trace_.edges[i].src = e.src;
    trace_.edges[i].dst = e.dst;
    ++edges_left_[e.dst];
    out_edges_[e.src].push_back(i);
    if (redist_waits_for_startup_) in_edges_[e.dst].push_back(i);
  }
  const auto opreds = order_predecessors(g, s);
  order_preds_left_.resize(n);
  order_succs_.resize(n);
  for (dag::TaskId t = 0; t < n; ++t) {
    order_preds_left_[t] = static_cast<int>(opreds[t].size());
    for (dag::TaskId p : opreds[t]) order_succs_[p].push_back(t);
  }
}

RunTrace DagReplay::run() {
  for (dag::TaskId t = 0; t < g_.num_tasks(); ++t) maybe_spawn(t);
  engine_.run();
  for (dag::TaskId t = 0; t < g_.num_tasks(); ++t) {
    MTSCHED_INVARIANT(executing_[t], "replay finished with unstarted tasks");
  }
  return std::move(trace_);
}

int DagReplay::procs(dag::TaskId t) const {
  return static_cast<int>(s_.placement(t).procs.size());
}

std::string DagReplay::traced_name(std::string_view prefix,
                                   dag::TaskId t) const {
  if (!engine_.tracing()) return {};
  std::string name(prefix);
  name += g_.task(t).name;
  return name;
}

void DagReplay::maybe_spawn(dag::TaskId t) {
  if (spawned_[t] || order_preds_left_[t] > 0) return;
  spawned_[t] = true;
  trace_.tasks[t].startup_begin = engine_.now();
  start(t);
}

void DagReplay::started(dag::TaskId t) {
  started_up_[t] = true;
  if (redist_waits_for_startup_) {
    for (std::size_t e : in_edges_[t]) maybe_request(e);
  }
  maybe_execute(t);
}

void DagReplay::maybe_request(std::size_t e) {
  if (!producer_done_[e]) return;
  if (redist_waits_for_startup_ && !started_up_[g_.edges()[e].dst]) return;
  trace_.edges[e].request = engine_.now();
  request(e);
}

void DagReplay::transfer(std::size_t e, double when) {
  trace_.edges[e].transfer = when;
  const auto& edge = g_.edges()[e];
  const auto& src = s_.placement(edge.src).procs;
  const auto& dst = s_.placement(edge.dst).procs;
  const int p_src = static_cast<int>(src.size());
  // Ranks 0..p_src-1 run on the producer's processors, the consumer's
  // ranks follow them.
  simcore::Ptask pt;
  if (engine_.tracing()) {
    pt.name =
        "redist_" + std::to_string(edge.src) + "_" + std::to_string(edge.dst);
  }
  pt.host_of_rank = src;
  pt.host_of_rank.insert(pt.host_of_rank.end(), dst.begin(), dst.end());
  pt.messages = redist::plan_block_redistribution(
                    g_.task(edge.src).matrix_dim, p_src,
                    static_cast<int>(dst.size()))
                    .messages;
  for (core::Message& m : pt.messages) m.dst += p_src;
  cluster_.submit_ptask(pt, [this, e](double done_at) {
    trace_.edges[e].done = done_at;
    const dag::TaskId consumer = g_.edges()[e].dst;
    --edges_left_[consumer];
    maybe_execute(consumer);
  });
}

void DagReplay::maybe_execute(dag::TaskId t) {
  if (executing_[t] || !started_up_[t] || edges_left_[t] > 0) return;
  executing_[t] = true;
  trace_.tasks[t].exec_begin = engine_.now();
  execute(t);
}

void DagReplay::finished(dag::TaskId t, double when) {
  trace_.tasks[t].finish = when;
  trace_.makespan = std::max(trace_.makespan, when);
  // Processor-order successors may now seize the released processors.
  for (dag::TaskId u : order_succs_[t]) {
    --order_preds_left_[u];
    maybe_spawn(u);
  }
  // Outputs are requested as soon as they exist.
  for (std::size_t e : out_edges_[t]) {
    producer_done_[e] = true;
    maybe_request(e);
  }
}

}  // namespace mtsched::sched
