// Execution traces and Gantt charts: replay one schedule both in the
// simulator and on the emulated cluster and compare the two timelines.
//
// Run:  ./gantt_trace [dag-seed]
#include <iostream>

#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/models/cost_model.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace mtsched;

  dag::DagGenParams params;
  params.width = 4;
  params.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;
  const auto inst = dag::generate_random_dag(params);
  std::cout << "workflow (Graphviz DOT):\n"
            << dag::to_dot(inst.graph, "workflow") << '\n';

  exp::Lab lab;
  const auto& model = lab.profile();
  const models::SchedCostAdapter cost(model);
  const sched::HcpaAllocator hcpa;
  const int P = lab.spec().num_nodes;
  const auto schedule = sched::ListMapper{}.map(
      inst.graph, hcpa.allocate(inst.graph, cost, P), cost, P);

  std::vector<std::vector<int>> procs_of_task;
  for (const auto& pl : schedule.placements) procs_of_task.push_back(pl.procs);

  const auto sim_trace = sim::Simulator(model).run(inst.graph, schedule);
  std::cout << "--- simulated timeline (profile model), makespan "
            << sim_trace.makespan << " s ---\n"
            << sim_trace.ascii_gantt(inst.graph, procs_of_task,
                                     lab.spec().num_nodes)
            << '\n';

  const auto exp_trace = lab.rig().run(inst.graph, schedule, /*seed=*/42);
  std::cout << "--- experimental timeline (TGrid emulator), makespan "
            << exp_trace.makespan << " s ---\n"
            << exp_trace.ascii_gantt(inst.graph, procs_of_task,
                                     lab.spec().num_nodes)
            << '\n';

  std::cout << "--- experimental trace (CSV) ---\n" << exp_trace.to_csv();
  std::cout << "\nlegend: 's' = startup (JVM spawn), letters = computing "
               "task A..Z, '.' = idle\n";
  return 0;
}
