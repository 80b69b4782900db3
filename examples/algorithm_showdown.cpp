// Algorithm showdown: schedule one mixed-parallel workflow with every
// allocator in the library (CPA, HCPA, MCPA, plus the SEQ / MAXPAR
// baselines), under each simulator cost model, and execute each schedule
// on the emulated cluster. Shows how the model a scheduler trusts changes
// both its decisions and how those decisions fare in reality. Every
// (model, allocator) cell is one exp::Session request.
//
// Run:  ./algorithm_showdown [dag-seed] [matrix-dim]
#include <iostream>

#include "mtsched/core/table.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/exp/session.hpp"

int main(int argc, char** argv) {
  using namespace mtsched;

  dag::DagGenParams params;
  params.width = 8;
  params.add_ratio = 0.75;
  params.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  params.matrix_dim = argc > 2 ? std::atoi(argv[2]) : 2000;
  const auto inst = dag::generate_random_dag(params);
  std::cout << "workflow " << inst.name << ": " << inst.graph.num_tasks()
            << " tasks, " << inst.graph.num_edges() << " edges, "
            << inst.graph.num_levels() << " levels\n\n";

  exp::Lab lab;
  const exp::Session session(lab);
  exp::ScheduleRequest req;
  req.dag_text = dag::to_text(inst.graph);
  req.exp_seed = 42;

  core::TextTable table;
  table.set_header({"model", "algorithm", "total procs", "max p", "sim [s]",
                    "exp [s]", "err %"});
  for (const auto kind : models::all_kinds()) {
    req.model.kind = kind;
    for (const char* name : {"CPA", "HCPA", "MCPA", "SEQ", "MAXPAR"}) {
      req.algorithm = name;
      const auto resp = session.run(req);
      if (!resp.ok()) {
        std::cerr << name << ": " << resp.message << '\n';
        return 1;
      }
      const double sim_mk = resp.makespan_sim;
      const double exp_mk = resp.makespan_exp;
      int total = 0, biggest = 0;
      for (int a : resp.allocation) {
        total += a;
        biggest = std::max(biggest, a);
      }
      table.add_row({resp.model, name, std::to_string(total),
                     std::to_string(biggest), core::fmt(sim_mk, 1),
                     core::fmt(exp_mk, 1),
                     core::fmt(std::abs(exp_mk - sim_mk) / sim_mk * 100, 1)});
    }
  }
  std::cout << table.render() << '\n';
  std::cout << "Things to notice:\n"
            << " * under the analytical model every allocator grabs many "
               "processors and the\n"
            << "   simulated makespans look great — the experiment "
               "disagrees by hundreds of %;\n"
            << " * under the profile model the predictions line up with "
               "the experiment;\n"
            << " * SEQ ignores data parallelism, MAXPAR drowns in startup "
               "and redistribution\n"
            << "   overhead; the CPA family sits in between.\n";
  return 0;
}
