// The two batch workloads: the paper's campaign and the large-DAG tier.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "layers.hpp"
#include "mtsched/core/thread_pool.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/campaign.hpp"
#include "mtsched/models/factory.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace exp = mtsched::exp;
namespace models = mtsched::models;

namespace {

bool close_rel(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

// --- paper_campaign ---------------------------------------------------

struct CampaignFixture {
  std::unique_ptr<exp::Lab> lab;
  exp::CampaignSpec spec;
  std::unique_ptr<exp::Campaign> campaign;
};

CampaignFixture make_campaign(std::uint64_t seed) {
  CampaignFixture f;
  f.lab = std::make_unique<exp::Lab>();
  f.spec.suites = {exp::SuiteSpec::table1(derive(seed, 1))};
  f.spec.algorithms = {exp::AlgoSpec::allocator("HCPA"),
                       exp::AlgoSpec::allocator("MCPA")};
  f.spec.models = exp::lab_models(*f.lab, models::all_kinds());
  f.spec.exp_seeds.clear();
  for (std::uint64_t k = 0; k < 8; ++k) {
    f.spec.exp_seeds.push_back(derive(seed, 100 + k));
  }
  f.spec.threads =
      std::min(mtsched::core::ThreadPool::recommended_threads(), 4);
  f.campaign = std::make_unique<exp::Campaign>(f.lab->rig());
  return f;
}

/// The request exp::Session would need to reproduce campaign row `rec`.
exp::ScheduleRequest row_request(const exp::RunRecord& rec,
                                 const std::string& dag_text) {
  exp::ScheduleRequest req;
  req.dag_text = dag_text;
  req.algorithm = rec.algorithm;
  req.model = models::ModelSpec::parse(rec.model);
  req.exp_seed = rec.run_seed;
  return req;
}

bool same_row(const exp::RunRecord& a, const exp::RunRecord& b) {
  return a.dag == b.dag && a.model == b.model && a.algorithm == b.algorithm &&
         a.run_seed == b.run_seed && a.allocation == b.allocation &&
         a.makespan_sim == b.makespan_sim && a.makespan_exp == b.makespan_exp;
}

}  // namespace

Outcome run_paper_campaign(const Options& opt) {
  Outcome out;
  const CampaignFixture f =
      timed_setup([&] { return make_campaign(opt.seed); }, out);
  std::map<std::string, std::string> dag_text;
  for (const auto& d : f.spec.suites.front().dags) {
    dag_text[d.name] = mtsched::dag::to_text(d.graph);
  }

  // Warm-up pass (untimed): its rows are the reference every timed pass
  // must reproduce exactly, and a sample of them is checked against
  // exp::Session::run with exp_seed = run_seed.
  const auto reference = f.campaign->run(f.spec);
  {
    const exp::Session session(*f.lab);
    for (std::size_t i = 0; i < reference.records.size(); i += 97) {
      const auto& rec = reference.records[i];
      const auto resp = session.run(row_request(rec, dag_text[rec.dag]));
      out.check(resp.ok() && resp.allocation == rec.allocation &&
                close_rel(resp.makespan_sim, rec.makespan_sim) &&
                close_rel(resp.makespan_exp, rec.makespan_exp));
    }
  }

  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<double> walls, rates, efficiency;
  double hit_ratio = 0.0;
  const auto start = Clock::now();
  while (walls.empty() || seconds_since(start) < budget) {
    const auto t = Clock::now();
    const auto result = f.campaign->run(f.spec);
    const double wall = seconds_since(t);
    walls.push_back(wall);
    rates.push_back(static_cast<double>(result.records.size()) / wall);
    const auto& m = result.metrics;
    efficiency.push_back((m.schedule_seconds + m.execute_seconds) /
                         (m.run_seconds * m.threads));
    hit_ratio = static_cast<double>(m.cache_hits) /
                static_cast<double>(m.cache_hits + m.cache_misses);
    const bool complete = result.records.size() == reference.records.size();
    for (std::size_t i = 0; i < reference.records.size(); ++i) {
      out.check(complete && same_row(result.records[i], reference.records[i]));
    }
  }
  out.notes.push_back(fmt("campaign: %.0f rows per pass on %d threads, "
                          "%.0f timed passes",
                          static_cast<double>(reference.records.size()),
                          f.spec.threads, static_cast<double>(walls.size())));
  out.notes.push_back(fmt("campaign_runs_per_s = %.1f runs/s (median of %.0f "
                          "passes), pass wall p50 %.4f s",
                          median(rates), static_cast<double>(walls.size()),
                          median(walls)));

  if (!opt.trace) {
    out.e2e("latency_p50_ms", median(walls) * 1e3, "ms");
    out.e2e("throughput_per_s", median(rates), "1/s");
    return out;
  }
  out.layer("exp.cache_hit_ratio", hit_ratio, "fraction");
  out.layer("exp.campaign_parallel_eff", median(efficiency), "fraction");
  // The traced pass replays every row of the campaign, in expansion
  // order, through the layers exp::Session::run is made of.
  std::vector<exp::ScheduleRequest> requests;
  for (const auto& rec : reference.records) {
    requests.push_back(row_request(rec, dag_text[rec.dag]));
  }
  layer_pass(*f.lab, {}, requests,
             opt.out_dir + "/e2e_trace_paper_campaign.json", out);
  return out;
}

// --- large_dag ----------------------------------------------------------

namespace {

constexpr int kLargeTasks = 16000;
constexpr int kGrowthBaseTasks = 1000;

/// The Table I-style DAG of request `i`: width 4, the grid's middle
/// addition ratio, n = 2000; only the generator seed varies.
std::string large_dag_text(std::uint64_t seed, int i, int tasks) {
  mtsched::dag::DagGenParams p;
  p.num_tasks = tasks;
  p.width = 4;
  p.add_ratio = 0.75;
  p.matrix_dim = 2000;
  p.seed = derive(seed, 1000 + static_cast<std::uint64_t>(i));
  return mtsched::dag::to_text(mtsched::dag::generate_random_dag(p).graph);
}

const char* large_algorithm(int i) { return i % 2 == 0 ? "HCPA" : "MCPA"; }

struct LargeFixture {
  std::unique_ptr<exp::Lab> lab;
  std::vector<std::string> texts;  ///< one distinct DAG per request
};

bool plausible(const exp::ScheduleResponse& r, std::size_t tasks, int P) {
  if (!r.ok() || !r.executed || r.allocation.size() != tasks) return false;
  for (const int a : r.allocation) {
    if (a < 1 || a > P) return false;
  }
  return std::isfinite(r.makespan_exp) && r.makespan_exp > 0.0 &&
         std::isfinite(r.makespan_sim) && r.makespan_sim > 0.0 &&
         r.est_makespan > 0.0;
}

exp::ScheduleRequest large_request(const std::string& text, int i) {
  exp::ScheduleRequest req;
  req.dag_text = text;
  req.algorithm = large_algorithm(i);
  req.model = models::ModelSpec::parse("profile");
  req.exp_seed = static_cast<std::uint64_t>(i) + 1;
  req.execute = true;
  return req;
}

}  // namespace

Outcome run_large_dag(const Options& opt) {
  Outcome out;
  // An HCPA+MCPA pair takes 4-9 s on the 4-vCPU VM this benchmark was
  // sized on; inputs for a pair per four measured seconds cover the
  // budget there. A run stops early rather than reuse a DAG.
  const int pairs = opt.trace ? 1 : std::max(2, static_cast<int>(
                                                    std::ceil(opt.seconds / 4)));
  const LargeFixture f = timed_setup(
      [&] {
        LargeFixture x;
        x.lab = std::make_unique<exp::Lab>();
        for (int i = 0; i < 2 * pairs; ++i) {
          x.texts.push_back(large_dag_text(opt.seed, i, kLargeTasks));
        }
        return x;
      },
      out);
  const int P = f.lab->spec().num_nodes;

  if (opt.trace) {
    std::vector<exp::ScheduleRequest> requests;
    for (int i = 0; i < 2; ++i) requests.push_back(large_request(f.texts[i], i));
    layer_pass(*f.lab, {}, requests, opt.out_dir + "/e2e_trace_large_dag.json",
               out);
    // Complexity signal: allocation ns/task at 16k over ns/task on 1k-task
    // DAGs from the same seeds, both algorithms.
    double small_s = 0.0;
    for (int i = 0; i < 2; ++i) {
      small_s += allocate_seconds(
          *f.lab, large_dag_text(opt.seed, i, kGrowthBaseTasks),
          large_algorithm(i), 5);
    }
    double allocate_ms = 0.0;
    for (const auto& m : out.per_layer) {
      if (m.name == "sched.allocate_ms") allocate_ms = m.value;
    }
    const double large_ns = allocate_ms * 1e6 / kLargeTasks;
    const double small_ns = small_s / 2 * 1e9 / kGrowthBaseTasks;
    out.layer("sched.allocate_growth", small_ns > 0 ? large_ns / small_ns : 0,
              "ratio");
    out.notes.push_back(fmt("allocate: %.0f ns/task at 16k vs %.0f ns/task "
                            "at 1k",
                            large_ns, small_ns));
    return out;
  }

  const exp::Session session(*f.lab);
  std::vector<double> requests_s, pair_means;
  const auto start = Clock::now();
  for (int k = 0; k < pairs && (k == 0 || seconds_since(start) < opt.seconds);
       ++k) {
    double pair = 0.0;
    for (int i = 2 * k; i < 2 * k + 2; ++i) {
      const auto t = Clock::now();
      const auto resp = session.run(large_request(f.texts[i], i));
      const double s = seconds_since(t);
      requests_s.push_back(s);
      pair += s;
      out.check(plausible(resp, kLargeTasks, P));
    }
    pair_means.push_back(pair / 2);
  }
  const double total_s = seconds_since(start);
  out.notes.push_back(fmt("large_request_s = %.4f s (median of %.0f "
                          "requests), pair-mean median %.4f s",
                          median(requests_s),
                          static_cast<double>(requests_s.size()),
                          median(pair_means)));
  out.e2e("latency_p50_ms", median(pair_means) * 1e3, "ms");
  out.e2e("throughput_per_s",
          static_cast<double>(requests_s.size()) / total_s, "1/s");
  return out;
}

}  // namespace e2ebench
