// Tests for the parallel campaign runner: determinism across thread
// counts, memo-cache accounting, the JSON/CSV writers, spec validation,
// and agreement of the case-study pivot with sequential exp::Session runs.
#include <gtest/gtest.h>

#include <algorithm>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/exp/campaign.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/exp/results.hpp"
#include "mtsched/exp/session.hpp"
#include "mtsched/stats/summary.hpp"

namespace {

using namespace mtsched;

/// One shared lab for the whole test binary (construction runs the full
/// profiling campaign).
const exp::Lab& lab() {
  static const exp::Lab instance;
  return instance;
}

/// A small suite: three DAGs at n=2000, two at n=3000, all distinct.
exp::SuiteSpec mini_suite(std::uint64_t suite_seed = 7) {
  exp::SuiteSpec suite;
  suite.seed = suite_seed;
  for (int i = 0; i < 5; ++i) {
    dag::DagGenParams p;
    p.width = 4;
    p.add_ratio = 0.5;
    p.matrix_dim = i < 3 ? 2000 : 3000;
    p.seed = suite_seed * 100 + static_cast<std::uint64_t>(i);
    suite.dags.push_back(dag::generate_random_dag(p));
  }
  return suite;
}

exp::CampaignSpec mini_spec() {
  exp::CampaignSpec spec;
  spec.suites = {mini_suite()};
  spec.models = {exp::lab_model(lab(), models::CostModelKind::Profile)};
  return spec;
}

TEST(Campaign, ParallelRunIsByteIdenticalToSequential) {
  auto spec = mini_spec();
  spec.exp_seeds = {42, 43};

  spec.threads = 1;
  const auto seq = exp::Campaign(lab().rig()).run(spec);
  spec.threads = 8;
  const auto par = exp::Campaign(lab().rig()).run(spec);

  EXPECT_EQ(par.metrics.threads, 8);
  ASSERT_EQ(seq.records.size(), par.records.size());
  EXPECT_EQ(exp::to_json(spec, seq), exp::to_json(spec, par));
  EXPECT_EQ(exp::to_csv(seq.records), exp::to_csv(par.records));
  // Cache accounting is part of the deterministic contract too.
  EXPECT_EQ(seq.metrics.cache_hits, par.metrics.cache_hits);
  EXPECT_EQ(seq.metrics.cache_misses, par.metrics.cache_misses);
}

TEST(Campaign, RepeatedExpSeedsHitTheScheduleCache) {
  // The schedule of a (suite, dag, model, algorithm) cell does not depend
  // on the experiment seed, so with two seeds every cell computes once
  // and hits once: hits == misses == jobs / 2.
  auto spec = mini_spec();
  spec.exp_seeds = {42, 43};
  spec.threads = 4;
  const auto result = exp::Campaign(lab().rig()).run(spec);

  const std::size_t jobs = 5 * 1 * 2 * 2;  // dags x models x seeds x algos
  EXPECT_EQ(result.metrics.jobs, jobs);
  EXPECT_EQ(result.metrics.cache_hits, jobs / 2);
  EXPECT_EQ(result.metrics.cache_misses, jobs / 2);
}

TEST(Campaign, DagsUnderDifferentDimsDoNotShareCacheEntries) {
  // The mini suite re-uses generator parameters across dims; the cache
  // must key on the DAG instance, never collapse across dims. With one
  // exp seed there is nothing to reuse at all.
  auto spec = mini_spec();
  const auto result = exp::Campaign(lab().rig()).run(spec);

  EXPECT_EQ(result.metrics.jobs, 10u);  // 5 dags x 1 model x 1 seed x 2 algos
  EXPECT_EQ(result.metrics.cache_hits, 0u);
  EXPECT_EQ(result.metrics.cache_misses, 10u);

  // The dims filter selects exactly the n=2000 slice.
  spec.dims = {2000};
  const auto filtered = exp::Campaign(lab().rig()).run(spec);
  EXPECT_EQ(filtered.metrics.jobs, 6u);
  for (const auto& r : filtered.records) EXPECT_EQ(r.matrix_dim, 2000);
}

TEST(Campaign, RecordsFollowSpecExpansionOrder) {
  auto spec = mini_spec();
  spec.exp_seeds = {42, 43};
  const auto result = exp::Campaign(lab().rig()).run(spec);

  // suites -> dags -> models -> exp_seeds -> algorithms.
  std::size_t i = 0;
  for (const auto& dag : spec.suites[0].dags) {
    for (const auto seed : spec.exp_seeds) {
      for (const char* algo : {"HCPA", "MCPA"}) {
        ASSERT_LT(i, result.records.size());
        const auto& r = result.records[i++];
        EXPECT_EQ(r.dag, dag.name);
        EXPECT_EQ(r.exp_seed, seed);
        EXPECT_EQ(r.algorithm, algo);
        EXPECT_EQ(r.model, "profile");
        EXPECT_EQ(r.suite_seed, 7u);
      }
    }
  }
  EXPECT_EQ(i, result.records.size());
}

TEST(Campaign, PivotMatchesTheSequentialCaseStudy) {
  auto spec = mini_spec();
  const auto result = exp::Campaign(lab().rig()).run(spec);
  const auto pivot = result.case_study("profile", "HCPA", "MCPA", 7, 42);

  // The reference runs each (DAG, algorithm) cell on its own through the
  // single-DAG pipeline, executing under the seed the campaign derived.
  const exp::Session session(lab());
  const auto& dags = spec.suites[0].dags;
  ASSERT_EQ(pivot.outcomes.size(), dags.size());
  for (std::size_t i = 0; i < dags.size(); ++i) {
    const auto& o = pivot.outcomes[i];
    EXPECT_EQ(o.dag_name, dags[i].name);
    EXPECT_EQ(o.matrix_dim, dags[i].params.matrix_dim);
    for (const exp::RunRecord* r : {&o.first, &o.second}) {
      exp::ScheduleRequest req;
      req.dag_text = dag::to_text(dags[i].graph);
      req.algorithm = r->algorithm;
      req.model = models::ModelSpec::parse("profile");
      req.exp_seed = r->run_seed;
      const auto resp = session.run(req);
      ASSERT_TRUE(resp.ok()) << resp.message;
      EXPECT_EQ(r->allocation, resp.allocation);
      EXPECT_EQ(r->makespan_sim, resp.makespan_sim);
      EXPECT_EQ(r->makespan_exp, resp.makespan_exp);
    }
  }
}

TEST(Campaign, CaseStudyThrowsOnMissingSlice) {
  const auto result = exp::Campaign(lab().rig()).run(mini_spec());
  EXPECT_THROW(result.case_study("analytical", "HCPA", "MCPA", 7, 42),
               core::InvalidArgument);
  EXPECT_THROW(result.case_study("profile", "HCPA", "CPA", 7, 42),
               core::InvalidArgument);
  EXPECT_THROW(result.case_study("profile", "HCPA", "MCPA", 7, 99),
               core::InvalidArgument);
}

TEST(Campaign, CsvRoundTripsThroughTheStatsSummary) {
  auto spec = mini_spec();
  spec.exp_seeds = {42, 43};
  const auto result = exp::Campaign(lab().rig()).run(spec);

  const auto parsed = exp::parse_campaign_csv(exp::to_csv(result.records));
  ASSERT_EQ(parsed.size(), result.records.size());

  const auto makespans = [](const std::vector<exp::RunRecord>& rs) {
    std::vector<double> v;
    for (const auto& r : rs) v.push_back(r.makespan_exp);
    return v;
  };
  const auto s1 = stats::summarize(makespans(result.records));
  const auto s2 = stats::summarize(makespans(parsed));
  EXPECT_DOUBLE_EQ(s1.mean, s2.mean);
  EXPECT_DOUBLE_EQ(s1.min, s2.min);
  EXPECT_DOUBLE_EQ(s1.max, s2.max);
  EXPECT_DOUBLE_EQ(s1.stddev, s2.stddev);

  // Every field survives except the derived error column.
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const auto& a = result.records[i];
    const auto& b = parsed[i];
    EXPECT_EQ(a.suite_seed, b.suite_seed);
    EXPECT_EQ(a.dag, b.dag);
    EXPECT_EQ(a.matrix_dim, b.matrix_dim);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.exp_seed, b.exp_seed);
    EXPECT_EQ(a.run_seed, b.run_seed);
    EXPECT_EQ(a.allocation, b.allocation);
    EXPECT_DOUBLE_EQ(a.makespan_sim, b.makespan_sim);
    EXPECT_DOUBLE_EQ(a.makespan_exp, b.makespan_exp);
  }
}

TEST(Campaign, CsvParserRejectsMalformedInput) {
  EXPECT_THROW(exp::parse_campaign_csv(""), core::ParseError);
  EXPECT_THROW(exp::parse_campaign_csv("wrong,header\n"), core::ParseError);
  const std::string header =
      "suite_seed,dag,dim,model,algorithm,exp_seed,run_seed,allocation,"
      "makespan_sim,makespan_exp,sim_error_percent\n";
  EXPECT_THROW(exp::parse_campaign_csv(header + "1,d,2000\n"),
               core::ParseError);
  EXPECT_THROW(
      exp::parse_campaign_csv(header +
                              "1,d,2000,m,a,42,43,1|x,1.0,2.0,100\n"),
      core::ParseError);
  // Unsigned fields are bare digit runs; dim and allocation fit in an int.
  for (const char* row :
       {"-1,d,2000,m,a,42,43,1,1.0,2.0,100", "1,d,+5,m,a,42,43,1,1.0,2.0,100",
        "1,d,2000,m,a, 42,43,1,1.0,2.0,100",
        "1,d,2147483648,m,a,42,43,1,1.0,2.0,100",
        "1,d,2000,m,a,42,43,1|4294967297,1.0,2.0,100",
        // Makespans are finite from_chars text.
        "1,d,2000,m,a,42,43,1, 1.0,2.0,100", "1,d,2000,m,a,42,43,1,+1.0,2.0,100",
        "1,d,2000,m,a,42,43,1,nan,2.0,100", "1,d,2000,m,a,42,43,1,1.0,inf,100",
        "1,d,2000,m,a,42,43,1,0x1p3,2.0,100", "1,d,-5,m,a,42,43,1,1.0,2.0,100"}) {
    EXPECT_THROW(exp::parse_campaign_csv(header + row + "\n"),
                 core::ParseError)
        << row;
  }
}

TEST(Campaign, SeedSlotZeroReplaysIdenticalWeather) {
  // With seed_slot = 0 both algorithms execute under the same derived
  // seed — the setup variant-comparison benches rely on.
  auto spec = mini_spec();
  auto est = exp::AlgoSpec::allocator("HCPA");
  est.label = "a";
  est.seed_slot = 0;
  auto aware = exp::AlgoSpec::allocator("HCPA");
  aware.label = "b";
  aware.seed_slot = 0;
  spec.algorithms = {est, aware};
  const auto result = exp::Campaign(lab().rig()).run(spec);

  ASSERT_EQ(result.records.size(), 10u);
  for (std::size_t i = 0; i + 1 < result.records.size(); i += 2) {
    EXPECT_EQ(result.records[i].run_seed, result.records[i + 1].run_seed);
    // Identical algorithm + identical weather => identical measurement.
    EXPECT_DOUBLE_EQ(result.records[i].makespan_exp,
                     result.records[i + 1].makespan_exp);
  }
}

TEST(Campaign, ValidatesSpec) {
  exp::CampaignSpec empty_models;
  EXPECT_THROW(exp::Campaign(lab().rig()).run(empty_models),
               core::InvalidArgument);

  auto dup = mini_spec();
  dup.algorithms = {exp::AlgoSpec::allocator("HCPA"),
                    exp::AlgoSpec::allocator("HCPA")};
  EXPECT_THROW(exp::Campaign(lab().rig()).run(dup), core::InvalidArgument);

  // A model calibrated for an 8-node platform cannot drive the 32-node rig.
  machine::JavaClusterConfig small_cfg;
  small_cfg.num_nodes = 8;
  const machine::JavaClusterModel small(small_cfg);
  const models::AnalyticalModel small_model(small.platform_spec());
  auto mismatched = mini_spec();
  mismatched.models = {exp::ModelRef{"analytical8", &small_model}};
  EXPECT_THROW(exp::Campaign(lab().rig()).run(mismatched),
               core::InvalidArgument);

  // A dims filter naming a dimension no suite contains, alone or next to
  // one that matches, is rejected before any job runs.
  for (const std::vector<int>& dims : {std::vector<int>{4000},
                                       std::vector<int>{2000, 4000}}) {
    auto unmatched = mini_spec();
    unmatched.dims = dims;
    try {
      (void)exp::Campaign(lab().rig()).run(unmatched);
      ADD_FAILURE() << "dims filter without a matching DAG was accepted";
    } catch (const core::InvalidArgument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("4000"), std::string::npos) << msg;
      EXPECT_NE(msg.find("2000, 3000"), std::string::npos) << msg;
    }
  }
}

}  // namespace
