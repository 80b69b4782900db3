// The benchmark's workloads. Each builds its inputs from Options::seed
// alone, measures for Options::seconds and fills an Outcome: end-to-end
// metrics from untraced runs (Options::trace false) or per-layer metrics
// from the traced pass (Options::trace true).
#pragma once

#include "bench.hpp"

namespace e2ebench {

/// exp::Campaign::run over the paper's Table I suite.
Outcome run_paper_campaign(const Options& opt);

/// Single-threaded exp::Session::run on distinct 16 000-task DAGs.
Outcome run_large_dag(const Options& opt);

/// Open-loop loopback traffic against an in-process RpcServer + Service.
Outcome run_serve_mixed(const Options& opt);

/// Self-tests of the statistics in bench.hpp; returns the failure count.
int run_self_tests();

}  // namespace e2ebench
