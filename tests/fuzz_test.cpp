// Seeded mutation fuzzing of every text reader: rpc frames, DAG text,
// platform v1, machine tables, the campaign CSV, Chrome trace JSON and
// ArgParser values. Each reader gets valid seed documents mutated with
// core::Rng at a fixed seed for a bounded number of iterations. The
// invariant: an input either parses or throws a core::Error subtype —
// never another exception, a crash or a hang (the ASan/UBSan build runs
// this suite with the rest of ctest). Readers with a writer must also be
// stable: what one parse accepts, write -> parse reproduces exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mtsched/core/argparse.hpp"
#include "mtsched/core/error.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/core/table.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/results.hpp"
#include "mtsched/exp/rpc.hpp"
#include "mtsched/machine/table_machine.hpp"
#include "mtsched/obs/chrome_trace.hpp"
#include "mtsched/obs/trace.hpp"
#include "mtsched/platform/parser.hpp"

namespace {

using namespace mtsched;

constexpr int kIterations = 3000;  // per reader; a few seconds under ASan

/// Tokens that sit at the edges of the number grammar and of the readers'
/// ranges; a mutation may splice one over a digit run.
const std::vector<std::string> kInteresting = {
    "-1", "0", "+7", "007", " 5", "1e300", "-1e300", "1e-400", "nan", "inf",
    "2147483648", "-2147483649", "4294967296", "4294969296",
    "18446744073709551616", "99999999999999999999", "65537", "1000000000",
    "1-2", "1.5.5", "3e", "0x10", "2.5"};

/// Bytes that mean something to at least one reader.
constexpr char kAlphabet[] = "0123456789-+.eE \t\r\n,:=#|[]{}\"\\x";

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string s) {
    const auto rounds = pick(4) + 1;
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::size_t at = pick(s.size() + 1);
      switch (pick(6)) {
        case 0:  // overwrite a byte with any byte
          if (at < s.size()) s[at] = static_cast<char>(pick(256));
          break;
        case 1:  // insert a meaningful byte
          s.insert(at, 1, kAlphabet[pick(sizeof kAlphabet - 1)]);
          break;
        case 2:  // delete a short range
          s.erase(at, pick(8) + 1);
          break;
        case 3:  // duplicate a short range (bounded growth)
          if (at < s.size() && s.size() < (1u << 16)) {
            s.insert(at, s.substr(at, pick(32) + 1));
          }
          break;
        default: {  // splice an interesting token over a digit run
          std::size_t b = at;
          while (b < s.size() && (s[b] < '0' || s[b] > '9')) ++b;
          std::size_t e = b;
          while (e < s.size() && s[e] >= '0' && s[e] <= '9') ++e;
          s.replace(b, e - b, kInteresting[pick(kInteresting.size())]);
        }
      }
    }
    return s;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  core::Rng rng_;
};

/// Feeds kIterations mutants of `seeds` to `read`. `read` returns the
/// canonical re-encoding of what it parsed ("" when it has no writer).
void fuzz(const char* reader, const std::vector<std::string>& seeds,
          const std::function<std::string(const std::string&)>& read,
          const std::function<std::string(const std::string&)>& reread = {}) {
  for (const auto& seed : seeds) {
    ASSERT_NO_THROW((void)read(seed)) << reader << " rejects its own seed";
  }
  Mutator mutator(0x5eedf00d);
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input =
        mutator.mutate(seeds[static_cast<std::size_t>(i) % seeds.size()]);
    std::string canonical;
    try {
      canonical = read(input);
      ++accepted;
    } catch (const core::Error&) {
      continue;  // a typed rejection is the other allowed outcome
    } catch (const std::exception& e) {
      ADD_FAILURE() << reader << " threw a non-core::Error (" << e.what()
                    << ") on input:\n"
                    << input;
      continue;
    }
    if (reread) {
      try {
        EXPECT_EQ(reread(canonical), canonical)
            << reader << " is not stable on input:\n"
            << input;
      } catch (const std::exception& e) {
        ADD_FAILURE() << reader << " rejects its own output (" << e.what()
                      << ") for input:\n"
                      << input;
      }
    }
  }
  // The mutants must exercise acceptance as well as rejection.
  EXPECT_GT(accepted, 0) << reader;
  EXPECT_LT(accepted, kIterations) << reader;
}

TEST(Fuzz, RpcFrames) {
  exp::ScheduleRequest req;
  req.dag_text = "task 0 matmul 2000 a\ntask 1 matadd 2000 b\nedge 0 1\n";
  req.algorithm = "HCPA";
  req.model = models::ModelSpec::parse("profile");
  req.exp_seed = 42;
  exp::ScheduleResponse resp;
  resp.model = "profile";
  resp.algorithm = "HCPA";
  resp.exp_seed = 18446744073709551615ull;
  resp.executed = true;
  resp.est_makespan = 12.5;
  resp.makespan_sim = 13.0625;
  resp.makespan_exp = 1e-3;
  resp.allocation = {3, 2, 32};
  fuzz("parse_request",
       {exp::encode_request(req), exp::encode_ping(), exp::encode_shutdown()},
       [](const std::string& s) {
         const auto r = exp::parse_request(s);
         return r.type == exp::RpcRequest::Type::Schedule
                    ? exp::encode_request(r.schedule)
                    : std::string();
       });
  fuzz(
      "parse_response", {exp::encode_response(resp)},
      [](const std::string& s) {
        return exp::encode_response(exp::parse_response(s));
      },
      [](const std::string& s) {
        return exp::encode_response(exp::parse_response(s));
      });
}

TEST(Fuzz, DagText) {
  dag::DagGenParams p;
  p.num_tasks = 12;
  p.seed = 7;
  const auto round = [](const std::string& s) {
    return dag::to_text(dag::from_text(s));
  };
  fuzz("dag::from_text",
       {dag::to_text(dag::generate_random_dag(p).graph),
        "# comment\n\ntask 0 matmul 100\ntask 1 matadd 3000 x\nedge 0 1\n"},
       round, round);
}

TEST(Fuzz, PlatformV1) {
  const auto round = [](const std::string& s) {
    return platform::to_text(platform::parse_topology(s));
  };
  fuzz("platform::parse_topology",
       {platform::to_text(platform::hierarchical_topology(4, 8, 4.0)),
        platform::to_text(platform::star_topology(platform::bayreuth32())),
        "mtsched.platform.v1\n[rack]\ncount = 2\nnodes = 2\n"
        "node_speeds = 1e9 2e9   # per node\n"},
       round, round);
}

TEST(Fuzz, MachineTables) {
  const auto round = [](const std::string& s) {
    return machine::to_text(machine::parse_machine_tables(s));
  };
  fuzz("machine::parse_machine_tables",
       {"# a machine\nnodes = 2\nnominal_flops = 250e6\nnoise_sigma = 0.02\n"
        "exec matmul 2000 : 130.1 66.2\nexec matadd 2000 : 22.9 11.6\n"
        "startup : 0.72 0.78\nredist 1 : 0.11 0.12\nredist 2 : 0.5 1e-3\n"},
       round, round);
}

TEST(Fuzz, CampaignCsv) {
  exp::RunRecord r;
  r.suite_seed = 2011;
  r.dag = "dag_3";
  r.matrix_dim = 2000;
  r.model = "profile";
  r.algorithm = "HCPA";
  r.exp_seed = 42;
  r.run_seed = 18446744073709551615ull;
  r.allocation = {4, 16, 1};
  r.makespan_sim = 101.25;
  r.makespan_exp = 99.0000001;
  exp::RunRecord s = r;
  s.algorithm = "MCPA";
  s.allocation = {32};
  const auto round = [](const std::string& text) {
    return exp::to_csv(exp::parse_campaign_csv(text));
  };
  fuzz("exp::parse_campaign_csv", {exp::to_csv({r, s})}, round, round);
}

TEST(Fuzz, ChromeTraceJson) {
  obs::Tracer tracer;
  const obs::Track root = tracer.root();
  const obs::Track aux = tracer.track("aux");
  root.begin("cat", "outer", {{"k", "v \"q\""}});
  aux.instant("other", "tick");
  root.counter("cat", "load", 2.5);
  root.end("cat", "outer");
  fuzz("obs::parse_chrome_json", {obs::to_chrome_json(tracer)},
       [](const std::string& s) {
         (void)obs::parse_chrome_json(s);
         return std::string();
       });
}

TEST(Fuzz, ArgParserValues) {
  // One reader per option type: the value goes through parse() and the
  // typed accessor.
  const auto option = [](const char* name) {
    return [name](const std::string& value) {
      core::ArgParser args("prog", "fuzzed option values");
      args.add_int("count", 1, "an int");
      args.add_uint64("seed", 1, "a seed");
      args.add_double("ratio", 0.5, "a ratio");
      const std::string flag = std::string("--") + name;
      const char* argv[] = {"prog", flag.c_str(), value.c_str()};
      args.parse(3, argv);
      return std::to_string(args.integer("count")) + ' ' +
             std::to_string(args.uint64("seed")) + ' ' +
             core::fmt_roundtrip(args.number("ratio"));
    };
  };
  fuzz("--count", {"7", "-3", "0", "2147483647"}, option("count"));
  fuzz("--seed", {"42", "0", "18446744073709551615"}, option("seed"));
  fuzz("--ratio", {"0.25", "-1e-9", "3", "1.7976931348623157e308"},
       option("ratio"));
  fuzz("split_csv_int", {"2000,3000", "-1,7"}, [](const std::string& v) {
    (void)core::split_csv_int(v, "--dims");
    return std::string();
  });
  fuzz("split_csv_uint64", {"42,18446744073709551615"},
       [](const std::string& v) {
         (void)core::split_csv_uint64(v, "--seeds");
         return std::string();
       });
}

}  // namespace
