// The traced pass: replays the Session::run pipeline one layer at a time
// with a span around every public call, and turns the spans into the
// per-layer metrics.
//
// A request goes through
//   exp/encode_request -> exp/parse_request -> dag/from_text ->
//   dag/to_text (the cache-key canonicalization) -> sched/allocate ->
//   sched/map -> sim/simulate -> tgrid/execute -> exp/encode_response ->
//   exp/parse_response
// where allocate/map/simulate run only on a schedule-cache miss, exactly
// as in exp::Session. All spans of one request sit on that request's own
// track, under one exp/request span, so they share an id.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/exp/session.hpp"
#include "mtsched/obs/trace.hpp"

namespace e2ebench {

/// Replays requests against one lab with its own schedule memo, so a
/// sequence of requests takes the same hit/miss path as it would through
/// a fresh exp::Session. Not thread-safe.
class Replayer {
 public:
  explicit Replayer(const mtsched::exp::Lab& lab) : lab_(lab) {}

  /// Serves `req` layer by layer, emitting spans onto `track` (a default
  /// Track makes every span a no-op), and returns the encoded response —
  /// the bytes a server would put on the wire.
  std::string run(const mtsched::exp::ScheduleRequest& req,
                  mtsched::obs::Track track);

  std::uint64_t parsed_tasks() const { return parsed_tasks_; }
  std::uint64_t scheduled_tasks() const { return scheduled_tasks_; }
  std::uint64_t executed_tasks() const { return executed_tasks_; }
  std::uint64_t misses() const { return misses_; }

 private:
  const mtsched::exp::Lab& lab_;
  std::unordered_map<std::string,
                     std::shared_ptr<const mtsched::exp::ScheduleMemo>>
      memo_;
  std::uint64_t parsed_tasks_ = 0;
  std::uint64_t scheduled_tasks_ = 0;
  std::uint64_t executed_tasks_ = 0;
  std::uint64_t misses_ = 0;
};

/// Runs the layer pass over `requests`: each goes through an untraced
/// exp::Session::run (the reference), an untraced replay and a traced
/// replay (in rotating order), all three with their own cold schedule
/// cache so they take the same hit/miss path. `prewarm` requests are
/// served first on all three, untimed and unchecked, to reproduce a warm
/// cache. Adds the per-layer metrics to `out`, one correctness check per
/// request (traced replay == untraced replay == Session::run, byte for
/// byte), notes with the per-layer table, and writes the trace to
/// `trace_path` (skipped when empty) for `mtsched_cli trace-report`.
void layer_pass(const mtsched::exp::Lab& lab,
                const std::vector<mtsched::exp::ScheduleRequest>& prewarm,
                const std::vector<mtsched::exp::ScheduleRequest>& requests,
                const std::string& trace_path, Outcome& out);

/// Wall seconds of `alloc_name`'s allocate() on `text` under the profile
/// model of `lab`: the median of `reps` runs.
double allocate_seconds(const mtsched::exp::Lab& lab, const std::string& text,
                        const std::string& alloc_name, int reps);

}  // namespace e2ebench
