// Chrome trace_event JSON export (loadable in chrome://tracing and
// Perfetto) plus a parser for the subset this exporter writes, so traces
// can be validated and round-tripped in tests and CI.
//
// Tracks export as threads of one process: tid is the track's dense
// creation index, with thread_name metadata carrying the track name.
// Timestamps become microseconds. With `normalize_timestamps`, each
// event's ts is replaced by its ordinal within its track — two runs of a
// deterministic workload then serialize byte-identically.
//
// ChromeStreamWriter is the one serializer: to_chrome_json feeds it a
// tracer snapshot over a string buffer, Tracer::set_stream feeds it ring
// flushes over a file. Either way the document is *well-formed*: spans
// still open when the writer finishes are auto-closed at their track's
// last timestamp with an "incomplete": true arg (see obs::TraceProfile,
// which surfaces them).
#pragma once

#include <cstddef>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "mtsched/obs/trace.hpp"

namespace mtsched::obs {

struct ChromeTraceOptions {
  /// Replace wall-clock timestamps with per-track event ordinals so
  /// identical runs diff cleanly.
  bool normalize_timestamps = false;
  std::string process_name = "mtsched";
};

/// Serializes a snapshot of `tracer` as {"traceEvents": [...]} through a
/// ChromeStreamWriter: every track's thread_name record first, then per
/// track its events in emission order followed by its auto-closed spans.
std::string to_chrome_json(const Tracer& tracer,
                           const ChromeTraceOptions& options = {});

/// Incremental Chrome trace_event writer: the EventStream sink for
/// Tracer::set_stream. Events are serialized straight to `os` as the
/// tracer flushes them, so a trace of any length occupies only the ring
/// buffer in memory. Per track the encoding matches to_chrome_json —
/// same per-event encoding, same per-track ordinal normalization, same
/// auto-close of still-open spans at finish() — so for a single-track
/// tracer the streamed document is byte-identical to the snapshot
/// export. (With several tracks, batches interleave in flush order and
/// each track's thread_name metadata precedes its first event instead of
/// all of them coming first; viewers accept both.)
class ChromeStreamWriter : public EventStream {
 public:
  /// Writes the document header. `os` must outlive the writer.
  explicit ChromeStreamWriter(std::ostream& os,
                              ChromeTraceOptions options = {});
  /// finish()es if not already finished.
  ~ChromeStreamWriter() override;

  /// Writes track `tid`'s thread_name record on its first batch (an
  /// empty batch writes only that), then the batch's events.
  void on_events(std::size_t tid, const std::string& track_name,
                 std::span<const Event> events) override;

  /// Auto-closes open spans and terminates the document. Flush the
  /// tracer first; later on_events batches are discarded.
  void finish();

 private:
  friend std::string to_chrome_json(const Tracer&, const ChromeTraceOptions&);

  struct OpenSpan {
    const char* category;
    std::string name;
  };
  struct TrackState {
    bool meta_written = false;
    std::size_t ordinal = 0;   ///< events written (normalized timestamps)
    double last_ts_us = 0.0;   ///< wall-clock close time for open spans
    std::vector<OpenSpan> open;
  };

  /// Writes an "incomplete" End for each span still open on track `tid`,
  /// innermost first. Caller holds mutex_.
  void close_open_spans(std::size_t tid);

  std::ostream& os_;
  ChromeTraceOptions options_;
  std::mutex mutex_;  ///< lanes flush concurrently; the document is one
  std::vector<TrackState> tracks_;
  bool finished_ = false;
};

/// One parsed trace event (metadata events are folded into track names).
struct ChromeEvent {
  char phase = 'i';
  std::string category;
  std::string name;
  int tid = 0;
  double ts_us = 0.0;
  double value = 0.0;  ///< counter events ("args":{"value": ...})
  std::vector<std::pair<std::string, std::string>> args;
};

struct ChromeTrace {
  std::string process_name;
  std::vector<std::string> track_names;  ///< indexed by tid
  std::vector<ChromeEvent> events;       ///< document order, sans metadata
};

/// Parses what to_chrome_json emits (a strict subset of the trace_event
/// format). Throws core::ParseError on malformed input.
ChromeTrace parse_chrome_json(const std::string& json);

}  // namespace mtsched::obs
