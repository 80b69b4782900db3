// Streaming tracer tests: the ring-buffered EventStream flush path and
// the incremental Chrome trace writer, including byte-identity of the
// streamed document with the snapshot exporter.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "mtsched/obs/chrome_trace.hpp"
#include "mtsched/obs/trace.hpp"

namespace {

using namespace mtsched::obs;

/// EventStream that records every delivered batch.
struct RecordingStream : EventStream {
  struct Batch {
    std::size_t tid;
    std::string track;
    std::vector<Event> events;
  };
  std::vector<Batch> batches;

  void on_events(std::size_t tid, const std::string& track_name,
                 std::span<const Event> events) override {
    batches.push_back({tid, track_name, {events.begin(), events.end()}});
  }

  std::size_t total_events() const {
    std::size_t n = 0;
    for (const auto& b : batches) n += b.events.size();
    return n;
  }
};

/// A deterministic emission sequence (spans, instants, counters).
void emit_sequence(const Track& t, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    t.begin("test", "phase" + std::to_string(i), {{"round", "r"}});
    t.instant("test", "tick");
    t.counter("test", "height", static_cast<double>(i));
    t.end("test", "phase" + std::to_string(i));
  }
}

// --- ring-buffer flush ---------------------------------------------------

TEST(TracerStream, FlushesWhenRingFills) {
  Tracer tracer;
  RecordingStream stream;
  tracer.set_stream(&stream, 4);
  emit_sequence(tracer.root(), 3);  // 12 events -> 3 full batches
  EXPECT_EQ(stream.batches.size(), 3u);
  for (const auto& b : stream.batches) EXPECT_EQ(b.events.size(), 4u);
  EXPECT_EQ(tracer.num_events(), 0u);  // nothing buffered past a flush
}

TEST(TracerStream, FlushStreamDeliversTheTail) {
  Tracer tracer;
  RecordingStream stream;
  tracer.set_stream(&stream, 100);
  emit_sequence(tracer.root(), 2);  // 8 events, under the ring
  EXPECT_TRUE(stream.batches.empty());
  EXPECT_EQ(tracer.num_events(), 8u);
  tracer.flush_stream();
  EXPECT_EQ(stream.total_events(), 8u);
  EXPECT_EQ(tracer.num_events(), 0u);
}

TEST(TracerStream, DestructorFlushes) {
  RecordingStream stream;
  {
    Tracer tracer;
    tracer.set_stream(&stream, 100);
    emit_sequence(tracer.root(), 1);
  }
  EXPECT_EQ(stream.total_events(), 4u);
}

TEST(TracerStream, BatchesPreserveEmissionOrderPerTrack) {
  Tracer tracer;
  RecordingStream stream;
  tracer.set_stream(&stream, 2);
  const Track a = tracer.track("a");
  const Track b = tracer.track("b");
  a.instant("test", "a0");
  b.instant("test", "b0");
  a.instant("test", "a1");  // fills a's ring
  b.instant("test", "b1");  // fills b's ring
  ASSERT_EQ(stream.batches.size(), 2u);
  EXPECT_EQ(stream.batches[0].track, "a");
  EXPECT_EQ(stream.batches[0].events[0].name, "a0");
  EXPECT_EQ(stream.batches[0].events[1].name, "a1");
  EXPECT_EQ(stream.batches[1].track, "b");
}

// --- ChromeStreamWriter --------------------------------------------------

std::string batch_document(int rounds, bool leave_open) {
  Tracer tracer;
  emit_sequence(tracer.root(), rounds);
  if (leave_open) tracer.root().begin("test", "unclosed");
  ChromeTraceOptions opt;
  opt.normalize_timestamps = true;
  return to_chrome_json(tracer, opt);
}

std::string streamed_document(int rounds, bool leave_open,
                              std::size_t ring) {
  std::ostringstream os;
  ChromeTraceOptions opt;
  opt.normalize_timestamps = true;
  ChromeStreamWriter writer(os, opt);
  Tracer tracer;
  tracer.set_stream(&writer, ring);
  emit_sequence(tracer.root(), rounds);
  if (leave_open) tracer.root().begin("test", "unclosed");
  tracer.flush_stream();
  writer.finish();
  return os.str();
}

TEST(ChromeStreamWriter, SingleTrackMatchesBatchExportByteForByte) {
  const std::string batch = batch_document(5, false);
  EXPECT_EQ(batch, streamed_document(5, false, 4096));
  // A tiny ring exercises many flushes; the document must not change.
  EXPECT_EQ(batch, streamed_document(5, false, 3));
}

TEST(ChromeStreamWriter, AutoClosesOpenSpansLikeBatchExport) {
  EXPECT_EQ(batch_document(2, true), streamed_document(2, true, 4));
}

TEST(ChromeStreamWriter, DestructorFinishesTheDocument) {
  std::ostringstream os;
  {
    ChromeStreamWriter writer(os);
    Tracer tracer;
    tracer.set_stream(&writer, 8);
    emit_sequence(tracer.root(), 1);
    // Neither flush_stream nor finish: the destructors must cooperate
    // (tracer flushes the tail, the writer terminates the document).
  }
  const ChromeTrace trace = parse_chrome_json(os.str());
  EXPECT_EQ(trace.events.size(), 4u);
}

TEST(ChromeStreamWriter, MultiTrackDocumentIsWellFormed) {
  std::ostringstream os;
  ChromeTraceOptions opt;
  opt.normalize_timestamps = true;
  {
    ChromeStreamWriter writer(os, opt);
    Tracer tracer;
    tracer.set_stream(&writer, 2);
    const Track a = tracer.track("alpha");
    const Track b = tracer.track("beta");
    for (int i = 0; i < 5; ++i) {
      a.instant("test", "a" + std::to_string(i));
      b.instant("test", "b" + std::to_string(i));
    }
    tracer.flush_stream();
    writer.finish();
  }
  const ChromeTrace trace = parse_chrome_json(os.str());
  ASSERT_EQ(trace.track_names.size(), 3u);  // main + alpha + beta
  EXPECT_EQ(trace.track_names[1], "alpha");
  EXPECT_EQ(trace.track_names[2], "beta");
  std::size_t on_a = 0;
  std::size_t on_b = 0;
  double last_a_ts = -1.0;
  for (const auto& e : trace.events) {
    if (e.tid == 1) {
      // Per-track ordinals stay monotonic even though batches interleave.
      EXPECT_GT(e.ts_us, last_a_ts);
      last_a_ts = e.ts_us;
      ++on_a;
    } else if (e.tid == 2) {
      ++on_b;
    }
  }
  EXPECT_EQ(on_a, 5u);
  EXPECT_EQ(on_b, 5u);
}

}  // namespace
