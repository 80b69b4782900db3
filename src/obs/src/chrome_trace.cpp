#include "mtsched/obs/chrome_trace.hpp"

#include <sstream>

#include "mtsched/core/error.hpp"
#include "mtsched/core/parse.hpp"
#include "mtsched/core/table.hpp"
#include "mtsched/obs/json.hpp"

namespace mtsched::obs {

namespace {

constexpr const char* kWhat = "chrome trace JSON";

void write_event(std::ostream& os, const Event& e, std::size_t tid,
                 double ts_us, bool incomplete = false) {
  os << "{\"ph\":\"" << static_cast<char>(e.phase) << "\",\"pid\":0,\"tid\":"
     << tid << ",\"ts\":" << core::fmt_roundtrip(ts_us) << ",\"cat\":\""
     << json::escape(e.category) << "\",\"name\":\"" << json::escape(e.name)
     << '"';
  if (e.phase == Event::Phase::Counter) {
    os << ",\"args\":{\"value\":" << core::fmt_roundtrip(e.value) << '}';
  } else if (incomplete) {
    os << ",\"args\":{\"incomplete\":true}";
  } else if (!e.args.empty()) {
    os << ",\"args\":{";
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      if (i) os << ',';
      os << '"' << json::escape(e.args[i].first) << "\":\""
         << json::escape(e.args[i].second) << '"';
    }
    os << '}';
  }
  os << '}';
}

void write_thread_name_meta(std::ostream& os, std::size_t tid,
                            const std::string& name) {
  os << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
     << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << json::escape(name)
     << "\"}}";
}

}  // namespace

ChromeStreamWriter::ChromeStreamWriter(std::ostream& os,
                                       ChromeTraceOptions options)
    : os_(os), options_(std::move(options)) {
  os_ << "{\"traceEvents\":[\n";
  os_ << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\""
      << json::escape(options_.process_name) << "\"}}";
}

ChromeStreamWriter::~ChromeStreamWriter() { finish(); }

void ChromeStreamWriter::on_events(std::size_t tid,
                                   const std::string& track_name,
                                   std::span<const Event> events) {
  std::lock_guard lock(mutex_);
  if (finished_) return;
  if (tid >= tracks_.size()) tracks_.resize(tid + 1);
  TrackState& t = tracks_[tid];
  if (!t.meta_written) {
    write_thread_name_meta(os_, tid, track_name);
    t.meta_written = true;
  }
  for (const Event& e : events) {
    // Track open spans so close_open_spans() can close what the run
    // left open.
    if (e.phase == Event::Phase::Begin) {
      t.open.push_back(OpenSpan{e.category, e.name});
    } else if (e.phase == Event::Phase::End && !t.open.empty()) {
      t.open.pop_back();
    }
    const double ts_us = options_.normalize_timestamps
                             ? static_cast<double>(t.ordinal)
                             : e.ts * 1e6;
    ++t.ordinal;
    t.last_ts_us = e.ts * 1e6;
    os_ << ",\n";
    write_event(os_, e, tid, ts_us);
  }
}

void ChromeStreamWriter::finish() {
  std::lock_guard lock(mutex_);
  if (finished_) return;
  for (std::size_t tid = 0; tid < tracks_.size(); ++tid) {
    close_open_spans(tid);
  }
  os_ << "\n]}\n";
  finished_ = true;
}

void ChromeStreamWriter::close_open_spans(std::size_t tid) {
  // A Begin with no matching End (the tracer was exported mid-span or
  // the emitter crashed) would leave the trace malformed; close it at
  // the track's last timestamp, flagged with "incomplete": true.
  TrackState& t = tracks_[tid];
  while (!t.open.empty()) {
    Event close;
    close.phase = Event::Phase::End;
    close.category = t.open.back().category;
    close.name = std::move(t.open.back().name);
    t.open.pop_back();
    const double close_ts = options_.normalize_timestamps
                                ? static_cast<double>(t.ordinal++)
                                : t.last_ts_us;
    os_ << ",\n";
    write_event(os_, close, tid, close_ts, /*incomplete=*/true);
  }
}

std::string to_chrome_json(const Tracer& tracer,
                           const ChromeTraceOptions& options) {
  const auto tracks = tracer.snapshot();
  std::ostringstream os;
  ChromeStreamWriter writer(os, options);
  // Every thread_name record first, then events grouped per track in
  // creation order (viewers sort by ts); with normalized timestamps this
  // grouping is what makes the document stable.
  for (std::size_t tid = 0; tid < tracks.size(); ++tid) {
    writer.on_events(tid, tracks[tid].name, {});
  }
  for (std::size_t tid = 0; tid < tracks.size(); ++tid) {
    writer.on_events(tid, tracks[tid].name, tracks[tid].events);
    std::lock_guard lock(writer.mutex_);
    writer.close_open_spans(tid);
  }
  writer.finish();
  return os.str();
}

ChromeTrace parse_chrome_json(const std::string& text) {
  const json::Value doc = json::parse(text, kWhat);
  if (doc.type != json::Value::Type::Object) {
    throw core::ParseError(std::string(kWhat) + ": document is not an object");
  }
  const json::Value& events = json::member(doc, "traceEvents", kWhat);
  if (events.type != json::Value::Type::Array) {
    throw core::ParseError(std::string(kWhat) +
                           ": traceEvents is not an array");
  }

  ChromeTrace trace;
  for (const json::Value& ev : events.items) {
    const std::string ph = json::member(ev, "ph", kWhat).str;
    if (ph.size() != 1) {
      throw core::ParseError(std::string(kWhat) + ": bad ph '" + ph + "'");
    }
    // Every track the exporter writes has its own metadata record, so a
    // valid tid is always below the number of records.
    const json::Value& tid_v = json::member(ev, "tid", kWhat);
    const auto tid_or = core::parse_number<int>(tid_v.text);
    if (!tid_or || *tid_or < 0 ||
        static_cast<std::size_t>(*tid_or) >= events.items.size()) {
      throw core::ParseError(std::string(kWhat) + ": bad tid '" +
                             tid_v.text + tid_v.str + "'");
    }
    const int tid = *tid_or;
    if (ph == "M") {
      const std::string what = json::member(ev, "name", kWhat).str;
      const std::string value =
          json::member(json::member(ev, "args", kWhat), "name", kWhat).str;
      if (what == "process_name") {
        trace.process_name = value;
      } else if (what == "thread_name") {
        if (trace.track_names.size() <= static_cast<std::size_t>(tid)) {
          trace.track_names.resize(static_cast<std::size_t>(tid) + 1);
        }
        trace.track_names[static_cast<std::size_t>(tid)] = value;
      }
      continue;
    }
    ChromeEvent out;
    out.phase = ph[0];
    out.tid = tid;
    out.ts_us = json::member(ev, "ts", kWhat).num;
    out.category = json::member(ev, "cat", kWhat).str;
    out.name = json::member(ev, "name", kWhat).str;
    if (const json::Value* args = ev.find("args")) {
      for (const auto& [k, v] : args->members) {
        if (v.type == json::Value::Type::Number) {
          if (k == "value") out.value = v.num;
        } else if (v.type == json::Value::Type::Bool) {
          out.args.emplace_back(k, v.boolean ? "true" : "false");
        } else {
          out.args.emplace_back(k, v.str);
        }
      }
    }
    trace.events.push_back(std::move(out));
  }
  return trace;
}

}  // namespace mtsched::obs
