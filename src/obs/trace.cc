#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace re2xolap::obs {

namespace {

thread_local SpanId tls_current_span = 0;

/// The trace epoch: the steady-clock instant of the first use. All span
/// timestamps are microseconds since this point, which is what Chrome's
/// trace viewer expects (any consistent epoch works).
std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

int64_t MicrosSinceEpoch(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::microseconds>(tp -
                                                               TraceEpoch())
      .count();
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// RE2XOLAP_TRACE=<path>: enable the global tracer before main() runs and
/// dump the Chrome trace at normal process exit. The Tracer singleton is
/// leaked, so it is still alive when the atexit hook fires.
struct EnvTraceInit {
  EnvTraceInit() {
    const char* path = std::getenv("RE2XOLAP_TRACE");
    if (path == nullptr || *path == '\0') return;
    TracePath() = path;
    Tracer::Global().SetEnabled(true);
    std::atexit([] {
      std::ofstream out(TracePath());
      if (out) Tracer::Global().WriteChromeTrace(out);
    });
  }
  static std::string& TracePath() {
    static std::string* path = new std::string;
    return *path;
  }
};
EnvTraceInit env_trace_init;

}  // namespace

SpanId CurrentSpan() { return tls_current_span; }

int64_t TraceNowMicros() {
  return MicrosSinceEpoch(std::chrono::steady_clock::now());
}

int64_t TraceMicrosAt(std::chrono::steady_clock::time_point tp) {
  return MicrosSinceEpoch(tp);
}

uint64_t ThisThreadTag() {
  static std::atomic<uint64_t> next{1};
  thread_local uint64_t tag = next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

// --- Tracer -----------------------------------------------------------------

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer;  // leaked: alive for exit-time spans
  return *tracer;
}

void Tracer::Record(SpanEvent&& ev) {
  Shard& shard = shards_[ev.thread % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.events.push_back(std::move(ev));
}

void Tracer::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.events.clear();
  }
}

size_t Tracer::span_count() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.events.size();
  }
  return n;
}

std::vector<SpanEvent> Tracer::Snapshot() const {
  std::vector<SpanEvent> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.insert(out.end(), shard.events.begin(), shard.events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.start_micros != b.start_micros
                         ? a.start_micros < b.start_micros
                         : a.id < b.id;
            });
  return out;
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  std::vector<SpanEvent> events = Snapshot();
  // Thread of each span, for cross-thread flow arrows.
  std::unordered_map<SpanId, uint64_t> span_thread;
  span_thread.reserve(events.size());
  for (const SpanEvent& ev : events) span_thread[ev.id] = ev.thread;

  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    os << (first ? "\n" : ",\n");
    first = false;
  };
  for (const SpanEvent& ev : events) {
    sep();
    os << "  {\"name\": \"" << JsonEscape(ev.name)
       << "\", \"cat\": \"re2x\", \"ph\": \"X\", \"ts\": " << ev.start_micros
       << ", \"dur\": " << FormatDouble(ev.dur_micros)
       << ", \"pid\": 1, \"tid\": " << ev.thread << ", \"args\": {\"span\": "
       << ev.id << ", \"parent\": " << ev.parent;
    for (const SpanAttr& a : ev.attrs) {
      os << ", \"" << JsonEscape(a.key) << "\": ";
      if (a.numeric) {
        os << a.value;
      } else {
        os << "\"" << JsonEscape(a.value) << "\"";
      }
    }
    os << "}}";
    // Cross-thread parent: add a flow arrow so the fan stays attached to
    // its parent span in the viewer.
    auto it = ev.parent != 0 ? span_thread.find(ev.parent)
                             : span_thread.end();
    if (it != span_thread.end() && it->second != ev.thread) {
      sep();
      os << "  {\"name\": \"fan\", \"cat\": \"re2x\", \"ph\": \"s\", \"id\": "
         << ev.id << ", \"ts\": " << ev.start_micros
         << ", \"pid\": 1, \"tid\": " << it->second << "}";
      sep();
      os << "  {\"name\": \"fan\", \"cat\": \"re2x\", \"ph\": \"f\", "
            "\"bp\": \"e\", \"id\": "
         << ev.id << ", \"ts\": " << ev.start_micros
         << ", \"pid\": 1, \"tid\": " << ev.thread << "}";
    }
  }
  os << "\n]}\n";
}

std::string Tracer::ChromeTraceJson() const {
  std::ostringstream os;
  WriteChromeTrace(os);
  return os.str();
}

// --- Span -------------------------------------------------------------------

Span::Span(std::string_view name) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) return;  // the whole disabled cost: one relaxed load
  active_ = true;
  ev_.id = tracer.NextId();
  ev_.parent = tls_current_span;
  ev_.name.assign(name);
  ev_.thread = ThisThreadTag();
  start_ = std::chrono::steady_clock::now();
  ev_.start_micros = MicrosSinceEpoch(start_);
  tls_current_span = ev_.id;
}

void Span::End() {
  if (!active_) return;
  active_ = false;
  ev_.dur_micros = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  tls_current_span = ev_.parent;
  Tracer::Global().Record(std::move(ev_));
}

void Span::SetAttr(std::string_view key, std::string_view value) {
  if (!active_) return;
  ev_.attrs.push_back(SpanAttr{std::string(key), std::string(value), false});
}

void Span::SetAttr(std::string_view key, const char* value) {
  SetAttr(key, std::string_view(value));
}

void Span::SetAttr(std::string_view key, double value) {
  if (!active_) return;
  ev_.attrs.push_back(SpanAttr{std::string(key), FormatDouble(value), true});
}

void Span::SetAttr(std::string_view key, uint64_t value) {
  if (!active_) return;
  ev_.attrs.push_back(
      SpanAttr{std::string(key), std::to_string(value), true});
}

// --- ScopedSpanContext ------------------------------------------------------

ScopedSpanContext::ScopedSpanContext(SpanId parent) : saved_(tls_current_span) {
  tls_current_span = parent;
}

ScopedSpanContext::~ScopedSpanContext() { tls_current_span = saved_; }

// --- JSON escaping ----------------------------------------------------------

void AppendJsonEscaped(std::string_view s, std::string* out) {
  size_t run = 0;  // start of the pending run of bytes copied verbatim
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out->append(buf);
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  AppendJsonEscaped(s, &out);
  return out;
}

}  // namespace re2xolap::obs
