#ifndef RE2XOLAP_OBS_TRACE_H_
#define RE2XOLAP_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace re2xolap::obs {

/// Identifier of a span; 0 means "no span" (the root of a trace).
using SpanId = uint64_t;

/// One key/value annotation on a span. `numeric` values are exported as
/// raw JSON numbers, everything else as escaped strings.
struct SpanAttr {
  std::string key;
  std::string value;
  bool numeric = false;
};

/// A finished span as stored by the collector: hierarchy (id/parent),
/// placement (thread tag), timing (microseconds since the process trace
/// epoch), and attributes.
struct SpanEvent {
  SpanId id = 0;
  SpanId parent = 0;
  std::string name;
  uint64_t thread = 0;       // small per-thread tag, stable per thread
  int64_t start_micros = 0;  // since process trace epoch (steady clock)
  double dur_micros = 0;
  std::vector<SpanAttr> attrs;
};

/// The span id currently active on this thread (0 when none). New spans
/// adopt it as their parent; ThreadPool::ParallelFor forwards it to worker
/// threads so fanned-out work nests under the caller's span.
SpanId CurrentSpan();

/// Small monotone tag identifying the calling thread (assigned on first
/// use). Used as the Chrome-trace "tid".
uint64_t ThisThreadTag();

/// Microseconds elapsed since the process trace epoch (the steady-clock
/// instant of the first obs use). The timestamp base shared by span
/// events and QueryRecord::start_micros.
int64_t TraceNowMicros();

/// Converts an already-captured steady-clock instant to the trace
/// timestamp base without reading the clock again — lets a caller that
/// holds a util::WallTimer share its start point with a QueryRecordScope
/// instead of paying a second clock read.
int64_t TraceMicrosAt(std::chrono::steady_clock::time_point tp);

/// Process-global span collector. Disabled by default: a disabled tracer
/// costs exactly one relaxed atomic load per Span construction and
/// nothing else — no allocation, no clock read, no locking — so
/// instrumentation can stay in hot paths permanently.
///
/// Setting RE2XOLAP_TRACE=<path> in the environment enables the tracer at
/// process start and writes the Chrome trace to <path> at normal process
/// exit — any binary (benches, examples, the snapshot CLI) produces a
/// loadable trace without per-binary boilerplate.
///
/// When enabled, finished spans are recorded into one of kShards
/// mutex-protected vectors selected by thread tag, so concurrent workers
/// rarely contend on the same lock (the "lock-sharded collector").
class Tracer {
 public:
  static Tracer& Global();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Discards every collected span (enabled state is unchanged).
  void Clear();

  /// Number of spans collected so far.
  size_t span_count() const;

  /// Copies out all collected spans, ordered by (start time, id).
  std::vector<SpanEvent> Snapshot() const;

  /// Writes the collected spans as Chrome `trace_event` JSON — the format
  /// loaded by chrome://tracing and https://ui.perfetto.dev. Spans become
  /// complete ("ph":"X") events; a child recorded on a different thread
  /// than its parent additionally gets a flow arrow ("ph":"s"/"f") from
  /// the parent's track, so ParallelFor fans stay visually attached.
  void WriteChromeTrace(std::ostream& os) const;

  /// Convenience: WriteChromeTrace into a string.
  std::string ChromeTraceJson() const;

 private:
  friend class Span;

  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::vector<SpanEvent> events;
  };

  Tracer() = default;
  SpanId NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(SpanEvent&& ev);

  std::array<Shard, kShards> shards_;
  std::atomic<bool> enabled_{false};
  std::atomic<SpanId> next_id_{1};
};

/// An RAII span: starts timing at construction, records itself into the
/// global Tracer at destruction (or explicit End()). While alive it is the
/// thread's current span, so nested Spans form a hierarchy automatically.
/// Spans on one thread must end in LIFO order (natural with scoping).
///
/// With the tracer disabled, construction is a single relaxed atomic load
/// and every other member is a no-op.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }

  /// Attaches an attribute (no-ops when inactive).
  void SetAttr(std::string_view key, std::string_view value);
  void SetAttr(std::string_view key, const char* value);
  void SetAttr(std::string_view key, double value);
  void SetAttr(std::string_view key, uint64_t value);

  /// Ends the span early (idempotent).
  void End();

 private:
  bool active_ = false;
  std::chrono::steady_clock::time_point start_;
  SpanEvent ev_;
};

/// Sets the calling thread's current-span context for the lifetime of the
/// object, restoring the previous context on destruction. ThreadPool uses
/// this to run worker tasks under the ParallelFor caller's active span.
class ScopedSpanContext {
 public:
  explicit ScopedSpanContext(SpanId parent);
  ~ScopedSpanContext();

  ScopedSpanContext(const ScopedSpanContext&) = delete;
  ScopedSpanContext& operator=(const ScopedSpanContext&) = delete;

 private:
  SpanId saved_;
};

/// Appends `s` to `out` as the body of a JSON string (no quotes): quote,
/// backslash and control bytes escaped, every other byte copied in runs.
/// The one JSON string escaper; every JSON writer calls it.
void AppendJsonEscaped(std::string_view s, std::string* out);

/// Escapes `s` for embedding inside a JSON string literal.
std::string JsonEscape(std::string_view s);

}  // namespace re2xolap::obs

#endif  // RE2XOLAP_OBS_TRACE_H_
