#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "tests/json_validator.h"
#include "util/thread_pool.h"

namespace re2xolap {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;
using obs::ProfileNode;
using obs::Span;
using obs::Tracer;

/// Restores the global tracer to disabled+empty whatever the test did.
class TracerGuard {
 public:
  TracerGuard() {
    Tracer::Global().Clear();
    Tracer::Global().SetEnabled(true);
  }
  ~TracerGuard() {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Clear();
  }
};

// --- tracing ---------------------------------------------------------------

TEST(TraceTest, DisabledSpansAreNoOps) {
  Tracer::Global().SetEnabled(false);
  Tracer::Global().Clear();
  {
    Span s("should.not.record");
    s.SetAttr("k", 1.0);
    EXPECT_FALSE(s.active());
    EXPECT_EQ(obs::CurrentSpan(), 0u);
  }
  EXPECT_EQ(Tracer::Global().span_count(), 0u);
}

TEST(TraceTest, NestedSpansFormAHierarchy) {
  TracerGuard guard;
  {
    Span outer("outer");
    {
      Span inner("inner");
      inner.SetAttr("work", uint64_t{42});
    }
  }
  auto events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Snapshot is ordered by start time: outer first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].parent, 0u);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].parent, events[0].id);
  ASSERT_EQ(events[1].attrs.size(), 1u);
  EXPECT_EQ(events[1].attrs[0].key, "work");
  EXPECT_TRUE(events[1].attrs[0].numeric);
}

TEST(TraceTest, ParallelForPropagatesTheCallerSpan) {
  TracerGuard guard;
  util::ThreadPool pool(4);
  obs::SpanId parent_id = 0;
  constexpr size_t kTasks = 16;
  {
    Span parent("parent");
    parent_id = obs::CurrentSpan();
    ASSERT_NE(parent_id, 0u);
    pool.ParallelFor(kTasks, [&](size_t) { Span child("child"); });
  }
  auto events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), kTasks + 1);
  size_t children = 0;
  for (const obs::SpanEvent& ev : events) {
    if (ev.name != "child") continue;
    ++children;
    EXPECT_EQ(ev.parent, parent_id)
        << "child span lost its ParallelFor parent";
  }
  EXPECT_EQ(children, kTasks);
}

TEST(TraceTest, ChromeTraceExportIsWellFormedJson) {
  TracerGuard guard;
  util::ThreadPool pool(4);
  {
    Span parent("capture \"quoted\"\n");  // exercises JSON escaping
    pool.ParallelFor(8, [&](size_t) { Span child("child"); });
  }
  std::string json = Tracer::Global().ChromeTraceJson();
  std::string error;
  EXPECT_TRUE(re2xolap::testing::IsValidJson(json, &error)) << error;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(TraceTest, ClearDiscardsSpans) {
  TracerGuard guard;
  { Span s("x"); }
  EXPECT_EQ(Tracer::Global().span_count(), 1u);
  Tracer::Global().Clear();
  EXPECT_EQ(Tracer::Global().span_count(), 0u);
}

// --- metrics ---------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  obs::Counter c;
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(c.value(), 5u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(MetricsTest, HistogramExactAggregates) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);

  h.Observe(3.0);
  h.Observe(1.0);
  h.Observe(8.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
}

TEST(MetricsTest, HistogramPercentilesMatchExactWithinBucketError) {
  Histogram h;
  std::vector<double> values;
  for (int i = 1; i <= 2000; ++i) {
    values.push_back(static_cast<double>(i) * 0.5);  // 0.5 .. 1000
    h.Observe(values.back());
  }
  std::sort(values.begin(), values.end());
  // Bucket width is 2^(1/4); the geometric-midpoint estimate is within
  // 2^(1/8)-1 (~9%) of the true quantile. Allow 10% for rank rounding.
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    double exact = values[static_cast<size_t>(q * (values.size() - 1))];
    double est = h.Percentile(q);
    EXPECT_NEAR(est, exact, exact * 0.10)
        << "quantile " << q << " estimate " << est << " vs exact " << exact;
  }
  // Extremes stay clamped into the observed range and stay ordered.
  EXPECT_GE(h.Percentile(0.0), h.min());
  EXPECT_LE(h.Percentile(1.0), h.max());
  EXPECT_LE(h.Percentile(0.0), h.Percentile(1.0));
}

TEST(MetricsTest, HistogramBucketMath) {
  // Upper bounds grow monotonically.
  double prev = Histogram::BucketUpperBound(1);
  for (int b = 2; b < Histogram::kNumBuckets - 1; ++b) {
    double ub = Histogram::BucketUpperBound(b);
    EXPECT_GT(ub, prev);
    // Sub-bucket ratio is 2^(1/4).
    EXPECT_NEAR(ub / prev, std::exp2(0.25), 1e-9);
    prev = ub;
  }

  // A single observation lands in exactly one bucket whose bounds
  // bracket the value.
  Histogram h;
  const double v = 10.0;
  h.Observe(v);
  int hits = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    if (h.bucket_count(b) == 0) continue;
    ++hits;
    EXPECT_GE(Histogram::BucketUpperBound(b), v);
    if (b > 1) {
      EXPECT_LT(Histogram::BucketUpperBound(b - 1), v);
    }
  }
  EXPECT_EQ(hits, 1);

  // Non-positive values fall into the underflow bucket and estimate as 0.
  Histogram u;
  u.Observe(0.0);
  u.Observe(-5.0);
  EXPECT_EQ(u.count(), 2u);
  EXPECT_EQ(u.bucket_count(0), 2u);
  EXPECT_DOUBLE_EQ(u.Percentile(0.5), 0.0);
}

TEST(MetricsTest, RegistryReturnsStableRefsAndExportsJson) {
  auto& reg = MetricsRegistry::Global();
  obs::Counter& c1 = reg.GetCounter("obs_test.counter");
  obs::Counter& c2 = reg.GetCounter("obs_test.counter");
  EXPECT_EQ(&c1, &c2);
  c1.Inc(7);
  reg.GetGauge("obs_test.gauge").Set(1.5);
  reg.GetHistogram("obs_test.hist.millis").Observe(4.0);

  std::string json = reg.ToJson();
  std::string error;
  EXPECT_TRUE(re2xolap::testing::IsValidJson(json, &error)) << error;
  EXPECT_NE(json.find("\"obs_test.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsTest, PrometheusExportFormat) {
  auto& reg = MetricsRegistry::Global();
  reg.GetCounter("obs_test.prom.count").Inc(3);
  reg.GetGauge("obs_test.prom.gauge").Set(2.0);
  obs::Histogram& h = reg.GetHistogram("obs_test.prom.millis");
  h.Observe(1.0);
  h.Observe(100.0);

  std::string text = reg.ToPrometheus();
  // Names are sanitized to [a-zA-Z0-9_:].
  EXPECT_NE(text.find("# TYPE obs_test_prom_count counter"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_count 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_prom_millis histogram"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_millis_bucket{le=\""), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_millis_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_millis_sum"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_millis_count 2"), std::string::npos);
}

TEST(MetricsTest, SnapshotAndJsonIncludeP999) {
  Histogram h;
  std::vector<double> values;
  for (int i = 1; i <= 2000; ++i) {
    values.push_back(static_cast<double>(i) * 0.5);  // 0.5 .. 1000
    h.Observe(values.back());
  }
  obs::HistogramSnapshot s = obs::SnapshotOf(h);
  EXPECT_EQ(s.count, 2000u);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, s.max);
  const double exact = values[static_cast<size_t>(0.999 * (values.size() - 1))];
  EXPECT_NEAR(s.p999, exact, exact * 0.10);

  MetricsRegistry::Global().GetHistogram("obs_test.p999.millis").Observe(1.0);
  const std::string json = MetricsRegistry::Global().ToJson();
  std::string error;
  EXPECT_TRUE(re2xolap::testing::IsValidJson(json, &error)) << error;
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

/// Parses `_bucket{le="X"} N` lines of one histogram out of a Prometheus
/// exposition, in document order.
std::vector<std::pair<std::string, uint64_t>> ParseBuckets(
    const std::string& text, const std::string& prefix) {
  std::vector<std::pair<std::string, uint64_t>> out;
  const std::string marker = prefix + "_bucket{le=\"";
  size_t pos = 0;
  while ((pos = text.find(marker, pos)) != std::string::npos) {
    const size_t le_start = pos + marker.size();
    const size_t le_end = text.find('"', le_start);
    const size_t val_end = text.find('\n', le_end);
    out.emplace_back(
        text.substr(le_start, le_end - le_start),
        std::stoull(text.substr(le_end + 3, val_end - le_end - 3)));
    pos = val_end;
  }
  return out;
}

TEST(MetricsTest, PrometheusBucketsAreCumulativeAndEndAtInf) {
  auto& reg = MetricsRegistry::Global();
  Histogram& h = reg.GetHistogram("obs_test.conformance.millis");
  h.Observe(0.5);
  h.Observe(1.0);
  h.Observe(100.0);
  h.Observe(1e12);  // overflow bucket: beyond the largest finite bound

  const std::string text = reg.ToPrometheus();
  const std::string prefix = "obs_test_conformance_millis";
  auto buckets = ParseBuckets(text, prefix);
  ASSERT_GE(buckets.size(), 2u);

  // Exactly one +Inf bucket, and it comes last.
  size_t inf_lines = 0;
  for (const auto& [le, n] : buckets) inf_lines += le == "+Inf" ? 1 : 0;
  EXPECT_EQ(inf_lines, 1u);
  EXPECT_EQ(buckets.back().first, "+Inf");

  // le thresholds strictly increase; cumulative counts never decrease.
  double prev_le = -1;
  uint64_t prev_n = 0;
  for (const auto& [le, n] : buckets) {
    const double bound =
        le == "+Inf" ? std::numeric_limits<double>::infinity() : std::stod(le);
    EXPECT_GT(bound, prev_le) << "le=" << le;
    EXPECT_GE(n, prev_n) << "le=" << le;
    prev_le = bound;
    prev_n = n;
  }

  // +Inf carries every observation (the overflow one included) and agrees
  // with _count; _sum is present.
  EXPECT_EQ(buckets.back().second, 4u);
  EXPECT_NE(text.find(prefix + "_count 4"), std::string::npos);
  EXPECT_NE(text.find(prefix + "_sum "), std::string::npos);
}

TEST(MetricsTest, PrometheusExportIsConsistentUnderConcurrentObserve) {
  auto& reg = MetricsRegistry::Global();
  Histogram& h = reg.GetHistogram("obs_test.race.millis");
  const std::string prefix = "obs_test_race_millis";
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&h, &stop, t] {
      double v = 0.1 * (t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        h.Observe(v);
        v = v < 1e6 ? v * 1.5 : 0.1;
      }
    });
  }
  // Every export taken mid-stream must be self-consistent: cumulative
  // buckets monotone and +Inf equal to _count.
  for (int round = 0; round < 50; ++round) {
    const std::string text = reg.ToPrometheus();
    auto buckets = ParseBuckets(text, prefix);
    ASSERT_FALSE(buckets.empty());
    uint64_t prev_n = 0;
    for (const auto& [le, n] : buckets) {
      EXPECT_GE(n, prev_n) << "round " << round << " le=" << le;
      prev_n = n;
    }
    ASSERT_EQ(buckets.back().first, "+Inf");
    const size_t count_pos = text.find(prefix + "_count ");
    ASSERT_NE(count_pos, std::string::npos);
    const uint64_t count = std::stoull(
        text.substr(count_pos + prefix.size() + 7,
                    text.find('\n', count_pos) - count_pos));
    EXPECT_EQ(buckets.back().second, count) << "round " << round;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
}

// --- query profile ---------------------------------------------------------

TEST(QueryProfileTest, TreeAggregatesAndVisitOrder) {
  ProfileNode root("select");
  root.rows_out = 3;
  ProfileNode& join = root.AddChild("join");
  join.scanned = 10;
  join.rows_out = 5;
  ProfileNode& scan = join.AddChild("scan");
  scan.scanned = 90;
  scan.rows_out = 20;
  root.AddChild("limit").rows_out = 3;

  EXPECT_EQ(root.NodeCount(), 4u);
  EXPECT_EQ(root.TotalScanned(), 100u);
  EXPECT_EQ(root.TotalRowsOut(), 31u);

  std::vector<std::pair<int, std::string>> visited;
  obs::VisitProfile(root, [&](int depth, const ProfileNode& n) {
    visited.emplace_back(depth, n.label);
  });
  ASSERT_EQ(visited.size(), 4u);
  EXPECT_EQ(visited[0], (std::pair<int, std::string>{0, "select"}));
  EXPECT_EQ(visited[1], (std::pair<int, std::string>{1, "join"}));
  EXPECT_EQ(visited[2], (std::pair<int, std::string>{2, "scan"}));
  EXPECT_EQ(visited[3], (std::pair<int, std::string>{1, "limit"}));
}

}  // namespace
}  // namespace re2xolap
