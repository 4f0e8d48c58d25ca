// QueryEngine layer: plan/result caching, freeze-epoch invalidation, LRU
// eviction under a byte budget, and the concurrency contract (exercised
// under TSan by the stress tests; see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/reolap.h"
#include "core/virtual_schema_graph.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "rdf/text_index.h"
#include "sparql/executor.h"
#include "sparql/json.h"
#include "sparql/parser.h"
#include "tests/test_data.h"
#include "util/exec_guard.h"
#include "util/failpoint.h"

namespace re2xolap::engine {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::kObsClass;

constexpr char kObsQuery[] =
    "SELECT ?obs WHERE { ?obs a <http://test/Observation> }";

std::string ThresholdQuery(int threshold) {
  return "SELECT ?obs WHERE { ?obs <http://test/numApplicants> ?v . "
         "FILTER (?v >= " +
         std::to_string(threshold) + ") }";
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override { store = BuildFigure1Store(); }

  std::unique_ptr<rdf::TripleStore> store;
};

TEST_F(EngineTest, ResultCacheHitReturnsSameTable) {
  QueryEngine engine(*store);
  auto first = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ((*first)->row_count(), 5u);

  auto second = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(second.ok());
  // A hit hands out the same immutable table, not a copy.
  EXPECT_EQ(first->get(), second->get());

  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.result_misses, 1u);
  EXPECT_EQ(stats.result_entries, 1u);
  EXPECT_GT(stats.result_bytes, 0u);
}

TEST_F(EngineTest, ResultCacheHitZeroesExecStats) {
  QueryEngine engine(*store);
  sparql::ExecStats miss_stats;
  ASSERT_TRUE(engine.ExecuteText(kObsQuery, {}, &miss_stats).ok());
  EXPECT_GT(miss_stats.triples_scanned, 0u);

  sparql::ExecStats hit_stats;
  ASSERT_TRUE(engine.ExecuteText(kObsQuery, {}, &hit_stats).ok());
  // A hit scans nothing and plans nothing.
  EXPECT_EQ(hit_stats.triples_scanned, 0u);
  EXPECT_EQ(hit_stats.intermediate_bindings, 0u);
  EXPECT_DOUBLE_EQ(hit_stats.plan_millis, 0.0);
}

TEST_F(EngineTest, PlanCacheHitSkipsPlanning) {
  // Disable the result cache so the second Execute reaches planning.
  EngineConfig config;
  config.result_cache_bytes = 0;
  QueryEngine engine(*store, config);

  auto parsed = sparql::ParseQuery(kObsQuery);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(engine.Execute(*parsed).ok());
  ASSERT_TRUE(engine.Execute(*parsed).ok());

  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.plan_hits, 1u);
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_entries, 1u);
  EXPECT_EQ(stats.result_hits, 0u);  // result cache disabled
}

TEST_F(EngineTest, ProfiledRunsBypassResultCache) {
  QueryEngine engine(*store);
  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());

  sparql::ExecOptions profiled;
  profiled.profile = true;
  sparql::ExecStats stats;
  ASSERT_TRUE(engine.ExecuteText(kObsQuery, profiled, &stats).ok());
  // EXPLAIN ANALYZE observed a real execution despite the warm cache.
  EXPECT_GT(stats.triples_scanned, 0u);
  EXPECT_EQ(engine.cache_stats().result_hits, 0u);
}

TEST_F(EngineTest, RefreezeInvalidatesCachesAndServesNewData) {
  QueryEngine engine(*store);
  const uint64_t epoch0 = store->freeze_epoch();
  auto first = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ((*first)->row_count(), 5u);
  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  ASSERT_EQ(engine.cache_stats().result_hits, 1u);

  // New observation becomes visible only through a re-Freeze().
  using rdf::Term;
  Term obs = Term::Iri("http://test/obs/99");
  store->Add(obs, Term::Iri(re2xolap::testing::kTypeIri),
             Term::Iri(kObsClass));
  store->Freeze();
  EXPECT_GT(store->freeze_epoch(), epoch0);

  auto after = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->row_count(), 6u);

  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.result_hits, 1u);    // no stale hit after the epoch bump
  EXPECT_EQ(stats.result_entries, 1u);  // old entries were dropped
  EXPECT_EQ(stats.plan_entries, 1u);
}

TEST_F(EngineTest, ExplicitInvalidateDropsEverything) {
  QueryEngine engine(*store);
  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  ASSERT_GT(engine.cache_stats().result_entries, 0u);

  engine.InvalidateCaches();
  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.result_entries, 0u);
  EXPECT_EQ(stats.result_bytes, 0u);
  EXPECT_EQ(stats.plan_entries, 0u);
}

TEST_F(EngineTest, LruEvictsUnderTinyByteBudget) {
  // Size the budget off a real table so the test tracks the cost model:
  // room for about two entries in a single shard.
  auto probe = sparql::ExecuteText(*store, ThresholdQuery(0));
  ASSERT_TRUE(probe.ok());
  const size_t cost = EstimateTableCost(*probe);
  ASSERT_GT(cost, 0u);

  EngineConfig config;
  config.result_cache_shards = 1;
  config.result_cache_bytes = 5 * cost / 2;
  QueryEngine engine(*store, config);

  for (int t = 0; t < 6; ++t) {
    ASSERT_TRUE(engine.ExecuteText(ThresholdQuery(t)).ok());
  }
  EngineCacheStats stats = engine.cache_stats();
  EXPECT_GT(stats.result_evictions, 0u);
  EXPECT_LE(stats.result_bytes, config.result_cache_bytes);
  EXPECT_LT(stats.result_entries, 6u);

  // The most recent query must still be resident.
  ASSERT_TRUE(engine.ExecuteText(ThresholdQuery(5)).ok());
  EXPECT_EQ(engine.cache_stats().result_hits, 1u);
}

TEST_F(EngineTest, OversizedEntriesAreNotAdmitted) {
  auto probe = sparql::ExecuteText(*store, kObsQuery);
  ASSERT_TRUE(probe.ok());

  EngineConfig config;
  config.result_cache_shards = 1;
  config.result_cache_bytes = EstimateTableCost(*probe) / 2;
  QueryEngine engine(*store, config);

  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  ASSERT_TRUE(engine.ExecuteText(kObsQuery).ok());
  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.result_entries, 0u);
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.result_misses, 2u);
}

/// The table's full JSON encoding (the memo a render attaches).
std::string FullJson(const sparql::ResultTable& table) {
  std::string out;
  sparql::AppendTableJson(table, /*limit=*/0, &out);
  return out;
}

TEST_F(EngineTest, RenderChargesTheMemoToItsEntryOnce) {
  QueryEngine engine(*store);
  auto handle = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(handle.ok());
  const size_t before = engine.cache_stats().result_bytes;
  EXPECT_EQ(before, EstimateTableCost(**handle));
  ASSERT_EQ((*handle)->json_memo(), nullptr);

  const std::string json = FullJson(**handle);
  ASSERT_NE((*handle)->json_memo(), nullptr);
  EXPECT_EQ(*(*handle)->json_memo(), json);
  EXPECT_EQ(engine.cache_stats().result_bytes, before + json.size());

  // Later renders, hits included, reuse the memo and charge nothing more;
  // a capped render neither reads nor charges it.
  auto hit = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->get(), handle->get());
  EXPECT_EQ(FullJson(**hit), json);
  std::string capped;
  sparql::AppendTableJson(**hit, /*limit=*/2, &capped);
  EXPECT_NE(capped, json);
  EXPECT_EQ(engine.cache_stats().result_bytes, before + json.size());

  // A table the cache no longer holds attaches its memo uncharged.
  engine.InvalidateCaches();
  auto fresh = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(fresh.ok());
  ASSERT_NE(fresh->get(), handle->get());
  auto uncached = sparql::ExecuteText(*store, kObsQuery);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(FullJson(*uncached), json);
  EXPECT_EQ(engine.cache_stats().result_bytes, EstimateTableCost(**fresh));
}

TEST_F(EngineTest, ConcurrentRendersAttachOneMemoChargedOnce) {
  QueryEngine engine(*store);
  auto handle = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(handle.ok());
  const size_t cost = engine.cache_stats().result_bytes;
  constexpr int kThreads = 4;
  std::vector<std::string> bodies(kThreads);
  std::vector<std::thread> renderers;
  for (int w = 0; w < kThreads; ++w) {
    renderers.emplace_back([&, w] { bodies[w] = FullJson(**handle); });
  }
  for (auto& t : renderers) t.join();
  for (int w = 1; w < kThreads; ++w) EXPECT_EQ(bodies[w], bodies[0]);
  EXPECT_EQ(engine.cache_stats().result_bytes, cost + bodies[0].size());
}

TEST_F(EngineTest, MemoChargeEvictsDownToTheShardBudget) {
  // Room for two tables in one shard, but not for a memo on top.
  auto a = sparql::ExecuteText(*store, ThresholdQuery(0));
  auto b = sparql::ExecuteText(*store, ThresholdQuery(1));
  ASSERT_TRUE(a.ok() && b.ok());
  const size_t cost_a = EstimateTableCost(*a);
  const size_t cost_b = EstimateTableCost(*b);
  const size_t memo_a = FullJson(*a).size();

  EngineConfig config;
  config.result_cache_shards = 1;
  config.result_cache_bytes = cost_a + cost_b + memo_a / 2;
  QueryEngine engine(*store, config);
  auto handle_a = engine.ExecuteText(ThresholdQuery(0));
  ASSERT_TRUE(engine.ExecuteText(ThresholdQuery(1)).ok());
  // Touch A so that B is the least recently used entry.
  ASSERT_TRUE(engine.ExecuteText(ThresholdQuery(0)).ok());
  ASSERT_EQ(engine.cache_stats().result_entries, 2u);
  ASSERT_EQ(engine.cache_stats().result_evictions, 0u);

  FullJson(**handle_a);
  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.result_evictions, 1u);
  EXPECT_EQ(stats.result_entries, 1u);
  EXPECT_EQ(stats.result_bytes, cost_a + memo_a);
  EXPECT_LE(stats.result_bytes, config.result_cache_bytes);
  ASSERT_TRUE(engine.ExecuteText(ThresholdQuery(0)).ok());
  EXPECT_EQ(engine.cache_stats().result_hits, 2u);  // A is still resident
}

TEST_F(EngineTest, MemoOutgrowingTheShardDropsItsEntry) {
  auto probe = sparql::ExecuteText(*store, kObsQuery);
  ASSERT_TRUE(probe.ok());
  EngineConfig config;
  config.result_cache_shards = 1;
  config.result_cache_bytes = EstimateTableCost(*probe) + 1;
  QueryEngine engine(*store, config);
  auto handle = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(handle.ok());
  ASSERT_EQ(engine.cache_stats().result_entries, 1u);

  const std::string json = FullJson(**handle);
  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.result_entries, 0u);
  EXPECT_EQ(stats.result_bytes, 0u);
  EXPECT_EQ(stats.result_evictions, 1u);
  // The caller's handle and its memo are unaffected.
  EXPECT_EQ(FullJson(**handle), json);
}

TEST_F(EngineTest, ErrorsAreNeverCached) {
  QueryEngine engine(*store);
  // ORDER BY over an unprojected column fails at execution time, after
  // the cache key was formed — the failure must not be memoized.
  const std::string bad =
      "SELECT ?obs WHERE { ?obs a <http://test/Observation> } "
      "ORDER BY ?nonexistent";
  auto r = engine.ExecuteText(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(engine.cache_stats().result_entries, 0u);

  // A later healthy run must execute for real and succeed.
  auto ok = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)->row_count(), 5u);
}

// --- ValidateCombo through the engine -------------------------------------

class EngineReolapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store = BuildFigure1Store();
    auto r = core::VirtualSchemaGraph::Build(*store, kObsClass);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    vsg = std::make_unique<core::VirtualSchemaGraph>(std::move(r).value());
    text = std::make_unique<rdf::TextIndex>(*store);
  }

  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<core::VirtualSchemaGraph> vsg;
  std::unique_ptr<rdf::TextIndex> text;
};

TEST_F(EngineReolapTest, SecondValidationOfIdenticalComboIsCacheHit) {
  QueryEngine engine(*store);
  core::Reolap reolap(store.get(), vsg.get(), text.get(), &engine);

  obs::Counter& global_hits =
      obs::MetricsRegistry::Global().GetCounter("engine.result_cache.hits");
  const uint64_t global_before = global_hits.value();

  auto first = reolap.Synthesize({"Germany", "2014"});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->empty());
  const uint64_t hits_after_first = engine.cache_stats().result_hits;
  const uint64_t misses_after_first = engine.cache_stats().result_misses;

  // The same input re-validates the identical interpretation combos: every
  // probe is a repeat, so the second synthesis is served from the cache.
  auto second = reolap.Synthesize({"Germany", "2014"});
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());

  EngineCacheStats stats = engine.cache_stats();
  EXPECT_GT(stats.result_hits, hits_after_first);
  EXPECT_EQ(stats.result_misses, misses_after_first);  // no new misses
  // The global metrics registry observed the same hits.
  EXPECT_GE(global_hits.value() - global_before,
            stats.result_hits - hits_after_first);
}

TEST_F(EngineReolapTest, EngineAndDirectPathsProduceIdenticalCandidates) {
  QueryEngine engine(*store);
  core::Reolap cached(store.get(), vsg.get(), text.get(), &engine);
  core::Reolap direct(store.get(), vsg.get(), text.get());

  auto a = cached.Synthesize({"Germany", "2014"});
  auto b = direct.Synthesize({"Germany", "2014"});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].description, (*b)[i].description);
    EXPECT_EQ(sparql::ToSparql((*a)[i].query),
              sparql::ToSparql((*b)[i].query));
  }
}

// --- Concurrency (meaningful under TSan) ----------------------------------

TEST_F(EngineTest, ConcurrentHitMissEvictStress) {
  // A budget around two entries keeps all three code paths hot: hits,
  // misses, and evictions race across four threads on one shard.
  auto probe = sparql::ExecuteText(*store, ThresholdQuery(0));
  ASSERT_TRUE(probe.ok());
  EngineConfig config;
  config.result_cache_shards = 1;
  config.result_cache_bytes = 5 * EstimateTableCost(*probe) / 2;
  QueryEngine engine(*store, config);

  // Every result is also rendered, so memo publication and its charge
  // race with the hits, misses and evictions.
  std::vector<std::string> expected_json;
  for (int t = 0; t < 6; ++t) {
    auto direct = sparql::ExecuteText(*store, ThresholdQuery(t));
    ASSERT_TRUE(direct.ok());
    expected_json.push_back(FullJson(*direct));
  }

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 40;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kItersPerThread; ++i) {
        // Each thread cycles a window of queries overlapping its
        // neighbours', forcing shared entries plus steady eviction churn.
        const int t = (w + i) % 6;
        auto r = engine.ExecuteText(ThresholdQuery(t));
        if (!r.ok() || (*r)->row_count() > 5u ||
            FullJson(**r) != expected_json[t]) {
          ++failures[w];
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(failures[w], 0) << w;

  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.result_hits + stats.result_misses,
            static_cast<uint64_t>(kThreads * kItersPerThread));
  EXPECT_LE(stats.result_bytes, config.result_cache_bytes);
}

TEST_F(EngineReolapTest, ConcurrentValidationThreadsShareOneEngine) {
  QueryEngine engine(*store);
  core::Reolap reolap(store.get(), vsg.get(), text.get(), &engine);

  // Warm the cache serially, then fan the identical synthesis out over the
  // parallel validation path (ParallelFor probes) and over plain threads —
  // every probe races hit/miss/insert on the shared shards.
  auto serial = reolap.Synthesize({"Germany", "2014"});
  ASSERT_TRUE(serial.ok());

  core::ReolapOptions parallel_opts;
  parallel_opts.num_threads = 4;

  constexpr int kThreads = 3;
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < 5; ++i) {
        auto r = reolap.Synthesize({"Germany", "2014"}, parallel_opts);
        if (!r.ok() || r->size() != serial->size()) ++failures[w];
      }
    });
  }
  for (auto& t : workers) t.join();
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(failures[w], 0) << w;
  EXPECT_GT(engine.cache_stats().result_hits, 0u);
}

// --- execution guardrails & fault injection ---------------------------------------

/// Replaces whatever the environment armed (e.g. the chaos CI job's
/// RE2XOLAP_FAILPOINTS) with a per-test configuration, so these tests are
/// deterministic under fault injection too.
class EngineFailpointTest : public EngineTest {
 protected:
  void SetUp() override {
    EngineTest::SetUp();
    util::FailpointRegistry::Global().DisarmAll();
  }
  void TearDown() override { util::FailpointRegistry::Global().DisarmAll(); }
};

// The engine does not retry: an injected kUnavailable reaches the caller
// typed, once per Execute, and a cache miss is still counted once.
TEST_F(EngineFailpointTest, InjectedUnavailableSurfacesAsTypedError) {
  ASSERT_TRUE(
      util::FailpointRegistry::Global().Configure("engine.execute=error").ok());
  QueryEngine engine(*store);
  auto r = engine.ExecuteText(kObsQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  EXPECT_EQ(util::FailpointRegistry::Global().hits("engine.execute"), 1u);
  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.result_misses, 1u);
  EXPECT_EQ(stats.result_hits, 0u);
}

TEST_F(EngineFailpointTest, InjectedErrorIsNeverCachedAndClearsWithTheFault) {
  ASSERT_TRUE(util::FailpointRegistry::Global()
                  .Configure("engine.execute=error*1")
                  .ok());
  QueryEngine engine(*store);
  auto r = engine.ExecuteText(kObsQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  // Failures are never cached.
  EXPECT_EQ(engine.cache_stats().result_entries, 0u);

  // Once the fault's budget is spent, the same query executes and caches
  // normally.
  auto ok = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*ok)->row_count(), 5u);
  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.result_misses, 2u);
  EXPECT_EQ(stats.result_entries, 1u);
}

TEST_F(EngineFailpointTest, CacheInsertSkipKeepsResultsUncached) {
  ASSERT_TRUE(
      util::FailpointRegistry::Global().Configure("cache.insert=skip").ok());
  QueryEngine engine(*store);
  auto first = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(second.ok());
  // Execution still works, but nothing was retained: both runs miss.
  EXPECT_EQ((*first)->row_count(), (*second)->row_count());
  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.result_misses, 2u);
  EXPECT_EQ(stats.result_entries, 0u);
}

TEST_F(EngineTest, ExpiredGuardRejectsBeforeCacheProbe) {
  QueryEngine engine(*store);
  util::ExecGuard guard = util::ExecGuard::WithDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  sparql::ExecOptions opts;
  opts.guard = &guard;
  auto r = engine.ExecuteText(kObsQuery, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  // The dead request did no work: no cache probe, nothing cached.
  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.result_misses, 0u);
  EXPECT_EQ(stats.result_entries, 0u);

  // The same query without the guard is a plain first miss.
  auto ok = engine.ExecuteText(kObsQuery);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(engine.cache_stats().result_misses, 1u);
}

}  // namespace
}  // namespace re2xolap::engine
