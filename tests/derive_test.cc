// Derivation of grouped queries from a cached core: the AST split
// (sparql::SplitRefinement) and the engine path that answers an
// exact-key miss from its core's cached group table. The generated-query
// differential test lives in executor_diff_test.cc.
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "engine/query_engine.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "sparql/ast.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "store/ingestor.h"
#include "tests/table_compare.h"
#include "tests/test_data.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace re2xolap {
namespace {

using engine::EngineConfig;
using engine::QueryEngine;
using sparql::RefinementSplit;
using sparql::SelectQuery;
using sparql::SplitRefinement;
using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::IdenticalTables;

SelectQuery Parse(const std::string& text) {
  auto q = sparql::ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status() << "\n" << text;
  return q.ok() ? std::move(q).value() : SelectQuery{};
}

// The parent: total applicants per destination and month.
constexpr char kParentWhere[] =
    "WHERE { ?o <http://test/countryDestination> ?d . "
    "?o <http://test/refPeriod> ?m . "
    "?o <http://test/numApplicants> ?v . ";
constexpr char kParentSelect[] = "SELECT ?d ?m (SUM(?v) AS ?total) ";

std::string Grouped(const std::string& filters, const std::string& tail) {
  return std::string(kParentSelect) + kParentWhere + filters +
         "} GROUP BY ?d ?m" + tail;
}

// --- SplitRefinement ----------------------------------------------------------

TEST(SplitRefinementTest, LiftsKeyOnlyFilters) {
  const SelectQuery q = Parse(Grouped(
      "FILTER (?d = <http://test/dest/france>) "
      "FILTER ((?d = <http://test/dest/germany> && ?m != "
      "<http://test/month/2014-10>) || ?d IN (<http://test/dest/france>)) "
      "FILTER (?v > 100) ",
      " HAVING (?total > 5) ORDER BY DESC(?total) LIMIT 2 OFFSET 1"));
  std::optional<RefinementSplit> split = SplitRefinement(q);
  ASSERT_TRUE(split.has_value());
  // The core keeps only the filter over a non-key and drops every
  // post-join operator.
  ASSERT_EQ(split->core.filters.size(), 1u);
  EXPECT_EQ(split->core.filters[0], q.filters[2]);
  EXPECT_TRUE(split->core.having.empty());
  EXPECT_TRUE(split->core.order_by.empty());
  EXPECT_FALSE(split->core.limit.has_value());
  EXPECT_EQ(split->core.offset, 0u);
  EXPECT_EQ(split->core.group_by.size(), 2u);
  EXPECT_EQ(split->core.items.size(), 3u);
  // The residual: lifted filters first, in query order, then HAVING.
  ASSERT_EQ(split->residual.having.size(), 3u);
  EXPECT_EQ(split->residual.having[0], q.filters[0]);
  EXPECT_EQ(split->residual.having[1], q.filters[1]);
  EXPECT_EQ(split->residual.having[2], q.having[0]);
  ASSERT_EQ(split->residual.order_by.size(), 1u);
  EXPECT_FALSE(split->residual.order_by[0].ascending);
  EXPECT_EQ(split->residual.limit, std::optional<uint64_t>(2));
  EXPECT_EQ(split->residual.offset, 1u);
  EXPECT_TRUE(split->residual.patterns.empty());
  EXPECT_TRUE(split->residual.filters.empty());
}

TEST(SplitRefinementTest, CoreOfARefinementIsItsParent) {
  const SelectQuery parent = Parse(Grouped("", ""));
  for (const std::string& refinement :
       {Grouped("", " HAVING (?total >= 403)"),
        Grouped("FILTER ((?d = <http://test/dest/germany>) || "
                "(?d = <http://test/dest/france>)) ",
                ""),
        Grouped("", " ORDER BY ?total"), Grouped("", " LIMIT 1")}) {
    SCOPED_TRACE(refinement);
    std::optional<RefinementSplit> split = SplitRefinement(Parse(refinement));
    ASSERT_TRUE(split.has_value());
    EXPECT_EQ(sparql::ToSparql(split->core), sparql::ToSparql(parent));
  }
  // DISTINCT alone is a residual too.
  SelectQuery distinct = parent;
  distinct.distinct = true;
  ASSERT_TRUE(SplitRefinement(distinct).has_value());
  EXPECT_FALSE(SplitRefinement(distinct)->core.distinct);
}

TEST(SplitRefinementTest, KeepsFiltersOverNonKeysUnprojectedKeysAndUnbound) {
  // A non-key (?v), a variable in no pattern (?x), and a mix of key and
  // non-key all stay in the core; only HAVING moves.
  SelectQuery q = Parse(Grouped(
      "FILTER (?v > 100) FILTER (!BOUND(?x)) "
      "FILTER (?d = <http://test/dest/france> || ?v < 50) ",
      " HAVING (?total > 5)"));
  std::optional<RefinementSplit> split = SplitRefinement(q);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->core.filters.size(), 3u);
  ASSERT_EQ(split->residual.having.size(), 1u);

  // ?m is a GROUP BY key but not projected: its filter stays.
  q = Parse(
      "SELECT ?d (SUM(?v) AS ?total) " + std::string(kParentWhere) +
      "FILTER (?m = <http://test/month/2014-10>) } GROUP BY ?d ?m "
      "HAVING (?total > 5)");
  split = SplitRefinement(q);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->core.filters.size(), 1u);
  EXPECT_EQ(split->residual.having.size(), 1u);

  // An aggregate aliased to a key's name, projected before the key,
  // shadows it in HAVING lookups.
  q = Parse(Grouped("FILTER (?d = <http://test/dest/france>) ",
                    " HAVING (?total > 5)"));
  std::swap(q.items[0], q.items[2]);
  q.items[0].alias = "d";
  split = SplitRefinement(q);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->core.filters.size(), 1u);
}

TEST(SplitRefinementTest, DoesNotSplitWhatItCannotDerive) {
  // No GROUP BY: one implicit group, which a FILTER does not keep or drop
  // whole.
  EXPECT_FALSE(SplitRefinement(
                   Parse("SELECT (SUM(?v) AS ?total) WHERE { ?o "
                         "<http://test/numApplicants> ?v } HAVING (?total > 1)"))
                   .has_value());
  // GROUP BY without an aggregate.
  EXPECT_FALSE(SplitRefinement(Parse("SELECT ?d WHERE { ?o "
                                     "<http://test/countryDestination> ?d } "
                                     "GROUP BY ?d ORDER BY ?d"))
                   .has_value());
  // OPTIONAL: a variable only OPTIONAL binds may be unbound per row.
  EXPECT_FALSE(SplitRefinement(
                   Parse("SELECT ?d (SUM(?v) AS ?total) WHERE { ?o "
                         "<http://test/countryDestination> ?d . ?o "
                         "<http://test/numApplicants> ?v . OPTIONAL { ?d "
                         "<http://test/inContinent> ?c . } FILTER (?d = "
                         "<http://test/dest/france>) } GROUP BY ?d"))
                   .has_value());
  EXPECT_FALSE(
      SplitRefinement(Parse("ASK WHERE { ?o <http://test/numApplicants> ?v }"))
          .has_value());
  SelectQuery star = Parse("SELECT * WHERE { ?o <http://test/numApplicants> ?v }"
                           " ORDER BY ?v");
  star.group_by.push_back(sparql::Variable{"o"});
  sparql::SelectItem count;
  count.is_aggregate = true;
  count.func = sparql::AggFunc::kCount;
  count.count_star = true;
  count.alias = "n";
  star.items.push_back(count);
  EXPECT_FALSE(SplitRefinement(star).has_value());
  // Empty residual: the query is its own core.
  EXPECT_FALSE(SplitRefinement(Parse(Grouped("", ""))).has_value());
  EXPECT_FALSE(
      SplitRefinement(Parse(Grouped("FILTER (?v > 100) ", ""))).has_value());
}

// --- engine -------------------------------------------------------------------

class DeriveEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Exact stats below; run clean of any environment-armed faults.
    util::FailpointRegistry::Global().DisarmAll();
    store = BuildFigure1Store();
  }
  void TearDown() override { util::FailpointRegistry::Global().DisarmAll(); }
  std::unique_ptr<rdf::TripleStore> store;
};

TEST_F(DeriveEngineTest, CachedCoreAnswersTheRefinement) {
  QueryEngine engine(*store);
  ASSERT_TRUE(engine.ExecuteText(Grouped("", "")).ok());
  const std::string refinement = Grouped(
      "FILTER (?d = <http://test/dest/germany>) ",
      " HAVING (?total > 70) ORDER BY DESC(?total)");
  sparql::ExecStats stats;
  stats.triples_scanned = 99;
  auto derived = engine.ExecuteText(refinement, {}, &stats);
  ASSERT_TRUE(derived.ok()) << derived.status();
  auto direct = sparql::ExecuteText(*store, refinement);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(IdenticalTables(*direct, **derived));
  // Germany: October 2014 (483) and November 2014 (500); January 2015
  // (60) fails the HAVING.
  EXPECT_EQ((*derived)->row_count(), 2u);
  EXPECT_EQ(stats.triples_scanned, 0u) << "a derivation scans nothing";

  engine::EngineCacheStats cs = engine.cache_stats();
  EXPECT_EQ(cs.result_misses, 2u) << "the exact lookup still misses";
  EXPECT_EQ(cs.result_derived, 1u);
  EXPECT_EQ(cs.plan_misses, 1u) << "only the parent was planned";
  // Admitted under its own key: the repeat is a plain hit.
  auto again = engine.ExecuteText(refinement);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), derived->get());
  EXPECT_EQ(engine.cache_stats().result_hits, 1u);
}

TEST_F(DeriveEngineTest, UncachedCoreExecutesAsBefore) {
  QueryEngine engine(*store);
  auto r = engine.ExecuteText(Grouped("", " HAVING (?total > 70)"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(engine.cache_stats().result_derived, 0u);
  EXPECT_EQ(engine.cache_stats().plan_misses, 1u);
  // Residual errors surface typed from a derivation too, uncached.
  ASSERT_TRUE(engine.ExecuteText(Grouped("", "")).ok());
  auto bad = engine.ExecuteText(Grouped("", " ORDER BY ?nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status();
  EXPECT_EQ(engine.cache_stats().result_derived, 1u);
  auto direct = sparql::ExecuteText(*store, Grouped("", " ORDER BY ?nope"));
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), bad.status().code());
}

// TopK, Percentile and Similarity refinements picked after their parent
// ran are derived, and equal what an engine without a result cache
// executes.
TEST(DeriveSessionTest, RefinementsAfterTheirParentMatchACachelessEngine) {
  util::FailpointRegistry::Global().DisarmAll();
  auto ds = qb::Generate(qb::EurostatSpec(4000));
  ASSERT_TRUE(ds.ok()) << ds.status();
  const rdf::TripleStore& store = *ds->store;
  auto vsg = core::VirtualSchemaGraph::Build(store, ds->spec.observation_class);
  ASSERT_TRUE(vsg.ok());
  rdf::TextIndex text(store);
  core::Session session(ds->store.get(), &*vsg, &text);
  EngineConfig cacheless;
  cacheless.result_cache_bytes = 0;
  QueryEngine bare(store, cacheless);

  ASSERT_TRUE(session.Start({"Germany"}).ok());
  ASSERT_TRUE(session.PickCandidate(0).ok());
  auto dis = session.Refine(core::RefinementKind::kDisaggregate);
  ASSERT_TRUE(dis.ok());
  size_t year = 0;
  for (size_t i = 0; i < dis->size(); ++i) {
    if ((*dis)[i].description.find("/ Year") != std::string::npos) year = i;
  }
  ASSERT_TRUE(session.PickRefinement(year).ok());
  ASSERT_TRUE(session.Execute().ok());  // the parent, now cached

  size_t refinements = 0;
  const uint64_t derived_before = session.engine().cache_stats().result_derived;
  for (core::RefinementKind kind :
       {core::RefinementKind::kTopK, core::RefinementKind::kPercentile,
        core::RefinementKind::kSimilarity}) {
    SCOPED_TRACE(core::RefinementKindName(kind));
    auto refs = session.Refine(kind);
    ASSERT_TRUE(refs.ok()) << refs.status();
    ASSERT_FALSE(refs->empty());
    for (const core::ExploreState& ref : *refs) {
      SCOPED_TRACE(sparql::ToSparql(ref.query));
      ASSERT_TRUE(SplitRefinement(ref.query).has_value());
      auto derived = session.engine().Execute(ref.query);
      auto executed = bare.Execute(ref.query);
      ASSERT_TRUE(derived.ok()) << derived.status();
      ASSERT_TRUE(executed.ok()) << executed.status();
      EXPECT_TRUE(IdenticalTables(**executed, **derived));
      ++refinements;
    }
  }
  EXPECT_EQ(session.engine().cache_stats().result_derived - derived_before,
            refinements);
}

// A core cached at epoch E is unreachable once an ingest publishes E+1:
// the refinement executes (it is not derived) and sees the new rows.
TEST(DeriveLiveTest, IngestBetweenCoreAndRefinementExecutesFresh) {
  util::FailpointRegistry::Global().DisarmAll();
  auto store = BuildFigure1Store();
  store->EnterLive();
  util::ThreadPool pool(1);
  store::IngestorConfig config;
  config.auto_compact = false;
  store::Ingestor ingestor(store.get(), &pool, config);
  QueryEngine engine(*store);

  const std::string refinement =
      Grouped("FILTER (?d = <http://test/dest/france>) ", "");
  ASSERT_TRUE(engine.ExecuteText(Grouped("", "")).ok());
  auto before = engine.ExecuteText(refinement);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(engine.cache_stats().result_derived, 1u);
  ASSERT_EQ((*before)->row_count(), 1u);  // France, October 2014: 120

  ASSERT_TRUE(ingestor
                  .IngestText("<http://test/obs/new> "
                              "<http://test/countryDestination> "
                              "<http://test/dest/france> .\n"
                              "<http://test/obs/new> <http://test/refPeriod> "
                              "<http://test/month/2015-01> .\n"
                              "<http://test/obs/new> "
                              "<http://test/numApplicants> "
                              "\"7\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
                              store::IngestOp::kInsert, nullptr)
                  .ok());
  auto after = engine.ExecuteText(refinement);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(engine.cache_stats().result_derived, 1u) << "executed, not derived";
  EXPECT_EQ((*after)->row_count(), 2u);
  auto direct = sparql::ExecuteText(*store, refinement);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(IdenticalTables(*direct, **after));
}

// Threads derive refinements while others evict their core from a cache
// that holds about one table: a derivation keeps reading the core through
// its handle after eviction (run under ThreadSanitizer in CI).
TEST_F(DeriveEngineTest, CoreEvictedWhileADerivationHoldsIt) {
  const std::string core = Grouped("", "");
  std::vector<std::string> queries = {core};
  for (int t : {0, 70, 100, 200, 450}) {
    queries.push_back(Grouped("", " HAVING (?total > " + std::to_string(t) +
                                      ") ORDER BY ?total"));
    queries.push_back(
        Grouped("FILTER (?d = <http://test/dest/germany>) ",
                " HAVING (?total >= " + std::to_string(t) + ")"));
  }
  std::vector<sparql::ResultTable> expected;
  for (const std::string& q : queries) {
    auto r = sparql::ExecuteText(*store, q);
    ASSERT_TRUE(r.ok()) << r.status();
    expected.push_back(std::move(r).value());
  }
  EngineConfig config;
  config.result_cache_shards = 1;
  config.result_cache_bytes =
      engine::EstimateTableCost(expected[0]) * 3 / 2;
  QueryEngine engine(*store, config);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const size_t q = (i % 3 == 0) ? 0 : 1 + (i * 7 + t) % (queries.size() - 1);
        auto r = engine.ExecuteText(queries[q]);
        if (!r.ok() || !IdenticalTables(expected[q], **r)) ++mismatches;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  engine::EngineCacheStats cs = engine.cache_stats();
  EXPECT_GT(cs.result_derived, 0u);
  EXPECT_GT(cs.result_evictions, 0u);
}

}  // namespace
}  // namespace re2xolap
