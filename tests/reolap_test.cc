#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "core/reolap.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "sparql/executor.h"
#include "tests/test_data.h"
#include "util/exec_guard.h"

namespace re2xolap::core {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::kObsClass;

class ReolapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store = BuildFigure1Store();
    auto r = VirtualSchemaGraph::Build(*store, kObsClass);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    vsg = std::make_unique<VirtualSchemaGraph>(std::move(r).value());
    text = std::make_unique<rdf::TextIndex>(*store);
    engine = std::make_unique<engine::QueryEngine>(*store);
    reolap = std::make_unique<Reolap>(*engine, vsg.get(), text.get());
  }

  std::vector<CandidateQuery> Synthesize(std::vector<std::string> values) {
    auto r = reolap->Synthesize(values);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : std::vector<CandidateQuery>{};
  }

  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<VirtualSchemaGraph> vsg;
  std::unique_ptr<rdf::TextIndex> text;
  std::unique_ptr<engine::QueryEngine> engine;
  std::unique_ptr<Reolap> reolap;
};

TEST_F(ReolapTest, MatchValueFindsInterpretations) {
  // "Germany" is only a destination country here: one interpretation.
  std::vector<Interpretation> germany = reolap->MatchValue("Germany");
  ASSERT_EQ(germany.size(), 1u);
  EXPECT_EQ(store->term(germany[0].member).value, "http://test/dest/germany");
  EXPECT_EQ(germany[0].path->predicates.size(), 1u);

  // "2014" is a year: reached via refPeriod/inYear.
  std::vector<Interpretation> y2014 = reolap->MatchValue("2014");
  ASSERT_EQ(y2014.size(), 1u);
  EXPECT_EQ(y2014[0].path->predicates.size(), 2u);
}

TEST_F(ReolapTest, MatchValueUnknownIsEmpty) {
  EXPECT_TRUE(reolap->MatchValue("Atlantis").empty());
}

TEST_F(ReolapTest, PaperExampleGermanny2014) {
  // Paper Section 5: input <"Germany","2014"> produces queries grouping by
  // destination country and year.
  std::vector<CandidateQuery> queries = Synthesize({"Germany", "2014"});
  ASSERT_EQ(queries.size(), 1u);
  const CandidateQuery& q = queries[0];
  EXPECT_EQ(q.query.group_by.size(), 2u);
  EXPECT_TRUE(q.query.has_aggregates());
  // 1 measure x 4 aggregation functions.
  EXPECT_EQ(q.measure_columns.size(), 4u);
  EXPECT_FALSE(q.description.empty());
}

TEST_F(ReolapTest, SynthesizedQueryExecutesAndSubsumesExample) {
  std::vector<CandidateQuery> queries = Synthesize({"Germany", "2014"});
  ASSERT_EQ(queries.size(), 1u);
  auto result = sparql::Execute(*store, queries[0].query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Groups: (DE,2014) (FR,2014) (DE,2015) = 3.
  EXPECT_EQ(result->row_count(), 3u);
  // The example tuple must appear: Germany x 2014 with SUM 403+500+80 = 983.
  int dcol = result->ColumnIndex(queries[0].group_columns[0]);
  int ycol = result->ColumnIndex(queries[0].group_columns[1]);
  int sum = result->ColumnIndex(queries[0].measure_columns[0]);
  ASSERT_GE(dcol, 0);
  ASSERT_GE(ycol, 0);
  ASSERT_GE(sum, 0);
  bool found = false;
  for (size_t r = 0; r < result->row_count(); ++r) {
    if (result->at(r, dcol).term == queries[0].interpretations[0].member &&
        result->at(r, ycol).term == queries[0].interpretations[1].member) {
      EXPECT_DOUBLE_EQ(result->NumericValue(result->at(r, sum)), 983);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ReolapTest, AmbiguousValueYieldsMultipleQueries) {
  // "Asia" matches the origin continent (single interpretation), but "2014"
  // is fixed, so: 1 query. Now use "Syria" which is only an origin.
  // For multiplicity use a value appearing at two levels: none here, so
  // check combination counting instead with two independently matched
  // values.
  std::vector<CandidateQuery> queries = Synthesize({"Asia", "Germany"});
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_EQ(queries[0].query.group_by.size(), 2u);
  auto result = sparql::Execute(*store, queries[0].query);
  ASSERT_TRUE(result.ok());
  // Groups: (Asia,DE) (Asia,FR) (Africa,DE).
  EXPECT_EQ(result->row_count(), 3u);
}

TEST_F(ReolapTest, SameDimensionValuesProduceNoQuery) {
  // Two destination countries cannot be combined in a single tuple.
  std::vector<CandidateQuery> queries = Synthesize({"Germany", "France"});
  EXPECT_TRUE(queries.empty());
}

TEST_F(ReolapTest, ValidationPrunesDisconnectedCombos) {
  // "France" (dest) has observations only from Syria (Asia): combining
  // France with Africa must be pruned by validation.
  std::vector<CandidateQuery> queries = Synthesize({"France", "Africa"});
  EXPECT_TRUE(queries.empty());
}

TEST_F(ReolapTest, UnknownValueShortCircuits) {
  std::vector<CandidateQuery> queries = Synthesize({"Germany", "Narnia"});
  EXPECT_TRUE(queries.empty());
}

TEST_F(ReolapTest, EmptyTupleIsError) {
  EXPECT_FALSE(reolap->Synthesize({}).ok());
}

TEST_F(ReolapTest, SingleValueQuery) {
  std::vector<CandidateQuery> queries = Synthesize({"18-34"});
  ASSERT_EQ(queries.size(), 1u);
  auto result = sparql::Execute(*store, queries[0].query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row_count(), 2u);  // two age groups
}

TEST_F(ReolapTest, StatsReported) {
  ReolapStats stats;
  auto r = reolap->Synthesize({"Germany", "2014"}, {}, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.interpretations_considered, 1u);
  EXPECT_EQ(stats.combinations_checked, 1u);
  EXPECT_EQ(stats.validated_ok, 1u);
  EXPECT_GE(stats.match_millis, 0.0);
}

TEST_F(ReolapTest, ValidateComboDirectly) {
  std::vector<Interpretation> germany = reolap->MatchValue("Germany");
  std::vector<Interpretation> africa = reolap->MatchValue("Africa");
  ASSERT_EQ(germany.size(), 1u);
  ASSERT_EQ(africa.size(), 1u);
  EXPECT_TRUE(reolap->ValidateCombo({germany[0], africa[0]}));
  std::vector<Interpretation> france = reolap->MatchValue("France");
  EXPECT_FALSE(reolap->ValidateCombo({france[0], africa[0]}));
}

TEST_F(ReolapTest, QueryRendersAsSparqlText) {
  std::vector<CandidateQuery> queries = Synthesize({"Germany", "2014"});
  ASSERT_EQ(queries.size(), 1u);
  std::string text = sparql::ToSparql(queries[0].query);
  EXPECT_NE(text.find("GROUP BY"), std::string::npos);
  EXPECT_NE(text.find("SUM"), std::string::npos);
  EXPECT_NE(text.find("refPeriod"), std::string::npos);
}

// --- graceful degradation under deadlines ------------------------------------------

/// Returns an ExecGuard whose deadline has already passed.
util::ExecGuard ExpiredGuard() {
  util::ExecGuard guard = util::ExecGuard::WithDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  return guard;
}

TEST_F(ReolapTest, TinyDeadlineStillProducesTheFirstBlock) {
  // Min-progress guarantee: even an already expired guard yields the
  // validated candidates of the first block instead of erroring — its
  // probes run under child guards floored at 25 ms.
  util::ExecGuard guard = ExpiredGuard();
  ReolapOptions opts;
  opts.guard = &guard;
  opts.num_threads = 1;
  ReolapStats stats;
  auto r = reolap->Synthesize({"Germany", "2014"}, opts, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 1u);
}

TEST_F(ReolapTest, ProbesShareTheCallersCancellation) {
  // A probe's child guard carries the caller's token: once the caller is
  // cancelled (a draining server), even the min-progress block's probes
  // stop, so nothing validates and no candidate comes back.
  std::vector<Interpretation> germany = reolap->MatchValue("Germany");
  std::vector<Interpretation> africa = reolap->MatchValue("Africa");
  ASSERT_EQ(germany.size(), 1u);
  ASSERT_EQ(africa.size(), 1u);
  util::CancellationToken token;
  util::ExecGuard parent(util::ExecGuard::Limits{}, &token);
  EXPECT_TRUE(reolap->ValidateCombo({germany[0], africa[0]}, &parent));
  token.Cancel();
  EXPECT_FALSE(reolap->ValidateCombo({germany[0], africa[0]}, &parent));
  ReolapOptions opts;
  opts.guard = &parent;
  opts.num_threads = 1;
  auto r = reolap->Synthesize({"Germany", "2014"}, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->empty());
}

TEST_F(ReolapTest, ExpiredGuardTruncatesCombinationEnumeration) {
  // A second interpretation of "Germany" (also an origin country below)
  // creates a two-combination space. Under an already-expired guard,
  // serial synthesis still processes the first one-combination block
  // (min-progress) and then degrades: partial candidates come back with
  // the truncated flag and a reason instead of an error.
  using rdf::Term;
  const Term origin_de = Term::Iri("http://test/origin/germany");
  store->Add(origin_de, Term::Iri(re2xolap::testing::kLabelIri),
             Term::StringLiteral("Germany"));
  store->Add(Term::Iri("http://test/obs/0"),
             Term::Iri("http://test/countryOrigin"), origin_de);
  store->Freeze();
  auto rebuilt = VirtualSchemaGraph::Build(*store, kObsClass);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  vsg = std::make_unique<VirtualSchemaGraph>(std::move(rebuilt).value());
  text = std::make_unique<rdf::TextIndex>(*store);
  reolap = std::make_unique<Reolap>(*engine, vsg.get(), text.get());
  ASSERT_EQ(reolap->MatchValue("Germany").size(), 2u);

  obs::Counter& timeouts =
      obs::MetricsRegistry::Global().GetCounter("guard.timeouts");
  const uint64_t timeouts_before = timeouts.value();

  util::ExecGuard guard = ExpiredGuard();
  ReolapOptions opts;
  opts.guard = &guard;
  opts.num_threads = 1;  // serial: one combination per validation block
  ReolapStats stats;
  auto r = reolap->Synthesize({"Germany", "2014"}, opts, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(stats.combinations_checked, 1u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_NE(stats.degraded_reason.find("remaining combinations skipped"),
            std::string::npos)
      << stats.degraded_reason;
  // The guard's timeout is reported to metrics exactly once per guard no
  // matter how many phases observed it.
  EXPECT_EQ(timeouts.value(), timeouts_before + 1);
}

TEST_F(ReolapTest, SynthesizeMultiSkipsFilteringUnderExpiredDeadline) {
  util::ExecGuard guard = ExpiredGuard();
  ReolapOptions opts;
  opts.guard = &guard;
  opts.num_threads = 1;
  ReolapStats stats;
  auto r = reolap->SynthesizeMulti({{"Germany"}, {"France"}}, opts, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The first tuple's candidates survive unfiltered, explicitly flagged.
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_NE(stats.degraded_reason.find("multi-tuple filtering"),
            std::string::npos)
      << stats.degraded_reason;
}

}  // namespace
}  // namespace re2xolap::core
