// Google-benchmark microbenchmarks of the substrate hot paths: triple
// store pattern matching, text-index lookups, and end-to-end SPARQL
// aggregation throughput. These are the knobs behind every figure of the
// paper's evaluation.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "engine/query_engine.h"
#include "sparql/executor.h"

namespace {

using namespace re2xolap;
using namespace re2xolap::bench;

const BenchEnv& Env() {
  static const BenchEnv* env = new BenchEnv(MakeEnv("Eurostat", 60000));
  return *env;
}

void BM_StoreMatchByPredicate(benchmark::State& state) {
  const rdf::TripleStore& store = Env().store();
  rdf::TermId p = store.Lookup(
      rdf::Term::Iri("http://example.org/eurostat/countryDestination"));
  for (auto _ : state) {
    auto span = store.Match({rdf::kInvalidTermId, p, rdf::kInvalidTermId});
    benchmark::DoNotOptimize(span.size());
  }
}
BENCHMARK(BM_StoreMatchByPredicate);

void BM_StoreMatchBySubject(benchmark::State& state) {
  const rdf::TripleStore& store = Env().store();
  rdf::TermId s =
      store.Lookup(rdf::Term::Iri("http://example.org/eurostat/obs/123"));
  for (auto _ : state) {
    auto span = store.Match({s, rdf::kInvalidTermId, rdf::kInvalidTermId});
    benchmark::DoNotOptimize(span.size());
  }
}
BENCHMARK(BM_StoreMatchBySubject);

void BM_TextIndexExact(benchmark::State& state) {
  for (auto _ : state) {
    auto hits = Env().text->Match("Germany");
    benchmark::DoNotOptimize(hits.size());
  }
}
BENCHMARK(BM_TextIndexExact);

void BM_TextIndexKeyword(benchmark::State& state) {
  for (auto _ : state) {
    auto hits = Env().text->KeywordMatch("October 2014");
    benchmark::DoNotOptimize(hits.size());
  }
}
BENCHMARK(BM_TextIndexKeyword);

void BM_ExecuteGroupBySum(benchmark::State& state) {
  const std::string query = R"(
    SELECT ?dest (SUM(?v) AS ?total) WHERE {
      ?obs <http://example.org/eurostat/countryDestination> ?dest .
      ?obs <http://example.org/eurostat/numApplicants> ?v .
    } GROUP BY ?dest)";
  for (auto _ : state) {
    auto r = sparql::ExecuteText(Env().store(), query);
    benchmark::DoNotOptimize(r.ok() ? r->row_count() : 0);
  }
}
BENCHMARK(BM_ExecuteGroupBySum);

void BM_ExecuteHierarchyJoin(benchmark::State& state) {
  const std::string query = R"(
    SELECT ?cont (SUM(?v) AS ?total) WHERE {
      ?obs <http://example.org/eurostat/countryOrigin> ?c .
      ?c <http://example.org/eurostat/inContinent> ?cont .
      ?obs <http://example.org/eurostat/numApplicants> ?v .
    } GROUP BY ?cont)";
  for (auto _ : state) {
    auto r = sparql::ExecuteText(Env().store(), query);
    benchmark::DoNotOptimize(r.ok() ? r->row_count() : 0);
  }
}
BENCHMARK(BM_ExecuteHierarchyJoin);

// Steady-state engine lookups: every iteration after the first is a
// result-cache hit — the repeated-probe path ReOLAP validation and
// frontier re-evaluation ride on.
void BM_EngineCachedGroupBySum(benchmark::State& state) {
  const std::string query = R"(
    SELECT ?dest (SUM(?v) AS ?total) WHERE {
      ?obs <http://example.org/eurostat/countryDestination> ?dest .
      ?obs <http://example.org/eurostat/numApplicants> ?v .
    } GROUP BY ?dest)";
  engine::QueryEngine engine(Env().store());
  for (auto _ : state) {
    auto r = engine.ExecuteText(query);
    benchmark::DoNotOptimize(r.ok() ? (*r)->row_count() : 0);
  }
}
BENCHMARK(BM_EngineCachedGroupBySum);

// Result cache disabled: isolates the plan cache (parse + execute every
// iteration, planning amortized away after the first).
void BM_EnginePlanCacheOnlyGroupBySum(benchmark::State& state) {
  const std::string query = R"(
    SELECT ?dest (SUM(?v) AS ?total) WHERE {
      ?obs <http://example.org/eurostat/countryDestination> ?dest .
      ?obs <http://example.org/eurostat/numApplicants> ?v .
    } GROUP BY ?dest)";
  engine::EngineConfig config;
  config.result_cache_bytes = 0;
  engine::QueryEngine engine(Env().store(), config);
  for (auto _ : state) {
    auto r = engine.ExecuteText(query);
    benchmark::DoNotOptimize(r.ok() ? (*r)->row_count() : 0);
  }
}
BENCHMARK(BM_EnginePlanCacheOnlyGroupBySum);

void BM_EngineCachedHierarchyJoin(benchmark::State& state) {
  const std::string query = R"(
    SELECT ?cont (SUM(?v) AS ?total) WHERE {
      ?obs <http://example.org/eurostat/countryOrigin> ?c .
      ?c <http://example.org/eurostat/inContinent> ?cont .
      ?obs <http://example.org/eurostat/numApplicants> ?v .
    } GROUP BY ?cont)";
  engine::QueryEngine engine(Env().store());
  for (auto _ : state) {
    auto r = engine.ExecuteText(query);
    benchmark::DoNotOptimize(r.ok() ? (*r)->row_count() : 0);
  }
}
BENCHMARK(BM_EngineCachedHierarchyJoin);

void BM_ReolapSynthesizeSize1(benchmark::State& state) {
  engine::QueryEngine engine(Env().store(), NoCacheConfig());
  core::Reolap reolap(engine, Env().vsg.get(), Env().text.get());
  for (auto _ : state) {
    auto r = reolap.Synthesize({"Germany"});
    benchmark::DoNotOptimize(r.ok() ? r->size() : 0);
  }
}
BENCHMARK(BM_ReolapSynthesizeSize1);

void BM_ReolapSynthesizeSize2(benchmark::State& state) {
  engine::QueryEngine engine(Env().store(), NoCacheConfig());
  core::Reolap reolap(engine, Env().vsg.get(), Env().text.get());
  for (auto _ : state) {
    auto r = reolap.Synthesize({"Germany", "2014"});
    benchmark::DoNotOptimize(r.ok() ? r->size() : 0);
  }
}
BENCHMARK(BM_ReolapSynthesizeSize2);

}  // namespace

BENCHMARK_MAIN();
