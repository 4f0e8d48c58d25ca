// Ablation for the paper's Section 5.2 claim: the in-memory Virtual Schema
// Graph removes per-synthesis trips to the triplestore. We compare ReOLAP
// with the bootstrap-time virtual graph against a variant that re-derives
// the schema from the store on every synthesis call (what a system without
// the optimization effectively pays in schema discovery queries).

#include <iostream>

#include "bench/bench_common.h"

int main() {
  using namespace re2xolap;
  using namespace re2xolap::bench;

  constexpr int kQueries = 8;
  std::cout << "=== Ablation: Virtual Schema Graph vs per-query schema "
               "crawling ===\n\n";
  util::TablePrinter t({"Dataset", "With VGraph (ms/synthesis)",
                        "Re-crawl per query (ms/synthesis)", "Speedup"});

  for (const std::string& name : AllDatasets()) {
    BenchEnv env = MakeEnv(name, DefaultObservations(name) / 2);
    util::Rng rng(5);
    std::vector<std::vector<std::string>> tuples;
    for (int i = 0; i < kQueries; ++i) {
      auto tuple = SampleExampleTuple(env, 1 + (i % 2), rng);
      if (!tuple.empty()) tuples.push_back(std::move(tuple));
    }

    // With the bootstrap-time virtual graph.
    engine::QueryEngine engine(env.store(), NoCacheConfig());
    core::Reolap reolap(engine, env.vsg.get(), env.text.get());
    util::WallTimer timer;
    for (const auto& tuple : tuples) reolap.Synthesize(tuple).ok();
    double with_vgraph = timer.ElapsedMillis() / tuples.size();

    // Naive: rebuild the schema knowledge from the store per synthesis.
    timer.Restart();
    for (const auto& tuple : tuples) {
      auto vsg = core::VirtualSchemaGraph::Build(
          env.store(), env.dataset.spec.observation_class);
      if (!vsg.ok()) continue;
      core::Reolap naive(engine, &*vsg, env.text.get());
      naive.Synthesize(tuple).ok();
    }
    double without = timer.ElapsedMillis() / tuples.size();

    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  with_vgraph > 0 ? without / with_vgraph : 0.0);
    t.AddRow({name, Ms(with_vgraph), Ms(without), speedup});
  }
  t.Print(std::cout);
  std::cout << "\nShape check: amortizing schema discovery at bootstrap "
               "keeps interactive synthesis orders of magnitude cheaper.\n";
  return 0;
}
