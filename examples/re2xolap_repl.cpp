// Interactive RE2xOLAP shell — the closest analog of the paper's server
// application. Drives a full exploration session from the command line.
//
// Usage:  ./build/examples/re2xolap_repl [eurostat|production|dbpedia] [obs]
// Commands (also: `help`):
//   profile                 print the dataset profile
//   find <v1> [| <v2> ...]  reverse-engineer queries from example values
//   pick <n>                choose a candidate query / refinement
//   show [n]                execute the current query, print first n rows
//   sparql                  print the current query as SPARQL text
//   explain                 run the current query with per-operator profiling
//   refine dis|topk|perc|sim|cluster   propose refinements
//   neg <value>             exclude a negative example
//   back                    undo the last refinement
//   stats                   session statistics (exploration paths, tuples)
//   quit
//
// Works scripted too:  echo "find Germany | 2014\npick 0\nshow" | repl

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include <fstream>

#include "core/profile.h"
#include "core/session.h"
#include "sparql/csv.h"
#include "sparql/explain.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/text_index.h"
#include "util/string_utils.h"

namespace {

using namespace re2xolap;

std::vector<std::string> ParseValues(const std::string& rest) {
  std::vector<std::string> values;
  for (const std::string& piece : util::Split(rest, '|')) {
    std::string v(util::Trim(piece));
    if (!v.empty()) values.push_back(std::move(v));
  }
  return values;
}

void PrintHelp() {
  std::cout <<
      "  profile | find <v1> [| <v2>] | pick <n> | show [n] | sparql |\n"
      "  explain | refine dis|topk|perc|sim|cluster | neg <value> |\n"
      "  export <file> | back | stats | quit\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string which = argc > 1 ? argv[1] : "eurostat";
  uint64_t n_obs = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 30000;

  qb::DatasetSpec spec = which == "production" ? qb::ProductionSpec(n_obs)
                         : which == "dbpedia"  ? qb::DbpediaSpec(n_obs)
                                               : qb::EurostatSpec(n_obs);
  std::cout << "Loading synthetic " << spec.name << " KG (" << n_obs
            << " observations)...\n";
  auto ds = qb::Generate(std::move(spec));
  if (!ds.ok()) {
    std::cerr << ds.status() << "\n";
    return 1;
  }
  auto vsg = core::VirtualSchemaGraph::Build(*ds->store,
                                             ds->spec.observation_class);
  if (!vsg.ok()) {
    std::cerr << vsg.status() << "\n";
    return 1;
  }
  rdf::TextIndex text(*ds->store);
  core::Session session(ds->store.get(), &*vsg, &text);
  std::cout << "Ready: " << ds->store->size() << " triples, "
            << vsg->dimension_count() << " dimensions, "
            << vsg->total_members() << " members. Type 'help'.\n";

  std::string line;
  while (std::cout << "re2xolap> " << std::flush,
         std::getline(std::cin, line)) {
    std::istringstream is(line);
    std::string cmd;
    is >> cmd;
    std::string rest;
    std::getline(is, rest);
    rest = std::string(util::Trim(rest));

    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
      continue;
    }
    if (cmd == "profile") {
      auto profile = core::ProfileDataset(*vsg, session.engine());
      if (!profile.ok()) {
        std::cout << "error: " << profile.status() << "\n";
      } else {
        profile->Print(std::cout);
      }
      continue;
    }
    if (cmd == "find") {
      std::vector<std::string> values = ParseValues(rest);
      if (values.empty()) {
        std::cout << "usage: find <value> [| <value> ...]\n";
        continue;
      }
      core::ReolapOptions opts;
      opts.rank_candidates = true;
      auto candidates = session.Start(values, opts);
      if (!candidates.ok()) {
        std::cout << "error: " << candidates.status() << "\n";
        continue;
      }
      if (candidates->empty()) {
        std::cout << "no analytical query covers this example\n";
        continue;
      }
      for (size_t i = 0; i < candidates->size(); ++i) {
        std::cout << "  [" << i << "] " << (*candidates)[i].description
                  << "\n";
      }
      std::cout << "pick one with: pick <n>\n";
      continue;
    }
    if (cmd == "pick") {
      size_t idx = std::strtoull(rest.c_str(), nullptr, 10);
      util::Status st = session.has_state() ? session.PickRefinement(idx)
                                            : session.PickCandidate(idx);
      // Ambiguity: right after `find`, pick selects a candidate; after
      // `refine`, it selects a refinement. Try the other on failure.
      if (!st.ok()) st = session.PickCandidate(idx);
      if (!st.ok()) {
        std::cout << "error: " << st << "\n";
      } else {
        std::cout << "current: " << session.current().description << "\n";
      }
      continue;
    }
    if (cmd == "show") {
      size_t n = rest.empty() ? 10 : std::strtoull(rest.c_str(), nullptr, 10);
      auto table = session.Execute();
      if (!table.ok()) {
        std::cout << "error: " << table.status() << "\n";
        continue;
      }
      (*table)->Print(std::cout, n);
      continue;
    }
    if (cmd == "sparql") {
      if (!session.has_state()) {
        std::cout << "no current query\n";
        continue;
      }
      std::cout << sparql::ToSparql(session.current().query) << "\n";
      continue;
    }
    if (cmd == "explain") {
      if (!session.has_state()) {
        std::cout << "no current query\n";
        continue;
      }
      auto r = sparql::ExplainAnalyze(*ds->store, session.current().query);
      if (!r.ok()) {
        std::cout << "error: " << r.status() << "\n";
        continue;
      }
      std::cout << r->report;
      continue;
    }
    if (cmd == "refine") {
      core::RefinementKind kind;
      if (rest == "dis") kind = core::RefinementKind::kDisaggregate;
      else if (rest == "topk") kind = core::RefinementKind::kTopK;
      else if (rest == "perc") kind = core::RefinementKind::kPercentile;
      else if (rest == "sim") kind = core::RefinementKind::kSimilarity;
      else if (rest == "cluster") kind = core::RefinementKind::kCluster;
      else {
        std::cout << "usage: refine dis|topk|perc|sim|cluster\n";
        continue;
      }
      auto refs = session.Refine(kind);
      if (!refs.ok()) {
        std::cout << "error: " << refs.status() << "\n";
        continue;
      }
      if (refs->empty()) {
        std::cout << "no refinements available here\n";
        continue;
      }
      for (size_t i = 0; i < refs->size(); ++i) {
        std::cout << "  [" << i << "] " << (*refs)[i].description << "\n";
      }
      std::cout << "pick one with: pick <n>\n";
      continue;
    }
    if (cmd == "neg") {
      std::vector<std::string> values = ParseValues(rest);
      if (values.empty()) {
        std::cout << "usage: neg <value> [| <value> ...]\n";
        continue;
      }
      auto unmatched = session.ExcludeNegative(values);
      if (!unmatched.ok()) {
        std::cout << "error: " << unmatched.status() << "\n";
        continue;
      }
      for (const std::string& v : *unmatched) {
        std::cout << "  (no member of the current query levels matches \""
                  << v << "\")\n";
      }
      std::cout << "current: " << session.current().description << "\n";
      continue;
    }
    if (cmd == "export") {
      if (rest.empty()) {
        std::cout << "usage: export <file.csv>\n";
        continue;
      }
      auto table = session.Execute();
      if (!table.ok()) {
        std::cout << "error: " << table.status() << "\n";
        continue;
      }
      std::ofstream out(rest);
      if (!out) {
        std::cout << "cannot open " << rest << "\n";
        continue;
      }
      sparql::WriteCsv(**table, out);
      std::cout << "wrote " << (*table)->row_count() << " rows to " << rest
                << "\n";
      continue;
    }
    if (cmd == "back") {
      session.Back();
      if (session.has_state()) {
        std::cout << "current: " << session.current().description << "\n";
      }
      continue;
    }
    if (cmd == "stats") {
      const core::ExplorationStats& st = session.stats();
      std::cout << "  interactions:      " << st.interactions << "\n"
                << "  exploration paths: " << st.cumulative_paths << "\n"
                << "  tuples accessed:   " << st.cumulative_tuples << "\n"
                << "  exec time (ms):    " << st.cumulative_exec_millis
                << "\n"
                << "  triples scanned:   " << st.cumulative_triples_scanned
                << "\n"
                << "  intermediates:     "
                << st.cumulative_intermediate_bindings << "\n";
      if (!st.interaction_latency_millis.empty()) {
        std::cout << "  latency (ms):     ";
        for (double ms : st.interaction_latency_millis) {
          std::cout << " " << ms;
        }
        std::cout << "\n";
      }
      continue;
    }
    std::cout << "unknown command '" << cmd << "' (try: help)\n";
  }
  return 0;
}
