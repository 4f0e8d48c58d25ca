// Differential tests of the production executor against an independent
// oracle. Every query runs through sparql::Execute (planner + vectorized
// join core + aggregation + post-ops) and through ReferenceEvaluate
// (tests/reference_eval.h: nested loops over one full scan, no planner,
// no plan, no index cursors), and the two answers must agree:
//
//   - rows as multisets, number cells within a 1e-9 relative tolerance;
//   - under ORDER BY, the sequence of sort-key values exactly;
//   - under LIMIT/OFFSET without ORDER BY, the row count, and every row
//     must occur in the reference's full (unsliced) answer;
//   - error codes, when the query is rejected.
//
// The same queries also run on a raw and a compressed copy of each store,
// which must agree bit for bit, ExecStats counters included, and the
// generated queries run once more over a live store with delta layers.
// Guard trips (budgets, cancellation, deadlines) are checked at the end.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/compressed_index.h"
#include "rdf/delta_layer.h"
#include "rdf/ntriples.h"
#include "sparql/ebv.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "store/ingestor.h"
#include "tests/reference_eval.h"
#include "tests/table_compare.h"
#include "tests/test_data.h"
#include "util/exec_guard.h"
#include "util/failpoint.h"

namespace re2xolap::sparql {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::IdenticalTables;
using re2xolap::testing::ReferenceEvaluate;

/// Cell identity, with number cells equal within a 1e-9 relative tolerance
/// (the two sides may sum the same values in different orders).
bool SameCell(const Cell& a, const Cell& b) {
  if (a.kind != b.kind) return false;
  if (!a.is_number()) return a == b;
  return a.number == b.number ||
         std::fabs(a.number - b.number) <=
             1e-9 * std::max(std::fabs(a.number), std::fabs(b.number));
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameCell(a[i], b[i])) return false;
  }
  return true;
}

/// Equal sort-key values: what ORDER BY cannot tell apart.
bool SameKey(const rdf::TripleStore& store, const Cell& a, const Cell& b) {
  if (a.is_number() && b.is_number()) return SameCell(a, b);
  return a.kind == b.kind && OrderCells(store, a, b) == 0;
}

/// A canonical row order for multiset comparison.
bool CanonicalLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i].kind != b[i].kind) return a[i].kind < b[i].kind;
    if (a[i].term != b[i].term) return a[i].term < b[i].term;
    if (a[i].is_number() && a[i].number != b[i].number) {
      return a[i].number < b[i].number;
    }
  }
  return a.size() < b.size();
}

std::string Render(const ResultTable& t, const Row& row) {
  std::string out;
  for (const Cell& c : row) out += t.CellToString(c) + "|";
  return out;
}

/// `ref`'s rows with their columns reordered to `columns` (SELECT * is
/// free to order its columns); fails when the column sets differ.
::testing::AssertionResult AlignColumns(const ResultTable& ref,
                                        const std::vector<std::string>& columns,
                                        std::vector<Row>* out) {
  std::vector<std::string> a = columns, b = ref.columns();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (a != b) return ::testing::AssertionFailure() << "column sets differ";
  std::vector<int> from;
  for (const std::string& name : columns) from.push_back(ref.ColumnIndex(name));
  out->clear();
  for (const Row& row : ref.rows()) {
    Row aligned;
    for (int c : from) aligned.push_back(row[c]);
    out->push_back(std::move(aligned));
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameMultiset(const ResultTable& t,
                                        std::vector<Row> got,
                                        std::vector<Row> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " rows, reference has " << want.size();
  }
  std::sort(got.begin(), got.end(), CanonicalLess);
  std::sort(want.begin(), want.end(), CanonicalLess);
  for (size_t r = 0; r < got.size(); ++r) {
    if (!SameRow(got[r], want[r])) {
      return ::testing::AssertionFailure()
             << "row " << Render(t, got[r]) << " vs reference "
             << Render(t, want[r]);
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult IsSubMultiset(const ResultTable& t,
                                         const std::vector<Row>& part,
                                         const std::vector<Row>& whole) {
  std::vector<bool> used(whole.size(), false);
  for (const Row& row : part) {
    bool found = false;
    for (size_t i = 0; i < whole.size() && !found; ++i) {
      if (!used[i] && SameRow(row, whole[i])) used[i] = found = true;
    }
    if (!found) {
      return ::testing::AssertionFailure()
             << "row " << Render(t, row) << " is not in the full answer";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Checks `got`, an answer to `query`, against the reference evaluator
/// (see the file comment for the rules).
void ExpectAgreesWithReference(const rdf::TripleStore& store,
                               const SelectQuery& query,
                               const util::Result<ResultTable>& got) {
  auto want = ReferenceEvaluate(store, query);
  ASSERT_EQ(got.ok(), want.ok())
      << "executor: " << got.status() << "\nreference: " << want.status();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    return;
  }
  std::vector<Row> ref_rows;
  ASSERT_TRUE(AlignColumns(*want, got->columns(), &ref_rows));
  ASSERT_EQ(got->row_count(), ref_rows.size());
  for (const OrderKey& k : query.order_by) {
    const int c = got->ColumnIndex(k.column);
    ASSERT_GE(c, 0) << k.column;
    for (size_t r = 0; r < ref_rows.size(); ++r) {
      ASSERT_TRUE(SameKey(store, got->at(r, c), ref_rows[r][c]))
          << "ORDER BY ?" << k.column << " differs at row " << r << ": "
          << got->CellToString(got->at(r, c)) << " vs reference "
          << got->CellToString(ref_rows[r][c]);
    }
  }
  if (query.is_ask || (!query.limit.has_value() && query.offset == 0)) {
    EXPECT_TRUE(SameMultiset(*got, got->rows(), std::move(ref_rows)));
    return;
  }
  SelectQuery unsliced = query;
  unsliced.limit.reset();
  unsliced.offset = 0;
  auto full = ReferenceEvaluate(store, unsliced);
  ASSERT_TRUE(full.ok()) << full.status();
  std::vector<Row> full_rows;
  ASSERT_TRUE(AlignColumns(*full, got->columns(), &full_rows));
  EXPECT_TRUE(IsSubMultiset(*got, got->rows(), full_rows));
}

/// Runs `text` through the executor and the reference evaluator and
/// checks that the answers agree.
void ExpectMatchesReference(const rdf::TripleStore& store,
                            const std::string& text) {
  SCOPED_TRACE(text);
  auto parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectAgreesWithReference(store, *parsed, Execute(store, *parsed));
}

class ExecutorDiffTest : public ::testing::Test {
 protected:
  void SetUp() override { store = BuildFigure1Store(); }
  std::unique_ptr<rdf::TripleStore> store;
};

// The full executor-test query corpus: every language feature the
// executor supports, one query per shape.
const char* const kCorpus[] = {
    // Basic BGPs and joins.
    "SELECT ?obs WHERE { ?obs <http://test/countryDestination> "
    "<http://test/dest/france> }",
    "SELECT * WHERE { ?obs <http://test/countryOrigin> ?origin }",
    R"(SELECT ?obs WHERE {
      ?obs <http://test/countryOrigin> ?c .
      ?c <http://test/inContinent> <http://test/continent/asia> .
      ?obs <http://test/countryDestination> <http://test/dest/germany> .
    })",
    R"(SELECT ?obs WHERE {
      ?obs <http://test/countryOrigin> / <http://test/inContinent>
          <http://test/continent/africa> .
    })",
    "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
    // Cartesian product (disconnected patterns).
    R"(SELECT ?a ?b WHERE {
      ?a <http://test/inContinent> <http://test/continent/asia> .
      ?b <http://test/countryDestination> <http://test/dest/france> .
    })",
    // Repeated variable within one pattern (bind-then-check path).
    "SELECT ?x WHERE { ?x <http://test/inContinent> ?x }",
    "SELECT ?x ?p WHERE { ?x ?p ?x }",
    // Filters.
    R"(SELECT ?obs WHERE {
      ?obs <http://test/numApplicants> ?v . FILTER (?v >= 403)
    })",
    R"(SELECT ?obs WHERE {
      ?obs <http://test/countryOrigin> ?c .
      FILTER (?c IN (<http://test/origin/syria>, <http://test/origin/china>))
    })",
    R"(SELECT ?obs WHERE {
      ?obs <http://test/numApplicants> ?v .
      FILTER (?v < 100 || ?v > 450)
    })",
    R"(SELECT ?obs WHERE {
      ?obs <http://test/numApplicants> ?v .
      FILTER (!(?v < 100) && ?v != 403)
    })",
    // Aggregation.
    R"(SELECT ?origin ?dest (SUM(?v) AS ?total) WHERE {
      ?obs <http://test/countryOrigin> / <http://test/inContinent> ?origin .
      ?obs <http://test/countryDestination> ?dest .
      ?obs <http://test/numApplicants> ?v .
    } GROUP BY ?origin ?dest)",
    R"(SELECT (SUM(?v) AS ?s) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi)
           (AVG(?v) AS ?mean) (COUNT(?v) AS ?n) WHERE {
      ?obs <http://test/numApplicants> ?v .
    })",
    "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
    R"(SELECT ?dest (SUM(?v) AS ?total) WHERE {
      ?obs <http://test/countryDestination> ?dest .
      ?obs <http://test/numApplicants> ?v .
    } GROUP BY ?dest HAVING (?total > 500))",
    // Post-join operators.
    R"(SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }
       ORDER BY DESC(?v))",
    "SELECT DISTINCT ?origin WHERE { ?o <http://test/countryOrigin> ?origin }",
    R"(SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }
       ORDER BY ASC(?v) LIMIT 2)",
    // LIMIT without ORDER BY takes the early-exit row-cap path.
    "SELECT ?obs WHERE { ?obs <http://test/numApplicants> ?v } LIMIT 2",
    "SELECT ?obs WHERE { ?obs <http://test/numApplicants> ?v } LIMIT 2 "
    "OFFSET 2",
    // OPTIONAL.
    R"(SELECT ?c ?cont WHERE {
      ?o <http://test/countryDestination> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
    })",
    R"(SELECT ?c ?cont ?label WHERE {
      ?o <http://test/countryOrigin> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
      OPTIONAL { ?c <http://www.w3.org/2000/01/rdf-schema#label> ?label . }
    })",
    R"(SELECT ?o ?m WHERE {
      ?o <http://test/refPeriod> ?p .
      OPTIONAL { ?o <http://test/noSuchPredicate> ?m . }
    })",
    R"(SELECT ?c ?cont WHERE {
      ?o <http://test/countryOrigin> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
      FILTER (?cont = <http://test/continent/asia>)
    })",
    R"(SELECT ?c WHERE {
      ?o <http://test/countryDestination> ?c .
      OPTIONAL { ?c <http://test/inContinent> ?cont . }
      FILTER (!BOUND(?cont))
    })",
    // Two OPTIONALs where the first matches several rows per parent,
    // under a row cap (LIMIT without ORDER BY): blocks degrade to
    // capacity 1, so the first optional block flushes into the second
    // mid-loop on every extra match. Regression for the shared scratch
    // row that let that flush clobber the suspended block's row state.
    R"(SELECT ?c ?p ?v ?label WHERE {
      ?c <http://test/inContinent> ?cont .
      OPTIONAL { ?c ?p ?v . }
      OPTIONAL { ?c <http://www.w3.org/2000/01/rdf-schema#label> ?label . }
    } LIMIT 50)",
    // Same shape with the cap binding mid-stream.
    R"(SELECT ?c ?p ?v ?label WHERE {
      ?c <http://test/inContinent> ?cont .
      OPTIONAL { ?c ?p ?v . }
      OPTIONAL { ?c <http://www.w3.org/2000/01/rdf-schema#label> ?label . }
    } LIMIT 3)",
    // VALUES.
    R"(SELECT ?o WHERE {
      ?o <http://test/countryOrigin> ?c .
      VALUES ?c { <http://test/origin/syria> <http://test/origin/nigeria> }
    })",
    // ASK (true and false).
    "ASK WHERE { ?o <http://test/countryDestination> <http://test/dest/france> "
    "}",
    "ASK WHERE { ?o <http://test/numApplicants> ?v . FILTER (?v > 500) }",
    // Provably-empty plan (constant term absent from the dictionary).
    "SELECT ?s WHERE { ?s <http://test/nope> <http://test/nothere> }",
    // Rejected queries: the error codes must agree.
    "SELECT * WHERE { ?s ?p ?o } GROUP BY ?s",
    "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
    "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?nope",
};

TEST_F(ExecutorDiffTest, CorpusProducesIdenticalResults) {
  for (const char* query : kCorpus) ExpectMatchesReference(*store, query);
}

// --- generated queries -------------------------------------------------------

constexpr int kNodes = 20;

/// The generated queries' graph: 20 nodes joined by 140 edges under four
/// predicates, numeric measures under <http://r/v> (integers and halves;
/// some nodes have several, some none) and string labels under
/// <http://r/name> — among them "3", whose lexical form equals an integer
/// measure's, and "", whose effective boolean value is false.
std::unique_ptr<rdf::TripleStore> BuildGrammarStore() {
  auto store = std::make_unique<rdf::TripleStore>();
  std::mt19937 rng(20261017);
  // Each draw is its own statement: argument evaluation order is
  // unspecified, and the graph must not depend on the compiler.
  auto iri = [&](const char* kind, uint32_t n) {
    return rdf::Term::Iri("http://r/" + std::string(kind) + "/" +
                          std::to_string(rng() % n));
  };
  for (int i = 0; i < 140; ++i) {
    const rdf::Term s = iri("n", kNodes);
    const rdf::Term p = iri("p", 4);
    store->Add(s, p, iri("n", kNodes));
  }
  const rdf::Term measure = rdf::Term::Iri("http://r/v");
  for (int i = 0; i < 24; ++i) {
    const rdf::Term s = iri("n", kNodes);
    const int v = static_cast<int>(rng() % 14) - 3;
    store->Add(s, measure,
               rng() % 4 == 0 ? rdf::Term::DoubleLiteral(v + 0.5)
                              : rdf::Term::IntegerLiteral(v));
  }
  const rdf::Term name = rdf::Term::Iri("http://r/name");
  for (int i = 0; i < 14; ++i) {
    const rdf::Term s = iri("n", kNodes);
    const uint32_t k = rng() % 8;
    store->Add(s, name,
               rdf::Term::StringLiteral(k == 0   ? "3"
                                        : k == 1 ? ""
                                                 : "n" + std::to_string(k)));
  }
  store->Freeze();
  return store;
}

/// A live copy of BuildGrammarStore with delta layers, and the oracle:
/// a freeze-once store of the same visible triples whose dictionary
/// assigns every term the live store's id, so result cells compare by id.
struct LiveGrammarStores {
  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<rdf::TripleStore> oracle;
};

LiveGrammarStores BuildLiveGrammarStores() {
  util::FailpointRegistry::Global().DisarmAll();  // chaos CI env baseline
  LiveGrammarStores out;
  out.store = BuildGrammarStore();
  // The visible triples, as the test records them: the base read while
  // the store is still frozen, then every batch's effect.
  std::set<std::tuple<rdf::TermId, rdf::TermId, rdf::TermId>> visible;
  for (const rdf::EncodedTriple& t : out.store->Match({})) {
    visible.insert({t.s, t.p, t.o});
  }
  out.store->EnterLive();
  store::IngestorConfig config;
  config.auto_compact = false;
  store::Ingestor ingestor(out.store.get(), nullptr, config);
  std::mt19937 rng(20261019);
  auto node = [&](uint32_t n) {
    return "<http://r/n/" + std::to_string(rng() % n) + ">";
  };
  for (int batch = 0; batch < 6; ++batch) {
    const bool deleting = batch % 2 == 1;
    std::string text;
    std::vector<std::array<std::string, 3>> statements;
    if (deleting) {
      // Tombstones over base and layer triples alike.
      std::vector<std::tuple<rdf::TermId, rdf::TermId, rdf::TermId>> all(
          visible.begin(), visible.end());
      for (int i = 0; i < 10; ++i) {
        const auto& [ts, tp, to] = all[rng() % all.size()];
        statements.push_back({rdf::ToNTriples(out.store->term(ts)),
                              rdf::ToNTriples(out.store->term(tp)),
                              rdf::ToNTriples(out.store->term(to))});
      }
    } else {
      // Edges among known and new nodes (two more than the base has),
      // measures and labels.
      for (int i = 0; i < 14; ++i) {
        const uint32_t kind = rng() % 4;
        std::string s = node(kNodes + 2);
        if (kind < 2) {
          std::string p = "<http://r/p/" + std::to_string(rng() % 4) + ">";
          statements.push_back({s, p, node(kNodes + 2)});
        } else if (kind == 2) {
          const int v = static_cast<int>(rng() % 14) - 3;
          statements.push_back(
              {s, "<http://r/v>",
               rdf::ToNTriples(rdf::Term::IntegerLiteral(v))});
        } else {
          statements.push_back(
              {s, "<http://r/name>",
               rdf::ToNTriples(rdf::Term::StringLiteral(
                   "n" + std::to_string(rng() % 8)))});
        }
      }
    }
    for (const auto& st : statements) {
      text += st[0] + " " + st[1] + " " + st[2] + " .\n";
    }
    auto receipt = ingestor.IngestText(
        text, deleting ? store::IngestOp::kDelete : store::IngestOp::kInsert,
        nullptr);
    EXPECT_TRUE(receipt.ok()) << receipt.status();
    std::vector<std::array<rdf::Term, 3>> terms;
    EXPECT_TRUE(rdf::ParseNTriplesTerms(text, &terms).ok());
    for (const auto& t : terms) {
      const auto key = std::make_tuple(out.store->Lookup(t[0]),
                                       out.store->Lookup(t[1]),
                                       out.store->Lookup(t[2]));
      if (deleting) {
        visible.erase(key);
      } else {
        visible.insert(key);
      }
    }
  }
  out.oracle = std::make_unique<rdf::TripleStore>();
  const rdf::Dictionary& dict = out.store->dictionary();
  for (rdf::TermId id = 1; id <= dict.size(); ++id) {
    EXPECT_EQ(out.oracle->Intern(dict.term(id)), id);
  }
  for (const auto& [ts, tp, to] : visible) {
    out.oracle->AddEncoded({ts, tp, to});
  }
  out.oracle->Freeze();
  EXPECT_EQ(out.store->size(), out.oracle->size());
  return out;
}

/// Grammar-based query generator over BuildGrammarStore's vocabulary: a
/// connected BGP of 1-3 patterns, OPTIONAL blocks, FILTERs (comparisons,
/// IN, BOUND, !, &&, ||), GROUP BY with SUM/MIN/MAX/AVG/COUNT and HAVING,
/// DISTINCT, ORDER BY, LIMIT/OFFSET and ASK. Variables are typed by the
/// position that introduces them — graph nodes (?a-?e), measures (?n,
/// ?m) and labels (?l) — so most comparisons are meaningful, with a
/// minority of ill-typed ones to exercise the error semantics.
class QueryGenerator {
 public:
  explicit QueryGenerator(uint32_t seed) : rng_(seed) {}

  std::string Next() {
    nodes_.clear();
    literals_.clear();
    std::string where;
    const size_t n_patterns = 1 + Pick(3);
    for (size_t i = 0; i < n_patterns; ++i) where += Pattern();
    const size_t n_optional = Chance(45) ? 1 + Pick(2) : 0;
    for (size_t i = 0; i < n_optional; ++i) {
      std::string block = Pattern();
      if (Chance(35)) block += Pattern();
      where += "OPTIONAL { " + block + "} ";
    }
    const size_t n_filters = Chance(55) ? 1 + Pick(2) : 0;
    for (size_t i = 0; i < n_filters; ++i) {
      where += "FILTER (" + Expression(2) + ") ";
    }
    if (Chance(5)) return "ASK WHERE { " + where + "}";

    std::vector<std::string> vars = nodes_;
    vars.insert(vars.end(), literals_.begin(), literals_.end());
    std::vector<std::string> columns;
    std::vector<std::string> numeric_columns;
    std::string select = Chance(30) ? "SELECT DISTINCT" : "SELECT";
    std::string tail;
    if (Chance(40)) {
      std::vector<std::string> group;
      for (const std::string& v : vars) {
        if (group.size() < 2 && Chance(30)) group.push_back(v);
      }
      for (const std::string& g : group) {
        select += " " + g;
        columns.push_back(g);
      }
      const size_t n_aggs = 1 + Pick(3);
      for (size_t i = 0; i < n_aggs; ++i) {
        static const char* const kFuncs[] = {"SUM", "MIN", "MAX", "AVG",
                                             "COUNT"};
        const std::string alias = "?agg" + std::to_string(i);
        const size_t f = Pick(5);
        std::string arg;
        if (f == 4 && Chance(30)) {
          arg = "*";
        } else {
          const bool distinct = f == 4 && Chance(40);
          arg = (distinct ? "DISTINCT " : "") + AggregatedVar(vars);
        }
        select += " (" + std::string(kFuncs[f]) + "(" + arg + ") AS " +
                  alias + ")";
        columns.push_back(alias);
        numeric_columns.push_back(alias);
      }
      if (!group.empty()) {
        tail += " GROUP BY";
        for (const std::string& g : group) tail += " " + g;
      }
      if (Chance(40)) {
        const std::string lhs = Pick(numeric_columns);
        const std::string op = Op();
        tail += " HAVING (" + lhs + " " + op + " " + Number() + ")";
      }
    } else if (Chance(50)) {
      select += " *";
      columns = vars;
    } else {
      for (const std::string& v : vars) {
        if (columns.empty() || Chance(50)) columns.push_back(v);
      }
      for (const std::string& c : columns) select += " " + c;
    }
    if (Chance(35)) {
      tail += " ORDER BY";
      const size_t n_keys = 1 + Pick(2);
      for (size_t i = 0; i < n_keys; ++i) {
        const std::string& c = Pick(columns);
        switch (Pick(3)) {
          case 0:
            tail += " " + c;
            break;
          case 1:
            tail += " ASC(" + c + ")";
            break;
          default:
            tail += " DESC(" + c + ")";
            break;
        }
      }
    }
    if (Chance(30)) {
      tail += " LIMIT " + std::to_string(1 + Pick(8));
      if (Chance(30)) tail += " OFFSET " + std::to_string(Pick(5));
    }
    return select + " WHERE { " + where + "}" + tail;
  }

 private:
  size_t Pick(size_t n) { return rng_() % n; }
  const std::string& Pick(const std::vector<std::string>& v) {
    return v[Pick(v.size())];
  }
  bool Chance(int percent) { return static_cast<int>(rng_() % 100) < percent; }

  static void Note(std::vector<std::string>* vars, const std::string& v) {
    if (std::find(vars->begin(), vars->end(), v) == vars->end()) {
      vars->push_back(v);
    }
  }

  /// A node variable other than `avoid` (self-loops are rare in the
  /// graph): with `reuse_percent` chance one already in the query, so
  /// patterns connect; otherwise one from the pool (possibly new).
  std::string NodeVar(int reuse_percent, const std::string& avoid = "") {
    static const char* const kVars[] = {"?a", "?b", "?c", "?d", "?e"};
    std::string v;
    do {
      v = !nodes_.empty() && Chance(reuse_percent) ? Pick(nodes_)
                                                   : kVars[Pick(5)];
    } while (v == avoid && !Chance(5));
    Note(&nodes_, v);
    return v;
  }

  std::string Node() {
    // A few node ids past the graph's, which the dictionary lacks.
    return "<http://r/n/" + std::to_string(Pick(kNodes + 2)) + ">";
  }

  std::string Pattern() {
    const std::string subject = NodeVar(nodes_.empty() ? 0 : 85);
    switch (Pick(6)) {
      case 0: {
        const std::string v = Chance(50) ? "?n" : "?m";
        Note(&literals_, v);
        return subject + " <http://r/v> " + v + " . ";
      }
      case 1:
        Note(&literals_, "?l");
        return subject + " <http://r/name> ?l . ";
      default: {
        const std::string p =
            Chance(85) ? "<http://r/p/" + std::to_string(Pick(4)) + ">"
                       : NodeVar(0);
        const std::string object =
            Chance(20) ? Node() : NodeVar(25, subject);
        return subject + " " + p + " " + object + " . ";
      }
    }
  }

  std::string AggregatedVar(const std::vector<std::string>& vars) {
    for (const char* v : {"?n", "?m"}) {
      if (std::find(literals_.begin(), literals_.end(), v) !=
              literals_.end() &&
          Chance(75)) {
        return v;
      }
    }
    return Pick(vars);
  }

  std::string Op() {
    static const char* const kOps[] = {"=", "!=", "<", "<=", ">", ">="};
    return kOps[Pick(6)];
  }

  std::string Number() {
    return Chance(80) ? std::to_string(Pick(10)) : "2.5";
  }

  /// A constant of the kind `var` usually binds.
  std::string ConstantFor(const std::string& var) {
    if (Chance(10)) return Chance(50) ? Number() : Node();  // ill-typed
    if (var == "?l") {
      return Chance(25) ? "\"3\"" : "\"n" + std::to_string(Pick(9)) + "\"";
    }
    if (var == "?n" || var == "?m") return Number();
    return Node();
  }

  std::string Expression(int depth) {
    std::vector<std::string> vars = nodes_;
    vars.insert(vars.end(), literals_.begin(), literals_.end());
    const std::string v = Pick(vars);
    // One draw per statement: the operands of + are unsequenced, and the
    // queries must not depend on the compiler.
    const size_t kind = depth > 0 ? Pick(9) : Pick(6);
    if (kind >= 6) {
      const std::string a = Expression(depth - 1);
      if (kind == 6) return "!(" + a + ")";
      const std::string b = Expression(depth - 1);
      return "(" + a + (kind == 7 ? ") && (" : ") || (") + b + ")";
    }
    if (kind == 5) return Chance(50) ? "BOUND(" + v + ")" : v;
    if (kind == 4) {
      std::string list = ConstantFor(v);
      const size_t n = Pick(3);
      for (size_t i = 0; i < n; ++i) list += ", " + ConstantFor(v);
      return v + " IN (" + list + ")";
    }
    const std::string op = Op();
    return v + " " + op + " " + (kind == 3 ? Pick(vars) : ConstantFor(v));
  }

  std::mt19937 rng_;
  std::vector<std::string> nodes_;     // node variables, in order of use
  std::vector<std::string> literals_;  // measure / label variables
};

// Randomized BGPs (with variable reuse across patterns, constants in
// arbitrary positions, occasional repeated variables inside one pattern)
// over a small dense random graph.
TEST(ExecutorDiffPropertyTest, RandomBgpsProduceIdenticalResults) {
  auto store = BuildGrammarStore();
  std::mt19937 rng(20260809);
  const char* vars[] = {"?a", "?b", "?c", "?d", "?e"};
  auto random_term = [&](std::mt19937& r) -> std::string {
    return r() % 3 == 0 ? "<http://r/p/" + std::to_string(r() % 4) + ">"
                        : "<http://r/n/" + std::to_string(r() % kNodes) + ">";
  };
  for (int q = 0; q < 200; ++q) {
    const size_t n_patterns = 1 + rng() % 3;
    std::string body;
    for (size_t i = 0; i < n_patterns; ++i) {
      for (int pos = 0; pos < 3; ++pos) {
        // Bias toward variables so joins actually connect; always make
        // the first pattern's subject a variable so SELECT * projects.
        bool var = (i == 0 && pos == 0) || rng() % 3 != 0;
        body += var ? vars[rng() % 5] : random_term(rng);
        body += ' ';
      }
      body += ". ";
    }
    ExpectMatchesReference(*store, "SELECT * WHERE { " + body + "}");
  }
}

// The full grammar: 1000 generated queries, each checked against the
// reference evaluator, with a tally proving every construct was drawn.
TEST(ExecutorDiffPropertyTest, RandomQueriesMatchReference) {
  auto store = BuildGrammarStore();
  QueryGenerator gen(20261017);
  const char* const kConstructs[] = {
      "OPTIONAL", "FILTER", " IN (", "BOUND(", "!(",  "&&",     "||",
      "GROUP BY", "SUM(",   "MIN(",  "MAX(",   "AVG(", "COUNT(", "HAVING",
      "DISTINCT", "ORDER BY", "LIMIT", "OFFSET", "ASK"};
  std::vector<int> seen(std::size(kConstructs), 0);
  for (int q = 0; q < 1000; ++q) {
    const std::string query = gen.Next();
    for (size_t c = 0; c < std::size(kConstructs); ++c) {
      if (query.find(kConstructs[c]) != std::string::npos) ++seen[c];
    }
    ExpectMatchesReference(*store, query);
    if (HasFatalFailure()) return;
  }
  for (size_t c = 0; c < std::size(kConstructs); ++c) {
    EXPECT_GE(seen[c], 10) << kConstructs[c];
  }

  // Second pass: the same queries over a live copy of the store carrying
  // delta layers with tombstones. The reference runs over a refrozen
  // oracle of the same visible triples, built from the test's own record
  // of them, so the check never reads through the merge code it checks.
  LiveGrammarStores live = BuildLiveGrammarStores();
  ASSERT_GE(live.store->chain_depth(), 4u);
  QueryGenerator live_gen(20261017);
  for (int q = 0; q < 1000; ++q) {
    const std::string text = live_gen.Next();
    SCOPED_TRACE(text);
    auto parsed = ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    ExpectAgreesWithReference(*live.oracle, *parsed,
                              Execute(*live.store, *parsed));
    if (HasFatalFailure()) return;
  }
}

/// A Similarity-shaped FILTER over `query`'s GROUP BY keys: an OR of
/// per-row ANDs of key equalities, taken from up to three rows of `core`
/// (the answer of the query's core). Null when no row qualifies.
ExprPtr KeyFilter(const rdf::TripleStore& store, const SelectQuery& query,
                  const ResultTable& core) {
  ExprPtr any;
  const size_t n = core.row_count();
  for (size_t r : {size_t{0}, n / 2, n - 1}) {
    if (r >= n) continue;
    ExprPtr all;
    for (const Variable& key : query.group_by) {
      const int c = core.ColumnIndex(key.name);
      if (c < 0 || !core.at(r, c).is_term()) return any;
      ExprPtr eq = Expr::Compare(CompareOp::kEq, Expr::Var(key.name),
                                 Expr::Constant(store.term(core.at(r, c).term)));
      all = all ? Expr::And(std::move(all), std::move(eq)) : std::move(eq);
    }
    any = any ? Expr::Or(std::move(any), std::move(all)) : std::move(all);
  }
  return any;
}

// Derivation: the engine answers a grouped query from its cached core
// (SplitRefinement). For each generated query that splits, the core runs
// through the engine first; the query itself must then equal
// sparql::Execute exactly (rows, order, display terms, doubles bit for
// bit) and the reference evaluator as a multiset. A variant with a
// Similarity-shaped FILTER over the core's own group keys exercises the
// lifted-filter path on every split whose core has rows.
TEST(ExecutorDiffPropertyTest, DerivedRefinementsMatchDirectExecution) {
  auto store = BuildGrammarStore();
  engine::QueryEngine engine(*store);
  QueryGenerator gen(20261018);
  uint64_t derived = 0;
  uint64_t derived_lifted = 0;
  // Counts into `*tally` when the engine derived its answer.
  auto check = [&](const SelectQuery& query, uint64_t* tally) {
    SCOPED_TRACE(ToSparql(query));
    const uint64_t before = engine.cache_stats().result_derived;
    auto direct = Execute(*store, query);
    auto got = engine.Execute(query);
    *tally += engine.cache_stats().result_derived - before;
    ASSERT_EQ(direct.ok(), got.ok())
        << "direct: " << direct.status() << "\nengine: " << got.status();
    if (!direct.ok()) {
      EXPECT_EQ(direct.status().code(), got.status().code());
      return;
    }
    EXPECT_TRUE(IdenticalTables(*direct, **got));
    ExpectAgreesWithReference(*store, query, ResultTable(**got));
  };
  int splits = 0;
  for (int q = 0; q < 1000; ++q) {
    auto parsed = ParseQuery(gen.Next());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const SelectQuery& query = *parsed;
    std::optional<RefinementSplit> split = SplitRefinement(query);
    if (!split.has_value()) continue;
    ++splits;
    auto core = engine.Execute(split->core);
    check(query, &derived);
    if (HasFatalFailure()) return;
    if (!core.ok()) continue;
    if (ExprPtr keys = KeyFilter(*store, query, **core)) {
      SelectQuery variant = query;
      variant.filters.push_back(std::move(keys));
      check(variant, &derived_lifted);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GE(splits, 50);
  EXPECT_GT(derived, 0u);
  EXPECT_GT(derived_lifted, 0u);
}

// The label "3" and the measure 3 are distinct terms that ORDER BY cannot
// tell apart (CompareCells compares them lexically); DISTINCT must still
// keep both, however the rows interleave.
TEST(ExecutorDiffPropertyTest, DistinctKeepsTermsThatSortAsEqual) {
  auto store = BuildGrammarStore();
  ASSERT_NE(store->Lookup(rdf::Term::StringLiteral("3")), rdf::kInvalidTermId);
  ASSERT_NE(store->Lookup(rdf::Term::IntegerLiteral(3)), rdf::kInvalidTermId);
  ExpectMatchesReference(*store, "SELECT DISTINCT ?x WHERE { ?s ?p ?x }");
  ExpectMatchesReference(*store,
                         "SELECT DISTINCT ?x WHERE { ?s ?p ?x } ORDER BY ?x");
  ExpectMatchesReference(
      *store, "SELECT DISTINCT ?x ?p WHERE { ?s ?p ?x . ?s ?q ?y }");
}

// Two OPTIONALs at default block capacity (no row cap): the first
// optional's extensions exceed 4096 rows, so its output block fills and
// flushes into the second block mid-loop many times. Regression for the
// shared scratch row: the flush used to re-extract rows into the same
// buffer the suspended first block was still reading, corrupting the
// remaining extensions of the current parent row.
TEST(ExecutorDiffScaleTest, MultiOptionalAcrossBlockBoundaryMatches) {
  auto ds = qb::Generate(qb::EurostatSpec(500));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const qb::DatasetSpec& spec = ds->spec;
  const std::string query = "SELECT * WHERE { ?obs <" + spec.iri_base +
                            spec.dimensions[0].predicate +
                            "> ?d . OPTIONAL { ?obs ?p ?v . } OPTIONAL { ?d "
                            "?q ?w . } }";
  auto r = ExecuteText(*ds->store, query);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GT(r->row_count(), 4096u) << "too small to cross a block boundary";
  ExpectMatchesReference(*ds->store, query);
}

// --- guard / error paths -----------------------------------------------------

TEST_F(ExecutorDiffTest, RowBudgetTripsIdentically) {
  util::ExecGuard::Limits limits;
  limits.max_rows = 2;  // the pattern matches 5 observations
  util::ExecGuard guard(limits);
  ExecOptions opts;
  opts.guard = &guard;
  auto r = ExecuteText(
      *store, "SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
}

TEST_F(ExecutorDiffTest, RowBudgetTripsWhenNoRowIsEverEmitted) {
  // The first pattern produces (and charges) five intermediate bindings,
  // but the second matches nothing, so the query's result is empty and
  // the emit-path budget recheck never runs. The charge-site recheck must
  // surface the overrun anyway — the store is far smaller than the
  // periodic full-check interval.
  util::ExecGuard::Limits limits;
  limits.max_rows = 1;
  util::ExecGuard guard(limits);
  ExecOptions opts;
  opts.guard = &guard;
  auto r = ExecuteText(*store, R"(
    SELECT ?obs WHERE {
      ?obs <http://test/numApplicants> ?v .
      ?v <http://test/inContinent> ?x .
    })",
                       opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  EXPECT_GT(guard.charged_rows(), limits.max_rows);
}

TEST_F(ExecutorDiffTest, ByteBudgetTripsIdentically) {
  util::ExecGuard::Limits limits;
  limits.max_bytes = 32;
  util::ExecGuard guard(limits);
  ExecOptions opts;
  opts.guard = &guard;
  auto r = ExecuteText(
      *store, "SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }",
      opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
}

TEST(ExecutorDiffScaleTest, CancellationAndDeadlineTripIdenticallyInJoin) {
  // A full scan over a generated cube crosses the join's periodic
  // full-check interval, so the runner must observe an already-tripped
  // guard *inside the join loop* and surface the matching code.
  auto ds = qb::Generate(qb::EurostatSpec(4000));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const std::string query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }";
  {
    util::CancellationToken token;
    token.Cancel();
    util::ExecGuard guard({}, &token);
    ExecOptions opts;
    opts.guard = &guard;
    auto r = ExecuteText(*ds->store, query, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  }
  {
    util::ExecGuard guard = util::ExecGuard::WithDeadline(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    ExecOptions opts;
    opts.guard = &guard;
    auto r = ExecuteText(*ds->store, query, opts);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsTimeout()) << r.status().ToString();
  }
}

// --- raw vs compressed index format ------------------------------------------

/// Rebuilds `src` under `format`. Terms are re-interned in id order so the
/// clone assigns identical term ids, which makes rows, ExecStats, and error
/// codes comparable bit-for-bit across stores.
std::unique_ptr<rdf::TripleStore> CloneWithFormat(const rdf::TripleStore& src,
                                                  rdf::IndexFormat format) {
  auto out = std::make_unique<rdf::TripleStore>();
  out->set_index_format(format);
  for (rdf::TermId id = 1; id <= src.dictionary().size(); ++id) {
    out->dictionary().Intern(src.term(id));
  }
  for (const rdf::EncodedTriple& t : src.Match(rdf::TriplePattern{})) {
    out->AddEncoded(t);
  }
  out->Freeze();
  return out;
}

/// Runs `query` on both stores and asserts identical outcomes: cells in
/// order, columns, scan/binding stats, and error codes. `a` is the raw
/// store, `b` its compressed clone.
void ExpectSameAcrossStores(const rdf::TripleStore& a,
                            const rdf::TripleStore& b,
                            const std::string& query) {
  ExecStats stats_a, stats_b;
  auto ra = ExecuteText(a, query, {}, &stats_a);
  auto rb = ExecuteText(b, query, {}, &stats_b);
  ASSERT_EQ(ra.ok(), rb.ok())
      << "raw: " << ra.status().ToString()
      << "\ncompressed: " << rb.status().ToString() << "\nquery: " << query;
  if (!ra.ok()) {
    EXPECT_EQ(ra.status().code(), rb.status().code()) << "query: " << query;
    return;
  }
  EXPECT_EQ(ra->columns(), rb->columns()) << "query: " << query;
  EXPECT_TRUE(ra->rows() == rb->rows()) << "query: " << query;
  // Index ranges are position-identical across formats, so the scan and
  // binding counters must match exactly — only chunking differs.
  EXPECT_EQ(stats_a.triples_scanned, stats_b.triples_scanned)
      << "query: " << query;
  EXPECT_EQ(stats_a.intermediate_bindings, stats_b.intermediate_bindings)
      << "query: " << query;
}

// The full corpus on the compressed store: it must agree with the
// reference evaluator and, bit for bit, with the raw store.
TEST_F(ExecutorDiffTest, CorpusIdenticalAcrossIndexFormats) {
  auto compressed = CloneWithFormat(*store, rdf::IndexFormat::kCompressed);
  ASSERT_TRUE(compressed->compressed_index());
  ASSERT_EQ(store->size(), compressed->size());
  for (const char* query : kCorpus) {
    SCOPED_TRACE(query);
    ExpectMatchesReference(*compressed, query);
    ExpectSameAcrossStores(*store, *compressed, query);
  }
}

// Guard trips must be format-independent too: same typed error on both.
TEST_F(ExecutorDiffTest, RowBudgetTripsIdenticallyUnderCompressed) {
  auto compressed = CloneWithFormat(*store, rdf::IndexFormat::kCompressed);
  util::ExecGuard::Limits limits;
  limits.max_rows = 2;  // the pattern matches 5 observations
  for (const rdf::TripleStore* s : {store.get(), compressed.get()}) {
    util::ExecGuard guard(limits);
    ExecOptions opts;
    opts.guard = &guard;
    auto r = ExecuteText(
        *s, "SELECT ?obs ?v WHERE { ?obs <http://test/numApplicants> ?v }",
        opts);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  }
}

// Multi-block scale: the generated cube spans several 1024-triple blocks,
// so merge-join gallops cross block seams and OPTIONAL scans decode many
// blocks. Everything must still match the raw store exactly.
TEST(ExecutorDiffScaleTest, MultiBlockCompressedStoreMatchesRawOracle) {
  auto ds = qb::Generate(qb::EurostatSpec(1500));
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  auto compressed =
      CloneWithFormat(*ds->store, rdf::IndexFormat::kCompressed);
  ASSERT_TRUE(compressed->compressed_index());
  ASSERT_GT(compressed->base().blocks(rdf::Perm::kSpo).block_count(), 1u)
      << "scale spec too small to exercise block seams";
  const qb::DatasetSpec& spec = ds->spec;
  const std::string queries[] = {
      "SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
      "SELECT * WHERE { ?obs <" + spec.iri_base +
          spec.dimensions[0].predicate +
          "> ?d . OPTIONAL { ?obs ?p ?v . } OPTIONAL { ?d ?q ?w . } }",
      "SELECT ?d (COUNT(*) AS ?n) WHERE { ?obs <" + spec.iri_base +
          spec.dimensions[0].predicate + "> ?d } GROUP BY ?d",
  };
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    ExpectSameAcrossStores(*ds->store, *compressed, query);
  }
  // The nested-loop reference is too slow for the double OPTIONAL here
  // (MultiOptionalAcrossBlockBoundaryMatches covers that shape).
  ExpectMatchesReference(*compressed, queries[0]);
  ExpectMatchesReference(*compressed, queries[2]);
}

}  // namespace
}  // namespace re2xolap::sparql
