// Property tests for the three per-row fast paths of the query pipeline,
// each checked against an independent reference:
//   - the subject directory (rdf/subject_directory.h) against a full read
//     of the SPO permutation, on every kind of frozen base;
//   - the block aggregator (sparql/post_ops.h) against a std::map fold over
//     the rows of the same BGP without GROUP BY;
//   - compiled filters (sparql/compiled_filter.h) against EvalExpr.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/delta_layer.h"
#include "rdf/subject_directory.h"
#include "rdf/triple_store.h"
#include "sparql/compiled_filter.h"
#include "sparql/ebv.h"
#include "sparql/executor.h"
#include "storage/snapshot.h"
#include "store/ingestor.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace re2xolap {
namespace {

using rdf::EncodedTriple;
using rdf::TermId;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "re2x_fast_path_test_" + name;
}

std::string Iri(const char* kind, uint64_t n) {
  return std::string("http://t/") + kind + std::to_string(n);
}

// ---------------------------------------------------------------------------
// Subject directory
// ---------------------------------------------------------------------------

std::vector<EncodedTriple> Collect(const rdf::IndexRange& range) {
  std::vector<EncodedTriple> out;
  for (const EncodedTriple& t : range) out.push_back(t);
  return out;
}

/// A store over ids 1..kTerms (subjects, predicates and objects share the
/// id space). Subjects are drawn from every third id so the directory has
/// gaps, and the largest id is always a subject.
constexpr uint64_t kTerms = 600;

std::unique_ptr<rdf::TripleStore> RandomStore(rdf::IndexFormat format,
                                              uint64_t triples, uint64_t seed) {
  auto store = std::make_unique<rdf::TripleStore>();
  store->set_index_format(format);
  for (uint64_t i = 1; i <= kTerms; ++i) {
    store->Intern(rdf::Term::Iri(Iri("n", i)));
  }
  util::Rng rng(seed);
  auto id = [&](uint64_t n) {
    return static_cast<TermId>(1 + rng.Uniform(n));
  };
  for (uint64_t i = 0; i < triples; ++i) {
    TermId s = static_cast<TermId>(3 * (1 + rng.Uniform(kTerms / 3)));
    store->AddEncoded({s, id(8), id(kTerms)});
  }
  store->AddEncoded({static_cast<TermId>(kTerms), 1, 1});
  store->Freeze();
  return store;
}

/// For every id up to past the dictionary's end, Match with a bound
/// subject (alone, with its predicates, and with whole triples) must
/// equal the subject's run in a full read of the SPO permutation — which
/// is read without the directory. Returns the number of subjects with triples.
size_t ExpectDirectoryAgrees(const rdf::TripleStore& store) {
  rdf::TripleStore::ReadPin pin(store);
  const std::vector<EncodedTriple> all =
      Collect(store.PermutationRange(rdf::Perm::kSpo));
  const rdf::SubjectDirectory* dir = nullptr;
  store.PermutationRange(rdf::Perm::kSpo, &dir);
  const TermId limit = static_cast<TermId>(store.dictionary().size() + 3);
  size_t subjects = 0;
  for (TermId s = 1; s <= limit; ++s) {
    // `all` is in SPO order, so the subject's triples are one equal range.
    auto [lo, hi] = std::equal_range(
        all.begin(), all.end(), EncodedTriple{s, 0, 0},
        [](const EncodedTriple& a, const EncodedTriple& b) {
          return a.s < b.s;
        });
    const std::vector<EncodedTriple> want(lo, hi);
    subjects += want.empty() ? 0 : 1;
    EXPECT_EQ(Collect(store.Match({s, 0, 0})), want) << "subject " << s;
    if (dir != nullptr) {
      const auto [first, last] = dir->Run(s);
      EXPECT_EQ(last - first, want.size()) << "subject " << s;
    }
    std::set<TermId> preds = {1, 9999};
    for (const EncodedTriple& t : want) preds.insert(t.p);
    for (TermId p : preds) {
      std::vector<EncodedTriple> want_p;
      for (const EncodedTriple& t : want) {
        if (t.p == p) want_p.push_back(t);
      }
      EXPECT_EQ(Collect(store.Match({s, p, 0})), want_p)
          << "subject " << s << " predicate " << p;
    }
    for (const EncodedTriple& t : want) {
      EXPECT_EQ(store.CountMatches({t.s, t.p, t.o}), 1u);
    }
  }
  return subjects;
}

TEST(SubjectDirectoryTest, BuildMatchesBinarySearchForEveryId) {
  auto store = RandomStore(rdf::IndexFormat::kRaw, 3000, 7);
  std::span<const EncodedTriple> spo = store->base().raw(rdf::Perm::kSpo);
  rdf::SubjectDirectory dir = rdf::SubjectDirectory::Build(spo);
  for (TermId s = 0; s <= kTerms + 3; ++s) {
    auto lo = std::lower_bound(
        spo.begin(), spo.end(), s,
        [](const EncodedTriple& t, TermId v) { return t.s < v; });
    auto hi = std::upper_bound(
        spo.begin(), spo.end(), s,
        [](TermId v, const EncodedTriple& t) { return v < t.s; });
    const auto [first, last] = dir.Run(s);
    EXPECT_EQ(first, static_cast<uint64_t>(lo - spo.begin())) << s;
    EXPECT_EQ(last, static_cast<uint64_t>(hi - spo.begin())) << s;
  }
  EXPECT_TRUE(rdf::SubjectDirectory::Build({}).empty());
  EXPECT_EQ(dir.bytes(), (kTerms + 2) * sizeof(uint32_t));
}

TEST(SubjectDirectoryTest, FrozenRawAndCompressedStoresAgree) {
  for (rdf::IndexFormat format :
       {rdf::IndexFormat::kRaw, rdf::IndexFormat::kCompressed}) {
    auto store = RandomStore(format, 5000, 11);
    EXPECT_EQ(store->compressed_index(),
              format == rdf::IndexFormat::kCompressed);
    EXPECT_GT(ExpectDirectoryAgrees(*store), 100u);
    EXPECT_GT(store->MemoryBreakdown().directory_bytes, 0u);

    // Re-Freeze after more data: the directory is rebuilt, not reused.
    store->AddEncoded({1, 2, 3});
    store->AddEncoded({kTerms - 1, 4, 5});
    store->Freeze();
    ExpectDirectoryAgrees(*store);
    EXPECT_EQ(store->CountMatches({1, 0, 0}), 1u);
  }
}

TEST(SubjectDirectoryTest, SnapshotAdoptionBuildsTheDirectory) {
  util::ThreadPool pool(2);
  for (rdf::IndexFormat format :
       {rdf::IndexFormat::kRaw, rdf::IndexFormat::kCompressed}) {
    // Enough triples that compressed validation fans out over several
    // block groups, so the block-seam boundaries are exercised.
    auto store = RandomStore(format, 300000, 13);
    const std::string path = TempPath(
        format == rdf::IndexFormat::kRaw ? "raw.snap" : "compressed.snap");
    ASSERT_TRUE(storage::SaveSnapshot(path, *store, nullptr, nullptr).ok());
    for (bool mmap : {false, true}) {
      storage::SnapshotLoadOptions options;
      options.use_mmap = mmap;
      options.pool = &pool;
      auto loaded = storage::LoadSnapshot(path, options);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_EQ(loaded->store->compressed_index(),
                format == rdf::IndexFormat::kCompressed);
      const rdf::SubjectDirectory* dir = nullptr;
      loaded->store->PermutationRange(rdf::Perm::kSpo, &dir);
      ASSERT_NE(dir, nullptr);
      ExpectDirectoryAgrees(*loaded->store);
    }
    std::remove(path.c_str());
  }
}

TEST(SubjectDirectoryTest, LiveChainsGallopAndCompactedBasesUseIt) {
  util::FailpointRegistry::Global().DisarmAll();
  auto store = RandomStore(rdf::IndexFormat::kRaw, 4000, 17);
  store->EnterLive();
  store::IngestorConfig config;
  config.auto_compact = false;
  store::Ingestor ingestor(store.get(), nullptr, config);
  auto line = [](const std::string& s, uint64_t p, uint64_t o) {
    return "<" + s + "> <" + Iri("n", p) + "> <" + Iri("n", o) + "> .\n";
  };
  std::string inserts;
  for (uint64_t i = 0; i < 50; ++i) {
    // Existing subjects, gap ids that had no triples, and new terms.
    inserts += line(Iri("n", 3 * (i + 1)), 9, i + 1);
    inserts += line(Iri("n", 3 * i + 1), 9, i + 2);
    inserts += line(Iri("fresh", i), 9, i + 3);
  }
  ASSERT_TRUE(ingestor.IngestText(inserts, store::IngestOp::kInsert, nullptr)
                  .ok());
  std::string deletes;
  {
    rdf::TripleStore::ReadPin pin(*store);
    int n = 0;
    for (const EncodedTriple& t : store->Match({3, 0, 0})) {
      if (n++ % 2 == 0) {
        deletes += "<" + store->term(t.s).value + "> <" +
                   store->term(t.p).value + "> <" + store->term(t.o).value +
                   "> .\n";
      }
    }
  }
  ASSERT_TRUE(ingestor.IngestText(deletes, store::IngestOp::kDelete, nullptr)
                  .ok());
  ASSERT_EQ(store->chain_depth(), 2u);
  {
    rdf::TripleStore::ReadPin pin(*store);
    const rdf::SubjectDirectory* dir = nullptr;
    store->PermutationRange(rdf::Perm::kSpo, &dir);
    EXPECT_EQ(dir, nullptr);  // merged over delta layers: galloping
  }
  ExpectDirectoryAgrees(*store);

  ASSERT_TRUE(ingestor.Compact().ok());
  ASSERT_EQ(store->chain_depth(), 0u);
  {
    rdf::TripleStore::ReadPin pin(*store);
    const rdf::SubjectDirectory* dir = nullptr;
    store->PermutationRange(rdf::Perm::kSpo, &dir);
    EXPECT_NE(dir, nullptr);  // the compacted base's own directory
  }
  ExpectDirectoryAgrees(*store);
  // One directory is accounted: the compaction released the frozen base
  // (and its directory) once nothing pinned the chains over it.
  rdf::TripleStore::ReadPin pin(*store);
  EXPECT_EQ(
      store->MemoryBreakdown().directory_bytes,
      rdf::SubjectDirectory::Build(store->base().raw(rdf::Perm::kSpo)).bytes());
}

// ---------------------------------------------------------------------------
// Block aggregation vs a std::map fold
// ---------------------------------------------------------------------------

/// Term-level group key: the rendered terms, "" for unbound.
using RefKey = std::vector<std::string>;

struct RefState {
  double sum = 0;
  double min = INFINITY;
  double max = -INFINITY;
  uint64_t count = 0;
  std::set<TermId> distinct;
  uint64_t rows = 0;
};

std::string Render(const sparql::ResultTable& t, const sparql::Cell& c) {
  return c.is_null() ? "" : t.CellToString(c);
}

/// Runs `group_vars` x aggregates of `?m` over `bgp` both as one GROUP BY
/// query and as a plain projection folded here with Term::AsDouble, and
/// checks every group's values.
void ExpectAggregationMatchesFold(const rdf::TripleStore& store,
                                  const std::string& bgp,
                                  const std::vector<std::string>& group_vars) {
  std::string vars;
  for (const std::string& g : group_vars) vars += " ?" + g;
  const std::string grouped =
      "SELECT" + vars +
      " (SUM(?m) AS ?sum) (AVG(?m) AS ?avg) (MIN(?m) AS ?lo) (MAX(?m) AS ?hi)"
      " (COUNT(?m) AS ?n) (COUNT(DISTINCT ?m) AS ?dn) (COUNT(*) AS ?rows)"
      " WHERE { " + bgp + " }" +
      (group_vars.empty() ? "" : " GROUP BY" + vars);
  const std::string plain = "SELECT" + vars + " ?m WHERE { " + bgp + " }";
  auto got = sparql::ExecuteText(store, grouped);
  ASSERT_TRUE(got.ok()) << got.status() << "\n" << grouped;
  auto rows = sparql::ExecuteText(store, plain);
  ASSERT_TRUE(rows.ok()) << rows.status();

  std::map<RefKey, RefState> ref;
  const size_t m_col = group_vars.size();
  for (size_t r = 0; r < rows->row_count(); ++r) {
    RefKey key;
    for (size_t c = 0; c < m_col; ++c) {
      key.push_back(Render(*rows, rows->at(r, c)));
    }
    RefState& st = ref[key];
    ++st.rows;
    const sparql::Cell& m = rows->at(r, m_col);
    if (m.is_null()) continue;
    const double v = store.term(m.term).AsDouble();
    st.sum += v;
    st.min = std::min(st.min, v);
    st.max = std::max(st.max, v);
    ++st.count;
    st.distinct.insert(m.term);
  }

  ASSERT_EQ(got->row_count(), ref.size()) << grouped;
  std::set<RefKey> seen;
  for (size_t r = 0; r < got->row_count(); ++r) {
    RefKey key;
    for (size_t c = 0; c < m_col; ++c) {
      key.push_back(Render(*got, got->at(r, c)));
    }
    EXPECT_TRUE(seen.insert(key).second) << "duplicate group";
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end());
    const RefState& st = it->second;
    auto num = [&](size_t offset) {
      return got->NumericValue(got->at(r, m_col + offset));
    };
    EXPECT_DOUBLE_EQ(num(0), st.sum);
    EXPECT_DOUBLE_EQ(num(1), st.count ? st.sum / st.count : 0.0);
    EXPECT_DOUBLE_EQ(num(2), st.count ? st.min : 0.0);
    EXPECT_DOUBLE_EQ(num(3), st.count ? st.max : 0.0);
    EXPECT_EQ(num(4), static_cast<double>(st.count));
    EXPECT_EQ(num(5), static_cast<double>(st.distinct.size()));
    EXPECT_EQ(num(6), static_cast<double>(st.rows));
  }
}

TEST(BlockAggregationTest, MatchesMapFoldOnGeneratedCubes) {
  for (uint64_t seed : {3u, 4u}) {
    auto ds = qb::Generate(qb::EurostatSpec(1500 + 700 * seed, seed));
    ASSERT_TRUE(ds.ok()) << ds.status();
    const std::string b = ds->spec.iri_base;
    const std::string obs = "?o a <" + ds->spec.observation_class + "> . ";
    const std::string measure = "?o <" + b + "numApplicants> ?m . ";
    const std::string period = "?o <" + b + "refPeriod> ?p . ";
    const std::string year = "?p <" + b + "inYear> ?y . ";
    const std::string origin = "?o <" + b + "countryOrigin> ?c . ";
    const std::string sex = "?o <" + b + "sex> ?sx . ";
    // Numeric measure by zero, one and two group keys (16k-ish groups at
    // the month x origin grain).
    ExpectAggregationMatchesFold(*ds->store, obs + measure, {});
    ExpectAggregationMatchesFold(*ds->store, obs + measure + period + year,
                                 {"y"});
    ExpectAggregationMatchesFold(*ds->store, obs + measure + period + origin,
                                 {"p", "c"});
    // Non-numeric "measure": string literals sum as 0, count and distinct
    // count as terms.
    ExpectAggregationMatchesFold(*ds->store,
                                 obs + period + "?o <" + b + "sex> ?m . ",
                                 {"p"});
    // OPTIONAL group key that is unbound for most rows (only the months
    // of Q1 2014 match the label), and a measure bound only for the
    // observations of one sex.
    ExpectAggregationMatchesFold(
        *ds->store,
        obs + sex + period + "OPTIONAL { ?p <" + b + "inQuarter> ?q . ?q <" +
            std::string(qb::kHasLabel) + "> \"Q1 2014\" . } OPTIONAL { ?o <" +
            b + "numApplicants> ?m . ?o <" + b + "sex> \"Female\" . }",
        {"q", "sx"});
  }
}

TEST(BlockAggregationTest, LiveIngestedLiteralsAggregateFromTheNumericColumn) {
  util::FailpointRegistry::Global().DisarmAll();
  auto ds = qb::Generate(qb::EurostatSpec(800, 5));
  ASSERT_TRUE(ds.ok()) << ds.status();
  rdf::TripleStore& store = *ds->store;
  store.EnterLive();
  store::IngestorConfig config;
  config.auto_compact = false;
  store::Ingestor ingestor(&store, nullptr, config);
  const std::string b = ds->spec.iri_base;
  std::string text;
  const char* values[] = {"2.5", "1e3", "-0", "7", "0.1", "12345678901234567"};
  for (int i = 0; i < 60; ++i) {
    const std::string o = "<" + b + "obs/live" + std::to_string(i) + ">";
    text += o + " <" + std::string(qb::kRdfType) + "> <" +
            ds->spec.observation_class + "> .\n";
    text += o + " <" + b + "refPeriod> <" + ds->MemberIri("month", i % 7) +
            "> .\n";
    const std::string v = values[i % 6];
    const bool dbl = v.find_first_of(".e") != std::string::npos;
    text += o + " <" + b + "numApplicants> \"" + v + "\"^^" +
            (dbl ? "xsd:double" : "xsd:integer") + " .\n";
  }
  ASSERT_TRUE(
      ingestor.IngestText(text, store::IngestOp::kInsert, nullptr).ok());
  ASSERT_GT(store.chain_depth(), 0u);
  rdf::TripleStore::ReadPin pin(store);
  const std::string bgp = "?o a <" + ds->spec.observation_class + "> . ?o <" +
                          b + "numApplicants> ?m . ?o <" + b +
                          "refPeriod> ?p . ";
  ExpectAggregationMatchesFold(store, bgp, {"p"});
  ExpectAggregationMatchesFold(store, bgp, {});
}

TEST(BlockAggregationTest, NumericColumnMatchesAsDouble) {
  rdf::Dictionary dict;
  const std::vector<std::string> lexical = {
      "0",     "-0",       "42",   "-17",  "3.25",  "-0.125", "1e3",
      "1E-2",  "+5",       ".5",   "5.",   "",      "abc",    "12abc",
      "0.1",   "123456789012345", "1234567890123456", "0.000000000000001",
      "9007199254740993", "1.7976931348623157e308", "nan", "inf", " 7"};
  for (const std::string& v : lexical) {
    for (rdf::LiteralType lt :
         {rdf::LiteralType::kInteger, rdf::LiteralType::kDouble,
          rdf::LiteralType::kString}) {
      rdf::Term t(rdf::TermKind::kLiteral, v, lt);
      const TermId id = dict.Intern(t);
      const double want = t.is_numeric_literal()
                              ? std::strtod(v.c_str(), nullptr)
                              : 0.0;
      const double got = dict.numeric(id);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << v;
      } else {
        EXPECT_EQ(got, want) << v;
        EXPECT_EQ(std::signbit(got), std::signbit(want)) << v;
      }
    }
  }
  EXPECT_EQ(dict.numeric(dict.Intern(rdf::Term::Iri("http://x/1"))), 0.0);
  dict.EnterLive();
  const TermId live = dict.InternLive(rdf::Term::DoubleLiteral(0.3));
  EXPECT_EQ(dict.numeric(live), 0.3);
  EXPECT_GT(dict.numeric_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Compiled filters vs EvalExpr
// ---------------------------------------------------------------------------

class CompiledFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    using rdf::LiteralType;
    using rdf::Term;
    using rdf::TermKind;
    store_.Add(Term::Iri("http://t/s"), Term::Iri("http://t/p"),
               Term::Iri("http://t/o"));
    const std::vector<Term> pool = {
        Term::Iri("http://t/a"),
        Term::Iri("http://t/b"),
        Term(TermKind::kIri, "http://t/a", LiteralType::kDate),  // alias
        Term::StringLiteral("http://t/a"),  // literal spelling of an IRI
        Term::StringLiteral("2014"),
        Term::DateLiteral("2014"),
        Term::StringLiteral(""),
        Term::StringLiteral("b"),
        Term::IntegerLiteral(1),
        Term(TermKind::kLiteral, "1.0", LiteralType::kDouble),
        Term(TermKind::kLiteral, "2014", LiteralType::kInteger),
        Term(TermKind::kLiteral, "-3.5", LiteralType::kDouble),
        Term(TermKind::kLiteral, "nan", LiteralType::kDouble),
        Term::BooleanLiteral(true),
        Term::BooleanLiteral(false),
        Term::Blank("x"),
    };
    for (const Term& t : pool) ids_.push_back(store_.Intern(t));
    store_.Freeze();
    // Constants: everything in the store, plus terms it lacks.
    constants_ = pool;
    constants_.push_back(Term::Iri("http://t/absent"));
    constants_.push_back(Term::StringLiteral("zzz"));
    constants_.push_back(Term::DateLiteral("2015"));
    constants_.push_back(Term::IntegerLiteral(2014));
    constants_.push_back(Term::DoubleLiteral(1.0));
    constants_.push_back(Term(TermKind::kLiteral, "7", LiteralType::kDouble));
  }

  sparql::ExprPtr RandomExpr(util::Rng& rng, int depth) {
    using sparql::Expr;
    const uint64_t pick = depth <= 0 ? rng.Uniform(3) : rng.Uniform(9);
    auto var = [&] { return std::string(1, "xyzw"[rng.Uniform(4)]); };
    auto constant = [&] {
      return constants_[rng.Uniform(constants_.size())];
    };
    auto operand = [&]() -> sparql::ExprPtr {
      return rng.Uniform(2) == 0 ? Expr::Var(var())
                                 : Expr::Constant(constant());
    };
    switch (pick) {
      case 0:
        return Expr::Var(var());
      case 1:
        return Expr::Constant(constant());
      case 2:
      case 3:
      case 4:
        return Expr::Compare(static_cast<sparql::CompareOp>(rng.Uniform(6)),
                             operand(), operand());
      case 5:
        return Expr::And(RandomExpr(rng, depth - 1),
                         RandomExpr(rng, depth - 1));
      case 6:
        return Expr::Or(RandomExpr(rng, depth - 1),
                        RandomExpr(rng, depth - 1));
      case 7:
        return Expr::Not(RandomExpr(rng, depth - 1));
      default: {
        if (rng.Uniform(3) == 0) {
          auto e = std::make_shared<Expr>();
          e->kind = sparql::ExprKind::kBound;
          e->var = sparql::Variable{var()};
          return e;
        }
        std::vector<rdf::Term> list;
        for (uint64_t i = 0, n = 1 + rng.Uniform(4); i < n; ++i) {
          list.push_back(constant());
        }
        return Expr::In(var(), std::move(list));
      }
    }
  }

  static void Slots(const sparql::Expr& e, sparql::FilterSlots* out) {
    if (e.kind == sparql::ExprKind::kVariable ||
        e.kind == sparql::ExprKind::kIn || e.kind == sparql::ExprKind::kBound) {
      // ?w has no slot: it is never bound.
      const int slot = e.var.name == "w" ? -1 : e.var.name[0] - 'x';
      out->Add(&e.var.name, slot);
    }
    for (const sparql::ExprPtr& c : e.children) Slots(*c, out);
  }

  rdf::TripleStore store_;
  std::vector<TermId> ids_;
  std::vector<rdf::Term> constants_;
};

TEST_F(CompiledFilterTest, AgreesWithEvalExprOnRandomRows) {
  util::Rng rng(2024);
  size_t errors = 0, trues = 0;
  for (int e = 0; e < 3000; ++e) {
    sparql::ExprPtr expr = RandomExpr(rng, 3);
    sparql::FilterSlots slots;
    Slots(*expr, &slots);
    const sparql::CompiledFilter compiled =
        sparql::CompiledFilter::Compile(store_, *expr, slots);
    for (int r = 0; r < 20; ++r) {
      TermId row[3];
      for (TermId& v : row) {
        v = rng.Uniform(5) == 0 ? rdf::kInvalidTermId
                                : ids_[rng.Uniform(ids_.size())];
      }
      auto at = [&](int slot) { return row[slot]; };
      const sparql::Ebv want = sparql::EvalExpr(
          store_, *expr, [&](const std::string& name) {
            const int slot = slots.SlotOf(name);
            return slot < 0 || row[slot] == rdf::kInvalidTermId
                       ? sparql::Cell::Null()
                       : sparql::Cell::OfTerm(row[slot]);
          });
      ASSERT_EQ(compiled.Eval(store_, at), want)
          << "expression " << sparql::ToSparql(*expr);
      errors += want == sparql::Ebv::kError;
      trues += want == sparql::Ebv::kTrue;
    }
  }
  // The generator reaches all three outcomes often.
  EXPECT_GT(errors, 1000u);
  EXPECT_GT(trues, 1000u);
}

// ExRef's Similarity / Contrast / TopK filters: ORs of ANDs of equalities,
// compiled into value-tuple sets. Rows with unbound variables take the
// three-valued fallback.
TEST_F(CompiledFilterTest, DisjunctionsOfEqualitiesMatchEvalExpr) {
  using sparql::Expr;
  util::Rng rng(99);
  for (int e = 0; e < 500; ++e) {
    const std::vector<std::string> vars = {"x", "y", "z"};
    const size_t width = 1 + rng.Uniform(3);
    sparql::ExprPtr expr;
    for (uint64_t d = 0, n = 1 + rng.Uniform(6); d < n; ++d) {
      sparql::ExprPtr conj;
      // Mostly the same variables in every disjunct; sometimes not.
      const size_t w = rng.Uniform(8) == 0 ? 1 + rng.Uniform(3) : width;
      for (size_t j = 0; j < w; ++j) {
        sparql::ExprPtr eq = Expr::Compare(
            sparql::CompareOp::kEq, Expr::Var(vars[j]),
            Expr::Constant(constants_[rng.Uniform(constants_.size())]));
        conj = conj ? Expr::And(conj, eq) : eq;
      }
      expr = expr ? Expr::Or(expr, conj) : conj;
    }
    sparql::FilterSlots slots;
    Slots(*expr, &slots);
    const sparql::CompiledFilter compiled =
        sparql::CompiledFilter::Compile(store_, *expr, slots);
    for (int r = 0; r < 40; ++r) {
      TermId row[3];
      for (TermId& v : row) {
        v = rng.Uniform(12) == 0 ? rdf::kInvalidTermId
                                 : ids_[rng.Uniform(ids_.size())];
      }
      const sparql::Ebv want = sparql::EvalExpr(
          store_, *expr, [&](const std::string& name) {
            const int slot = slots.SlotOf(name);
            return slot < 0 || row[slot] == rdf::kInvalidTermId
                       ? sparql::Cell::Null()
                       : sparql::Cell::OfTerm(row[slot]);
          });
      ASSERT_EQ(compiled.Eval(store_, [&](int slot) { return row[slot]; }),
                want)
          << "expression " << sparql::ToSparql(*expr);
    }
  }
}

TEST_F(CompiledFilterTest, NumericEqualityCrossesDatatypes) {
  using sparql::Expr;
  sparql::FilterSlots none;
  auto eval = [&](const sparql::ExprPtr& e, TermId x) {
    sparql::FilterSlots slots;
    Slots(*e, &slots);
    return sparql::CompiledFilter::Compile(store_, *e, slots)
        .Eval(store_, [&](int) { return x; });
  };
  const TermId one = store_.Lookup(rdf::Term::IntegerLiteral(1));
  const TermId a = store_.Lookup(rdf::Term::Iri("http://t/a"));
  // "1"^^xsd:integer = "1.0"^^xsd:double, as constants and through ?x.
  const sparql::ExprPtr consts = Expr::Compare(
      sparql::CompareOp::kEq, Expr::Constant(rdf::Term::IntegerLiteral(1)),
      Expr::Constant(rdf::Term(rdf::TermKind::kLiteral, "1.0",
                               rdf::LiteralType::kDouble)));
  EXPECT_EQ(sparql::CompiledFilter::Compile(store_, *consts, none)
                .Eval(store_, [](int) { return rdf::kInvalidTermId; }),
            sparql::Ebv::kTrue);
  const sparql::ExprPtr via_var = Expr::Compare(
      sparql::CompareOp::kEq, Expr::Var("x"),
      Expr::Constant(rdf::Term(rdf::TermKind::kLiteral, "1.0",
                               rdf::LiteralType::kDouble)));
  EXPECT_EQ(eval(via_var, one), sparql::Ebv::kTrue);
  // An IRI against a numeric constant is a type error, not false.
  EXPECT_EQ(eval(via_var, a), sparql::Ebv::kError);
  // IRIs compare by id; an absent IRI equals nothing bound.
  const sparql::ExprPtr iri_eq =
      Expr::Compare(sparql::CompareOp::kEq, Expr::Var("x"),
                    Expr::Constant(rdf::Term::Iri("http://t/a")));
  EXPECT_EQ(eval(iri_eq, a), sparql::Ebv::kTrue);
  EXPECT_EQ(eval(iri_eq, one), sparql::Ebv::kFalse);
  EXPECT_EQ(eval(iri_eq, rdf::kInvalidTermId), sparql::Ebv::kError);
  const sparql::ExprPtr absent =
      Expr::Compare(sparql::CompareOp::kNe, Expr::Var("x"),
                    Expr::Constant(rdf::Term::Iri("http://t/absent")));
  EXPECT_EQ(eval(absent, a), sparql::Ebv::kTrue);
}

}  // namespace
}  // namespace re2xolap
