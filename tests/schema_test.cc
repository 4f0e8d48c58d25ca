// Tests for schema tooling: incremental virtual-graph updates, QB4OLAP
// annotation export/import, and analytical-view materialization.

#include <gtest/gtest.h>

#include "core/analytical_view.h"
#include "core/qb4olap.h"
#include "core/reolap.h"
#include "core/virtual_schema_graph.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "sparql/executor.h"
#include "tests/test_data.h"

namespace re2xolap::core {
namespace {

using re2xolap::testing::BuildFigure1Store;
using re2xolap::testing::kObsClass;

// --- Incremental VSG update ------------------------------------------------------

class VsgUpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store = BuildFigure1Store();
    auto r = VirtualSchemaGraph::Build(*store, kObsClass);
    ASSERT_TRUE(r.ok());
    vsg = std::make_unique<VirtualSchemaGraph>(std::move(r).value());
  }

  // Appends a new observation with a brand-new origin country "Mali"
  // (continent Africa) and refreezes.
  void AppendMaliObservation() {
    using rdf::Term;
    auto iri = [](const std::string& l) {
      return Term::Iri("http://test/" + l);
    };
    store->Add(iri("origin/mali"), Term::Iri(re2xolap::testing::kLabelIri),
               Term::StringLiteral("Mali"));
    store->Add(iri("origin/mali"), iri("inContinent"),
               iri("continent/africa"));
    Term obs = iri("obs/99");
    store->Add(obs, Term::Iri(re2xolap::testing::kTypeIri), iri("Observation"));
    store->Add(obs, iri("countryOrigin"), iri("origin/mali"));
    store->Add(obs, iri("countryDestination"), iri("dest/germany"));
    store->Add(obs, iri("refPeriod"), iri("month/2015-01"));
    store->Add(obs, iri("age"), iri("age/18-34"));
    store->Add(obs, iri("numApplicants"), Term::IntegerLiteral(42));
    store->Freeze();
  }

  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<VirtualSchemaGraph> vsg;
};

TEST_F(VsgUpdateTest, NewMemberMergedIntoExistingLevel) {
  size_t members_before = vsg->total_members();
  size_t levels_before = vsg->level_count();
  AppendMaliObservation();
  ASSERT_TRUE(vsg->Update(*store, kObsClass).ok());
  EXPECT_EQ(vsg->total_members(), members_before + 1);
  EXPECT_EQ(vsg->level_count(), levels_before);  // no new levels
  rdf::TermId mali = store->Lookup(rdf::Term::Iri("http://test/origin/mali"));
  ASSERT_NE(mali, rdf::kInvalidTermId);
  EXPECT_EQ(vsg->NodesOfMember(mali).size(), 1u);
}

TEST_F(VsgUpdateTest, UpdateMatchesFullRebuild) {
  AppendMaliObservation();
  ASSERT_TRUE(vsg->Update(*store, kObsClass).ok());
  auto rebuilt = VirtualSchemaGraph::Build(*store, kObsClass);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(vsg->total_members(), rebuilt->total_members());
  EXPECT_EQ(vsg->level_count(), rebuilt->level_count());
  EXPECT_EQ(vsg->level_paths().size(), rebuilt->level_paths().size());
  EXPECT_EQ(vsg->dimension_count(), rebuilt->dimension_count());
}

TEST_F(VsgUpdateTest, UpdatedGraphServesSynthesis) {
  AppendMaliObservation();
  ASSERT_TRUE(vsg->Update(*store, kObsClass).ok());
  rdf::TextIndex text(*store);
  engine::QueryEngine engine(*store);
  Reolap reolap(engine, vsg.get(), &text);
  auto queries = reolap.Synthesize({"Mali"});
  ASSERT_TRUE(queries.ok());
  ASSERT_EQ(queries->size(), 1u);
  auto table = sparql::Execute(*store, (*queries)[0].query);
  ASSERT_TRUE(table.ok());
  EXPECT_GT(table->row_count(), 0u);
}

TEST_F(VsgUpdateTest, SchemaChangeNewDimensionRejected) {
  using rdf::Term;
  Term obs = Term::Iri("http://test/obs/100");
  store->Add(obs, Term::Iri(re2xolap::testing::kTypeIri),
             Term::Iri(kObsClass));
  store->Add(obs, Term::Iri("http://test/brandNewDim"),
             Term::Iri("http://test/whatever/1"));
  store->Add(obs, Term::Iri("http://test/numApplicants"),
             Term::IntegerLiteral(1));
  store->Freeze();
  util::Status st = vsg->Update(*store, kObsClass);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("brandNewDim"), std::string::npos);
}

TEST_F(VsgUpdateTest, SchemaChangeNewHierarchyStepRejected) {
  using rdf::Term;
  // New member whose hierarchy uses an unknown predicate.
  auto iri = [](const std::string& l) { return Term::Iri("http://test/" + l); };
  store->Add(iri("origin/peru"), iri("inTradeBloc"), iri("bloc/andes"));
  Term obs = iri("obs/101");
  store->Add(obs, Term::Iri(re2xolap::testing::kTypeIri), iri("Observation"));
  store->Add(obs, iri("countryOrigin"), iri("origin/peru"));
  store->Add(obs, iri("numApplicants"), Term::IntegerLiteral(5));
  store->Freeze();
  util::Status st = vsg->Update(*store, kObsClass);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST_F(VsgUpdateTest, NoOpUpdateKeepsEverything) {
  size_t members = vsg->total_members();
  ASSERT_TRUE(vsg->Update(*store, kObsClass).ok());
  EXPECT_EQ(vsg->total_members(), members);
}

// --- QB4OLAP annotations ----------------------------------------------------------

class Qb4olapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store = BuildFigure1Store();
    auto r = VirtualSchemaGraph::Build(*store, kObsClass);
    ASSERT_TRUE(r.ok());
    vsg = std::make_unique<VirtualSchemaGraph>(std::move(r).value());
  }
  std::unique_ptr<rdf::TripleStore> store;
  std::unique_ptr<VirtualSchemaGraph> vsg;
  const std::string ds_iri = "http://test/dataset";
};

TEST_F(Qb4olapTest, ExportImportRoundTrip) {
  ASSERT_TRUE(ExportQb4OlapAnnotations(*store, *vsg, ds_iri, kObsClass,
                                       store.get())
                  .ok());
  store->Freeze();
  auto imported = BuildFromQb4Olap(*store, ds_iri);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(imported->dimension_count(), vsg->dimension_count());
  EXPECT_EQ(imported->level_count(), vsg->level_count());
  EXPECT_EQ(imported->total_members(), vsg->total_members());
  EXPECT_EQ(imported->hierarchy_count(), vsg->hierarchy_count());
  EXPECT_EQ(imported->level_paths().size(), vsg->level_paths().size());
  EXPECT_EQ(imported->measure_predicates(), vsg->measure_predicates());
}

TEST_F(Qb4olapTest, AnnotatedObservationClassRecovered) {
  ASSERT_TRUE(ExportQb4OlapAnnotations(*store, *vsg, ds_iri, kObsClass,
                                       store.get())
                  .ok());
  store->Freeze();
  auto cls = AnnotatedObservationClass(*store, ds_iri);
  ASSERT_TRUE(cls.ok());
  EXPECT_EQ(*cls, kObsClass);
}

TEST_F(Qb4olapTest, ImportedGraphServesSynthesis) {
  ASSERT_TRUE(ExportQb4OlapAnnotations(*store, *vsg, ds_iri, kObsClass,
                                       store.get())
                  .ok());
  store->Freeze();
  auto imported = BuildFromQb4Olap(*store, ds_iri);
  ASSERT_TRUE(imported.ok());
  rdf::TextIndex text(*store);
  engine::QueryEngine engine(*store);
  Reolap reolap(engine, &*imported, &text);
  auto queries = reolap.Synthesize({"Germany", "2014"});
  ASSERT_TRUE(queries.ok());
  ASSERT_EQ(queries->size(), 1u);
  auto table = sparql::Execute(*store, (*queries)[0].query);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->row_count(), 3u);
}

TEST_F(Qb4olapTest, MissingAnnotationsIsNotFound) {
  EXPECT_TRUE(BuildFromQb4Olap(*store, "http://test/nope").status()
                  .IsNotFound());
  EXPECT_TRUE(
      AnnotatedObservationClass(*store, "http://test/nope").status()
          .IsNotFound());
}

TEST_F(Qb4olapTest, FromPartsValidatesInput) {
  // Root must be first.
  VsgNode not_root;
  not_root.id = 0;
  EXPECT_FALSE(
      VirtualSchemaGraph::FromParts({not_root}, {}, {}, {}).ok());
  // Dense ids required.
  VsgNode root;
  root.id = 0;
  root.is_root = true;
  VsgNode stray;
  stray.id = 5;
  EXPECT_FALSE(
      VirtualSchemaGraph::FromParts({root, stray}, {}, {}, {}).ok());
  // Edge endpoint validation.
  VsgNode l1;
  l1.id = 1;
  EXPECT_FALSE(VirtualSchemaGraph::FromParts(
                   {root, l1}, {VsgEdge{0, 7, 3}}, {}, {})
                   .ok());
}

// --- Analytical view --------------------------------------------------------------

class ViewTest : public ::testing::Test {
 protected:
  // A non-cube "movie KG": reviews are facts; the reviewer's country and
  // the movie's genre are only reachable through intermediate nodes.
  void SetUp() override {
    using rdf::Term;
    auto iri = [](const std::string& l) {
      return Term::Iri("http://kg/" + l);
    };
    Term type = Term::Iri(re2xolap::testing::kTypeIri);
    Term label = Term::Iri(re2xolap::testing::kLabelIri);
    auto labeled = [&](const std::string& l, const std::string& text) {
      Term t = iri(l);
      source.Add(t, label, Term::StringLiteral(text));
      return t;
    };
    Term france = labeled("country/fr", "France");
    Term japan = labeled("country/jp", "Japan");
    Term drama = labeled("genre/drama", "Drama");
    Term comedy = labeled("genre/comedy", "Comedy");
    Term alice = labeled("person/alice", "Alice");
    Term bob = labeled("person/bob", "Bob");
    source.Add(alice, iri("livesIn"), france);
    source.Add(bob, iri("livesIn"), japan);
    Term m1 = labeled("movie/m1", "The Long Silence");
    Term m2 = labeled("movie/m2", "Laughing Matters");
    source.Add(m1, iri("hasGenre"), drama);
    source.Add(m2, iri("hasGenre"), comedy);
    struct Review {
      const char* id;
      Term reviewer, movie;
      int64_t stars;
    };
    Review reviews[] = {
        {"r1", alice, m1, 5}, {"r2", alice, m2, 3},
        {"r3", bob, m1, 4},   {"r4", bob, m2, 2},
    };
    for (const Review& r : reviews) {
      Term rev = iri(std::string("review/") + r.id);
      source.Add(rev, type, iri("Review"));
      source.Add(rev, iri("byReviewer"), r.reviewer);
      source.Add(rev, iri("ofMovie"), r.movie);
      source.Add(rev, iri("stars"), Term::IntegerLiteral(r.stars));
    }
    // A review missing its star rating: must be skipped.
    Term incomplete = iri("review/r5");
    source.Add(incomplete, type, iri("Review"));
    source.Add(incomplete, iri("byReviewer"), alice);
    source.Add(incomplete, iri("ofMovie"), m1);
    source.Freeze();

    def.fact_class = "http://kg/Review";
    def.view_iri_base = "http://view/";
    def.dimensions = {
        {"reviewerCountry", {"http://kg/byReviewer", "http://kg/livesIn"}},
        {"movieGenre", {"http://kg/ofMovie", "http://kg/hasGenre"}},
    };
    def.measures = {{"stars", {"http://kg/stars"}}};
  }
  rdf::TripleStore source;
  ViewDefinition def;
};

TEST_F(ViewTest, FlattensPathsIntoDimensions) {
  uint64_t skipped = 0;
  auto view = MaterializeView(source, def, &skipped);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(skipped, 1u);  // the rating-less review
  rdf::TermId type =
      (*view)->Lookup(rdf::Term::Iri(re2xolap::testing::kTypeIri));
  rdf::TermId cls =
      (*view)->Lookup(rdf::Term::Iri(def.ObservationClassIri()));
  EXPECT_EQ((*view)->CountMatches({rdf::kInvalidTermId, type, cls}), 4u);
  // Direct (single-hop) dimension edge in the view.
  rdf::TermId pred =
      (*view)->Lookup(rdf::Term::Iri("http://view/reviewerCountry"));
  rdf::TermId france = (*view)->Lookup(rdf::Term::Iri("http://kg/country/fr"));
  ASSERT_NE(pred, rdf::kInvalidTermId);
  EXPECT_EQ((*view)->CountMatches({rdf::kInvalidTermId, pred, france}), 2u);
}

TEST_F(ViewTest, ViewBootstrapsAndSynthesizes) {
  auto view = MaterializeView(source, def);
  ASSERT_TRUE(view.ok());
  auto vsg =
      VirtualSchemaGraph::Build(**view, def.ObservationClassIri());
  ASSERT_TRUE(vsg.ok()) << vsg.status().ToString();
  EXPECT_EQ(vsg->dimension_count(), 2u);
  EXPECT_EQ(vsg->measure_count(), 1u);
  rdf::TextIndex text(**view);
  engine::QueryEngine engine(**view);
  Reolap reolap(engine, &*vsg, &text);
  auto queries = reolap.Synthesize({"France", "Drama"});
  ASSERT_TRUE(queries.ok());
  ASSERT_EQ(queries->size(), 1u);
  auto table = sparql::Execute(**view, (*queries)[0].query);
  ASSERT_TRUE(table.ok());
  // (France, Drama), (France, Comedy), (Japan, Drama), (Japan, Comedy).
  EXPECT_EQ(table->row_count(), 4u);
}

TEST_F(ViewTest, RejectsBadDefinitions) {
  ViewDefinition bad = def;
  bad.fact_class = "http://kg/NoSuchClass";
  EXPECT_TRUE(MaterializeView(source, bad).status().IsNotFound());

  bad = def;
  bad.dimensions[0].path = {"http://kg/noSuchPredicate"};
  EXPECT_TRUE(MaterializeView(source, bad).status().IsNotFound());

  bad = def;
  bad.measures.clear();
  EXPECT_TRUE(MaterializeView(source, bad).status().IsInvalidArgument());

  bad = def;
  bad.dimensions[0].path.clear();
  EXPECT_FALSE(MaterializeView(source, bad).ok());
}

TEST_F(ViewTest, CopiesMemberAttributes) {
  auto view = MaterializeView(source, def);
  ASSERT_TRUE(view.ok());
  // Labels of reached members must exist in the view (needed by ReOLAP).
  EXPECT_NE((*view)->Lookup(rdf::Term::StringLiteral("France")),
            rdf::kInvalidTermId);
  EXPECT_NE((*view)->Lookup(rdf::Term::StringLiteral("Drama")),
            rdf::kInvalidTermId);
}

}  // namespace
}  // namespace re2xolap::core

namespace re2xolap::core {
namespace {

TEST(VsgDeltaUpdateTest, DeltaHintEquivalentToFullRescan) {
  using rdf::Term;
  auto store = re2xolap::testing::BuildFigure1Store();
  auto built = VirtualSchemaGraph::Build(
      *store, re2xolap::testing::kObsClass);
  ASSERT_TRUE(built.ok());
  VirtualSchemaGraph with_hint = *built;
  VirtualSchemaGraph without_hint = *built;

  auto iri = [](const std::string& l) { return Term::Iri("http://test/" + l); };
  store->Add(iri("origin/chad"), Term::Iri(re2xolap::testing::kLabelIri),
             Term::StringLiteral("Chad"));
  store->Add(iri("origin/chad"), iri("inContinent"), iri("continent/africa"));
  Term obs = iri("obs/delta");
  store->Add(obs, Term::Iri(re2xolap::testing::kTypeIri), iri("Observation"));
  store->Add(obs, iri("countryOrigin"), iri("origin/chad"));
  store->Add(obs, iri("numApplicants"), Term::IntegerLiteral(3));
  store->Freeze();

  std::vector<rdf::TermId> delta = {store->Lookup(iri("obs/delta"))};
  ASSERT_TRUE(with_hint
                  .Update(*store, re2xolap::testing::kObsClass, &delta)
                  .ok());
  ASSERT_TRUE(
      without_hint.Update(*store, re2xolap::testing::kObsClass).ok());
  EXPECT_EQ(with_hint.total_members(), without_hint.total_members());
  EXPECT_EQ(with_hint.total_members(), built->total_members() + 1);
}

}  // namespace
}  // namespace re2xolap::core
