#include "core/profile.h"

#include <map>

#include "engine/query_engine.h"
#include "sparql/labels.h"
#include "util/string_utils.h"

namespace re2xolap::core {

util::Result<DatasetProfile> ProfileDataset(const VirtualSchemaGraph& vsg,
                                            engine::QueryEngine& engine) {
  const rdf::TripleStore& store = engine.store();
  DatasetProfile profile;
  profile.triple_count = store.size();
  profile.total_members = vsg.total_members();
  const sparql::LabelResolver labels(store);

  // Dimensions: group root paths by their dimension predicate.
  std::map<rdf::TermId, DimensionProfile> dims;
  for (const LevelPath& path : vsg.level_paths()) {
    rdf::TermId dim_pred = path.dimension_predicate();
    DimensionProfile& dp = dims[dim_pred];
    if (dp.name.empty()) {
      dp.predicate_iri = store.term(dim_pred).value;
      dp.name = PrettifyIriLocalName(dp.predicate_iri);
    }
    const VsgNode& node = vsg.node(path.target_node);
    LevelProfile lp;
    lp.name = node.name;
    lp.depth = path.predicates.size();
    lp.member_count = node.members.size();
    for (size_t i = 0; i < node.members.size() && lp.sample_labels.size() < 5;
         i += std::max<size_t>(1, node.members.size() / 5)) {
      // A member's label, or its IRI's local name when it has none.
      const rdf::TermId label = labels.Label(node.members[i]);
      lp.sample_labels.push_back(
          label != rdf::kInvalidTermId
              ? store.term(label).value
              : PrettifyIriLocalName(store.term(node.members[i]).value));
    }
    dp.levels.push_back(std::move(lp));
  }
  for (auto& [pred, dp] : dims) profile.dimensions.push_back(std::move(dp));

  // Observation count: COUNT(*) over typed observations via the engine is
  // not possible without the class IRI; use the measure cardinality
  // instead (every observation carries each measure exactly once in a
  // well-formed cube; we report the max across measures).
  for (rdf::TermId m : vsg.measure_predicates()) {
    MeasureProfile mp;
    mp.predicate_iri = store.term(m).value;
    mp.name = PrettifyIriLocalName(mp.predicate_iri);
    const std::string q =
        "SELECT (COUNT(?v) AS ?n) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
        "(AVG(?v) AS ?mean) (SUM(?v) AS ?total) WHERE { ?obs <" +
        mp.predicate_iri + "> ?v }";
    RE2X_ASSIGN_OR_RETURN(engine::TableHandle handle, engine.ExecuteText(q));
    const sparql::ResultTable& table = *handle;
    if (table.row_count() == 1) {
      mp.count = static_cast<uint64_t>(
          table.NumericValue(table.at(0, table.ColumnIndex("n"))));
      mp.min = table.NumericValue(table.at(0, table.ColumnIndex("lo")));
      mp.max = table.NumericValue(table.at(0, table.ColumnIndex("hi")));
      mp.avg = table.NumericValue(table.at(0, table.ColumnIndex("mean")));
      mp.sum = table.NumericValue(table.at(0, table.ColumnIndex("total")));
    }
    profile.observation_count =
        std::max(profile.observation_count, mp.count);
    profile.measures.push_back(std::move(mp));
  }

  for (rdf::TermId attr : vsg.observation_attributes()) {
    profile.observation_attributes.push_back(
        PrettifyIriLocalName(store.term(attr).value));
  }
  return profile;
}

void DatasetProfile::Print(std::ostream& os) const {
  os << "Dataset profile\n"
     << "  observations:      " << observation_count << "\n"
     << "  triples:           " << triple_count << "\n"
     << "  dimension members: " << total_members << "\n";
  os << "  dimensions (" << dimensions.size() << "):\n";
  for (const DimensionProfile& d : dimensions) {
    os << "    - " << d.name << "\n";
    for (const LevelProfile& l : d.levels) {
      os << "        level " << l.name << " (depth " << l.depth << ", "
         << l.member_count << " members";
      if (!l.sample_labels.empty()) {
        os << "; e.g. " << util::Join(l.sample_labels, ", ");
      }
      os << ")\n";
    }
  }
  os << "  measures (" << measures.size() << "):\n";
  for (const MeasureProfile& m : measures) {
    os << "    - " << m.name << ": count=" << m.count
       << " min=" << util::FormatDouble(m.min)
       << " max=" << util::FormatDouble(m.max)
       << " avg=" << util::FormatDouble(m.avg)
       << " sum=" << util::FormatDouble(m.sum) << "\n";
  }
  if (!observation_attributes.empty()) {
    os << "  observation attributes: "
       << util::Join(observation_attributes, ", ") << "\n";
  }
}

}  // namespace re2xolap::core
