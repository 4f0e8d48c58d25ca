#ifndef RE2XOLAP_CORE_PROFILE_H_
#define RE2XOLAP_CORE_PROFILE_H_

#include <ostream>
#include <string>
#include <vector>

#include "core/virtual_schema_graph.h"
#include "rdf/triple_store.h"
#include "util/result.h"

namespace re2xolap::engine {
class QueryEngine;
}  // namespace re2xolap::engine

namespace re2xolap::core {

/// Summary of one hierarchy level for profiling output.
struct LevelProfile {
  std::string name;
  size_t depth = 0;  // path length from the observation root
  size_t member_count = 0;
  std::vector<std::string> sample_labels;  // up to 5 member labels
};

/// Summary of one dimension (a root predicate with its level paths).
struct DimensionProfile {
  std::string name;
  std::string predicate_iri;
  std::vector<LevelProfile> levels;
};

/// Per-measure numeric statistics over all observations.
struct MeasureProfile {
  std::string name;
  std::string predicate_iri;
  uint64_t count = 0;
  double min = 0, max = 0, avg = 0, sum = 0;
};

/// The data-profiling report the paper's user-study prototype offered
/// ("returning general information and statistics about the dataset, e.g.
/// listing the available dimensions and the number of distinct members").
struct DatasetProfile {
  uint64_t observation_count = 0;
  uint64_t triple_count = 0;
  size_t total_members = 0;
  std::vector<DimensionProfile> dimensions;
  std::vector<MeasureProfile> measures;
  std::vector<std::string> observation_attributes;  // prettified names

  /// Renders the profile as a human-readable report.
  void Print(std::ostream& os) const;
};

/// Computes the profile of `engine`'s store. Measure statistics are
/// computed by executing aggregate SPARQL queries through `engine` (the
/// same path a user's query takes), sharing its plan/result caches, so
/// re-profiling the same frozen dataset is served from cache.
util::Result<DatasetProfile> ProfileDataset(const VirtualSchemaGraph& vsg,
                                            engine::QueryEngine& engine);

}  // namespace re2xolap::core

#endif  // RE2XOLAP_CORE_PROFILE_H_
