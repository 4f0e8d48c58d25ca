#ifndef RE2XOLAP_CORE_REOLAP_H_
#define RE2XOLAP_CORE_REOLAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/virtual_schema_graph.h"
#include "engine/query_engine.h"
#include "rdf/text_index.h"
#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "util/exec_guard.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace re2xolap::core {

/// One interpretation of an example value: a concrete dimension member plus
/// the root-to-level path that reaches the member's level (the path's first
/// predicate identifies the dimension). Paper: the ⟨d, δ⟩ pairs collected
/// in Algorithm 1, lines 2–5.
struct Interpretation {
  rdf::TermId member = rdf::kInvalidTermId;
  const LevelPath* path = nullptr;  // owned by the VirtualSchemaGraph
};

/// A reverse-engineered SPARQL OLAP query (Algorithm 1 output).
struct CandidateQuery {
  sparql::SelectQuery query;
  /// One interpretation per example value, aligned with the input order.
  /// For multi-tuple input this is the first tuple's row; the remaining
  /// rows are in `extra_rows`.
  std::vector<Interpretation> interpretations;
  /// Additional example rows (multi-tuple input), each aligned with the
  /// same level paths as `interpretations`.
  std::vector<std::vector<Interpretation>> extra_rows;
  /// Output column name of the group-by variable for each example value.
  std::vector<std::string> group_columns;
  /// Output column names of the aggregate columns (sum first, per measure).
  std::vector<std::string> measure_columns;
  /// Natural-language description (Section 5.1, "Presenting Query
  /// Interpretations").
  std::string description;
};

struct ReolapOptions {
  /// When true, candidates are ordered by RankCandidates() before being
  /// returned (simpler + more focused interpretations first).
  bool rank_candidates = false;
  /// Threads applied to the per-value MATCHES() lookups and the LIMIT-1
  /// validation probes (the two store-touching phases). 0 = one thread
  /// per hardware core; 1 = serial. The candidate list, ordering, and
  /// ReolapStats counters are byte-identical for every thread count: the
  /// probes are fanned out in blocks and their verdicts consumed in
  /// serial candidate order.
  size_t num_threads = 0;
  /// Optional externally owned pool to run on (must have been built with
  /// at least `num_threads` threads to reach that parallelism). When
  /// null and the effective thread count exceeds 1, a pool local to the
  /// Synthesize call is created.
  util::ThreadPool* pool = nullptr;
  /// The caller's guard (e.g. a server request's), the only bound on a
  /// Synthesize/SynthesizeMulti call. Expiry degrades the call instead of
  /// erroring: the first validation block is always processed
  /// (min-progress), later blocks are skipped, and the partial candidate
  /// set comes back flagged with ReolapStats::truncated and
  /// degraded_reason. Each probe runs under a child of it (see
  /// Reolap::ValidateCombo). Null = unbounded. Non-owning; must outlive
  /// the call.
  const util::ExecGuard* guard = nullptr;
};

/// Counters reported by the Figure 7 benches. Counters are aggregated on
/// the synthesis thread only (worker threads report through per-index
/// slots), so they are race-free and identical for every `num_threads`.
struct ReolapStats {
  size_t interpretations_considered = 0;  // size of the cartesian space
  size_t combinations_checked = 0;
  size_t validated_ok = 0;
  size_t threads_used = 1;  // effective validation parallelism
  double match_millis = 0;
  double combine_millis = 0;
  double validate_millis = 0;
  /// Graceful-degradation flags: true when the caller's guard tripped
  /// mid-synthesis and the candidate set is partial (but every returned
  /// candidate is fully validated); `degraded_reason` says why and where.
  bool truncated = false;
  std::string degraded_reason;
};

/// ReOLAP (paper Algorithm 1): reverse-engineers SPARQL OLAP queries from a
/// tuple of example attribute values (e.g. {"Germany", "2014"}). All
/// lookups after construction run against the in-memory virtual schema
/// graph and text index; the store is only touched for validation probes.
///
/// Every generated query carries all four aggregation functions per
/// measure (the paper: "we will retrieve results for all aggregation
/// functions"), and every combination is validated against the store
/// before it is returned (Algorithm 1's guarantee).
class Reolap {
 public:
  /// Validation probes execute through `engine` and share its plan/result
  /// caches with the rest of the session — repeated validation of an
  /// identical combination (e.g. across refinement rounds) becomes a
  /// cache hit instead of a store probe. The store is the engine's; the
  /// engine must outlive this object.
  Reolap(engine::QueryEngine& engine, const VirtualSchemaGraph* vsg,
         const rdf::TextIndex* text_index);

  /// MATCHES(a_i) of Algorithm 1: all interpretations of one value.
  /// Supports mixed inputs (paper Section 5 footnote): a value of the
  /// form "<iri>" or "http(s)://..." is resolved directly as a dimension
  /// member IRI instead of going through the label index.
  std::vector<Interpretation> MatchValue(
      const std::string& value, const ReolapOptions& options = {}) const;

  /// Full synthesis: interpretations per value, combination (with distinct
  /// dimensions per combo), query construction and validation. Returns
  /// the candidate queries; an example value with no match yields an empty
  /// result (no query can cover the tuple).
  util::Result<std::vector<CandidateQuery>> Synthesize(
      const std::vector<std::string>& example_tuple,
      const ReolapOptions& options = {}, ReolapStats* stats = nullptr) const;

  /// General case: multiple example tuples of the same arity (the set T_E
  /// of Problem 1). A level-path combination is valid only when EVERY
  /// tuple maps onto it (per column) and every tuple validates against
  /// the store, so each example row is subsumed by the query's results.
  util::Result<std::vector<CandidateQuery>> SynthesizeMulti(
      const std::vector<std::vector<std::string>>& example_tuples,
      const ReolapOptions& options = {}, ReolapStats* stats = nullptr) const;

  /// GETQUERY of Algorithm 1: builds the SPARQL OLAP query for one
  /// combination of interpretations.
  CandidateQuery BuildQuery(const std::vector<Interpretation>& combo) const;

  /// True when at least one observation jointly satisfies all
  /// interpretations (a LIMIT-1 probe through the engine). The probe runs
  /// under a child of `parent`: its deadline is the smaller of a 10 s cap
  /// and the parent's remaining time, floored at 25 ms, and it shares the
  /// parent's cancellation token. A null parent leaves only the cap.
  bool ValidateCombo(const std::vector<Interpretation>& combo,
                     const util::ExecGuard* parent = nullptr) const;

  const VirtualSchemaGraph& vsg() const { return *vsg_; }
  const rdf::TripleStore& store() const { return engine_->store(); }

 private:
  engine::QueryEngine* engine_;
  const VirtualSchemaGraph* vsg_;
  const rdf::TextIndex* text_;
};

/// Ranks candidate queries in place (paper Section 8 lists ranking of
/// interpretations as future work; this implements a simple instance).
/// Preference order: shallower paths first (simpler interpretations),
/// then smaller estimated result cardinality (product of target-level
/// member counts) — focused views before monster cross-products.
void RankCandidates(const VirtualSchemaGraph& vsg,
                    std::vector<CandidateQuery>* candidates);

}  // namespace re2xolap::core

#endif  // RE2XOLAP_CORE_REOLAP_H_
