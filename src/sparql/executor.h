#ifndef RE2XOLAP_SPARQL_EXECUTOR_H_
#define RE2XOLAP_SPARQL_EXECUTOR_H_

#include <cstdint>
#include <string_view>

#include "obs/query_profile.h"
#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/plan.h"
#include "sparql/result_table.h"
#include "util/exec_guard.h"
#include "util/result.h"

namespace re2xolap::sparql {

/// Residual names of the join core for the end-to-end benchmark's
/// defaults report, the only reader. There is one join core (the
/// vectorized one, vectorized_runner.h); no option, environment variable
/// or branch selects between these values.
enum class ExecutorKind : uint8_t { kVolcano = 1, kVectorized = 2 };
constexpr ExecutorKind DefaultExecutorKind() {
  return ExecutorKind::kVectorized;
}

/// Execution knobs.
struct ExecOptions {
  /// Optional per-request guardrails (absolute deadline, memory budget,
  /// cancellation), polled by the join loop, aggregation, ORDER BY /
  /// DISTINCT sorts, and HAVING — the only limit on an execution. Null
  /// means unbounded. Non-owning; must outlive the execution.
  /// Violations surface as kTimeout / kResourceExhausted / kCancelled.
  const util::ExecGuard* guard = nullptr;
  /// When true (and an ExecStats sink is passed), per-operator wall times
  /// are measured for every join step — two clock reads per produced
  /// binding, so leave it off outside EXPLAIN ANALYZE. Cardinality
  /// counters and the operator tree are collected whenever a stats sink
  /// is present, independent of this flag.
  bool profile = false;
  PlanOptions plan;
};

/// Run statistics, filled when a pointer is passed to Execute. The
/// cardinality counters are maintained on every plan-step kind (mandatory
/// join steps, OPTIONAL extensions, ASK probes); `profile` holds the
/// per-operator breakdown of the same run (see obs::ProfileNode for the
/// conventions, sparql/explain.h for the renderer).
struct ExecStats {
  uint64_t intermediate_bindings = 0;  // bindings produced across all steps
  uint64_t triples_scanned = 0;        // index entries inspected
  double plan_millis = 0;
  double exec_millis = 0;
  obs::ProfileNode profile;            // per-operator tree, root = the query
};

/// Plans and executes `query` against `store`. Returns the materialized
/// result table, or a Status on invalid queries / timeout.
util::Result<ResultTable> Execute(const rdf::TripleStore& store,
                                  const SelectQuery& query,
                                  const ExecOptions& options = {},
                                  ExecStats* stats = nullptr);

/// Executes `query` using a prebuilt `plan` (as produced by PlanQuery for
/// exactly this query/store pair), skipping the planning phase — this is
/// what lets an engine-layer plan cache amortize planning across repeated
/// queries. ASK queries are rewritten into existence probes *before*
/// planning, so a prebuilt plan cannot apply; they delegate to the
/// planning overload. `options.plan` is ignored (already baked into
/// `plan`) and `stats->plan_millis` is left untouched.
util::Result<ResultTable> Execute(const rdf::TripleStore& store,
                                  const SelectQuery& query, const Plan& plan,
                                  const ExecOptions& options = {},
                                  ExecStats* stats = nullptr);

/// Convenience: parse + execute SPARQL text.
util::Result<ResultTable> ExecuteText(const rdf::TripleStore& store,
                                      std::string_view sparql,
                                      const ExecOptions& options = {},
                                      ExecStats* stats = nullptr);

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_EXECUTOR_H_
