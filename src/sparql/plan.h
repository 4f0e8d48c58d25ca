#ifndef RE2XOLAP_SPARQL_PLAN_H_
#define RE2XOLAP_SPARQL_PLAN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/compiled_filter.h"
#include "util/result.h"

namespace re2xolap::sparql {

/// A triple pattern lowered to term ids and variable slots. For each
/// position, either `*_id` is a valid TermId (constant) or `*_slot` is a
/// non-negative slot index into the binding vector.
struct PhysicalPattern {
  rdf::TermId s_id = rdf::kInvalidTermId;
  rdf::TermId p_id = rdf::kInvalidTermId;
  rdf::TermId o_id = rdf::kInvalidTermId;
  int s_slot = -1;
  int p_slot = -1;
  int o_slot = -1;
};

/// A filter expression plus the index of the plan step after which all of
/// its variables are bound (so it can run as early as possible), and its
/// variables pre-resolved to slots (`slots` references names inside
/// `expr`, which the plan keeps alive), and its compiled form — slots and
/// constant term ids resolved at plan time — which the join runners
/// evaluate per row.
struct PlannedFilter {
  ExprPtr expr;
  size_t apply_after_step = 0;
  FilterSlots slots;
  CompiledFilter compiled;
};

/// One planned OPTIONAL block: its lowered patterns in parse order.
/// `never_matches` is set when a constant of the block is missing from
/// the dictionary — the block can't match, but the query is unaffected
/// (left-join semantics).
struct PlannedOptional {
  std::vector<PhysicalPattern> steps;
  bool never_matches = false;
};

/// The physical plan: join-ordered patterns, slot mapping, and early
/// filters. `impossible` is set when some constant term of the mandatory
/// BGP does not exist in the store's dictionary: the query is valid but
/// provably empty.
struct Plan {
  std::vector<PhysicalPattern> steps;
  std::vector<PlannedOptional> optionals;
  std::vector<PlannedFilter> filters;
  /// Filters over variables only bound by OPTIONAL blocks; evaluated on
  /// each fully-extended binding (unbound variables fail the filter).
  /// `apply_after_step` is meaningless for these.
  std::vector<PlannedFilter> post_optional_filters;
  std::unordered_map<std::string, int> var_slots;
  size_t slot_count = 0;
  bool impossible = false;

  int SlotOf(const std::string& var) const {
    auto it = var_slots.find(var);
    return it == var_slots.end() ? -1 : it->second;
  }
};

/// Planner options. `use_join_reordering` exists for the ablation bench
/// (paper Section 5.2's point that smart access ordering matters).
struct PlanOptions {
  bool use_join_reordering = true;
};

/// Lowers and join-orders the query's BGP against `store` using
/// selectivity estimates from the store's predicate statistics.
util::Result<Plan> PlanQuery(const rdf::TripleStore& store,
                             const SelectQuery& query,
                             const PlanOptions& options = {});

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_PLAN_H_
