#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "sparql/plan.h"

namespace re2xolap::sparql {

namespace {

/// Collects variable names of an expression tree.
void CollectExprVars(const Expr& e, std::set<std::string>* out) {
  switch (e.kind) {
    case ExprKind::kVariable:
    case ExprKind::kIn:
    case ExprKind::kBound:
      if (!e.var.name.empty()) out->insert(e.var.name);
      break;
    default:
      break;
  }
  for (const ExprPtr& c : e.children) CollectExprVars(*c, out);
}

/// Resolves every variable reference of an expression tree to its binding
/// slot, keyed by the address of the name inside the tree (see
/// FilterSlots). One entry per occurrence; duplicates of the same name at
/// different nodes each get their own (pointer-keyed) entry.
void ResolveFilterSlots(const Plan& plan, const Expr& e, FilterSlots* out) {
  switch (e.kind) {
    case ExprKind::kVariable:
    case ExprKind::kIn:
    case ExprKind::kBound:
      if (!e.var.name.empty()) out->Add(&e.var.name, plan.SlotOf(e.var.name));
      break;
    default:
      break;
  }
  for (const ExprPtr& c : e.children) ResolveFilterSlots(plan, *c, out);
}

struct LoweredPattern {
  PhysicalPattern phys;
  // Variable names per position ("" = constant).
  std::string s_var, p_var, o_var;
  bool impossible = false;
};

LoweredPattern Lower(const rdf::TripleStore& store,
                     const TriplePatternAst& tp) {
  LoweredPattern lp;
  auto lower_pos = [&](const TermOrVar& tv, rdf::TermId* id,
                       std::string* var) {
    if (IsVar(tv)) {
      *var = AsVar(tv).name;
      return;
    }
    *id = store.Lookup(AsTerm(tv));
    if (*id == rdf::kInvalidTermId) lp.impossible = true;
  };
  lower_pos(tp.s, &lp.phys.s_id, &lp.s_var);
  lower_pos(tp.p, &lp.phys.p_id, &lp.p_var);
  lower_pos(tp.o, &lp.phys.o_id, &lp.o_var);
  return lp;
}

/// Estimated result cardinality of a pattern given the set of variables
/// already bound by earlier steps. Constants give exact index counts;
/// bound variables shrink the estimate using per-predicate distinct
/// counts.
double EstimateCost(const rdf::TripleStore& store, const LoweredPattern& lp,
                    const std::set<std::string>& bound) {
  rdf::TriplePattern q;
  q.s = lp.phys.s_id;
  q.p = lp.phys.p_id;
  q.o = lp.phys.o_id;
  double base = static_cast<double>(store.CountMatches(q));
  if (base == 0) return 0;
  rdf::PredicateStats stats{};
  if (lp.phys.p_id != rdf::kInvalidTermId) {
    stats = store.predicate_stats(lp.phys.p_id);
  }
  auto shrink = [&](const std::string& var, uint64_t distinct) {
    if (!var.empty() && bound.count(var)) {
      base /= std::max<double>(1.0, static_cast<double>(distinct));
    }
  };
  shrink(lp.s_var, stats.distinct_subjects ? stats.distinct_subjects
                                           : static_cast<uint64_t>(base));
  shrink(lp.o_var, stats.distinct_objects ? stats.distinct_objects
                                          : static_cast<uint64_t>(base));
  if (!lp.p_var.empty() && bound.count(lp.p_var)) {
    base /= 8.0;  // predicates are rarely variables; coarse factor
  }
  return base;
}

bool SharesVarWith(const LoweredPattern& lp,
                   const std::set<std::string>& bound) {
  return (!lp.s_var.empty() && bound.count(lp.s_var)) ||
         (!lp.p_var.empty() && bound.count(lp.p_var)) ||
         (!lp.o_var.empty() && bound.count(lp.o_var));
}

void AddVars(const LoweredPattern& lp, std::set<std::string>* bound) {
  if (!lp.s_var.empty()) bound->insert(lp.s_var);
  if (!lp.p_var.empty()) bound->insert(lp.p_var);
  if (!lp.o_var.empty()) bound->insert(lp.o_var);
}

}  // namespace

util::Result<Plan> PlanQuery(const rdf::TripleStore& store,
                             const SelectQuery& query,
                             const PlanOptions& options) {
  if (!store.frozen()) {
    return util::Status::InvalidArgument(
        "TripleStore must be frozen before planning");
  }
  Plan plan;

  std::vector<LoweredPattern> lowered;
  lowered.reserve(query.patterns.size());
  for (const TriplePatternAst& tp : query.patterns) {
    LoweredPattern lp = Lower(store, tp);
    if (lp.impossible) plan.impossible = true;
    lowered.push_back(std::move(lp));
  }

  // Greedy join ordering: repeatedly pick the connected pattern with the
  // lowest cardinality estimate (falling back to disconnected patterns when
  // none connects — a cartesian step).
  std::vector<size_t> order(lowered.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (options.use_join_reordering && lowered.size() > 1 && !plan.impossible) {
    std::set<std::string> bound;
    std::vector<bool> used(lowered.size(), false);
    order.clear();
    for (size_t step = 0; step < lowered.size(); ++step) {
      double best_cost = std::numeric_limits<double>::infinity();
      size_t best = lowered.size();
      bool best_connected = false;
      for (size_t i = 0; i < lowered.size(); ++i) {
        if (used[i]) continue;
        bool connected = step == 0 || SharesVarWith(lowered[i], bound);
        double cost = EstimateCost(store, lowered[i], bound);
        // Prefer connected patterns; among equals, the cheaper one.
        if (best == lowered.size() || (connected && !best_connected) ||
            (connected == best_connected && cost < best_cost)) {
          best = i;
          best_cost = cost;
          best_connected = connected;
        }
      }
      used[best] = true;
      order.push_back(best);
      AddVars(lowered[best], &bound);
    }
  }

  // Assign slots in execution order.
  auto slot_for = [&](const std::string& var) -> int {
    if (var.empty()) return -1;
    auto it = plan.var_slots.find(var);
    if (it != plan.var_slots.end()) return it->second;
    int slot = static_cast<int>(plan.slot_count++);
    plan.var_slots.emplace(var, slot);
    return slot;
  };
  for (size_t idx : order) {
    LoweredPattern& lp = lowered[idx];
    lp.phys.s_slot = slot_for(lp.s_var);
    lp.phys.p_slot = slot_for(lp.p_var);
    lp.phys.o_slot = slot_for(lp.o_var);
    plan.steps.push_back(lp.phys);
  }

  // Lower OPTIONAL blocks (kept in parse order; they are usually tiny).
  for (const auto& block : query.optional_blocks) {
    PlannedOptional po;
    for (const TriplePatternAst& tp : block) {
      LoweredPattern lp = Lower(store, tp);
      if (lp.impossible) po.never_matches = true;
      lp.phys.s_slot = slot_for(lp.s_var);
      lp.phys.p_slot = slot_for(lp.p_var);
      lp.phys.o_slot = slot_for(lp.o_var);
      po.steps.push_back(lp.phys);
    }
    plan.optionals.push_back(std::move(po));
  }

  // Make sure every variable referenced elsewhere in the query has a slot,
  // even if the BGP is empty (degenerate queries).
  for (const SelectItem& item : query.items) {
    if (!item.is_aggregate || !item.count_star) slot_for(item.var.name);
  }
  for (const Variable& v : query.group_by) slot_for(v.name);

  // Attach filters at the earliest step after which their variables are
  // bound.
  std::vector<std::set<std::string>> bound_by_step(plan.steps.size() + 1);
  {
    std::set<std::string> acc;
    bound_by_step[0] = acc;
    for (size_t i = 0; i < order.size(); ++i) {
      AddVars(lowered[order[i]], &acc);
      bound_by_step[i + 1] = acc;
    }
  }
  for (const ExprPtr& f : query.filters) {
    std::set<std::string> vars;
    CollectExprVars(*f, &vars);
    bool found_step = false;
    for (size_t step = 0; step <= plan.steps.size() && !found_step; ++step) {
      bool all_bound = true;
      for (const std::string& v : vars) {
        if (!bound_by_step[step].count(v)) {
          all_bound = false;
          break;
        }
      }
      if (all_bound) {
        plan.filters.push_back(PlannedFilter{f, step, {}, {}});
        found_step = true;
      }
    }
    if (!found_step) {
      // References variables only OPTIONAL blocks can bind (or unbound
      // variables): evaluate after the optional extension.
      plan.post_optional_filters.push_back(PlannedFilter{f, 0, {}, {}});
    }
  }
  // Slot resolution happens last so filters over projection-only /
  // group-by variables (slots assigned above) resolve too.
  for (std::vector<PlannedFilter>* list :
       {&plan.filters, &plan.post_optional_filters}) {
    for (PlannedFilter& pf : *list) {
      ResolveFilterSlots(plan, *pf.expr, &pf.slots);
      pf.compiled = CompiledFilter::Compile(store, *pf.expr, pf.slots);
    }
  }
  return plan;
}

}  // namespace re2xolap::sparql
