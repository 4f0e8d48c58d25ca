#include "tests/reference_eval.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sparql/ebv.h"

namespace re2xolap::testing {
namespace {

using sparql::Cell;
using sparql::Row;
using sparql::SelectItem;
using sparql::SelectQuery;
using sparql::TermOrVar;
using sparql::TriplePatternAst;

/// The variables of the query's patterns, numbered in order of first
/// mention.
using Vars = std::map<std::string, int>;

Vars NumberVariables(const SelectQuery& query) {
  Vars vars;
  auto note = [&](const TriplePatternAst& tp) {
    for (const TermOrVar* pos : {&tp.s, &tp.p, &tp.o}) {
      if (!sparql::IsVar(*pos)) continue;
      vars.emplace(sparql::AsVar(*pos).name, static_cast<int>(vars.size()));
    }
  };
  for (const TriplePatternAst& tp : query.patterns) note(tp);
  for (const auto& block : query.optional_blocks) {
    for (const TriplePatternAst& tp : block) note(tp);
  }
  return vars;
}

/// One solution: the term bound to each variable, kInvalidTermId when
/// unbound.
using Binding = std::vector<rdf::TermId>;

/// One pattern position: a variable, or a constant's id (kInvalidTermId
/// when the constant is not in the dictionary, so no triple matches it).
struct Position {
  int var = -1;
  rdf::TermId id = rdf::kInvalidTermId;
};

Position Resolve(const rdf::TripleStore& store, const Vars& vars,
                 const TermOrVar& tv) {
  Position pos;
  if (sparql::IsVar(tv)) {
    pos.var = vars.at(sparql::AsVar(tv).name);
  } else {
    pos.id = store.Lookup(sparql::AsTerm(tv));
  }
  return pos;
}

/// True when `value` at `pos` agrees with the constant or with `row`'s
/// binding of the variable (an unbound variable agrees with anything).
bool Fits(const Position& pos, rdf::TermId value, const Binding& row) {
  if (pos.var < 0) return pos.id == value;
  return row[pos.var] == rdf::kInvalidTermId || row[pos.var] == value;
}

/// Binds `pos` to `value`; false when an earlier position of the same
/// pattern bound the variable to something else.
bool Unify(const Position& pos, rdf::TermId value, Binding* row) {
  if (pos.var < 0) return pos.id == value;
  rdf::TermId& slot = (*row)[pos.var];
  if (slot == rdf::kInvalidTermId) slot = value;
  return slot == value;
}

/// Nested-loop join of `rows` with one triple pattern over every triple.
std::vector<Binding> Join(const rdf::TripleStore& store, const Vars& vars,
                          const std::vector<rdf::EncodedTriple>& triples,
                          const std::vector<Binding>& rows,
                          const TriplePatternAst& tp) {
  const Position s = Resolve(store, vars, tp.s);
  const Position p = Resolve(store, vars, tp.p);
  const Position o = Resolve(store, vars, tp.o);
  std::vector<Binding> out;
  for (const Binding& row : rows) {
    for (const rdf::EncodedTriple& t : triples) {
      if (!Fits(s, t.s, row) || !Fits(p, t.p, row) || !Fits(o, t.o, row)) {
        continue;
      }
      Binding b = row;
      if (Unify(s, t.s, &b) && Unify(p, t.p, &b) && Unify(o, t.o, &b)) {
        out.push_back(std::move(b));
      }
    }
  }
  return out;
}

Cell CellOf(const Vars& vars, const Binding& row, const std::string& name) {
  auto it = vars.find(name);
  return it == vars.end() || row[it->second] == rdf::kInvalidTermId
             ? Cell::Null()
             : Cell::OfTerm(row[it->second]);
}

/// The solutions of the WHERE clause: BGP, OPTIONAL left joins, FILTERs.
std::vector<Binding> Solutions(const rdf::TripleStore& store,
                               const Vars& vars,
                               const SelectQuery& query) {
  std::vector<rdf::EncodedTriple> triples;
  for (const rdf::EncodedTriple& t : store.Match(rdf::TriplePattern{})) {
    triples.push_back(t);
  }
  std::vector<Binding> rows{Binding(vars.size(), rdf::kInvalidTermId)};
  for (const TriplePatternAst& tp : query.patterns) {
    rows = Join(store, vars, triples, rows, tp);
  }
  for (const std::vector<TriplePatternAst>& block : query.optional_blocks) {
    std::vector<Binding> extended;
    for (const Binding& row : rows) {
      std::vector<Binding> matches{row};
      for (const TriplePatternAst& tp : block) {
        matches = Join(store, vars, triples, matches, tp);
      }
      if (matches.empty()) {
        extended.push_back(row);
      } else {
        for (Binding& m : matches) extended.push_back(std::move(m));
      }
    }
    rows = std::move(extended);
  }
  std::vector<Binding> kept;
  for (Binding& row : rows) {
    auto lookup = [&](const std::string& name) {
      return CellOf(vars, row, name);
    };
    bool pass = true;
    for (const sparql::ExprPtr& f : query.filters) {
      if (sparql::EvalExpr(store, *f, lookup) != sparql::Ebv::kTrue) {
        pass = false;
        break;
      }
    }
    if (pass) kept.push_back(std::move(row));
  }
  return kept;
}

/// Running state of one aggregate in one group.
struct AggState {
  uint64_t rows = 0;   // COUNT(*)
  uint64_t count = 0;  // bound values
  double sum = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::set<rdf::TermId> distinct;
};

Cell Finish(const SelectItem& item, const AggState& st) {
  if (item.count_star) return Cell::OfNumber(static_cast<double>(st.rows));
  if (item.distinct_agg) {
    return Cell::OfNumber(static_cast<double>(st.distinct.size()));
  }
  const double n = static_cast<double>(st.count);
  switch (item.func) {
    case sparql::AggFunc::kSum:
      return Cell::OfNumber(st.sum);
    case sparql::AggFunc::kMin:
      return Cell::OfNumber(st.count ? st.min : 0.0);
    case sparql::AggFunc::kMax:
      return Cell::OfNumber(st.count ? st.max : 0.0);
    case sparql::AggFunc::kAvg:
      return Cell::OfNumber(st.count ? st.sum / n : 0.0);
    case sparql::AggFunc::kCount:
      return Cell::OfNumber(n);
  }
  return Cell::Null();
}

std::vector<Row> Aggregate(const rdf::TripleStore& store, const Vars& vars,
                           const SelectQuery& query,
                           const std::vector<SelectItem>& items,
                           const std::vector<Binding>& solutions) {
  std::map<std::vector<rdf::TermId>, std::vector<AggState>> groups;
  for (const Binding& row : solutions) {
    std::vector<rdf::TermId> key;
    for (const sparql::Variable& g : query.group_by) {
      const Cell c = CellOf(vars, row, g.name);
      key.push_back(c.is_null() ? rdf::kInvalidTermId : c.term);
    }
    std::vector<AggState>& states = groups[key];
    states.resize(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      const SelectItem& item = items[i];
      if (!item.is_aggregate) continue;
      AggState& st = states[i];
      ++st.rows;
      if (item.count_star) continue;
      const Cell c = CellOf(vars, row, item.var.name);
      if (c.is_null()) continue;
      if (item.distinct_agg) {
        st.distinct.insert(c.term);
        continue;
      }
      const rdf::Term& term = store.term(c.term);
      const double v = term.is_numeric_literal() ? term.AsDouble() : 0.0;
      ++st.count;
      st.sum += v;
      st.min = std::min(st.min, v);
      st.max = std::max(st.max, v);
    }
  }
  std::vector<Row> out;
  for (const auto& [key, states] : groups) {
    Row row;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].is_aggregate) {
        row.push_back(Finish(items[i], states[i]));
        continue;
      }
      for (size_t g = 0; g < query.group_by.size(); ++g) {
        if (query.group_by[g].name != items[i].var.name) continue;
        row.push_back(key[g] == rdf::kInvalidTermId ? Cell::Null()
                                                    : Cell::OfTerm(key[g]));
        break;
      }
    }
    out.push_back(std::move(row));
  }
  return out;
}

/// The projected columns, or InvalidArgument for projections the
/// executor rejects. SELECT * projects the user variables (not the
/// parser's "__" path variables).
util::Result<std::vector<SelectItem>> Projection(const SelectQuery& query,
                                                 const Vars& vars,
                                                 bool aggregating) {
  std::vector<SelectItem> items = query.items;
  if (query.select_all) {
    if (aggregating) {
      return util::Status::InvalidArgument("SELECT * with aggregation");
    }
    for (const auto& [name, index] : vars) {
      if (name.rfind("__", 0) == 0) continue;
      SelectItem item;
      item.var = sparql::Variable{name};
      items.push_back(std::move(item));
    }
  }
  if (items.empty()) return util::Status::InvalidArgument("no columns");
  if (aggregating) {
    for (const SelectItem& item : items) {
      if (item.is_aggregate) continue;
      if (std::find(query.group_by.begin(), query.group_by.end(),
                    item.var) == query.group_by.end()) {
        return util::Status::InvalidArgument("ungrouped projection");
      }
    }
  }
  return items;
}

/// Exact identity of a cell, for DISTINCT.
std::tuple<int, rdf::TermId, double> Identity(const Cell& c) {
  return {static_cast<int>(c.kind), c.term, c.is_number() ? c.number : 0.0};
}

}  // namespace

util::Result<sparql::ResultTable> ReferenceEvaluate(
    const rdf::TripleStore& store, const SelectQuery& query) {
  if (query.is_ask) {
    sparql::ResultTable table(&store.dictionary(), {"ask"});
    const bool any = !Solutions(store, NumberVariables(query), query).empty();
    table.AddRow({Cell::OfNumber(any ? 1.0 : 0.0)});
    return table;
  }
  const bool aggregating = query.has_aggregates() || !query.group_by.empty();
  const Vars vars = NumberVariables(query);
  RE2X_ASSIGN_OR_RETURN(std::vector<SelectItem> items,
                        Projection(query, vars, aggregating));
  std::vector<std::string> columns;
  for (const SelectItem& item : items) columns.push_back(item.OutputName());
  sparql::ResultTable table(&store.dictionary(), columns);

  const std::vector<Binding> solutions = Solutions(store, vars, query);
  std::vector<Row> rows;
  if (aggregating) {
    rows = Aggregate(store, vars, query, items, solutions);
  } else {
    for (const Binding& b : solutions) {
      Row row;
      for (const SelectItem& item : items) {
        row.push_back(CellOf(vars, b, item.var.name));
      }
      rows.push_back(std::move(row));
    }
  }

  if (!query.having.empty()) {
    std::vector<Row> kept;
    for (Row& row : rows) {
      auto lookup = [&](const std::string& name) {
        const int idx = table.ColumnIndex(name);
        return idx < 0 ? Cell::Null() : row[idx];
      };
      bool pass = true;
      for (const sparql::ExprPtr& h : query.having) {
        if (sparql::EvalExpr(store, *h, lookup) != sparql::Ebv::kTrue) {
          pass = false;
          break;
        }
      }
      if (pass) kept.push_back(std::move(row));
    }
    rows = std::move(kept);
  }

  if (query.distinct) {
    std::set<std::vector<std::tuple<int, rdf::TermId, double>>> seen;
    std::vector<Row> unique;
    for (Row& row : rows) {
      std::vector<std::tuple<int, rdf::TermId, double>> id;
      for (const Cell& c : row) id.push_back(Identity(c));
      if (seen.insert(std::move(id)).second) unique.push_back(std::move(row));
    }
    rows = std::move(unique);
  }

  if (!query.order_by.empty()) {
    std::vector<std::pair<int, bool>> keys;
    for (const sparql::OrderKey& k : query.order_by) {
      const int idx = table.ColumnIndex(k.column);
      if (idx < 0) {
        return util::Status::InvalidArgument("unknown ORDER BY column ?" +
                                             k.column);
      }
      keys.emplace_back(idx, k.ascending);
    }
    auto less = [&](const Row& a, const Row& b) {
      for (auto [idx, asc] : keys) {
        const int c = sparql::OrderCells(store, a[idx], b[idx]);
        if (c != 0) return asc ? c < 0 : c > 0;
      }
      return false;
    };
    std::stable_sort(rows.begin(), rows.end(), less);
  }

  const size_t begin = std::min<size_t>(query.offset, rows.size());
  size_t end = rows.size();
  if (query.limit.has_value()) {
    end = std::min<size_t>(begin + *query.limit, rows.size());
  }
  for (size_t r = begin; r < end; ++r) table.AddRow(std::move(rows[r]));
  return table;
}

}  // namespace re2xolap::testing
