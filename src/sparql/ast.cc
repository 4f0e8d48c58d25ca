#include "sparql/ast.h"

#include <algorithm>
#include <sstream>

namespace re2xolap::sparql {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kCount:
      return "COUNT";
  }
  return "?";
}

std::string SelectItem::OutputName() const {
  if (!alias.empty()) return alias;
  if (!is_aggregate) return var.name;
  std::string base = AggFuncName(func);
  for (char& c : base) c = static_cast<char>(std::tolower(c));
  return base + "_" + (count_star ? "star" : var.name);
}

namespace {

std::string TermOrVarToString(const TermOrVar& tv) {
  if (IsVar(tv)) return "?" + AsVar(tv).name;
  return AsTerm(tv).ToString();
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

void ExprToString(const Expr& e, std::ostringstream& os) {
  switch (e.kind) {
    case ExprKind::kConstant:
      os << e.constant.ToString();
      break;
    case ExprKind::kVariable:
      os << "?" << e.var.name;
      break;
    case ExprKind::kCompare:
      os << "(";
      ExprToString(*e.children[0], os);
      os << " " << CompareOpName(e.op) << " ";
      ExprToString(*e.children[1], os);
      os << ")";
      break;
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      os << "(";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) os << (e.kind == ExprKind::kAnd ? " && " : " || ");
        ExprToString(*e.children[i], os);
      }
      os << ")";
      break;
    }
    case ExprKind::kNot:
      os << "(!";
      ExprToString(*e.children[0], os);
      os << ")";
      break;
    case ExprKind::kIn: {
      os << "(?" << e.var.name << " IN (";
      for (size_t i = 0; i < e.in_list.size(); ++i) {
        if (i > 0) os << ", ";
        os << e.in_list[i].ToString();
      }
      os << "))";
      break;
    }
    case ExprKind::kBound:
      os << "BOUND(?" << e.var.name << ")";
      break;
  }
}

/// True when every variable `e` names satisfies `is_key`.
template <typename Pred>
bool OnlyNames(const Expr& e, const Pred& is_key) {
  switch (e.kind) {
    case ExprKind::kVariable:
    case ExprKind::kIn:
    case ExprKind::kBound:
      if (!is_key(e.var.name)) return false;
      break;
    default:
      break;
  }
  for (const ExprPtr& c : e.children) {
    if (!OnlyNames(*c, is_key)) return false;
  }
  return true;
}

}  // namespace

std::optional<RefinementSplit> SplitRefinement(const SelectQuery& query) {
  if (query.is_ask || query.select_all || query.group_by.empty() ||
      !query.has_aggregates() || !query.optional_blocks.empty()) {
    return std::nullopt;
  }
  // A HAVING variable names the first output column of that name, so a
  // key qualifies only when that column is the key itself (not an
  // aggregate aliased to the key's name).
  auto is_key = [&](const std::string& name) {
    auto grouped = [&](const Variable& g) { return g.name == name; };
    if (std::none_of(query.group_by.begin(), query.group_by.end(), grouped)) {
      return false;
    }
    for (const SelectItem& it : query.items) {
      if (it.OutputName() == name) {
        return !it.is_aggregate && it.var.name == name;
      }
    }
    return false;
  };
  RefinementSplit split;
  split.core = query;
  split.core.filters.clear();
  for (const ExprPtr& f : query.filters) {
    (OnlyNames(*f, is_key) ? split.residual.having : split.core.filters)
        .push_back(f);
  }
  split.residual.having.insert(split.residual.having.end(),
                               query.having.begin(), query.having.end());
  split.residual.distinct = query.distinct;
  split.residual.order_by = query.order_by;
  split.residual.limit = query.limit;
  split.residual.offset = query.offset;
  if (split.residual.having.empty() && !query.distinct &&
      query.order_by.empty() && !query.limit.has_value() &&
      query.offset == 0) {
    return std::nullopt;
  }
  split.core.having.clear();
  split.core.distinct = false;
  split.core.order_by.clear();
  split.core.limit.reset();
  split.core.offset = 0;
  return split;
}

std::string ToSparql(const Expr& expr) {
  std::ostringstream os;
  ExprToString(expr, os);
  return os.str();
}

std::string ToSparql(const SelectQuery& q) {
  std::ostringstream os;
  if (q.is_ask) {
    os << "ASK";
  } else {
    os << "SELECT ";
    if (q.distinct) os << "DISTINCT ";
    if (q.select_all) {
      os << "*";
    } else {
      for (size_t i = 0; i < q.items.size(); ++i) {
        const SelectItem& it = q.items[i];
        if (i > 0) os << " ";
        if (!it.is_aggregate) {
          os << "?" << it.var.name;
        } else {
          os << "(" << AggFuncName(it.func) << "("
             << (it.distinct_agg ? "DISTINCT " : "")
             << (it.count_star ? std::string("*") : "?" + it.var.name)
             << ") AS ?" << it.OutputName() << ")";
        }
      }
    }
  }
  os << " WHERE {\n";
  for (const TriplePatternAst& tp : q.patterns) {
    os << "  " << TermOrVarToString(tp.s) << " " << TermOrVarToString(tp.p)
       << " " << TermOrVarToString(tp.o) << " .\n";
  }
  for (const auto& block : q.optional_blocks) {
    os << "  OPTIONAL {\n";
    for (const TriplePatternAst& tp : block) {
      os << "    " << TermOrVarToString(tp.s) << " "
         << TermOrVarToString(tp.p) << " " << TermOrVarToString(tp.o)
         << " .\n";
    }
    os << "  }\n";
  }
  for (const ExprPtr& f : q.filters) {
    os << "  FILTER " << ToSparql(*f) << " .\n";
  }
  os << "}";
  if (!q.group_by.empty()) {
    os << " GROUP BY";
    for (const Variable& v : q.group_by) os << " ?" << v.name;
  }
  for (const ExprPtr& h : q.having) {
    os << " HAVING " << ToSparql(*h);
  }
  if (!q.order_by.empty()) {
    os << " ORDER BY";
    for (const OrderKey& k : q.order_by) {
      os << (k.ascending ? " ASC(?" : " DESC(?") << k.column << ")";
    }
  }
  if (q.limit.has_value()) os << " LIMIT " << *q.limit;
  if (q.offset > 0) os << " OFFSET " << q.offset;
  return os.str();
}

}  // namespace re2xolap::sparql
