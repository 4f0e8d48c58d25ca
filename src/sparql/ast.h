#ifndef RE2XOLAP_SPARQL_AST_H_
#define RE2XOLAP_SPARQL_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "rdf/term.h"

namespace re2xolap::sparql {

/// A SPARQL variable (without the leading '?').
struct Variable {
  std::string name;
  friend bool operator==(const Variable& a, const Variable& b) {
    return a.name == b.name;
  }
};

/// Either a concrete RDF term or a variable — one position of a triple
/// pattern.
using TermOrVar = std::variant<rdf::Term, Variable>;

inline bool IsVar(const TermOrVar& tv) {
  return std::holds_alternative<Variable>(tv);
}
inline const Variable& AsVar(const TermOrVar& tv) {
  return std::get<Variable>(tv);
}
inline const rdf::Term& AsTerm(const TermOrVar& tv) {
  return std::get<rdf::Term>(tv);
}

/// One basic graph pattern triple: subject/predicate/object, each a term or
/// a variable. Property paths (`p1/p2`) are desugared by the parser into
/// chains of TriplePatternAst with fresh internal variables.
struct TriplePatternAst {
  TermOrVar s;
  TermOrVar p;
  TermOrVar o;
};

/// Filter / expression nodes.
enum class ExprKind : uint8_t {
  kConstant,    // term constant
  kVariable,    // variable reference
  kCompare,     // binary comparison (op in CompareOp)
  kAnd,
  kOr,
  kNot,
  kIn,          // variable IN (c1, c2, ...)
  kBound,       // BOUND(?v)
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Expression tree node. Which fields are meaningful depends on `kind`.
struct Expr {
  ExprKind kind;
  rdf::Term constant;            // kConstant
  Variable var;                  // kVariable / kIn / kBound
  CompareOp op = CompareOp::kEq; // kCompare
  std::vector<ExprPtr> children; // kCompare(2), kAnd/kOr(2+), kNot(1)
  std::vector<rdf::Term> in_list;  // kIn

  static ExprPtr Constant(rdf::Term t) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kConstant;
    e->constant = std::move(t);
    return e;
  }
  static ExprPtr Var(std::string name) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kVariable;
    e->var = Variable{std::move(name)};
    return e;
  }
  static ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kCompare;
    e->op = op;
    e->children = {std::move(lhs), std::move(rhs)};
    return e;
  }
  static ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kAnd;
    e->children = {std::move(lhs), std::move(rhs)};
    return e;
  }
  static ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kOr;
    e->children = {std::move(lhs), std::move(rhs)};
    return e;
  }
  static ExprPtr Not(ExprPtr inner) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kNot;
    e->children = {std::move(inner)};
    return e;
  }
  static ExprPtr In(std::string var, std::vector<rdf::Term> values) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kIn;
    e->var = Variable{std::move(var)};
    e->in_list = std::move(values);
    return e;
  }
};

/// Aggregation functions supported in the SELECT clause.
enum class AggFunc : uint8_t { kSum, kMin, kMax, kAvg, kCount };

const char* AggFuncName(AggFunc f);

/// One projected column: either a plain (group-by) variable or an
/// aggregate over a variable.
struct SelectItem {
  /// When false, this is `?var`; when true, `AGG(?var) AS ?alias`.
  bool is_aggregate = false;
  Variable var;            // the projected or aggregated variable
  AggFunc func = AggFunc::kSum;
  bool count_star = false;     // COUNT(*)
  bool distinct_agg = false;   // COUNT(DISTINCT ?v)
  std::string alias;        // output column name; defaults derived if empty

  /// Output column name: alias, or var name, or "agg_var".
  std::string OutputName() const;
};

/// Sort key for ORDER BY.
struct OrderKey {
  std::string column;  // output column name (variable or aggregate alias)
  bool ascending = true;
};

/// A parsed SELECT query:
///   SELECT [DISTINCT] items WHERE { patterns FILTER(...)* }
///   [GROUP BY vars] [HAVING expr] [ORDER BY keys] [LIMIT n] [OFFSET n]
struct SelectQuery {
  /// ASK query: no projection, the answer is whether any solution exists.
  bool is_ask = false;
  bool distinct = false;
  bool select_all = false;  // SELECT *
  std::vector<SelectItem> items;
  std::vector<TriplePatternAst> patterns;
  /// OPTIONAL { ... } blocks, applied left-to-right after the mandatory
  /// BGP (left-join semantics; unmatched blocks leave their variables
  /// unbound). Blocks contain plain triple patterns.
  std::vector<std::vector<TriplePatternAst>> optional_blocks;
  std::vector<ExprPtr> filters;
  std::vector<Variable> group_by;
  /// Post-aggregation filters; variables refer to output column names
  /// (aggregate aliases or group-by variables).
  std::vector<ExprPtr> having;
  std::vector<OrderKey> order_by;
  std::optional<uint64_t> limit;
  uint64_t offset = 0;

  bool has_aggregates() const {
    for (const SelectItem& it : items) {
      if (it.is_aggregate) return true;
    }
    return false;
  }
};

/// Renders the query back to SPARQL text (used to present synthesized
/// queries to the user, Figure 2 / Figure 10 style).
std::string ToSparql(const SelectQuery& query);

/// Renders a single expression as SPARQL filter text.
std::string ToSparql(const Expr& expr);

/// A grouped query cut into the part that builds its group table (the
/// core) and the part that only keeps, orders and slices whole groups
/// (the residual). Running `residual`'s post-join operators
/// (ApplyPostOps) over the core's result table yields the query's own
/// result, bit for bit (DESIGN.md §20).
struct RefinementSplit {
  /// The query without its lifted FILTERs, HAVING, DISTINCT, ORDER BY and
  /// LIMIT/OFFSET.
  SelectQuery core;
  /// Only the post-join fields are set: `having` holds the lifted FILTERs
  /// first, then the query's HAVING; `distinct`, `order_by`, `limit` and
  /// `offset` are the query's.
  SelectQuery residual;
};

/// Splits `query` when it has a non-empty GROUP BY and an aggregate, no
/// OPTIONAL, and is neither ASK nor SELECT *. A FILTER is lifted into the
/// residual when every variable it names is a GROUP BY key projected
/// under its own name: such a filter keeps or drops whole groups, so it
/// is equivalent to a HAVING conjunct. Every other FILTER stays in the
/// core. Returns nullopt when the query does not qualify or its residual
/// is empty (the query is its own core).
std::optional<RefinementSplit> SplitRefinement(const SelectQuery& query);

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_AST_H_
