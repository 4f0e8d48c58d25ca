#ifndef RE2XOLAP_SPARQL_EBV_H_
#define RE2XOLAP_SPARQL_EBV_H_

#include <string>

#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/result_table.h"
#include "util/function_ref.h"

namespace re2xolap::sparql {

/// Tri-state effective boolean value for filter evaluation.
enum class Ebv : uint8_t { kFalse = 0, kTrue = 1, kError = 2 };

Ebv EbvAnd(Ebv a, Ebv b);
Ebv EbvOr(Ebv a, Ebv b);
Ebv EbvNot(Ebv a);

/// Comparison of two cells under SPARQL-ish semantics: numeric when both
/// sides are numeric, lexical when both are non-numeric, error otherwise.
/// Returns {comparable, cmp<0|0|>0}.
struct CellCompare {
  bool comparable = false;
  int cmp = 0;
};

CellCompare CompareCells(const rdf::TripleStore& store, const Cell& a,
                         const Cell& b);

/// Orders cells for ORDER BY / DISTINCT: nulls < terms < numbers; among
/// literal terms, numeric literals (by value) precede the others (by
/// lexical form). A strict weak order; distinct terms may tie.
int OrderCells(const rdf::TripleStore& store, const Cell& a, const Cell& b);

/// Variable lookup for EvalExpr (`const std::string& -> Cell`); pass
/// lambdas inline.
using VarLookup = util::FunctionRef<Cell(const std::string&)>;

/// EBV of a term: boolean literals by value, numeric literals non-zero,
/// everything else by non-emptiness of the lexical form. Shared by the
/// constant and bound-variable cases so the two agree on every term.
Ebv TermEbv(const rdf::Term& t);

/// The comparison step of EvalExpr on resolved operands. `lhs_missing` /
/// `rhs_missing` are non-null for a non-numeric constant absent from the
/// dictionary (whose cell is then null): such a constant equals nothing,
/// differs from everything bound, and orders lexically against a bound
/// term. CompiledFilter runs its general comparisons through this too.
Ebv EvalCompare(const rdf::TripleStore& store, CompareOp op, const Cell& lhs,
                const rdf::Term* lhs_missing, const Cell& rhs,
                const rdf::Term* rhs_missing);

/// Evaluates a filter expression against the bindings visible through
/// `lookup`. Bound-variable EBV follows the same rules as constant EBV:
/// boolean literals by value, numeric literals non-zero, any other term
/// by non-emptiness of its lexical form (so an empty-string literal is
/// kFalse whether it appears as a constant or through a variable).
Ebv EvalExpr(const rdf::TripleStore& store, const Expr& e,
             const VarLookup& lookup);

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_EBV_H_
