#ifndef RE2XOLAP_TESTS_REFERENCE_EVAL_H_
#define RE2XOLAP_TESTS_REFERENCE_EVAL_H_

#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/result_table.h"
#include "util/result.h"

namespace re2xolap::testing {

/// A deliberately naive evaluator of the SPARQL subset, used as the oracle
/// of the executor differential tests. It shares with the production
/// executor only the parser's AST, the store's dictionary and the value
/// semantics of sparql/ebv.h (EvalExpr, CompareCells, OrderCells); it has
/// no planner, no plan, no index cursors, no binding blocks and no
/// compiled filters:
///
///   - every triple is read once through one all-wildcard Match, and the
///     BGP is a nested loop over that list in the query's pattern order;
///   - OPTIONAL blocks are naive left joins, applied left to right;
///   - every FILTER runs on the fully extended row, through EvalExpr;
///   - GROUP BY / aggregates, HAVING, DISTINCT, ORDER BY, LIMIT/OFFSET and
///     ASK are std::map / std::set / std::stable_sort code of its own.
///
/// Result conventions follow the production executor where SPARQL leaves
/// them open: SELECT * projects the query's user variables (sorted by
/// name here, so callers must match columns by name), an aggregate over
/// no rows yields no group, MIN/MAX/AVG of no values are 0, non-numeric
/// terms aggregate as 0, and ASK answers a one-cell table {"ask": 1|0}.
/// Invalid projections and unknown ORDER BY columns are InvalidArgument.
util::Result<sparql::ResultTable> ReferenceEvaluate(
    const rdf::TripleStore& store, const sparql::SelectQuery& query);

}  // namespace re2xolap::testing

#endif  // RE2XOLAP_TESTS_REFERENCE_EVAL_H_
