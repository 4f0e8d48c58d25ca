#include "sparql/ebv.h"

namespace re2xolap::sparql {

Ebv EbvAnd(Ebv a, Ebv b) {
  if (a == Ebv::kFalse || b == Ebv::kFalse) return Ebv::kFalse;
  if (a == Ebv::kError || b == Ebv::kError) return Ebv::kError;
  return Ebv::kTrue;
}

Ebv EbvOr(Ebv a, Ebv b) {
  if (a == Ebv::kTrue || b == Ebv::kTrue) return Ebv::kTrue;
  if (a == Ebv::kError || b == Ebv::kError) return Ebv::kError;
  return Ebv::kFalse;
}

Ebv EbvNot(Ebv a) {
  if (a == Ebv::kError) return Ebv::kError;
  return a == Ebv::kTrue ? Ebv::kFalse : Ebv::kTrue;
}

CellCompare CompareCells(const rdf::TripleStore& store, const Cell& a,
                         const Cell& b) {
  CellCompare out;
  if (a.is_null() || b.is_null()) return out;
  auto numeric = [&](const Cell& c, double* v) {
    if (c.is_number()) {
      *v = c.number;
      return true;
    }
    if (store.term(c.term).is_numeric_literal()) {
      *v = store.dictionary().numeric(c.term);
      return true;
    }
    return false;
  };
  double va, vb;
  if (numeric(a, &va) && numeric(b, &vb)) {
    out.comparable = true;
    out.cmp = va < vb ? -1 : (va > vb ? 1 : 0);
    return out;
  }
  if (a.is_term() && b.is_term()) {
    const rdf::Term& ta = store.term(a.term);
    const rdf::Term& tb = store.term(b.term);
    // Different kinds (IRI vs literal) are only ==-comparable.
    out.comparable = true;
    if (ta.kind != tb.kind) {
      out.cmp = ta.kind < tb.kind ? -1 : 1;
      return out;
    }
    int c = ta.value.compare(tb.value);
    out.cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
    return out;
  }
  return out;  // mixed number vs non-numeric term: incomparable
}

int OrderCells(const rdf::TripleStore& store, const Cell& a, const Cell& b) {
  if (a.kind != b.kind) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind) ? -1 : 1;
  }
  switch (a.kind) {
    case Cell::Kind::kNull:
      return 0;
    case Cell::Kind::kNumber:
      return a.number < b.number ? -1 : (a.number > b.number ? 1 : 0);
    case Cell::Kind::kTerm: {
      // Numeric literals sort before other literals. Comparing the two
      // lexically, as FILTERs do, would make the order intransitive:
      // 3 < 10 numerically but "10" < "3" lexically.
      const bool na = store.term(a.term).is_numeric_literal();
      const bool nb = store.term(b.term).is_numeric_literal();
      if (na != nb && store.term(a.term).is_literal() &&
          store.term(b.term).is_literal()) {
        return na ? -1 : 1;
      }
      CellCompare cc = CompareCells(store, a, b);
      if (cc.comparable) return cc.cmp;
      return a.term < b.term ? -1 : (a.term > b.term ? 1 : 0);
    }
  }
  return 0;
}

Ebv TermEbv(const rdf::Term& t) {
  if (t.literal_type == rdf::LiteralType::kBoolean) {
    return t.value == "true" ? Ebv::kTrue : Ebv::kFalse;
  }
  if (t.is_numeric_literal()) {
    return t.AsDouble() != 0.0 ? Ebv::kTrue : Ebv::kFalse;
  }
  return t.value.empty() ? Ebv::kFalse : Ebv::kTrue;
}

Ebv EvalCompare(const rdf::TripleStore& store, CompareOp op, const Cell& lhs,
                const rdf::Term* lhs_missing, const Cell& rhs,
                const rdf::Term* rhs_missing) {
  if (lhs_missing != nullptr || rhs_missing != nullptr) {
    const Cell& other = lhs_missing != nullptr ? rhs : lhs;
    if (other.is_null()) return Ebv::kError;
    if (op == CompareOp::kEq) return Ebv::kFalse;
    if (op == CompareOp::kNe) return Ebv::kTrue;
    // Ordering against a missing term: compare lexically with its string
    // form.
    if (other.is_number()) return Ebv::kError;
    const std::string& other_str = store.term(other.term).value;
    // c is "lhs vs rhs" ordering.
    int c = lhs_missing != nullptr ? lhs_missing->value.compare(other_str)
                                   : other_str.compare(rhs_missing->value);
    switch (op) {
      case CompareOp::kLt:
        return c < 0 ? Ebv::kTrue : Ebv::kFalse;
      case CompareOp::kLe:
        return c <= 0 ? Ebv::kTrue : Ebv::kFalse;
      case CompareOp::kGt:
        return c > 0 ? Ebv::kTrue : Ebv::kFalse;
      case CompareOp::kGe:
        return c >= 0 ? Ebv::kTrue : Ebv::kFalse;
      default:
        return Ebv::kError;
    }
  }
  CellCompare cc = CompareCells(store, lhs, rhs);
  if (!cc.comparable) return Ebv::kError;
  bool r = false;
  switch (op) {
    case CompareOp::kEq:
      r = cc.cmp == 0;
      break;
    case CompareOp::kNe:
      r = cc.cmp != 0;
      break;
    case CompareOp::kLt:
      r = cc.cmp < 0;
      break;
    case CompareOp::kLe:
      r = cc.cmp <= 0;
      break;
    case CompareOp::kGt:
      r = cc.cmp > 0;
      break;
    case CompareOp::kGe:
      r = cc.cmp >= 0;
      break;
  }
  return r ? Ebv::kTrue : Ebv::kFalse;
}

Ebv EvalExpr(const rdf::TripleStore& store, const Expr& e,
             const VarLookup& lookup) {
  switch (e.kind) {
    case ExprKind::kConstant:
      return TermEbv(e.constant);
    case ExprKind::kVariable: {
      Cell c = lookup(e.var.name);
      if (c.is_null()) return Ebv::kError;
      if (c.is_number()) return c.number != 0.0 ? Ebv::kTrue : Ebv::kFalse;
      return TermEbv(store.term(c.term));
    }
    case ExprKind::kCompare: {
      // Evaluate operands to cells.
      auto operand = [&](const Expr& child) -> Cell {
        if (child.kind == ExprKind::kVariable) return lookup(child.var.name);
        if (child.kind == ExprKind::kConstant) {
          if (child.constant.is_numeric_literal()) {
            return Cell::OfNumber(child.constant.AsDouble());
          }
          rdf::TermId id = store.Lookup(child.constant);
          if (id != rdf::kInvalidTermId) return Cell::OfTerm(id);
          // Constant not in the store: compare by materialized value.
          // Represent as number for numerics (handled above); for other
          // terms fall back to lexical comparison through a pseudo-null.
          return Cell::Null();
        }
        return Cell::Null();
      };
      Cell lhs = operand(*e.children[0]);
      Cell rhs = operand(*e.children[1]);
      // A non-numeric constant that resolved to null is missing from the
      // dictionary.
      auto missing_const = [](const Expr& child,
                              const Cell& cell) -> const rdf::Term* {
        return child.kind == ExprKind::kConstant &&
                       !child.constant.is_numeric_literal() && cell.is_null()
                   ? &child.constant
                   : nullptr;
      };
      return EvalCompare(store, e.op, lhs, missing_const(*e.children[0], lhs),
                         rhs, missing_const(*e.children[1], rhs));
    }
    case ExprKind::kAnd: {
      Ebv acc = Ebv::kTrue;
      for (const ExprPtr& c : e.children) {
        acc = EbvAnd(acc, EvalExpr(store, *c, lookup));
        if (acc == Ebv::kFalse) return acc;
      }
      return acc;
    }
    case ExprKind::kOr: {
      Ebv acc = Ebv::kFalse;
      for (const ExprPtr& c : e.children) {
        acc = EbvOr(acc, EvalExpr(store, *c, lookup));
        if (acc == Ebv::kTrue) return acc;
      }
      return acc;
    }
    case ExprKind::kNot:
      return EbvNot(EvalExpr(store, *e.children[0], lookup));
    case ExprKind::kIn: {
      Cell c = lookup(e.var.name);
      if (c.is_null()) return Ebv::kError;
      for (const rdf::Term& t : e.in_list) {
        Cell rhs;
        if (t.is_numeric_literal()) {
          rhs = Cell::OfNumber(t.AsDouble());
        } else {
          rdf::TermId id = store.Lookup(t);
          if (id == rdf::kInvalidTermId) continue;
          rhs = Cell::OfTerm(id);
        }
        CellCompare cc = CompareCells(store, c, rhs);
        if (cc.comparable && cc.cmp == 0) return Ebv::kTrue;
      }
      return Ebv::kFalse;
    }
    case ExprKind::kBound: {
      return lookup(e.var.name).is_null() ? Ebv::kFalse : Ebv::kTrue;
    }
  }
  return Ebv::kError;
}

}  // namespace re2xolap::sparql
