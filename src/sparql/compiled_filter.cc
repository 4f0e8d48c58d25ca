#include "sparql/compiled_filter.h"

#include <array>

namespace re2xolap::sparql {

namespace {

/// Collects the operands of a chain of same-kind AND/OR nodes: Kleene
/// AND/OR are associative and side-effect free, so a nested chain
/// evaluates to the same value as one flat n-ary node.
void Flatten(const Expr& e, ExprKind kind, std::vector<const Expr*>* out) {
  for (const ExprPtr& c : e.children) {
    if (c->kind == kind) {
      Flatten(*c, kind, out);
    } else {
      out->push_back(c.get());
    }
  }
}

bool IsNonNumericConstant(const Expr& e) {
  return e.kind == ExprKind::kConstant && !e.constant.is_numeric_literal();
}

}  // namespace

CompiledFilter CompiledFilter::Compile(const rdf::TripleStore& store,
                                       const Expr& e,
                                       const FilterSlots& slots) {
  CompiledFilter f;
  f.CompileNode(store, e, slots);
  return f;
}

void CompiledFilter::AppendAliases(const rdf::TripleStore& store,
                                   const rdf::Term& t) {
  // Every interned term with t's kind and lexical form, whatever its
  // datatype tag: exactly the terms CompareCells calls equal to `t`.
  for (uint8_t lt = 0; lt <= static_cast<uint8_t>(rdf::LiteralType::kOther);
       ++lt) {
    const rdf::TermId id = store.Lookup(
        rdf::Term(t.kind, t.value, static_cast<rdf::LiteralType>(lt)));
    if (id != rdf::kInvalidTermId) ids_.push_back(id);
  }
}

void CompiledFilter::BuildTupleSet(Node* n) {
  // A plain membership (?v = <c>, or IN without numbers) is true or false
  // for every bound value, so when all slots are bound the OR of ANDs
  // never yields an error and equals "some disjunct matches every slot".
  auto plain = [](const Node& m) {
    return m.kind == Kind::kMember && !m.negate && m.slot >= 0 &&
           m.num_begin == m.num_end;
  };
  std::vector<std::vector<const Node*>> disjuncts;
  for (uint32_t c = n->begin; c < n->end; ++c) {
    const Node& k = nodes_[children_[c]];
    std::vector<const Node*> conj;
    if (plain(k)) {
      conj.push_back(&k);
    } else if (k.kind == Kind::kAnd) {
      for (uint32_t cc = k.begin; cc < k.end; ++cc) {
        if (!plain(nodes_[children_[cc]])) return;
        conj.push_back(&nodes_[children_[cc]]);
      }
    } else {
      return;
    }
    std::sort(conj.begin(), conj.end(),
              [](const Node* a, const Node* b) { return a->slot < b->slot; });
    disjuncts.push_back(std::move(conj));
  }
  if (disjuncts.empty()) return;
  const size_t width = disjuncts.front().size();
  if (width > kMaxTupleWidth) return;
  for (const std::vector<const Node*>& conj : disjuncts) {
    if (conj.size() != width) return;
    for (size_t j = 0; j < width; ++j) {
      if (conj[j]->slot != disjuncts.front()[j]->slot) return;  // other vars
      if (j > 0 && conj[j]->slot == conj[j - 1]->slot) return;  // repeated
    }
  }
  // Expand every disjunct's alias sets into value tuples.
  using Tuple = std::array<rdf::TermId, kMaxTupleWidth>;
  std::vector<Tuple> tuples;
  for (const std::vector<const Node*>& conj : disjuncts) {
    std::vector<Tuple> partial(1, Tuple{});
    for (size_t j = 0; j < width; ++j) {
      std::vector<Tuple> next;
      for (const Tuple& t : partial) {
        for (uint32_t k = conj[j]->begin; k < conj[j]->end; ++k) {
          Tuple e = t;
          e[j] = ids_[k];
          next.push_back(e);
        }
      }
      partial = std::move(next);
      if (tuples.size() + partial.size() > kMaxTuples) return;
    }
    tuples.insert(tuples.end(), partial.begin(), partial.end());
  }
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  n->kind = Kind::kTupleSet;
  n->width = static_cast<uint32_t>(width);
  n->slot_begin = static_cast<uint32_t>(tuple_slots_.size());
  for (const Node* m : disjuncts.front()) tuple_slots_.push_back(m->slot);
  n->tuple_begin = static_cast<uint32_t>(tuples_.size());
  for (const Tuple& t : tuples) {
    tuples_.insert(tuples_.end(), t.begin(), t.begin() + width);
  }
  n->tuple_end = static_cast<uint32_t>(tuples_.size());
}

CompiledFilter::Operand CompiledFilter::CompileOperand(
    const rdf::TripleStore& store, const Expr& e, const FilterSlots& slots) {
  Operand o;
  if (e.kind == ExprKind::kVariable) {
    o.slot = slots.SlotOf(e.var.name);
    // An unresolvable variable is never bound: a null constant cell.
    if (o.slot < 0) o.cell = Cell::Null();
    return o;
  }
  if (e.kind != ExprKind::kConstant) return o;  // null, as in EvalExpr
  if (e.constant.is_numeric_literal()) {
    o.cell = Cell::OfNumber(e.constant.AsDouble());
    return o;
  }
  const rdf::TermId id = store.Lookup(e.constant);
  if (id != rdf::kInvalidTermId) {
    o.cell = Cell::OfTerm(id);
  } else {
    o.missing = static_cast<int>(missing_.size());
    missing_.push_back(e.constant);
  }
  return o;
}

uint32_t CompiledFilter::CompileNode(const rdf::TripleStore& store,
                                     const Expr& e, const FilterSlots& slots) {
  const uint32_t index = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  Node n;
  switch (e.kind) {
    case ExprKind::kConstant:
      n.kind = Kind::kConst;
      n.value = TermEbv(e.constant);
      break;
    case ExprKind::kVariable:
      n.kind = Kind::kVarEbv;
      n.slot = slots.SlotOf(e.var.name);
      break;
    case ExprKind::kBound:
      n.kind = Kind::kBound;
      n.slot = slots.SlotOf(e.var.name);
      break;
    case ExprKind::kNot:
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<const Expr*> operands;
      if (e.kind == ExprKind::kNot) {
        n.kind = Kind::kNot;
        operands.push_back(e.children[0].get());
      } else {
        n.kind = e.kind == ExprKind::kAnd ? Kind::kAnd : Kind::kOr;
        Flatten(e, e.kind, &operands);
      }
      std::vector<uint32_t> kids;
      kids.reserve(operands.size());
      for (const Expr* c : operands) {
        kids.push_back(CompileNode(store, *c, slots));
      }
      n.begin = static_cast<uint32_t>(children_.size());
      children_.insert(children_.end(), kids.begin(), kids.end());
      n.end = static_cast<uint32_t>(children_.size());
      if (n.kind == Kind::kOr) BuildTupleSet(&n);
      break;
    }
    case ExprKind::kIn:
      n.kind = Kind::kMember;
      n.slot = slots.SlotOf(e.var.name);
      n.begin = static_cast<uint32_t>(ids_.size());
      n.num_begin = static_cast<uint32_t>(nums_.size());
      for (const rdf::Term& t : e.in_list) {
        if (t.is_numeric_literal()) {
          nums_.push_back(t.AsDouble());
        } else if (store.Lookup(t) != rdf::kInvalidTermId) {
          AppendAliases(store, t);
        }  // absent members match nothing
      }
      n.end = static_cast<uint32_t>(ids_.size());
      n.num_end = static_cast<uint32_t>(nums_.size());
      break;
    case ExprKind::kCompare: {
      const Expr& l = *e.children[0];
      const Expr& r = *e.children[1];
      const bool l_var = l.kind == ExprKind::kVariable;
      const bool r_var = r.kind == ExprKind::kVariable;
      const Expr* var = l_var && !r_var ? &l : (r_var && !l_var ? &r : nullptr);
      const Expr* cst = var == &l ? &r : &l;
      n.op = e.op;
      if (var != nullptr && cst->kind == ExprKind::kConstant &&
          cst->constant.is_numeric_literal()) {
        n.kind = Kind::kNumCompare;
        n.slot = slots.SlotOf(var->var.name);
        n.number = cst->constant.AsDouble();
        n.const_left = cst == &l;
        break;
      }
      if (var != nullptr && IsNonNumericConstant(*cst) &&
          (e.op == CompareOp::kEq || e.op == CompareOp::kNe) &&
          store.Lookup(cst->constant) != rdf::kInvalidTermId) {
        n.kind = Kind::kMember;
        n.slot = slots.SlotOf(var->var.name);
        n.negate = e.op == CompareOp::kNe;
        n.begin = static_cast<uint32_t>(ids_.size());
        AppendAliases(store, cst->constant);
        n.end = static_cast<uint32_t>(ids_.size());
        n.num_begin = n.num_end = static_cast<uint32_t>(nums_.size());
        break;
      }
      n.kind = Kind::kCompare;
      n.lhs = CompileOperand(store, l, slots);
      n.rhs = CompileOperand(store, r, slots);
      break;
    }
  }
  nodes_[index] = n;
  return index;
}

}  // namespace re2xolap::sparql
