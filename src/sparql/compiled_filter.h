#ifndef RE2XOLAP_SPARQL_COMPILED_FILTER_H_
#define RE2XOLAP_SPARQL_COMPILED_FILTER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/ebv.h"
#include "sparql/result_table.h"

namespace re2xolap::sparql {

/// Plan-time resolution of a filter expression's variable names to binding
/// slots, which CompiledFilter::Compile reads (HAVING uses it the same way
/// for output columns). The keys point at the `Expr::var.name` strings of
/// the very expression tree the caller holds alive, so the common lookup
/// is a pointer compare over all entries; the value compare is a fallback
/// for callers that pass an equal string from elsewhere.
class FilterSlots {
 public:
  void Add(const std::string* name, int slot) {
    entries_.emplace_back(name, slot);
  }
  int SlotOf(const std::string& name) const {
    for (const auto& [key, slot] : entries_) {
      if (key == &name) return slot;
    }
    for (const auto& [key, slot] : entries_) {
      if (*key == name) return slot;
    }
    return -1;
  }
  size_t size() const { return entries_.size(); }
  const std::vector<std::pair<const std::string*, int>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<const std::string*, int>> entries_;
};

/// A FILTER expression compiled against one store at plan time: variables
/// resolved to slots, constants resolved to term ids, AND/OR chains
/// flattened. The join runners evaluate it once per candidate row, so the
/// common shapes avoid strings altogether:
///   - `?v = <c>` / `?v != <c>` / `?v IN (...)` against non-numeric
///     constants are id-set membership tests. The set holds every
///     dictionary term of the constant's kind and lexical form (EvalExpr
///     compares non-numeric terms by kind and lexical form, whatever their
///     datatype), so the answer is exact.
///   - an OR whose disjuncts are each an AND of such equalities over the
///     same variables (ExRef's Similarity and Contrast filters, TopK's
///     member lists) becomes one lookup of the row's value tuple in a
///     sorted tuple set, falling back to the OR itself only for rows with
///     an unbound variable (where errors must propagate).
///   - comparisons of a variable against a numeric constant read the
///     dictionary's numeric column.
///   - everything else (variable-variable comparisons, orderings against
///     non-numeric constants, constants absent from the dictionary) runs
///     EvalExpr's own comparison on pre-resolved operands.
/// Eval agrees with EvalExpr on every row, errors included. The compiled
/// form is only valid for the store it was compiled against (plans are
/// cached per epoch for that reason already).
class CompiledFilter {
 public:
  CompiledFilter() = default;

  static CompiledFilter Compile(const rdf::TripleStore& store, const Expr& e,
                                const FilterSlots& slots);

  /// Three-valued value of the filter on one row. `at(slot)` returns the
  /// row's binding of `slot`, rdf::kInvalidTermId when unbound.
  template <typename At>
  Ebv Eval(const rdf::TripleStore& store, const At& at) const {
    return EvalNode(store, at, 0);
  }

 private:
  enum class Kind : uint8_t {
    kConst,       // constant EBV
    kVarEbv,      // EBV of a bound variable
    kBound,       // BOUND(?v)
    kNot,
    kAnd,
    kOr,
    kMember,      // ?v (=|!=|IN) non-numeric constants and numbers
    kNumCompare,  // ?v <op> numeric constant (either side)
    kCompare,     // general comparison on pre-resolved operands
    kTupleSet,    // OR of ANDs of equalities, as a value-tuple set
  };

  /// Widest value tuple (variables per disjunct) a kTupleSet holds, and
  /// the most tuples its alias expansion may produce.
  static constexpr uint32_t kMaxTupleWidth = 4;
  static constexpr size_t kMaxTuples = 4096;

  /// A comparison operand: a slot (slot >= 0), else a resolved cell; for
  /// a non-numeric constant absent from the dictionary `missing` indexes
  /// missing_ (and the cell is null), as EvalExpr resolves it.
  struct Operand {
    int slot = -1;
    Cell cell;
    int missing = -1;
  };

  struct Node {
    Kind kind = Kind::kConst;
    CompareOp op = CompareOp::kEq;
    Ebv value = Ebv::kError;  // kConst
    int slot = -1;            // kVarEbv / kBound / kMember / kNumCompare
    bool negate = false;      // kMember: != instead of =
    bool const_left = false;  // kNumCompare: constant is the left operand
    double number = 0;        // kNumCompare
    // kNot/kAnd/kOr: children_ range; kMember: ids_ range.
    uint32_t begin = 0;
    uint32_t end = 0;
    // kMember: nums_ range (IN lists with numeric members).
    uint32_t num_begin = 0;
    uint32_t num_end = 0;
    // kTupleSet: `width` slots at tuple_slots_[slot_begin], and the sorted
    // tuples at tuples_[tuple_begin, tuple_end) (width ids each). The
    // children range keeps the OR's operands for rows with unbound slots.
    uint32_t width = 0;
    uint32_t slot_begin = 0;
    uint32_t tuple_begin = 0;
    uint32_t tuple_end = 0;
    Operand lhs, rhs;  // kCompare
  };

  uint32_t CompileNode(const rdf::TripleStore& store, const Expr& e,
                       const FilterSlots& slots);
  Operand CompileOperand(const rdf::TripleStore& store, const Expr& e,
                         const FilterSlots& slots);
  void AppendAliases(const rdf::TripleStore& store, const rdf::Term& t);
  /// Turns the kOr node `n` (operands already compiled) into a kTupleSet
  /// when its shape allows; leaves it untouched otherwise.
  void BuildTupleSet(Node* n);

  template <typename At>
  static rdf::TermId Binding(const At& at, int slot) {
    return slot < 0 ? rdf::kInvalidTermId : at(slot);
  }

  static Ebv OfBool(bool b) { return b ? Ebv::kTrue : Ebv::kFalse; }

  static Ebv ApplyOp(CompareOp op, int cmp) {
    switch (op) {
      case CompareOp::kEq:
        return OfBool(cmp == 0);
      case CompareOp::kNe:
        return OfBool(cmp != 0);
      case CompareOp::kLt:
        return OfBool(cmp < 0);
      case CompareOp::kLe:
        return OfBool(cmp <= 0);
      case CompareOp::kGt:
        return OfBool(cmp > 0);
      case CompareOp::kGe:
        return OfBool(cmp >= 0);
    }
    return Ebv::kError;
  }

  template <typename At>
  Cell OperandCell(const Operand& o, const At& at) const {
    if (o.slot < 0) return o.cell;
    const rdf::TermId v = at(o.slot);
    return v == rdf::kInvalidTermId ? Cell::Null() : Cell::OfTerm(v);
  }

  template <typename At>
  Ebv EvalOr(const rdf::TripleStore& store, const At& at,
             const Node& n) const {
    Ebv acc = Ebv::kFalse;
    for (uint32_t c = n.begin; c < n.end; ++c) {
      acc = EbvOr(acc, EvalNode(store, at, children_[c]));
      if (acc == Ebv::kTrue) return acc;
    }
    return acc;
  }

  template <typename At>
  Ebv EvalNode(const rdf::TripleStore& store, const At& at, uint32_t i) const {
    const Node& n = nodes_[i];
    switch (n.kind) {
      case Kind::kConst:
        return n.value;
      case Kind::kVarEbv: {
        const rdf::TermId v = Binding(at, n.slot);
        return v == rdf::kInvalidTermId ? Ebv::kError : TermEbv(store.term(v));
      }
      case Kind::kBound:
        return OfBool(Binding(at, n.slot) != rdf::kInvalidTermId);
      case Kind::kNot:
        return EbvNot(EvalNode(store, at, children_[n.begin]));
      case Kind::kAnd: {
        Ebv acc = Ebv::kTrue;
        for (uint32_t c = n.begin; c < n.end; ++c) {
          acc = EbvAnd(acc, EvalNode(store, at, children_[c]));
          if (acc == Ebv::kFalse) return acc;
        }
        return acc;
      }
      case Kind::kOr:
        return EvalOr(store, at, n);
      case Kind::kTupleSet: {
        rdf::TermId key[kMaxTupleWidth];
        for (uint32_t j = 0; j < n.width; ++j) {
          key[j] = Binding(at, tuple_slots_[n.slot_begin + j]);
          if (key[j] == rdf::kInvalidTermId) return EvalOr(store, at, n);
        }
        // Binary search over the sorted tuples (width ids each).
        uint32_t lo = 0;
        uint32_t hi = (n.tuple_end - n.tuple_begin) / n.width;
        while (lo < hi) {
          const uint32_t mid = (lo + hi) / 2;
          const rdf::TermId* t = &tuples_[n.tuple_begin + mid * n.width];
          if (std::lexicographical_compare(t, t + n.width, key,
                                           key + n.width)) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        // Bounds first: `lo` may be one past the last tuple.
        const uint32_t at = n.tuple_begin + lo * n.width;
        return OfBool(at < n.tuple_end &&
                      std::equal(key, key + n.width, tuples_.data() + at));
      }
      case Kind::kMember: {
        const rdf::TermId v = Binding(at, n.slot);
        if (v == rdf::kInvalidTermId) return Ebv::kError;
        bool hit = false;
        for (uint32_t k = n.begin; k < n.end && !hit; ++k) hit = ids_[k] == v;
        if (!hit && n.num_begin != n.num_end &&
            store.term(v).is_numeric_literal()) {
          const double x = store.dictionary().numeric(v);
          for (uint32_t k = n.num_begin; k < n.num_end && !hit; ++k) {
            hit = !(x < nums_[k]) && !(x > nums_[k]);
          }
        }
        return OfBool(hit != n.negate);
      }
      case Kind::kNumCompare: {
        const rdf::TermId v = Binding(at, n.slot);
        if (v == rdf::kInvalidTermId || !store.term(v).is_numeric_literal()) {
          return Ebv::kError;
        }
        const double x = store.dictionary().numeric(v);
        const double l = n.const_left ? n.number : x;
        const double r = n.const_left ? x : n.number;
        return ApplyOp(n.op, l < r ? -1 : (l > r ? 1 : 0));
      }
      case Kind::kCompare:
        return EvalCompare(
            store, n.op, OperandCell(n.lhs, at),
            n.lhs.missing >= 0 ? &missing_[n.lhs.missing] : nullptr,
            OperandCell(n.rhs, at),
            n.rhs.missing >= 0 ? &missing_[n.rhs.missing] : nullptr);
    }
    return Ebv::kError;
  }

  std::vector<Node> nodes_;  // nodes_[0] is the root
  std::vector<uint32_t> children_;
  std::vector<rdf::TermId> ids_;
  std::vector<double> nums_;
  std::vector<rdf::Term> missing_;
  std::vector<int> tuple_slots_;
  std::vector<rdf::TermId> tuples_;
};

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_COMPILED_FILTER_H_
