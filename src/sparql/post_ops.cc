#include "sparql/post_ops.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "sparql/compiled_filter.h"
#include "sparql/ebv.h"
#include "util/timer.h"

namespace re2xolap::sparql {

namespace {

/// How many comparator invocations / loop iterations between guard polls
/// inside the post-join operators. Sorts do a clock read only every
/// kGuardPollInterval comparisons; the rest of the time the poll is two
/// relaxed atomic loads.
constexpr uint64_t kGuardPollInterval = 1024;

/// std::sort comparators cannot return a Status, so a tripped guard is
/// reported by throwing this (internal to this TU) and converting it back
/// to a Status at the operator boundary. The sort is abandoned mid-way;
/// the row vector stays valid (possibly permuted) because comparators
/// never mutate rows.
struct GuardInterrupted {
  util::Status status;
};

/// Polls the guard every kGuardPollInterval calls; throws GuardInterrupted
/// on violation. `counter` is owned by the calling operator.
void PollGuardOrThrow(const util::ExecGuard* guard, uint64_t* counter) {
  if (guard == nullptr) return;
  if (++*counter % kGuardPollInterval != 0) return;
  util::Status st = guard->Check();
  if (!st.ok()) throw GuardInterrupted{std::move(st)};
}

}  // namespace

namespace {

constexpr size_t kInitialTableSlots = 16;

uint64_t HashKey(const rdf::TermId* key, size_t width) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < width; ++i) {
    h = (h ^ key[i]) * 0xFF51AFD7ED558CCDULL;
    h ^= h >> 32;
  }
  return h;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

GroupAggregator::GroupAggregator(const rdf::TripleStore& store,
                                 const std::vector<SelectItem>& items,
                                 const std::vector<int>& item_slots,
                                 std::vector<int> group_slots,
                                 const util::ExecGuard* guard)
    : store_(store),
      items_(items),
      group_slots_(std::move(group_slots)),
      guard_(guard) {
  for (size_t i = 0; i < items_.size(); ++i) {
    const SelectItem& it = items_[i];
    if (!it.is_aggregate) continue;
    AggColumn col;
    col.func = it.func;
    col.count_star = it.count_star;
    col.slot = it.count_star ? -1 : item_slots[i];
    col.distinct = it.distinct_agg;
    col.has_count = col.distinct || col.func != AggFunc::kSum;
    col.has_value = !col.distinct && col.func != AggFunc::kCount;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    col.init = col.func == AggFunc::kMin   ? kInf
               : col.func == AggFunc::kMax ? -kInf
                                           : 0.0;
    state_bytes_ += (col.has_count ? sizeof(uint64_t) : 0) +
                    (col.has_value ? sizeof(double) : 0);
    if (col.has_value && !col.count_star && col.slot >= 0) {
      // Aggregates over the same variable share one numeric source.
      for (size_t s = 0; s < numeric_sources_.size(); ++s) {
        if (numeric_sources_[s].slot == col.slot) col.source = static_cast<int>(s);
      }
      if (col.source < 0) {
        col.source = static_cast<int>(numeric_sources_.size());
        numeric_sources_.push_back(NumericSource{col.slot, {}});
      }
    }
    aggs_.push_back(std::move(col));
  }
  if (!group_slots_.empty()) table_.assign(kInitialTableSlots, 0);
  key_buf_.resize(group_slots_.size());
}

uint32_t GroupAggregator::NewGroup(const rdf::TermId* key) {
  const uint32_t g = static_cast<uint32_t>(group_count_++);
  keys_.insert(keys_.end(), key, key + group_slots_.size());
  for (AggColumn& col : aggs_) {
    if (col.has_value) col.value.push_back(col.init);
    if (col.has_count) col.count.push_back(0);
  }
  if (guard_ != nullptr) {
    // New group: charge key, state columns and its table slots. The
    // violation (if any) surfaces at the join loop's next budget poll —
    // Accumulate itself cannot fail.
    guard_->ChargeBytes(group_slots_.size() * sizeof(rdf::TermId) +
                        state_bytes_ + 2 * sizeof(uint32_t));
  }
  return g;
}

uint32_t GroupAggregator::GroupOf(const rdf::TermId* key) {
  const size_t width = group_slots_.size();
  const size_t mask = table_.size() - 1;
  for (size_t i = HashKey(key, width) & mask;; i = (i + 1) & mask) {
    const uint32_t entry = table_[i];
    if (entry == 0) {
      const uint32_t g = NewGroup(key);
      table_[i] = g + 1;
      if (group_count_ * 2 > table_.size()) GrowTable();
      return g;
    }
    const rdf::TermId* k = keys_.data() + (entry - 1) * width;
    if (std::equal(k, k + width, key)) return entry - 1;
  }
}

void GroupAggregator::GrowTable() {
  const size_t width = group_slots_.size();
  table_.assign(table_.size() * 2, 0);
  const size_t mask = table_.size() - 1;
  for (uint32_t g = 0; g < group_count_; ++g) {
    size_t i = HashKey(keys_.data() + g * width, width) & mask;
    while (table_[i] != 0) i = (i + 1) & mask;
    table_[i] = g + 1;
  }
}

bool GroupAggregator::InsertDistinct(AggColumn* col, uint32_t group,
                                     rdf::TermId term) {
  if (col->seen.empty()) col->seen.assign(kInitialTableSlots, 0);
  // term != kInvalidTermId, so a packed pair is never the empty marker.
  const uint64_t pair = (static_cast<uint64_t>(group) << 32) | term;
  size_t mask = col->seen.size() - 1;
  size_t i = Mix64(pair) & mask;
  for (; col->seen[i] != 0; i = (i + 1) & mask) {
    if (col->seen[i] == pair) return false;
  }
  col->seen[i] = pair;
  if (++col->seen_size * 2 > col->seen.size()) {
    std::vector<uint64_t> old(col->seen.size() * 2, 0);
    old.swap(col->seen);
    mask = col->seen.size() - 1;
    for (uint64_t p : old) {
      if (p == 0) continue;
      size_t j = Mix64(p) & mask;
      while (col->seen[j] != 0) j = (j + 1) & mask;
      col->seen[j] = p;
    }
  }
  if (guard_ != nullptr) guard_->ChargeBytes(2 * sizeof(uint64_t));
  return true;
}

void GroupAggregator::Accumulate(const BindingBlock& block,
                                 std::span<const uint32_t> rows) {
  if (rows.empty()) return;
  const size_t width = group_slots_.size();
  group_ids_.resize(rows.size());
  if (width == 0) {
    // No GROUP BY: every row folds into the one group.
    if (group_count_ == 0) NewGroup(nullptr);
    std::fill(group_ids_.begin(), group_ids_.end(), 0);
  } else {
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t k = 0; k < width; ++k) {
        key_buf_[k] = group_slots_[k] >= 0
                          ? block.at(rows[i], group_slots_[k])
                          : rdf::kInvalidTermId;
      }
      group_ids_[i] = GroupOf(key_buf_.data());
    }
  }
  // Numeric values of each aggregated variable, read from the
  // dictionary's numeric column once per row and shared by every
  // aggregate over that variable (0 for unbound rows, which skip).
  const rdf::Dictionary& dict = store_.dictionary();
  for (NumericSource& src : numeric_sources_) {
    const rdf::TermId* ids = block.column(src.slot);
    src.values.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const rdf::TermId id = ids[rows[i]];
      src.values[i] = id == rdf::kInvalidTermId ? 0.0 : dict.numeric(id);
    }
  }
  for (AggColumn& col : aggs_) {
    if (!col.count_star && col.slot < 0) continue;  // never bound
    if (col.count_star && col.distinct) continue;   // counts no terms
    const rdf::TermId* ids =
        col.count_star ? nullptr : block.column(col.slot);
    const double* numbers =
        col.source >= 0 ? numeric_sources_[col.source].values.data() : nullptr;
    for (size_t i = 0; i < rows.size(); ++i) {
      const uint32_t g = group_ids_[i];
      double v = 0.0;  // COUNT(*): value irrelevant
      if (ids != nullptr) {
        const rdf::TermId id = ids[rows[i]];
        if (id == rdf::kInvalidTermId) continue;
        if (col.distinct) {
          if (InsertDistinct(&col, g, id)) ++col.count[g];
          continue;
        }
        if (numbers != nullptr) v = numbers[i];
      }
      if (col.has_count) ++col.count[g];
      if (!col.has_value) continue;
      double& acc = col.value[g];
      switch (col.func) {
        case AggFunc::kMin:
          acc = std::min(acc, v);
          break;
        case AggFunc::kMax:
          acc = std::max(acc, v);
          break;
        default:
          acc += v;
          break;
      }
    }
  }
}

util::Result<size_t> GroupAggregator::Emit(
    const std::vector<Variable>& group_by, ResultTable* table) {
  if (guard_ != nullptr) RE2X_RETURN_IF_ERROR(guard_->Check());
  // Per output column: the aggregate it reads, or its group-key position.
  struct Source {
    const AggColumn* agg = nullptr;
    size_t key_pos = 0;
  };
  std::vector<Source> sources(items_.size());
  size_t agg_idx = 0;
  for (size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].is_aggregate) {
      sources[i].agg = &aggs_[agg_idx++];
      continue;
    }
    for (size_t gi = 0; gi < group_by.size(); ++gi) {
      if (group_by[gi].name == items_[i].var.name) {
        sources[i].key_pos = gi;
        break;
      }
    }
  }
  const size_t width = group_slots_.size();
  uint64_t polls = 0;
  for (uint32_t g = 0; g < group_count_; ++g) {
    if (guard_ != nullptr && ++polls % kGuardPollInterval == 0) {
      RE2X_RETURN_IF_ERROR(guard_->Check());
    }
    Row row(items_.size());
    for (size_t i = 0; i < items_.size(); ++i) {
      const AggColumn* col = sources[i].agg;
      if (col == nullptr) {
        const rdf::TermId id = keys_[g * width + sources[i].key_pos];
        row[i] = id != rdf::kInvalidTermId ? Cell::OfTerm(id) : Cell::Null();
        continue;
      }
      const uint64_t n = col->has_count ? col->count[g] : 0;
      double out = 0.0;
      if (col->distinct) {
        out = static_cast<double>(n);
      } else {
        switch (col->func) {
          case AggFunc::kSum:
            out = col->value[g];
            break;
          case AggFunc::kMin:
          case AggFunc::kMax:
            out = n ? col->value[g] : 0.0;
            break;
          case AggFunc::kAvg:
            out = n ? col->value[g] / static_cast<double>(n) : 0.0;
            break;
          case AggFunc::kCount:
            out = static_cast<double>(n);
            break;
        }
      }
      row[i] = Cell::OfNumber(out);
    }
    table->AddRow(std::move(row));
  }
  return group_count_;
}

namespace {

/// Records the output column of every variable occurrence in `e`, keyed
/// by the address of the name inside the tree (EvalExpr passes that very
/// string to its lookup).
void ResolveColumns(const Expr& e, const ResultTable& table,
                    FilterSlots* out) {
  switch (e.kind) {
    case ExprKind::kVariable:
    case ExprKind::kIn:
    case ExprKind::kBound:
      out->Add(&e.var.name, table.ColumnIndex(e.var.name));
      break;
    default:
      break;
  }
  for (const ExprPtr& c : e.children) ResolveColumns(*c, table, out);
}

/// HAVING. Reads `source`'s rows when given (copying the kept ones into
/// `table`), else filters `table`'s rows in place.
util::Status ApplyHaving(const rdf::TripleStore& store,
                         const SelectQuery& query, ResultTable* table,
                         const ResultTable* source,
                         std::vector<PostOpProf>* post_ops,
                         const util::ExecGuard* guard) {
  if (guard != nullptr) RE2X_RETURN_IF_ERROR(guard->Check());
  util::WallTimer op_timer;
  // Columns are resolved once per call, not once per row and variable.
  const ResultTable& in = source != nullptr ? *source : *table;
  FilterSlots columns;
  for (const ExprPtr& h : query.having) ResolveColumns(*h, in, &columns);
  const std::vector<Row>& rows = in.rows();
  // In place, kept rows move out of the vector the result replaces.
  std::vector<Row>* movable =
      source == nullptr ? &table->mutable_rows() : nullptr;
  const uint64_t rows_in = rows.size();
  std::vector<Row> kept;
  if (movable != nullptr) kept.reserve(rows.size());
  uint64_t polls = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (guard != nullptr && ++polls % kGuardPollInterval == 0) {
      RE2X_RETURN_IF_ERROR(guard->Check());
    }
    const Row& row = rows[r];
    auto lookup = [&](const std::string& name) -> Cell {
      const int idx = columns.SlotOf(name);
      return idx < 0 ? Cell::Null() : row[idx];
    };
    bool pass = true;
    for (const ExprPtr& h : query.having) {
      if (EvalExpr(store, *h, lookup) != Ebv::kTrue) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    if (movable != nullptr) {
      kept.push_back(std::move((*movable)[r]));
    } else {
      kept.push_back(row);
    }
  }
  table->mutable_rows().swap(kept);
  post_ops->push_back({"having", rows_in, table->rows().size(),
                       op_timer.ElapsedMillis()});
  return util::Status::OK();
}

util::Status ApplyDistinct(const rdf::TripleStore& store, ResultTable* table,
                           std::vector<PostOpProf>* post_ops,
                           const util::ExecGuard* guard) {
  if (guard != nullptr) RE2X_RETURN_IF_ERROR(guard->Check());
  util::WallTimer op_timer;
  std::vector<Row>& rows = table->mutable_rows();
  const uint64_t rows_in = rows.size();
  uint64_t polls = 0;
  auto row_less = [&](const Row& a, const Row& b) {
    PollGuardOrThrow(guard, &polls);
    for (size_t i = 0; i < a.size(); ++i) {
      int c = OrderCells(store, a[i], b[i]);
      if (c != 0) return c < 0;
    }
    // Distinct terms can tie under OrderCells (the label "3" and the
    // integer 3); order ties by identity so duplicates end up adjacent.
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].kind != b[i].kind) return a[i].kind < b[i].kind;
      if (a[i].term != b[i].term) return a[i].term < b[i].term;
    }
    return false;
  };
  try {
    std::sort(rows.begin(), rows.end(), row_less);
  } catch (const GuardInterrupted& gi) {
    return gi.status;
  }
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  post_ops->push_back(
      {"distinct", rows_in, rows.size(), op_timer.ElapsedMillis()});
  return util::Status::OK();
}

util::Status ApplyOrderBy(const rdf::TripleStore& store,
                          const SelectQuery& query, ResultTable* table,
                          std::vector<PostOpProf>* post_ops,
                          const util::ExecGuard* guard) {
  if (guard != nullptr) RE2X_RETURN_IF_ERROR(guard->Check());
  util::WallTimer op_timer;
  std::vector<std::pair<int, bool>> keys;  // column index, ascending
  for (const OrderKey& k : query.order_by) {
    int idx = table->ColumnIndex(k.column);
    if (idx < 0) {
      return util::Status::InvalidArgument(
          "ORDER BY references unknown column ?" + k.column);
    }
    keys.emplace_back(idx, k.ascending);
  }
  std::vector<Row>& rows = table->mutable_rows();
  uint64_t polls = 0;
  try {
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Row& a, const Row& b) {
                       PollGuardOrThrow(guard, &polls);
                       for (auto [idx, asc] : keys) {
                         int c = OrderCells(store, a[idx], b[idx]);
                         if (c != 0) return asc ? c < 0 : c > 0;
                       }
                       return false;
                     });
  } catch (const GuardInterrupted& gi) {
    return gi.status;
  }
  post_ops->push_back(
      {"order-by", rows.size(), rows.size(), op_timer.ElapsedMillis()});
  return util::Status::OK();
}

util::Status ApplyLimitOffset(const SelectQuery& query, ResultTable* table,
                              std::vector<PostOpProf>* post_ops,
                              const util::ExecGuard* guard) {
  if (guard != nullptr) RE2X_RETURN_IF_ERROR(guard->Check());
  util::WallTimer op_timer;
  std::vector<Row>& rows = table->mutable_rows();
  const uint64_t rows_in = rows.size();
  size_t begin = std::min<size_t>(query.offset, rows.size());
  size_t end = rows.size();
  if (query.limit.has_value()) {
    end = std::min<size_t>(begin + *query.limit, rows.size());
  }
  std::vector<Row> sliced(rows.begin() + begin, rows.begin() + end);
  rows.swap(sliced);
  post_ops->push_back(
      {"limit/offset", rows_in, rows.size(), op_timer.ElapsedMillis()});
  return util::Status::OK();
}

}  // namespace

util::Status ApplyPostOps(const rdf::TripleStore& store,
                          const SelectQuery& query, ResultTable* table,
                          std::vector<PostOpProf>* post_ops,
                          const util::ExecGuard* guard,
                          const ResultTable* source) {
  if (!query.having.empty() || source != nullptr) {
    RE2X_RETURN_IF_ERROR(
        ApplyHaving(store, query, table, source, post_ops, guard));
  }
  if (query.distinct) {
    RE2X_RETURN_IF_ERROR(ApplyDistinct(store, table, post_ops, guard));
  }
  if (!query.order_by.empty()) {
    RE2X_RETURN_IF_ERROR(ApplyOrderBy(store, query, table, post_ops, guard));
  }
  if (query.offset > 0 || query.limit.has_value()) {
    RE2X_RETURN_IF_ERROR(ApplyLimitOffset(query, table, post_ops, guard));
  }
  return util::Status::OK();
}

}  // namespace re2xolap::sparql
