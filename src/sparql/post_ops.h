#ifndef RE2XOLAP_SPARQL_POST_OPS_H_
#define RE2XOLAP_SPARQL_POST_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rdf/triple_store.h"
#include "sparql/ast.h"
#include "sparql/binding_block.h"
#include "sparql/result_table.h"
#include "util/exec_guard.h"
#include "util/result.h"
#include "util/status.h"

namespace re2xolap::sparql {

/// Coarse observation of one post-join operator (HAVING / DISTINCT /
/// ORDER BY / LIMIT-OFFSET) for the profile tree: two clock reads per
/// operator per query.
///
/// Every post-join operator takes an optional ExecGuard: it is checked
/// unconditionally at operator entry and polled periodically inside the
/// row loops / sort comparators, so an expired deadline surfaces from the
/// middle of aggregation or sorting — not only from the join loop. A
/// tripped guard returns kTimeout / kResourceExhausted / kCancelled and
/// leaves the table in a valid (possibly partially processed) state.
struct PostOpProf {
  const char* label;
  uint64_t rows_in;
  uint64_t rows_out;
  double millis;
};

/// Hash-grouping aggregation, fed one BindingBlock of complete join
/// bindings at a time (VectorizedRunner::RunBlocks). Groups live in a
/// flat open-addressing table over packed keys — group g's key is
/// `key_width` consecutive term ids in one array — and aggregate states
/// are struct-of-arrays columns indexed by group id, so accumulating a row
/// allocates nothing. Numeric values come from the dictionary's numeric
/// column. COUNT(DISTINCT) keeps one flat set of (group, term) pairs per
/// aggregate. Groups are emitted in first-seen order.
class GroupAggregator {
 public:
  /// `items` / `item_slots` are the projected columns and their binding
  /// slots (-1 for COUNT(*)); `group_slots` the GROUP BY slots in declared
  /// order. All referenced vectors must outlive the aggregator. When a
  /// `guard` is supplied, each newly created group (and each distinct term
  /// retained for COUNT(DISTINCT)) is charged against its byte budget;
  /// the violation surfaces at the join loop's next budget poll.
  GroupAggregator(const rdf::TripleStore& store,
                  const std::vector<SelectItem>& items,
                  const std::vector<int>& item_slots,
                  std::vector<int> group_slots,
                  const util::ExecGuard* guard = nullptr);

  /// Folds rows `rows` (ascending indices) of `block` into their groups.
  void Accumulate(const BindingBlock& block, std::span<const uint32_t> rows);

  /// Emits one row per group into `table` (group-by columns resolved via
  /// `group_by` order). Polls the guard at entry and every few hundred
  /// groups. Returns the number of groups.
  util::Result<size_t> Emit(const std::vector<Variable>& group_by,
                            ResultTable* table);

  size_t group_count() const { return group_count_; }

 private:
  /// State columns of one aggregate item, indexed by group id. Only the
  /// columns its function reads are grown: `value` is the running sum
  /// (SUM, AVG) or extreme (MIN, MAX); `count` counts folded values (and
  /// distinct terms for COUNT(DISTINCT)).
  struct AggColumn {
    AggFunc func = AggFunc::kCount;
    int slot = -1;
    int source = -1;  // numeric_sources_ index (value-reading aggregates)
    bool count_star = false;
    bool distinct = false;
    bool has_value = false;
    bool has_count = false;
    double init = 0;
    std::vector<double> value;
    std::vector<uint64_t> count;
    // COUNT(DISTINCT): open-addressing set of (group << 32 | term) + 1,
    // 0 = empty slot.
    std::vector<uint64_t> seen;
    size_t seen_size = 0;
  };

  /// Group id of `key`, creating the group when new.
  uint32_t GroupOf(const rdf::TermId* key);
  uint32_t NewGroup(const rdf::TermId* key);
  void GrowTable();
  /// Inserts (group, term) into `col`'s distinct set; true when new.
  bool InsertDistinct(AggColumn* col, uint32_t group, rdf::TermId term);

  /// One aggregated variable's numeric values for the current block.
  struct NumericSource {
    int slot = -1;
    std::vector<double> values;  // per row of the block
  };

  const rdf::TripleStore& store_;
  const std::vector<SelectItem>& items_;
  std::vector<int> group_slots_;
  const util::ExecGuard* guard_;
  std::vector<AggColumn> aggs_;  // one per aggregate item, in item order
  std::vector<NumericSource> numeric_sources_;
  size_t group_count_ = 0;
  size_t state_bytes_ = 0;        // per-group state bytes (budget charge)
  std::vector<rdf::TermId> keys_;  // packed group keys, first-seen order
  std::vector<uint32_t> table_;    // group id + 1; 0 = empty slot
  std::vector<uint32_t> group_ids_;  // per-block scratch
  std::vector<rdf::TermId> key_buf_;  // per-row scratch key
};

/// The post-join operators of `query`, in order: HAVING (keeps rows whose
/// post-aggregation filters all evaluate to true; variables name output
/// columns), DISTINCT (sorts rows canonically, drops duplicates), ORDER BY
/// (stable sort; fails when a key names an unknown column) and
/// LIMIT/OFFSET. Operators the query does not use are skipped; each one
/// that runs appends one profile record.
///
/// Without `source` they rewrite `table`'s rows in place. With `source`,
/// HAVING reads `source`'s rows instead and appends copies of the rows it
/// keeps to `table` (empty, with `source`'s columns), so a shared cached
/// table is filtered without being modified or copied whole.
util::Status ApplyPostOps(const rdf::TripleStore& store,
                          const SelectQuery& query, ResultTable* table,
                          std::vector<PostOpProf>* post_ops,
                          const util::ExecGuard* guard = nullptr,
                          const ResultTable* source = nullptr);

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_POST_OPS_H_
