#ifndef RE2XOLAP_ENGINE_QUERY_ENGINE_H_
#define RE2XOLAP_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/triple_store.h"
#include "sparql/executor.h"
#include "sparql/plan.h"
#include "sparql/result_table.h"
#include "storage/snapshot.h"
#include "util/result.h"

namespace re2xolap::obs {
class QueryRecordScope;
}  // namespace re2xolap::obs

namespace re2xolap::engine {

class QueryEngine;

/// A dataset + engine pair reconstructed from a snapshot image by
/// QueryEngine::OpenSnapshot. `engine` reads `data.store`, so keep the pair
/// together (moving the struct is fine; the unique_ptr targets are stable).
struct EngineSnapshot {
  storage::LoadedSnapshot data;
  std::unique_ptr<QueryEngine> engine;
};

/// Shared, immutable handle to a materialized result. Cache hits hand the
/// same table to every caller, so results must never be mutated through a
/// handle (enforced by const).
using TableHandle = std::shared_ptr<const sparql::ResultTable>;

/// Cache sizing knobs. Zero capacity disables the corresponding cache.
struct EngineConfig {
  /// Max distinct plans kept (LRU beyond that). 0 disables plan caching.
  size_t plan_cache_capacity = 256;
  /// Total byte budget across all result-cache shards, charged per entry
  /// by an estimate of its resident size plus its JSON memo once one is
  /// attached. 0 disables result caching.
  size_t result_cache_bytes = 8u << 20;
  /// Lock shards for the result cache; each shard owns an equal slice of
  /// the byte budget and its own LRU list, so concurrent validation
  /// threads rarely contend on one mutex.
  size_t result_cache_shards = 4;
};

/// Point-in-time counters of one engine instance (global metrics aggregate
/// across engines; tests assert on these to stay isolated).
struct EngineCacheStats {
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_evictions = 0;
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t result_evictions = 0;
  uint64_t result_derived = 0;  // misses answered from a cached core
  size_t plan_entries = 0;
  size_t result_entries = 0;
  size_t result_bytes = 0;  // resident cost estimate across shards,
                            // JSON memos included
};

/// The single execution entry point for a frozen store: owns the full
/// parse→plan→execute pipeline plus two caches keyed on the normalized
/// query text and the store's freeze epoch.
///
/// - Plan cache: LRU map of normalized query → immutable Plan. Plans are
///   read-only during execution, so one cached plan serves concurrent
///   executions.
/// - Result cache: sharded, byte-budgeted LRU of normalized query →
///   TableHandle. Entries are charged an estimate of their resident size,
///   and later the size of the table's JSON memo when a render attaches
///   one; a shard over its slice of the budget evicts least-recently-used
///   entries.
///
/// Invalidation: every Execute compares the store's freeze_epoch()
/// against the epoch the caches were built at; a re-Freeze() (the only
/// way new data becomes visible) clears both caches, and the epoch is
/// also part of every key, so a stale entry can never be served even if
/// it races the clear.
///
/// Concurrency: all public methods are safe to call from multiple threads
/// once the store is frozen (the store's own read contract). Lookups and
/// inserts take one small mutex (plan cache) or one shard mutex (result
/// cache); execution itself runs lock-free.
///
/// Caching policy: timeouts are not part of the key (they bound latency,
/// not the result); errored executions are never cached; profiled runs
/// (ExecOptions::profile) bypass the result cache because EXPLAIN ANALYZE
/// must observe a real execution. On a result-cache hit the ExecStats
/// sink is zeroed — a hit scans nothing and plans nothing.
///
/// Derivation: an exact-key miss whose query splits into a core and a
/// residual (sparql::SplitRefinement) looks the core up under the same
/// epoch. When it is cached, the residual's post-join operators run over
/// the core's table and the result is admitted under the query's own
/// key, bit-identical to executing it (DESIGN.md §20). The exact lookup
/// still counts one miss; the derivation counts in `result_derived`.
/// Otherwise the query executes exactly as it would without derivation,
/// so no request does more work than a plain execution.
///
/// Robustness: an ExecOptions::guard is checked once on entry (an already
/// expired/cancelled request does no work, not even a cache probe) and
/// then enforced by the executor; guard violations are errors and are
/// therefore never cached. Failures — including kUnavailable injected
/// via the `engine.execute` failpoint — surface to the caller as typed
/// errors; the engine does not retry.
class QueryEngine {
 public:
  explicit QueryEngine(const rdf::TripleStore& store,
                       EngineConfig config = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Executes `query`, serving from / filling the caches.
  util::Result<TableHandle> Execute(const sparql::SelectQuery& query,
                                    const sparql::ExecOptions& options = {},
                                    sparql::ExecStats* stats = nullptr);

  /// Convenience: parse + Execute.
  util::Result<TableHandle> ExecuteText(std::string_view text,
                                        const sparql::ExecOptions& options = {},
                                        sparql::ExecStats* stats = nullptr);

  /// Drops every cached plan and result and records the store's current
  /// freeze epoch. Called automatically when the epoch moves.
  void InvalidateCaches();

  /// Serializes this engine's (frozen) store into a snapshot image at
  /// `path`. Store-only: text-index and schema-graph sections are written
  /// by core::Session::SaveSnapshot, which sees those structures.
  util::Status SaveSnapshot(
      const std::string& path,
      const storage::SnapshotWriteOptions& options = {}) const;

  /// Boots a store + engine from a snapshot image. The engine's caches
  /// start empty but are keyed on the image's restored freeze_epoch, so
  /// they behave exactly as they would on the store the image was saved
  /// from.
  static util::Result<EngineSnapshot> OpenSnapshot(
      const std::string& path,
      const storage::SnapshotLoadOptions& options = {},
      EngineConfig config = {});

  /// Snapshot of this instance's cache counters.
  EngineCacheStats cache_stats() const;

  const rdf::TripleStore& store() const { return store_; }
  const EngineConfig& config() const { return config_; }

 private:
  struct PlanEntry {
    std::string key;
    std::shared_ptr<const sparql::Plan> plan;
  };
  struct ResultEntry {
    std::string key;
    TableHandle table;
    size_t cost = 0;
    /// Query-log fingerprint of the normalized query, stored at insert
    /// time so cache hits record their identity without rehashing the
    /// query text (0 when the recorder was disabled at insert).
    uint64_t fingerprint = 0;
  };
  struct ResultShard {
    explicit ResultShard(size_t budget) : budget(budget) {}
    const size_t budget;  // this shard's slice of result_cache_bytes
    mutable std::mutex mu;
    std::list<ResultEntry> lru;  // front = most recent
    std::unordered_map<std::string, std::list<ResultEntry>::iterator> index;
    size_t bytes = 0;
    uint64_t evictions = 0;
  };

  /// Clears caches if the store has been re-frozen since they were built;
  /// returns the current epoch.
  uint64_t SyncEpoch();

  std::shared_ptr<const sparql::Plan> PlanLookup(const std::string& key);
  void PlanInsert(const std::string& key,
                  std::shared_ptr<const sparql::Plan> plan);

  const std::shared_ptr<ResultShard>& ShardFor(const std::string& key);
  /// On a hit, `fingerprint` (when non-null) receives the entry's stored
  /// query-log fingerprint.
  TableHandle ResultLookup(const std::string& key, uint64_t* fingerprint);
  /// Admits `table` under `key` and arms its memo observer, which charges
  /// the JSON memo to the entry when it attaches (ChargeMemo). `table` is
  /// not yet shared with any other thread.
  void ResultInsert(const std::string& key,
                    const std::shared_ptr<sparql::ResultTable>& table,
                    uint64_t fingerprint);
  /// Adds `bytes` to the cost of the entry holding `table` under `key`
  /// (no-op when it was evicted meanwhile) and evicts down to budget.
  static void ChargeMemo(ResultShard& shard, const std::string& key,
                         const sparql::ResultTable* table, size_t bytes);
  /// Evicts least-recently-used entries while the shard is over budget,
  /// keeping at least one.
  static void EvictOverBudgetLocked(ResultShard& shard);

  /// Answers an exact-key miss from its cached core (see Derivation
  /// above) and admits the result under `key`. A null handle means the
  /// query does not split or its core is not cached; the caller then
  /// executes it.
  util::Result<TableHandle> Derive(const sparql::SelectQuery& query,
                                   const sparql::ExecOptions& options,
                                   uint64_t epoch, const std::string& key,
                                   obs::QueryRecordScope& record,
                                   sparql::ExecStats* stats);

  const rdf::TripleStore& store_;
  const EngineConfig config_;

  std::atomic<uint64_t> seen_epoch_;

  mutable std::mutex plan_mu_;
  std::list<PlanEntry> plan_lru_;  // front = most recent
  std::unordered_map<std::string, std::list<PlanEntry>::iterator> plan_index_;

  // Shared: a cached table's memo observer holds a weak_ptr to its shard,
  // and the table may outlive the engine.
  std::vector<std::shared_ptr<ResultShard>> shards_;

  // Per-instance counters (relaxed; exact under the test's sync points).
  std::atomic<uint64_t> plan_hits_{0}, plan_misses_{0}, plan_evictions_{0};
  std::atomic<uint64_t> result_hits_{0}, result_misses_{0};
  std::atomic<uint64_t> result_derived_{0};
};

/// Estimated resident bytes of a materialized table (container overheads
/// included); the unit the result cache charges entries in.
size_t EstimateTableCost(const sparql::ResultTable& table);

}  // namespace re2xolap::engine

#endif  // RE2XOLAP_ENGINE_QUERY_ENGINE_H_
