#ifndef RE2XOLAP_RDF_TRIPLE_STORE_H_
#define RE2XOLAP_RDF_TRIPLE_STORE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/index_cursor.h"
#include "rdf/subject_directory.h"
#include "rdf/triple.h"
#include "util/result.h"
#include "util/status.h"

namespace re2xolap::util {
class ThreadPool;
}

namespace re2xolap::rdf {

struct DeltaLayer;
struct EpochChain;
class FrozenBase;

/// Per-predicate cardinality statistics used by the query planner for
/// selectivity-ordered join planning.
struct PredicateStats {
  uint64_t triple_count = 0;
  uint64_t distinct_subjects = 0;
  uint64_t distinct_objects = 0;
};

/// Physical representation of the three index permutations.
enum class IndexFormat : uint8_t {
  kRaw = 0,         // sorted EncodedTriple arrays, zero-copy span access
  kCompressed = 1,  // delta/vbyte blocks + skip table (rdf/compressed_index.h)
};

/// Process-wide default, read once from RE2XOLAP_INDEX_FORMAT
/// ("raw" | "compressed"; anything else falls back to raw).
IndexFormat DefaultIndexFormat();

/// Per-predicate statistics computed from a (p,o,s)-sorted, deduplicated
/// triple array — the computation Freeze() runs over its POS index and
/// compaction over its folded one. When `pool` is non-null the
/// per-predicate runs are processed as concurrent tasks.
std::unordered_map<TermId, PredicateStats> ComputePredicateStats(
    std::span<const EncodedTriple> pos_sorted, util::ThreadPool* pool);

/// Heap vs file-backed split of a store's footprint: `heap_bytes` is
/// malloc'd memory (dictionary, owned indexes, stats), `mapped_bytes` the
/// borrowed snapshot image a zero-copy load serves from. Report both —
/// mapped pages are real resident memory under load even though they are
/// evictable.
struct StoreMemory {
  size_t heap_bytes = 0;
  size_t mapped_bytes = 0;
  /// Parts of heap_bytes: the base's subject directory and the
  /// dictionary's numeric side column.
  size_t directory_bytes = 0;
  size_t numeric_bytes = 0;
};

/// In-memory RDF triple store with dictionary encoding and three sorted
/// index permutations (SPO, POS, OSP), so that every triple pattern with
/// bound positions maps to a contiguous binary-searchable range.
///
/// Usage: Add() triples (cheap append), then Freeze() once before querying.
/// Further Add() calls invalidate the indexes; Freeze() rebuilds them.
/// This mirrors the paper's setting: the KG is loaded/bootstrapped once and
/// then queried read-only.
///
/// One representation (rdf/delta_layer.h): the store holds the
/// dictionary, the pending Add() buffer and one EpochChain. Freeze(),
/// snapshot adoption (Adopt) and live compaction each produce a
/// FrozenBase — raw sorted arrays (owned, or borrowed from a loaded
/// image) or compressed blocks — and a frozen store is a chain over that
/// base with no delta layers. Live ingestion (EnterLive, src/store/)
/// publishes deeper chains. Every read clips each source of the chain to
/// the probe's key window and answers with an IndexRange: the one
/// source's span or block range when only one source covers the window,
/// a merged run otherwise.
///
/// Concurrent-read contract: after Freeze() returns, every const member
/// (Match, CountMatches, Exists, Lookup, term, predicate_stats, ...) is
/// safe to call from any number of threads simultaneously — the read paths
/// are pure binary searches / hash lookups over immutable storage, and
/// compressed-block decoding goes through thread-local or caller-owned
/// scratch. The contract is voided by any concurrent mutation: Add(),
/// AddEncoded(), Intern(), and Freeze() must never overlap a read. Debug
/// builds enforce this with an active-reader counter asserted inside the
/// mutators (see ReadGuard below).
///
/// Pin rule: ranges carry no keepalive, so every range-returning read of
/// a live store (Match, Range, PermutationRange, base) runs under a
/// ReadPin, which debug builds assert. Value-returning reads (size,
/// CountMatches, stats, epoch, ...) pin for themselves. On a store that
/// never entered live mode a ReadPin is a no-op and reads take no lock.
class TripleStore {
 public:
  TripleStore();
  ~TripleStore();
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;

  /// --- Loading -----------------------------------------------------------

  /// Interns the terms and appends the triple. Duplicate triples are kept
  /// (deduplicated at Freeze()).
  void Add(const Term& s, const Term& p, const Term& o);

  /// Appends an already-encoded triple; the ids must come from dictionary().
  void AddEncoded(EncodedTriple t);

  /// Sorts and deduplicates the three index permutations, computes
  /// predicate statistics and the subject directory, and installs them as
  /// a new base; when index_format() is kCompressed the sorted
  /// permutations are compressed and the raw arrays released. Must be
  /// called after loading, before querying. When `pool` is non-null the
  /// per-permutation work runs as concurrent tasks; the resulting store is
  /// bit-identical to a serial Freeze().
  void Freeze(util::ThreadPool* pool = nullptr);

  bool frozen() const { return frozen_; }

  /// The epoch of the chain reads answer from. Freeze() bumps it, and so
  /// does every live publication (ingest batch, compaction); caches keyed
  /// on query results (e.g. engine::QueryEngine) include it in their keys,
  /// so any change of the visible data invalidates every entry derived
  /// from the previous state. 0 = never frozen. Snapshot restore (Adopt)
  /// reinstalls the epoch the image was saved at, so cache keys behave
  /// identically across a save/load cycle.
  uint64_t freeze_epoch() const;

  /// --- Live ingestion (rdf/delta_layer.h, src/store/) ---------------------

  /// Switches a frozen store into live mode: the dictionary enters its
  /// concurrent-append mode, and new data arrives as delta layers over
  /// the current base, published via PublishChain() (store::Ingestor
  /// drives this). Live stores reject the freeze-once mutators
  /// (Add/Freeze/Adopt); reads keep the frozen-store concurrency contract
  /// and additionally tolerate concurrent chain publication — a query
  /// pins one chain for its duration with ReadPin. Irreversible for the
  /// store's lifetime.
  void EnterLive();

  bool live() const { return live_.load(std::memory_order_acquire); }

  /// The chain this thread's reads answer from: its ReadPin's chain when
  /// it holds one, else the latest published chain.
  std::shared_ptr<const EpochChain> chain() const;

  /// The latest published chain, ignoring any ReadPin on this thread.
  std::shared_ptr<const EpochChain> LatestChain() const;

  /// Atomically replaces the current chain (ingest batch publication,
  /// compaction). In-flight readers keep serving their pinned chain; new
  /// ReadPins see `chain`. Refreshes the store.delta.* gauges.
  void PublishChain(std::shared_ptr<const EpochChain> chain);

  /// Rebuilds and publishes a chain over the current base from
  /// snapshot-restored delta layers: merged stats, visible-triple count
  /// and delta totals are recomputed here, so the loader only supplies
  /// the layers and the epoch the image was saved at. Requires live().
  void RestoreChain(std::vector<std::shared_ptr<const DeltaLayer>> layers,
                    uint64_t epoch);

  /// Number of delta layers above the base (0 on non-live stores).
  uint64_t chain_depth() const;

  /// Point-in-time chain summary for /healthz and the introspection
  /// report. `live == false` zeroes the rest.
  struct LiveInfo {
    bool live = false;
    uint64_t epoch = 0;
    uint64_t chain_depth = 0;
    uint64_t delta_adds = 0;
    uint64_t delta_dels = 0;
    uint64_t visible_triples = 0;
    bool compacted_base = false;  // chain base is a compaction product
  };
  LiveInfo live_info() const;

  /// Pins the current epoch chain for the calling thread: every store
  /// read between construction and destruction (Match, size,
  /// freeze_epoch, stats, ...) answers from the pinned chain even if
  /// ingest or compaction publishes newer chains meanwhile — one query
  /// sees one epoch — and every range a read returns stays valid. No-op
  /// on non-live stores, and on a thread that already pins this store
  /// (the outer pin's chain serves the nested scope). Scoped, per-thread.
  /// A non-null `chain` (one taken on a parent thread by chain()) is
  /// pinned instead of the latest, so pool helpers read the parent's
  /// epoch.
  class ReadPin {
   public:
    explicit ReadPin(const TripleStore& store,
                     std::shared_ptr<const EpochChain> chain = nullptr);
    ~ReadPin();
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;

   private:
    const TripleStore* store_ = nullptr;  // null => nothing pushed
  };

  /// --- Index format -------------------------------------------------------

  /// The format the next Freeze() will build. Defaults to
  /// DefaultIndexFormat(); snapshot adoption serves whatever format the
  /// image holds regardless of this setting.
  IndexFormat index_format() const { return format_; }
  void set_index_format(IndexFormat f) { format_ = f; }

  /// True when the current base serves compressed block indexes.
  bool compressed_index() const;

  /// --- Snapshot restore (src/storage/) -----------------------------------

  /// Installs a fully built base as the store's data, frozen at `epoch`
  /// (a depth-0 chain). The base's permutations must be sorted and
  /// deduplicated, its stats and SPO directory must describe them, every
  /// id must be interned in dictionary(), and a borrowed base's
  /// `keepalive` must hold the memory it aliases. Replaces any previous
  /// triple data.
  void Adopt(std::shared_ptr<const FrozenBase> base, uint64_t epoch);

  /// True while the current base borrows a loaded snapshot image — mapped
  /// file or heap buffer (diagnostics; false after a re-Freeze or a
  /// compaction installs owned storage).
  bool borrows_snapshot() const;

  /// The base of the chain this thread reads (snapshot writing,
  /// diagnostics). A range-returning read: pinned on live stores.
  const FrozenBase& base() const;

  /// --- Term access -------------------------------------------------------

  Dictionary& dictionary() { return dict_; }
  const Dictionary& dictionary() const { return dict_; }

  /// Interns (or finds) a term id. Mutates the dictionary: must not be
  /// called while other threads read a frozen store (query paths use the
  /// read-only Lookup() instead).
  TermId Intern(const Term& t) {
    assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
           "TripleStore::Intern() during concurrent reads of a frozen store");
    assert(!live() &&
           "use dictionary().InternLive() on live stores (Intern is the "
           "freeze-once mutator)");
    return dict_.Intern(t);
  }
  /// Finds an existing term id; kInvalidTermId when absent.
  TermId Lookup(const Term& t) const { return dict_.Lookup(t); }
  const Term& term(TermId id) const { return dict_.term(id); }

  /// --- Matching (requires frozen()) --------------------------------------

  /// All triples matching the pattern, as a sorted range of one index
  /// permutation. Triple component order is always s/p/o regardless of
  /// which permutation serves it. The range is valid until the store's
  /// next mutation, and on a live store while the caller's ReadPin holds.
  IndexRange Match(const TriplePattern& pattern) const;

  /// Number of triples matching a pattern. Pure index-range arithmetic:
  /// compressed stores answer from the skip table plus at most two block
  /// decodes, raw stores from two binary searches.
  uint64_t CountMatches(const TriplePattern& pattern) const;

  /// True if at least one triple matches.
  bool Exists(const TriplePattern& pattern) const;

  /// The triples of `perm` between the sentinels `lo` and `hi`
  /// (inclusive, in `perm`'s key order), as EpochChain::Clip answers them
  /// on the chain this thread reads — including the subject directory
  /// handed back when the range is the base's whole SPO permutation.
  IndexRange Range(Perm perm, const EncodedTriple& lo, const EncodedTriple& hi,
                   const SubjectDirectory** directory = nullptr) const;

  /// The whole permutation (Range over the full key space).
  IndexRange PermutationRange(
      Perm perm, const SubjectDirectory** directory = nullptr) const;

  /// Distinct predicate ids appearing on triples with subject `s`.
  std::vector<TermId> PredicatesOfSubject(TermId s) const;

  /// Distinct predicate ids appearing on triples with object `o`.
  std::vector<TermId> PredicatesOfObject(TermId o) const;

  /// Distinct predicates in the whole store.
  std::vector<TermId> AllPredicates() const;

  /// Statistics for a predicate (zeroes for unknown predicates).
  PredicateStats predicate_stats(TermId p) const;

  /// --- Size accounting ----------------------------------------------------

  uint64_t size() const;

  /// Heap vs mapped breakdown of the dictionary, the pending buffer and
  /// the chain this thread reads (see StoreMemory). A zero-copy loaded
  /// store reports its borrowed image under mapped_bytes instead of
  /// silently dropping it from the total.
  StoreMemory MemoryBreakdown() const;

  /// Total footprint in bytes: heap + mapped.
  size_t MemoryUsage() const {
    StoreMemory m = MemoryBreakdown();
    return m.heap_bytes + m.mapped_bytes;
  }

 private:
  /// Debug-only witness that a read is in flight: Match() holds one for
  /// the duration of the index lookup, and the mutators assert the count
  /// is zero. This catches "Add()/Intern() raced a query" bugs in tests
  /// without imposing any cost on release builds.
  class ReadGuard {
   public:
#ifndef NDEBUG
    explicit ReadGuard(const TripleStore* s) : store_(s) {
      store_->active_readers_.fetch_add(1, std::memory_order_relaxed);
    }
    ~ReadGuard() {
      store_->active_readers_.fetch_sub(1, std::memory_order_relaxed);
    }
   private:
    const TripleStore* store_;
#else
    explicit ReadGuard(const TripleStore*) {}
#endif
  };

  /// The chain reads on this thread answer from: the store's only chain
  /// on non-live stores (no lock), the thread's pin on live ones.
  /// Unpinned live reads are asserted in debug builds and answer from
  /// the latest chain otherwise (valid until the next publication).
  const EpochChain& ReadChain() const;
  /// Refreshes store.epoch / store.delta.* / store.triples after a chain
  /// publication.
  void UpdateChainGauges(const EpochChain& chain) const;
  /// Refreshes the store.* gauges (triples, heap/mapped bytes, per-index
  /// bytes) after any freeze/adopt.
  void UpdateStoreGauges() const;

  Dictionary dict_;
  // Add() buffer. While !frozen_ it holds every triple of the store (the
  // first Add() after a freeze copies the base's triples in first).
  std::vector<EncodedTriple> pending_;
  IndexFormat format_ = IndexFormat::kRaw;
  bool frozen_ = false;
  // The current epoch chain, never null (an empty base at epoch 0 before
  // the first freeze). Non-live stores read it without a lock: nothing
  // replaces it while reads run. Live stores replace it under chain_mu_
  // per publication and copy it out under it, once per ReadPin. live_
  // flips true exactly once.
  std::atomic<bool> live_{false};
  mutable std::mutex chain_mu_;
  std::shared_ptr<const EpochChain> chain_;
  mutable std::atomic<int> active_readers_{0};
};

/// pool->ParallelFor(n, fn), with every helper reading the chain of
/// `store` the calling thread reads: pool threads do not inherit the
/// caller's ReadPin, so a fan-out inside a pinned request would otherwise
/// read whatever epoch is latest (and, on a live store, unpinned).
void ParallelForPinned(util::ThreadPool* pool, const TripleStore& store,
                       size_t n, const std::function<void(size_t)>& fn);

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_TRIPLE_STORE_H_
