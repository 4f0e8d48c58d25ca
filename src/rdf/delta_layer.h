#ifndef RE2XOLAP_RDF_DELTA_LAYER_H_
#define RE2XOLAP_RDF_DELTA_LAYER_H_

// Epoch-chain building blocks for live ingestion: an immutable frozen
// base plus a stack of immutable sorted delta layers, merged at read
// time behind the IndexRange seam (ROADMAP item 3).
//
// A DeltaLayer is one atomically published ingest batch: inserts and
// tombstoned deletes, each sorted in all three permutation orders, so a
// layer answers the same clipped-range probes the base indexes do. The
// layer-build invariants (enforced by store::Ingestor against the chain
// being replaced) make merged positions exact arithmetic:
//
//   - an insert is never already visible in the chain below, and
//   - a tombstone kills exactly one triple visible in the chain below,
//
// so for any key prefix the number of visible triples is
//   sum(adds <= prefix) - sum(tombstones <= prefix)
// across base + layers, with the per-key count always 0 or 1. MergedRun
// turns that arithmetic into an IndexRange backing: bounds are sums of
// per-source bounds, and Fetch materializes merged windows with
// tombstone annihilation (equal keys across sources cancel in pairs).
//
// Everything in this header is immutable after construction and safe
// for concurrent reads; publication of a new EpochChain is a single
// atomic shared_ptr store in TripleStore.

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rdf/index_cursor.h"
#include "rdf/subject_directory.h"
#include "rdf/triple.h"
#include "rdf/triple_store.h"

namespace re2xolap::rdf {

/// One sealed ingest batch: sorted insert and tombstone arrays per
/// permutation. Immutable once published into an EpochChain.
struct DeltaLayer {
  /// Inserted triples, each array sorted by its permutation's key order
  /// and deduplicated. All three hold the same triple set.
  std::vector<EncodedTriple> add_spo;
  std::vector<EncodedTriple> add_pos;
  std::vector<EncodedTriple> add_osp;
  /// Tombstones: triples visible in the chain below this layer that this
  /// layer deletes. Same sorting/dedup contract as the inserts.
  std::vector<EncodedTriple> del_spo;
  std::vector<EncodedTriple> del_pos;
  std::vector<EncodedTriple> del_osp;
  /// Net per-predicate triple-count change (inserts - deletes), applied
  /// to the planner stats when the chain's merged stats are built.
  std::unordered_map<TermId, int64_t> predicate_delta;
  /// Monotone ingest batch number (diagnostics; snapshot round-trips).
  uint64_t batch_id = 0;

  const std::vector<EncodedTriple>& adds(Perm perm) const {
    switch (perm) {
      case Perm::kSpo:
        return add_spo;
      case Perm::kPos:
        return add_pos;
      default:
        return add_osp;
    }
  }
  const std::vector<EncodedTriple>& dels(Perm perm) const {
    switch (perm) {
      case Perm::kSpo:
        return del_spo;
      case Perm::kPos:
        return del_pos;
      default:
        return del_osp;
    }
  }

  uint64_t add_count() const { return add_spo.size(); }
  uint64_t del_count() const { return del_spo.size(); }

  /// Recomputes predicate_delta from add_pos/del_pos (used after a
  /// snapshot restore, which serializes only the triple arrays).
  void RebuildPredicateDelta();

  size_t MemoryUsage() const;
};

/// Owned storage of a compacted base: the fold of a previous base plus
/// its sealed layers into fresh sorted raw arrays. When an EpochChain's
/// `base` is null the owning TripleStore's own frozen arrays serve as
/// the base instead (the state right after EnterLive()).
struct LiveBase {
  std::vector<EncodedTriple> spo;  // sorted by (s, p, o)
  std::vector<EncodedTriple> pos;  // sorted by (p, o, s)
  std::vector<EncodedTriple> osp;  // sorted by (o, s, p)
  std::unordered_map<TermId, PredicateStats> stats;
  SubjectDirectory directory;  // subject runs of `spo`

  size_t MemoryUsage() const;
};

/// One immutable snapshot of the live store's state: a base plus zero or
/// more delta layers, published atomically per ingest batch / compaction.
/// Readers pin a chain (TripleStore::ReadPin) for the duration of a
/// query; the shared_ptr graph keeps every array a handed-out IndexRange
/// references alive until the last reader drops its pin.
struct EpochChain {
  /// Compacted base storage; null while the store's own frozen arrays
  /// are the base.
  std::shared_ptr<const LiveBase> base;
  /// Delta layers, oldest first. Tombstones in layer k refer to triples
  /// visible in base + layers [0, k).
  std::vector<std::shared_ptr<const DeltaLayer>> layers;
  /// The chain's freeze epoch: every publish (ingest batch with a net
  /// change, compaction) bumps it, so engine cache keys roll over.
  uint64_t epoch = 0;
  /// Total visible triples (base + inserts - deletes).
  uint64_t visible_triples = 0;
  /// Merged planner stats: base stats with each layer's predicate_delta
  /// applied to triple_count. Distinct-subject/object counts stay at the
  /// base values for predicates the base knows (refreshing them exactly
  /// would cost a full scan per publish); predicates born in a delta
  /// layer use triple_count as an upper bound for both.
  std::unordered_map<TermId, PredicateStats> stats;
  /// Totals across layers (gauges, /healthz).
  uint64_t delta_adds = 0;
  uint64_t delta_dels = 0;

  uint64_t depth() const { return layers.size(); }
};

/// Applies `layer` on top of `stats` (the merged-stats construction
/// described on EpochChain::stats). Predicates whose count reaches zero
/// are erased so AllPredicates() stops listing them.
void ApplyLayerToStats(const DeltaLayer& layer,
                       std::unordered_map<TermId, PredicateStats>* stats);

/// The K-way merged view a merged IndexRange reads through: one clipped
/// run per source (base and per-layer inserts as adds, per-layer
/// tombstones as dels), all clipped to the same sentinel window of one
/// permutation. Positions are exact under the layer-build invariants
/// (see file header): size() = sum(adds) - sum(dels), and every bound is
/// the same sum over per-source bounds. Immutable and shared: the
/// IndexRanges handed to executors hold a shared_ptr to it, and it holds
/// the chain keepalive, so a range outlives chain publication safely.
class MergedRun {
 public:
  /// `adds` must be non-empty; every range must share `perm` and the
  /// same clip window. `keepalive` pins the chain the sources alias.
  MergedRun(std::vector<IndexRange> adds, std::vector<IndexRange> dels,
            Perm perm, std::shared_ptr<const void> keepalive);

  uint64_t size() const { return size_; }
  Perm perm() const { return perm_; }
  /// Process-unique identity for scratch-window matching (never 0).
  uint64_t id() const { return id_; }
  size_t source_count() const { return adds_.size() + dels_.size(); }

  /// Merged LowerBound (upper == false) / UpperBound (upper == true) of
  /// `probe` over the whole run, as a sum of per-source bounds.
  uint64_t Bound(const EncodedTriple& probe, bool upper) const;

  /// Positions `cur` at merged position `pos`: per-source positions plus
  /// the merged position itself. Runs a rank bisection over the largest
  /// add source, then merges forward over the residual gap.
  void Seek(uint64_t pos, MergedCursorState* cur) const;

  /// Advances `cur` by up to `limit` merged triples (annihilating
  /// tombstones), appending them to `out` when non-null. Returns the
  /// number of merged triples advanced.
  uint64_t Advance(MergedCursorState* cur, uint64_t limit,
                   std::vector<EncodedTriple>* out) const;

 private:
  /// Number of merged triples with key < probe, with per-source lower
  /// bounds written to `bounds` (sized source_count, adds then dels).
  uint64_t RankLess(const EncodedTriple& probe,
                    std::vector<uint64_t>* bounds) const;

  std::vector<IndexRange> adds_;
  std::vector<IndexRange> dels_;
  Perm perm_ = Perm::kSpo;
  uint64_t size_ = 0;
  uint64_t id_ = 0;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_DELTA_LAYER_H_
