#ifndef RE2XOLAP_RDF_DELTA_LAYER_H_
#define RE2XOLAP_RDF_DELTA_LAYER_H_

// The one store representation: an epoch chain of an immutable frozen
// base plus a stack of immutable sorted delta layers. A frozen store is a
// chain of depth 0; live ingestion (src/store/) publishes deeper ones.
//
// A FrozenBase is what Freeze, snapshot load and compaction all produce:
// the three sorted permutations (raw arrays or compressed blocks, owned
// or borrowed from a loaded image), the SPO subject directory and the
// predicate statistics.
//
// A DeltaLayer is one atomically published ingest batch: inserts and
// tombstoned deletes, each sorted in all three permutation orders, so a
// layer answers the same clipped-range probes the base does. The
// layer-build invariants (enforced by store::Ingestor against the chain
// being replaced) make merged positions exact arithmetic:
//
//   - an insert is never already visible in the chain below, and
//   - a tombstone kills exactly one triple visible in the chain below,
//
// so for any key prefix the number of visible triples is
//   sum(adds <= prefix) - sum(tombstones <= prefix)
// across base + layers, with the per-key count always 0 or 1.
//
// Reads go through EpochChain::Clip, which clips every source to the
// probe's key window first. A window that one source covers alone is
// answered by that source's own span or block range; only a window with
// two or more non-empty sources builds a MergedRun, whose bounds are
// sums of per-source bounds and whose Fetch materializes merged windows
// with tombstone annihilation (equal keys across sources cancel in
// pairs). Ranges hold no keepalive: a reader pins the chain
// (TripleStore::ReadPin) for as long as it uses them.
//
// Everything in this header is immutable once published and safe for
// concurrent reads; publication of a new EpochChain is a pointer swap in
// TripleStore.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "rdf/compressed_index.h"
#include "rdf/index_cursor.h"
#include "rdf/subject_directory.h"
#include "rdf/triple.h"
#include "rdf/triple_store.h"

namespace re2xolap::rdf {

/// The base of an epoch chain: one frozen, deduplicated triple set in
/// all three permutation orders. Each permutation is a raw sorted array
/// (owned, or borrowed from memory `keepalive` holds) or a compressed
/// block permutation (owned or borrowed the same way); one base never
/// mixes the two formats. Built once, then immutable.
class FrozenBase {
 public:
  /// Installs `sorted` (in `perm`'s key order, deduplicated) as owned
  /// raw storage.
  void Own(Perm perm, std::vector<EncodedTriple> sorted);
  /// Installs a raw permutation borrowed from memory `keepalive` holds.
  void Borrow(Perm perm, std::span<const EncodedTriple> sorted);
  /// Installs a compressed permutation (its storage owned, or borrowed
  /// from `keepalive`).
  void SetBlocks(Perm perm, CompressedPermutation blocks);

  bool compressed() const { return compressed_; }
  uint64_t size() const;
  /// The raw sorted array of `perm` (raw-format bases only).
  std::span<const EncodedTriple> raw(Perm perm) const {
    return raw_[static_cast<size_t>(perm)];
  }
  /// The block permutation of `perm` (compressed bases only).
  const CompressedPermutation& blocks(Perm perm) const {
    return blocks_[static_cast<size_t>(perm)];
  }
  /// The whole permutation as an IndexRange.
  IndexRange Range(Perm perm) const;
  /// A copy of the triples in SPO order (rebuilding a store after Add()).
  std::vector<EncodedTriple> Triples() const;

  /// Malloc'd bytes: owned arrays or blocks, directory, stats.
  size_t heap_bytes() const;
  /// Bytes of a borrowed image the permutations alias.
  size_t borrowed_bytes() const;
  /// Bytes of one permutation, owned or borrowed.
  size_t index_bytes(Perm perm) const;

  SubjectDirectory directory;  // subject runs of the SPO permutation
  std::unordered_map<TermId, PredicateStats> stats;
  std::shared_ptr<const void> keepalive;  // borrowed image; null if owned
  bool compacted = false;  // built by a compaction (LiveInfo)

 private:
  std::array<std::span<const EncodedTriple>, 3> raw_;
  std::array<std::vector<EncodedTriple>, 3> owned_;
  std::array<CompressedPermutation, 3> blocks_;
  bool compressed_ = false;
};

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

/// One immutable snapshot of a store's state: a base plus zero or more
/// delta layers. A frozen store holds one chain of depth 0; a live store
/// publishes a new chain per ingest batch / compaction. Readers pin a
/// chain (TripleStore::ReadPin) for the duration of a query; the
/// shared_ptr graph keeps every array a handed-out IndexRange references
/// alive until the last reader drops its pin.
struct EpochChain {
  /// Never null.
  std::shared_ptr<const FrozenBase> base;
  /// Delta layers, oldest first. Tombstones in layer k refer to triples
  /// visible in base + layers [0, k).
  std::vector<std::shared_ptr<const DeltaLayer>> layers;
  /// The chain's freeze epoch: every Freeze and every live publish
  /// (ingest batch with a net change, compaction) bumps it, so engine
  /// cache keys roll over.
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

  /// The visible triples of `perm` between the sentinels `lo` and `hi`
  /// (inclusive, in `perm`'s key order). Every source is clipped to the
  /// window first; when at most one clipped source is non-empty the
  /// result is that source's own span or block range, and only two or
  /// more non-empty sources build a MergedRun. When `directory` is
  /// non-null it receives the base's subject directory if the result is
  /// the base's whole SPO permutation (so directory positions index it),
  /// else null. The range is valid while this chain is.
  IndexRange Clip(Perm perm, const EncodedTriple& lo, const EncodedTriple& hi,
                  const SubjectDirectory** directory = nullptr) const;

  /// The whole permutation (ingest visibility probes, compaction).
  IndexRange Range(Perm perm) const;
};

/// Applies `layer` on top of `stats` (the merged-stats construction
/// described on EpochChain::stats). Predicates whose count reaches zero
/// are erased so AllPredicates() stops listing them.
void ApplyLayerToStats(const DeltaLayer& layer,
                       std::unordered_map<TermId, PredicateStats>* stats);

/// The K-way merged view a merged IndexRange reads through: one clipped
/// run per non-empty source (base and per-layer inserts as adds,
/// per-layer tombstones as dels), all clipped to the same sentinel
/// window of one permutation. Positions are exact under the layer-build
/// invariants (see file header): size() = sum(adds) - sum(dels), and
/// every bound is the same sum over per-source bounds. Immutable and
/// shared between copies of the ranges over it; the sources alias the
/// chain, which the reader's pin keeps alive.
class MergedRun {
 public:
  /// `adds` must be non-empty; every range must share `perm` and the
  /// same clip window.
  MergedRun(std::vector<IndexRange> adds, std::vector<IndexRange> dels,
            Perm perm);

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
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_DELTA_LAYER_H_
