#ifndef RE2XOLAP_RDF_INDEX_CURSOR_H_
#define RE2XOLAP_RDF_INDEX_CURSOR_H_

// Index-cursor abstraction over the three sorted triple permutations.
//
// TripleStore::Match() answers every pattern with an IndexRange: a
// sorted run of triples of one permutation. The range is backed by a raw
// EncodedTriple array (zero-copy spans), by the compressed block format
// of rdf/compressed_index.h (fixed-size delta/vbyte blocks plus an
// in-memory skip table), or — when two or more sources of a live epoch
// chain cover the probed window — by a merged run (rdf/delta_layer.h).
// Consumers that only iterate use the range-for iterator or
// IndexCursor::NextChunk; the executors additionally seek and gallop via
// sentinel-triple probes, which on compressed ranges run on the block skip
// keys first and decode only the blocks that survive the seek.
//
// Position convention: all positions are relative to the range (0 ..
// size()). Probes are full sentinel triples compared with the permutation's
// total order — callers bake the pattern's bound prefix into the sentinel
// and fill unbound trailing components with 0 / kMaxTermId, exactly like
// the store's own EqualRange computation.

#include <cassert>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "rdf/triple.h"

namespace re2xolap::rdf {

class CompressedPermutation;
class MergedRun;

/// The three index permutations. The numeric values are wire-stable: the
/// compressed snapshot sections identify their permutation by this value.
enum class Perm : uint8_t { kSpo = 0, kPos = 1, kOsp = 2 };

inline constexpr TermId kMaxTermId = ~static_cast<TermId>(0);

/// Key comparators for the three permutations (total orders over full
/// triples). Centralized here so the store, the executors, and the
/// compressed codec agree on one definition.
struct SpoLess {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    return a.o < b.o;
  }
};
struct PosLess {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    if (a.p != b.p) return a.p < b.p;
    if (a.o != b.o) return a.o < b.o;
    return a.s < b.s;
  }
};
struct OspLess {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    if (a.o != b.o) return a.o < b.o;
    if (a.s != b.s) return a.s < b.s;
    return a.p < b.p;
  }
};

/// a < b under the given permutation's key order.
inline bool PermLess(Perm perm, const EncodedTriple& a,
                     const EncodedTriple& b) {
  switch (perm) {
    case Perm::kSpo:
      return SpoLess()(a, b);
    case Perm::kPos:
      return PosLess()(a, b);
    default:
      return OspLess()(a, b);
  }
}

/// Caller-owned scratch for decoding compressed blocks: pins one decoded
/// block so repeated accesses into the same block (chunked scans, binary
/// searches converging on a block) decode it once. Decoded blocks live in
/// a thread-local block cache (see index_cursor.cc); the scratch holds a
/// shared_ptr pin, so spans handed out stay valid even if the cache
/// evicts the block. Reusable across ranges; the (generation, block) key
/// prevents stale hits when a range from a different permutation — or a
/// permutation that has since been destroyed and its address reused — is
/// attached to the same scratch.
/// Per-source merge positions of a MergedRun reader (adds first, then
/// tombstone sources), plus the merged position they correspond to.
/// Lives inside IndexBlockScratch so a cursor's scratch can continue a
/// sequential merged scan without re-seeking.
struct MergedCursorState {
  uint64_t merged_pos = 0;
  std::vector<uint64_t> src;
};

struct IndexBlockScratch {
  std::shared_ptr<const std::vector<EncodedTriple>> pinned;
  uint64_t generation = 0;             // CompressedPermutation::generation()
  uint64_t block = ~static_cast<uint64_t>(0);
  // Merged-run window (rdf/delta_layer.h): `merged_buf` holds the
  // materialized window starting at absolute merged position
  // `merged_win_start` of the run identified by `merged_id`, and
  // `merged_cur` sits at the window's end so sequential Fetch calls
  // continue the K-way merge without a rank re-seek. The buffer is owned
  // by the scratch, so handed-out spans follow the usual scratch-reuse
  // lifetime rule.
  uint64_t merged_id = 0;  // MergedRun::id(); 0 = no window
  uint64_t merged_win_start = 0;
  std::vector<EncodedTriple> merged_buf;
  MergedCursorState merged_cur;
};

/// A sorted run of triples of one permutation. Cheap value type (pointer
/// + offsets); validity follows the backing store — a range must not
/// outlive its TripleStore, the store's next mutation or, on a live
/// store, the ReadPin it was read under.
class IndexRange {
 public:
  IndexRange() = default;

  /// Raw backing: the span IS the range.
  static IndexRange FromSpan(std::span<const EncodedTriple> s, Perm perm) {
    IndexRange r;
    r.data_ = s.data();
    r.end_ = s.size();
    r.perm_ = perm;
    return r;
  }

  /// Compressed backing: positions [begin, end) of `blocks`' permutation.
  static IndexRange FromBlocks(const CompressedPermutation* blocks,
                               uint64_t begin, uint64_t end, Perm perm) {
    IndexRange r;
    r.blocks_ = blocks;
    r.begin_ = begin;
    r.end_ = end;
    r.perm_ = perm;
    return r;
  }

  /// Merged backing (a window two or more sources of an epoch chain
  /// cover): positions [begin, end) of `run`, the K-way base-plus-delta
  /// view of rdf/delta_layer.h. Copies of the range share the run; the
  /// sources it reads alias the chain, which the reader's ReadPin keeps
  /// alive.
  static IndexRange FromMerged(std::shared_ptr<const MergedRun> run,
                               uint64_t begin, uint64_t end, Perm perm) {
    IndexRange r;
    r.merged_ = std::move(run);
    r.begin_ = begin;
    r.end_ = end;
    r.perm_ = perm;
    return r;
  }

  uint64_t size() const { return end_ - begin_; }
  bool empty() const { return end_ == begin_; }
  bool compressed() const { return blocks_ != nullptr; }
  bool merged() const { return merged_ != nullptr; }
  Perm perm() const { return perm_; }

  /// Zero-copy access to a raw-backed range. Precondition: !compressed()
  /// and !merged().
  std::span<const EncodedTriple> raw() const {
    assert(!compressed() && !merged());
    return {data_ + begin_, static_cast<size_t>(end_ - begin_)};
  }

  /// Returns up to `limit` triples starting at relative position `pos`
  /// (limit 0 = as many as available). Raw ranges return a zero-copy
  /// subspan covering the whole remainder (capped by limit); compressed
  /// ranges return a slice of one decoded block, so the chunk additionally
  /// ends at the next block boundary. The returned span stays valid until
  /// `scratch` is reused. `scratch` may be null for raw ranges.
  std::span<const EncodedTriple> Fetch(uint64_t pos, uint64_t limit,
                                       IndexBlockScratch* scratch) const;

  /// Triple at relative position i. On compressed ranges this decodes via
  /// a thread-local scratch — fine for cold paths and point lookups, use
  /// Fetch/iterators for scans.
  EncodedTriple operator[](uint64_t i) const;
  EncodedTriple front() const { return (*this)[0]; }
  EncodedTriple back() const { return (*this)[size() - 1]; }

  /// First relative position whose triple is >= probe (LowerBound) or >
  /// probe (UpperBound) in the permutation's key order. Compressed ranges
  /// binary-search the block skip keys and decode at most one block.
  /// `scratch` may be null (falls back to the thread-local scratch).
  uint64_t LowerBound(const EncodedTriple& probe,
                      IndexBlockScratch* scratch = nullptr) const;
  uint64_t UpperBound(const EncodedTriple& probe,
                      IndexBlockScratch* scratch = nullptr) const;

  /// Galloping variants for merge joins: start at relative position `from`
  /// and double the step until the probe is bracketed. Compressed ranges
  /// gallop over the block skip keys first and decode only the one block
  /// the final binary search lands in.
  uint64_t GallopLowerBound(uint64_t from, const EncodedTriple& probe,
                            IndexBlockScratch* scratch = nullptr) const;
  uint64_t GallopUpperBound(uint64_t from, const EncodedTriple& probe,
                            IndexBlockScratch* scratch = nullptr) const;

  /// Sub-range [lo, hi) in relative positions.
  IndexRange Slice(uint64_t lo, uint64_t hi) const {
    assert(lo <= hi && hi <= size());
    IndexRange r = *this;
    r.begin_ = begin_ + lo;
    r.end_ = begin_ + hi;
    return r;
  }

  /// Input iterator for range-for consumption (profiling scans, exports,
  /// other cold paths). Each begin() of a compressed range allocates one
  /// block-sized scratch; the hot executors use Fetch with pooled scratch
  /// instead.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = EncodedTriple;
    using difference_type = std::ptrdiff_t;
    using pointer = const EncodedTriple*;
    using reference = const EncodedTriple&;

    Iterator() = default;
    reference operator*() const { return chunk_[pos_ - chunk_start_]; }
    pointer operator->() const { return &**this; }
    Iterator& operator++() {
      if (++pos_ >= chunk_start_ + chunk_.size()) Refill();
      return *this;
    }
    Iterator operator++(int) {
      Iterator t = *this;
      ++*this;
      return t;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.pos_ == b.pos_;
    }
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return a.pos_ != b.pos_;
    }

   private:
    friend class IndexRange;
    Iterator(const IndexRange* r, uint64_t pos);
    void Refill();

    const IndexRange* range_ = nullptr;
    uint64_t pos_ = 0;
    std::span<const EncodedTriple> chunk_;
    uint64_t chunk_start_ = 0;
    std::shared_ptr<IndexBlockScratch> scratch_;
  };

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

 private:
  std::span<const EncodedTriple> FetchMerged(uint64_t pos, uint64_t limit,
                                             IndexBlockScratch* scratch) const;

  const CompressedPermutation* blocks_ = nullptr;  // null => raw backing
  const EncodedTriple* data_ = nullptr;            // raw backing base
  // Merged backing (null otherwise): copying a null shared_ptr is free,
  // so raw/compressed ranges pay nothing for this member.
  std::shared_ptr<const MergedRun> merged_;
  uint64_t begin_ = 0;  // raw: 0; compressed/merged: absolute position
  uint64_t end_ = 0;    // raw: size; compressed/merged: absolute end
  Perm perm_ = Perm::kSpo;
};

/// Stateful forward reader over an IndexRange: seek + block-at-a-time
/// materialization into owned scratch. Executors keep one per plan step /
/// recursion depth so the scratch block allocates once and is reused for
/// every binding; Attach() re-targets the cursor without releasing it.
class IndexCursor {
 public:
  IndexCursor() = default;
  explicit IndexCursor(IndexRange range) { Attach(range); }

  void Attach(IndexRange range) {
    range_ = range;
    pos_ = 0;
  }

  const IndexRange& range() const { return range_; }
  uint64_t position() const { return pos_; }
  bool done() const { return pos_ >= range_.size(); }
  void SeekTo(uint64_t pos) { pos_ = pos; }

  /// Advances past every triple < probe (>= semantics) or <= probe
  /// (greater semantics), galloping forward from the current position.
  void SeekLowerBound(const EncodedTriple& probe) {
    pos_ = range_.GallopLowerBound(pos_, probe, &scratch_);
  }
  void SeekUpperBound(const EncodedTriple& probe) {
    pos_ = range_.GallopUpperBound(pos_, probe, &scratch_);
  }

  /// Next chunk of at most `limit` triples (0 = no cap), advancing the
  /// cursor by the chunk's length. Empty chunk <=> done(). The span stays
  /// valid until the next NextChunk/Seek* call on this cursor.
  std::span<const EncodedTriple> NextChunk(uint64_t limit = 0) {
    std::span<const EncodedTriple> chunk = range_.Fetch(pos_, limit, &scratch_);
    pos_ += chunk.size();
    return chunk;
  }

  IndexBlockScratch* scratch() { return &scratch_; }

 private:
  IndexRange range_;
  uint64_t pos_ = 0;
  IndexBlockScratch scratch_;
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_INDEX_CURSOR_H_
