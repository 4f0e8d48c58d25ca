#include "rdf/index_cursor.h"

#include <algorithm>

#include "obs/metrics.h"
#include "rdf/compressed_index.h"
#include "rdf/delta_layer.h"

namespace re2xolap::rdf {

namespace {

// Shared fallback scratch for callers that do point lookups without their
// own scratch (IndexRange::operator[], cold paths). Thread-local, so the
// concurrent-read contract of TripleStore holds for compressed stores too.
thread_local IndexBlockScratch t_point_scratch;

obs::Counter& SkipSeeksCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("store.index.skip_seeks");
  return c;
}

obs::Counter& SkipStepsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("store.index.skip_steps");
  return c;
}

// Thread-local decoded-block pool: a small set-associative cache of
// decoded blocks keyed by (generation, block). Probe-heavy joins hit the
// same blocks over and over in non-sequential order — a single-block
// scratch thrashes, re-running the vbyte decode once per probe (a
// ~1024-triple decode to answer a 1-triple lookup). The pool bounds that
// to one decode per resident block. Entries are shared_ptrs; a scratch
// pins the block it is reading, so eviction never invalidates a span a
// caller still holds. Per-thread and lock-free, like t_point_scratch.
//
// Capacity: kSlots = 2048 slots, at most ~24 MiB of decoded triples per
// thread, and only when that many distinct blocks are actually probed.
class BlockPool {
 public:
  static constexpr uint32_t kWays = 4;
  static constexpr uint64_t kSlots = 2048;
  static constexpr uint64_t kSets = kSlots / kWays;  // a power of two

  static BlockPool& Get() {
    thread_local BlockPool pool;
    return pool;
  }

  std::shared_ptr<const std::vector<EncodedTriple>> Lookup(uint64_t gen,
                                                           uint64_t block) {
    Entry* set = &slots_[SetOf(gen, block) * kWays];
    for (uint32_t w = 0; w < kWays; ++w) {
      if (set[w].generation == gen && set[w].block == block) {
        return set[w].data;
      }
    }
    return nullptr;
  }

  void Insert(uint64_t gen, uint64_t block,
              std::shared_ptr<const std::vector<EncodedTriple>> data) {
    const uint64_t s = SetOf(gen, block);
    Entry* set = &slots_[s * kWays];
    uint32_t victim = 0;
    for (uint32_t w = 0; w < kWays; ++w) {
      if (set[w].data == nullptr) {
        victim = w;
        break;
      }
      if (w == kWays - 1) victim = ticks_[s]++ % kWays;
    }
    set[victim] = {gen, block, std::move(data)};
  }

 private:
  struct Entry {
    uint64_t generation = 0;
    uint64_t block = 0;
    std::shared_ptr<const std::vector<EncodedTriple>> data;
  };

  static_assert((kSets & (kSets - 1)) == 0, "set count must be 2^n");

  BlockPool() : slots_(kSlots), ticks_(kSets, 0) {}

  uint64_t SetOf(uint64_t gen, uint64_t block) const {
    // Mix so consecutive blocks of one permutation spread across sets.
    uint64_t h = gen * 0x9e3779b97f4a7c15ull + block;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 32;
    return h & (kSets - 1);
  }

  std::vector<Entry> slots_;
  std::vector<uint32_t> ticks_;
};

// Decoded view of block b: served from the scratch pin when it already
// holds the block, else from the thread-local pool, else decoded (and
// pooled). The returned span aliases the pinned vector, so it stays valid
// until the scratch is repointed — even across pool eviction.
std::span<const EncodedTriple> DecodedBlock(const CompressedPermutation& cp,
                                            uint64_t b,
                                            IndexBlockScratch* scratch) {
  if (scratch == nullptr) scratch = &t_point_scratch;
  if (scratch->generation == cp.generation() && scratch->block == b &&
      scratch->pinned != nullptr) {
    return *scratch->pinned;
  }
  BlockPool& pool = BlockPool::Get();
  std::shared_ptr<const std::vector<EncodedTriple>> data =
      pool.Lookup(cp.generation(), b);
  if (data == nullptr) {
    auto decoded = std::make_shared<std::vector<EncodedTriple>>();
    cp.DecodeBlock(b, decoded.get());
    data = std::move(decoded);
    pool.Insert(cp.generation(), b, data);
  }
  scratch->generation = cp.generation();
  scratch->block = b;
  scratch->pinned = std::move(data);
  return *scratch->pinned;
}

// Galloping partition point over a raw span: first position in [from, n)
// where `before` flips to false; n when it never does. `before` must be
// monotone (true prefix, false suffix) — which PermLess against a fixed
// probe is on a sorted permutation.
template <typename Before>
uint64_t GallopSpan(std::span<const EncodedTriple> s, uint64_t from,
                    Before before) {
  const uint64_t n = s.size();
  if (from >= n) return n;
  if (!before(s[from])) return from;
  uint64_t bound = 1;
  while (from + bound < n && before(s[from + bound])) bound <<= 1;
  const uint64_t lo = from + bound / 2;  // before(s[lo]) holds
  const uint64_t hi = std::min(from + bound, n);
  return static_cast<uint64_t>(
      std::partition_point(s.begin() + lo, s.begin() + hi, before) -
      s.begin());
}

}  // namespace

std::span<const EncodedTriple> IndexRange::Fetch(
    uint64_t pos, uint64_t limit, IndexBlockScratch* scratch) const {
  if (pos >= size()) return {};
  uint64_t n = size() - pos;
  if (limit != 0 && limit < n) n = limit;
  if (merged()) return FetchMerged(pos, n, scratch);
  if (!compressed()) {
    return {data_ + begin_ + pos, static_cast<size_t>(n)};
  }
  const uint64_t abs = begin_ + pos;
  const uint64_t b = blocks_->BlockOf(abs);
  std::span<const EncodedTriple> block = DecodedBlock(*blocks_, b, scratch);
  const uint64_t in_block = abs - blocks_->BlockFirstPos(b);
  const uint64_t take = std::min<uint64_t>(n, block.size() - in_block);
  return block.subspan(in_block, take);
}

// Merged window materialization: serve from the scratch's window when it
// covers `pos`, continue the K-way merge when `pos` is the window's end,
// and otherwise rank-seek to `pos` cold. `limit` is already clipped to
// the range's remainder by Fetch.
std::span<const EncodedTriple> IndexRange::FetchMerged(
    uint64_t pos, uint64_t limit, IndexBlockScratch* scratch) const {
  // Window size: enough that sequential scans amortize the per-window
  // source setup, small enough to stay cache-resident like the
  // compressed decode blocks.
  constexpr uint64_t kMergedWindow = 1024;
  if (scratch == nullptr) scratch = &t_point_scratch;
  const MergedRun& run = *merged_;
  const uint64_t abs = begin_ + pos;
  const bool same_run = scratch->merged_id == run.id();
  if (same_run && abs >= scratch->merged_win_start &&
      abs < scratch->merged_win_start + scratch->merged_buf.size()) {
    const uint64_t in_win = abs - scratch->merged_win_start;
    const uint64_t take =
        std::min<uint64_t>(limit, scratch->merged_buf.size() - in_win);
    return {scratch->merged_buf.data() + in_win, static_cast<size_t>(take)};
  }
  if (!same_run || scratch->merged_cur.merged_pos != abs) {
    run.Seek(abs, &scratch->merged_cur);
    scratch->merged_id = run.id();
  }
  scratch->merged_buf.clear();
  scratch->merged_win_start = abs;
  const uint64_t want =
      std::max<uint64_t>(std::min<uint64_t>(run.size() - abs, kMergedWindow),
                         std::min<uint64_t>(limit, kMergedWindow));
  run.Advance(&scratch->merged_cur, want, &scratch->merged_buf);
  const uint64_t take =
      std::min<uint64_t>(limit, scratch->merged_buf.size());
  return {scratch->merged_buf.data(), static_cast<size_t>(take)};
}

EncodedTriple IndexRange::operator[](uint64_t i) const {
  assert(i < size());
  if (merged()) return FetchMerged(i, 1, nullptr)[0];
  if (!compressed()) return data_[begin_ + i];
  const uint64_t abs = begin_ + i;
  const uint64_t b = blocks_->BlockOf(abs);
  std::span<const EncodedTriple> block = DecodedBlock(*blocks_, b, nullptr);
  return block[abs - blocks_->BlockFirstPos(b)];
}

namespace {

// Shared bound computation: first relative position in [from, size) where
// `before` flips to false. Compressed ranges gallop over the skip table's
// block-first keys and decode exactly one block for the final in-block
// binary search.
template <typename Before>
uint64_t RangeGallop(const CompressedPermutation* blocks,
                     const EncodedTriple* data, uint64_t begin, uint64_t end,
                     uint64_t from, Before before,
                     IndexBlockScratch* scratch) {
  const uint64_t range_size = end - begin;
  if (from >= range_size) return range_size;
  if (blocks == nullptr) {
    return GallopSpan(
        std::span<const EncodedTriple>(data + begin,
                                       static_cast<size_t>(range_size)),
        from, before);
  }
  std::span<const BlockMeta> skip = blocks->skip();
  const uint64_t nblocks = skip.size();
  const uint64_t abs_from = begin + from;
  const uint64_t b0 = blocks->BlockOf(abs_from);
  // Fast path: the flip happens inside the starting block (the next
  // block's first key is already past the probe). Merge-join probes are
  // sorted, so nearly every probe takes this branch — one in-block binary
  // search on the block the scratch already pins, no skip-table walk.
  if (b0 + 1 >= nblocks || !before(skip[b0 + 1].first())) {
    std::span<const EncodedTriple> block = DecodedBlock(*blocks, b0, scratch);
    uint64_t start = abs_from - blocks->BlockFirstPos(b0);
    if (start > block.size()) start = block.size();
    // Gallop, don't binary-search: adjacent sorted probes resolve in one
    // or two comparisons, matching the raw span's cost profile.
    uint64_t abs = blocks->BlockFirstPos(b0) + GallopSpan(block, start, before);
    abs = std::clamp(abs, abs_from, end);
    return abs - begin;
  }
  SkipSeeksCounter().Inc();
  uint64_t key_probes = 0;
  auto before_key = [&](const BlockMeta& m) {
    ++key_probes;
    return before(m.first());
  };
  // Gallop the block index forward from b0, then binary-search the block
  // window; `j` is the first block at or after b0 whose first key is not
  // before the probe.
  uint64_t bound = 1;
  while (b0 + bound < nblocks && before_key(skip[b0 + bound])) bound <<= 1;
  const uint64_t lo_b = b0 + bound / 2;
  const uint64_t hi_b = std::min(b0 + bound, nblocks);
  const uint64_t j = static_cast<uint64_t>(
      std::partition_point(skip.begin() + lo_b, skip.begin() + hi_b,
                           before_key) -
      skip.begin());
  SkipStepsCounter().Inc(key_probes);
  // The flip happens inside block j-1 (or at block j's first key); blocks
  // before it are entirely `before`. Decode that one block and finish.
  const uint64_t b = j > b0 ? j - 1 : b0;
  std::span<const EncodedTriple> block = DecodedBlock(*blocks, b, scratch);
  uint64_t start = b == b0 ? abs_from - blocks->BlockFirstPos(b0) : 0;
  if (start > block.size()) start = block.size();
  uint64_t abs =
      blocks->BlockFirstPos(b) +
      static_cast<uint64_t>(
          std::partition_point(block.begin() + start, block.end(), before) -
          block.begin());
  abs = std::clamp(abs, abs_from, end);
  return abs - begin;
}

}  // namespace

uint64_t IndexRange::LowerBound(const EncodedTriple& probe,
                                IndexBlockScratch* scratch) const {
  return GallopLowerBound(0, probe, scratch);
}

uint64_t IndexRange::UpperBound(const EncodedTriple& probe,
                                IndexBlockScratch* scratch) const {
  return GallopUpperBound(0, probe, scratch);
}

uint64_t IndexRange::GallopLowerBound(uint64_t from, const EncodedTriple& probe,
                                      IndexBlockScratch* scratch) const {
  if (merged()) {
    // Merged bounds are sums of per-source bounds (exact under the
    // delta-layer invariants); `from` only clamps, like the compressed
    // path's absolute-position clamp.
    const uint64_t abs =
        std::clamp(merged_->Bound(probe, /*upper=*/false), begin_ + from, end_);
    return abs - begin_;
  }
  const Perm perm = perm_;
  return RangeGallop(
      blocks_, data_, begin_, end_, from,
      [&probe, perm](const EncodedTriple& t) { return PermLess(perm, t, probe); },
      scratch);
}

uint64_t IndexRange::GallopUpperBound(uint64_t from, const EncodedTriple& probe,
                                      IndexBlockScratch* scratch) const {
  if (merged()) {
    const uint64_t abs =
        std::clamp(merged_->Bound(probe, /*upper=*/true), begin_ + from, end_);
    return abs - begin_;
  }
  const Perm perm = perm_;
  return RangeGallop(
      blocks_, data_, begin_, end_, from,
      [&probe, perm](const EncodedTriple& t) {
        return !PermLess(perm, probe, t);
      },
      scratch);
}

IndexRange::Iterator::Iterator(const IndexRange* r, uint64_t pos)
    : range_(r), pos_(pos) {
  Refill();
}

void IndexRange::Iterator::Refill() {
  chunk_start_ = pos_;
  if (pos_ >= range_->size()) {
    chunk_ = {};
    return;
  }
  if ((range_->compressed() || range_->merged()) && scratch_ == nullptr) {
    scratch_ = std::make_shared<IndexBlockScratch>();
  }
  chunk_ = range_->Fetch(pos_, 0, scratch_.get());
}

}  // namespace re2xolap::rdf
