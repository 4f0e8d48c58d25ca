#include "rdf/delta_layer.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace re2xolap::rdf {

namespace {

uint64_t NextMergedRunId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

size_t TripleBytes(const std::vector<EncodedTriple>& v) {
  return v.capacity() * sizeof(EncodedTriple);
}

constexpr EncodedTriple kLowest{kInvalidTermId, kInvalidTermId,
                                kInvalidTermId};
constexpr EncodedTriple kHighest{kMaxTermId, kMaxTermId, kMaxTermId};

/// The part of a sorted array between the sentinels lo and hi.
std::span<const EncodedTriple> ClipSpan(std::span<const EncodedTriple> s,
                                        Perm perm, const EncodedTriple& lo,
                                        const EncodedTriple& hi) {
  auto less = [perm](const EncodedTriple& a, const EncodedTriple& b) {
    return PermLess(perm, a, b);
  };
  auto first = std::lower_bound(s.begin(), s.end(), lo, less);
  if (first == s.end() || less(hi, *first)) return {};
  auto last = std::upper_bound(first, s.end(), hi, less);
  return {first, last};
}

/// The part of the base between the sentinels lo and hi. A window with
/// one subject reads that subject's run from the directory first.
IndexRange ClipBase(const FrozenBase& base, Perm perm, const EncodedTriple& lo,
                    const EncodedTriple& hi) {
  IndexRange range = base.Range(perm);
  if (perm == Perm::kSpo && lo.s == hi.s && !base.directory.empty()) {
    const auto [first, last] = base.directory.Run(lo.s);
    range = range.Slice(first, last);
    if (lo.p == kInvalidTermId && lo.o == kInvalidTermId &&
        hi.p == kMaxTermId && hi.o == kMaxTermId) {
      return range;
    }
  }
  const uint64_t first = range.LowerBound(lo);
  const uint64_t last = std::max(first, range.GallopUpperBound(first, hi));
  return range.Slice(first, last);
}

}  // namespace

void FrozenBase::Own(Perm perm, std::vector<EncodedTriple> sorted) {
  const size_t i = static_cast<size_t>(perm);
  owned_[i] = std::move(sorted);
  raw_[i] = owned_[i];
}

void FrozenBase::Borrow(Perm perm, std::span<const EncodedTriple> sorted) {
  raw_[static_cast<size_t>(perm)] = sorted;
}

void FrozenBase::SetBlocks(Perm perm, CompressedPermutation blocks) {
  blocks_[static_cast<size_t>(perm)] = std::move(blocks);
  compressed_ = true;
}

uint64_t FrozenBase::size() const {
  return compressed_ ? blocks(Perm::kSpo).size() : raw(Perm::kSpo).size();
}

IndexRange FrozenBase::Range(Perm perm) const {
  if (compressed_) {
    const CompressedPermutation& cp = blocks(perm);
    return IndexRange::FromBlocks(&cp, 0, cp.size(), perm);
  }
  return IndexRange::FromSpan(raw(perm), perm);
}

std::vector<EncodedTriple> FrozenBase::Triples() const {
  std::vector<EncodedTriple> out;
  if (compressed_) {
    blocks(Perm::kSpo).DecodeAll(&out);
  } else {
    out.assign(raw(Perm::kSpo).begin(), raw(Perm::kSpo).end());
  }
  return out;
}

size_t FrozenBase::heap_bytes() const {
  size_t bytes = directory.bytes() + stats.size() * (sizeof(TermId) +
                                                     sizeof(PredicateStats) +
                                                     2 * sizeof(void*));
  for (size_t i = 0; i < 3; ++i) {
    bytes += TripleBytes(owned_[i]) + blocks_[i].heap_bytes();
  }
  return bytes;
}

size_t FrozenBase::borrowed_bytes() const {
  size_t bytes = 0;
  for (size_t i = 0; i < 3; ++i) {
    if (owned_[i].empty()) bytes += raw_[i].size_bytes();
    if (blocks_[i].borrowed()) bytes += blocks_[i].byte_size();
  }
  return bytes;
}

size_t FrozenBase::index_bytes(Perm perm) const {
  return compressed_ ? blocks(perm).byte_size() : raw(perm).size_bytes();
}

void DeltaLayer::RebuildPredicateDelta() {
  predicate_delta.clear();
  for (const EncodedTriple& t : add_pos) ++predicate_delta[t.p];
  for (const EncodedTriple& t : del_pos) --predicate_delta[t.p];
  // Drop exact cancellations so the map mirrors what the builder wrote.
  for (auto it = predicate_delta.begin(); it != predicate_delta.end();) {
    it = it->second == 0 ? predicate_delta.erase(it) : std::next(it);
  }
}

size_t DeltaLayer::MemoryUsage() const {
  return TripleBytes(add_spo) + TripleBytes(add_pos) + TripleBytes(add_osp) +
         TripleBytes(del_spo) + TripleBytes(del_pos) + TripleBytes(del_osp) +
         predicate_delta.size() * (sizeof(TermId) + sizeof(int64_t) +
                                   2 * sizeof(void*));
}

IndexRange EpochChain::Clip(Perm perm, const EncodedTriple& lo,
                            const EncodedTriple& hi,
                            const SubjectDirectory** directory) const {
  if (directory != nullptr) *directory = nullptr;
  const bool whole = lo == kLowest && hi == kHighest;
  const IndexRange base_range =
      whole ? base->Range(perm) : ClipBase(*base, perm, lo, hi);
  // First pass: count the non-empty clipped sources. A tombstone always
  // shares its key with a visible triple of another source, so a window
  // with tombstones has at least two sources and takes the merge.
  size_t sources = base_range.empty() ? 0 : 1;
  std::span<const EncodedTriple> only;
  for (const std::shared_ptr<const DeltaLayer>& layer : layers) {
    std::span<const EncodedTriple> adds =
        ClipSpan(layer->adds(perm), perm, lo, hi);
    if (!adds.empty()) {
      ++sources;
      only = adds;
    }
    if (!ClipSpan(layer->dels(perm), perm, lo, hi).empty()) ++sources;
  }
  if (sources == 0) return IndexRange();
  if (sources == 1) {
    if (base_range.empty()) return IndexRange::FromSpan(only, perm);
    if (directory != nullptr && whole && perm == Perm::kSpo &&
        !base->directory.empty()) {
      *directory = &base->directory;
    }
    return base_range;
  }
  std::vector<IndexRange> adds;
  std::vector<IndexRange> dels;
  adds.reserve(layers.size() + 1);
  if (!base_range.empty()) adds.push_back(base_range);
  for (const std::shared_ptr<const DeltaLayer>& layer : layers) {
    std::span<const EncodedTriple> a =
        ClipSpan(layer->adds(perm), perm, lo, hi);
    if (!a.empty()) adds.push_back(IndexRange::FromSpan(a, perm));
    std::span<const EncodedTriple> d =
        ClipSpan(layer->dels(perm), perm, lo, hi);
    if (!d.empty()) dels.push_back(IndexRange::FromSpan(d, perm));
  }
  auto run =
      std::make_shared<const MergedRun>(std::move(adds), std::move(dels), perm);
  const uint64_t n = run->size();
  return IndexRange::FromMerged(std::move(run), 0, n, perm);
}

IndexRange EpochChain::Range(Perm perm) const {
  return Clip(perm, kLowest, kHighest);
}

void ApplyLayerToStats(const DeltaLayer& layer,
                       std::unordered_map<TermId, PredicateStats>* stats) {
  for (const auto& [p, delta] : layer.predicate_delta) {
    auto it = stats->find(p);
    if (it == stats->end()) {
      if (delta <= 0) continue;  // deleting an unknown predicate: no-op
      PredicateStats st;
      st.triple_count = static_cast<uint64_t>(delta);
      // Distinct counts for a predicate born in a delta layer: use the
      // triple count as an upper bound until compaction recomputes them.
      st.distinct_subjects = st.triple_count;
      st.distinct_objects = st.triple_count;
      stats->emplace(p, st);
      continue;
    }
    const int64_t count = static_cast<int64_t>(it->second.triple_count) + delta;
    if (count <= 0) {
      stats->erase(it);
      continue;
    }
    it->second.triple_count = static_cast<uint64_t>(count);
    it->second.distinct_subjects =
        std::min<uint64_t>(it->second.distinct_subjects, count);
    it->second.distinct_objects =
        std::min<uint64_t>(it->second.distinct_objects, count);
  }
}

MergedRun::MergedRun(std::vector<IndexRange> adds, std::vector<IndexRange> dels,
                     Perm perm)
    : adds_(std::move(adds)),
      dels_(std::move(dels)),
      perm_(perm),
      id_(NextMergedRunId()) {
  assert(!adds_.empty());
  uint64_t add_total = 0;
  uint64_t del_total = 0;
  for (const IndexRange& r : adds_) add_total += r.size();
  for (const IndexRange& r : dels_) del_total += r.size();
  assert(del_total <= add_total);
  size_ = add_total - del_total;
}

uint64_t MergedRun::Bound(const EncodedTriple& probe, bool upper) const {
  // Every tombstone key equals some insert/base key (it kills a visible
  // triple), so the subtraction never undercounts a prefix.
  uint64_t bound = 0;
  for (const IndexRange& r : adds_) {
    bound += upper ? r.UpperBound(probe) : r.LowerBound(probe);
  }
  for (const IndexRange& r : dels_) {
    bound -= upper ? r.UpperBound(probe) : r.LowerBound(probe);
  }
  return bound;
}

uint64_t MergedRun::RankLess(const EncodedTriple& probe,
                             std::vector<uint64_t>* bounds) const {
  bounds->clear();
  bounds->reserve(source_count());
  uint64_t rank = 0;
  for (const IndexRange& r : adds_) {
    const uint64_t b = r.LowerBound(probe);
    bounds->push_back(b);
    rank += b;
  }
  for (const IndexRange& r : dels_) {
    const uint64_t b = r.LowerBound(probe);
    bounds->push_back(b);
    rank -= b;
  }
  return rank;
}

void MergedRun::Seek(uint64_t pos, MergedCursorState* cur) const {
  cur->src.assign(source_count(), 0);
  cur->merged_pos = 0;
  if (pos == 0) return;
  if (pos >= size_) {
    size_t i = 0;
    for (const IndexRange& r : adds_) cur->src[i++] = r.size();
    for (const IndexRange& r : dels_) cur->src[i++] = r.size();
    cur->merged_pos = size_;
    return;
  }
  // Rank bisection over the largest add source: find the last of its
  // keys whose merged rank is <= pos, align every source at that key,
  // then merge forward over the residual gap (bounded by the smaller
  // sources' density between two driver keys).
  size_t driver = 0;
  for (size_t i = 1; i < adds_.size(); ++i) {
    if (adds_[i].size() > adds_[driver].size()) driver = i;
  }
  std::vector<uint64_t> bounds;
  uint64_t lo = 0;
  uint64_t hi = adds_[driver].size();
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    const EncodedTriple probe = adds_[driver][mid];
    if (RankLess(probe, &bounds) <= pos) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo > 0) {
    const EncodedTriple aligned = adds_[driver][lo - 1];
    cur->merged_pos = RankLess(aligned, &bounds);
    std::copy(bounds.begin(), bounds.end(), cur->src.begin());
  }
  assert(cur->merged_pos <= pos);
  Advance(cur, pos - cur->merged_pos, nullptr);
}

uint64_t MergedRun::Advance(MergedCursorState* cur, uint64_t limit,
                            std::vector<EncodedTriple>* out) const {
  if (limit == 0) return 0;
  // Chunked per-source heads: Fetch hands back spans block-at-a-time, so
  // the merge loop touches the decode machinery once per block, not once
  // per triple.
  struct Src {
    const IndexRange* r = nullptr;
    uint64_t pos = 0;
    std::span<const EncodedTriple> chunk;
    uint64_t chunk_start = 0;
    IndexBlockScratch scratch;

    bool exhausted() const { return pos >= r->size(); }
    const EncodedTriple& Head() {
      if (pos < chunk_start || pos >= chunk_start + chunk.size()) {
        chunk = r->Fetch(pos, 0, &scratch);
        chunk_start = pos;
      }
      return chunk[pos - chunk_start];
    }
  };
  const size_t na = adds_.size();
  const size_t nd = dels_.size();
  std::vector<Src> src(na + nd);
  for (size_t i = 0; i < na; ++i) {
    src[i].r = &adds_[i];
    src[i].pos = cur->src[i];
  }
  for (size_t j = 0; j < nd; ++j) {
    src[na + j].r = &dels_[j];
    src[na + j].pos = cur->src[na + j];
  }

  uint64_t emitted = 0;
  while (emitted < limit) {
    // Smallest key among the add heads; ties across sources are the
    // reinsertion case (base copy + layer copy with tombstones between).
    int min_i = -1;
    for (size_t i = 0; i < na; ++i) {
      if (src[i].exhausted()) continue;
      if (min_i < 0 || PermLess(perm_, src[i].Head(), src[min_i].Head())) {
        min_i = static_cast<int>(i);
      }
    }
    if (min_i < 0) break;
    const EncodedTriple key = src[min_i].Head();
    // The min source's triples below every other source's head exist in
    // no other source (tombstone heads never trail the smallest add
    // head), so they are emitted as one run without per-key merging.
    bool bounded = false;
    EncodedTriple bound;
    for (size_t i = 0; i < na + nd; ++i) {
      if (static_cast<int>(i) == min_i || src[i].exhausted()) continue;
      if (!bounded || PermLess(perm_, src[i].Head(), bound)) {
        bound = src[i].Head();
        bounded = true;
      }
    }
    Src& run = src[min_i];
    if (!bounded || PermLess(perm_, key, bound)) {
      while (emitted < limit && !run.exhausted() &&
             (!bounded || PermLess(perm_, run.Head(), bound))) {
        if (out != nullptr) out->push_back(run.Head());
        ++run.pos;
        ++emitted;
      }
      continue;
    }
    int net = 0;
    for (size_t i = 0; i < na; ++i) {
      if (src[i].exhausted()) continue;
      if (!PermLess(perm_, key, src[i].Head())) {
        // Head == key (heads are never < key by min selection).
        ++src[i].pos;
        ++net;
      }
    }
    for (size_t j = na; j < na + nd; ++j) {
      // Tombstone keys always exist among the adds, so heads never trail
      // the merge frontier; the while is defensive against a violated
      // ingest invariant.
      while (!src[j].exhausted() && PermLess(perm_, src[j].Head(), key)) {
        ++src[j].pos;
      }
      if (!src[j].exhausted() && !PermLess(perm_, key, src[j].Head())) {
        ++src[j].pos;
        --net;
      }
    }
    assert(net >= 0 && net <= 1 &&
           "delta-layer invariant violated: per-key visible count not 0/1");
    if (net > 0) {
      if (out != nullptr) out->push_back(key);
      ++emitted;
    }
  }
  for (size_t i = 0; i < na + nd; ++i) cur->src[i] = src[i].pos;
  cur->merged_pos += emitted;
  return emitted;
}

}  // namespace re2xolap::rdf
