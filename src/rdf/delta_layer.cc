#include "rdf/delta_layer.h"

#include <algorithm>
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

}  // namespace

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

size_t LiveBase::MemoryUsage() const {
  return TripleBytes(spo) + TripleBytes(pos) + TripleBytes(osp) +
         directory.bytes() +
         stats.size() *
             (sizeof(TermId) + sizeof(PredicateStats) + 2 * sizeof(void*));
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
                     Perm perm, std::shared_ptr<const void> keepalive)
    : adds_(std::move(adds)),
      dels_(std::move(dels)),
      perm_(perm),
      id_(NextMergedRunId()),
      keepalive_(std::move(keepalive)) {
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
