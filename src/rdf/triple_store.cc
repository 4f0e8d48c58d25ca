#include "rdf/triple_store.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/compressed_index.h"
#include "rdf/delta_layer.h"
#include "util/thread_pool.h"

namespace re2xolap::rdf {

namespace {

using Permutations = std::array<std::vector<EncodedTriple>, 3>;

// Sorts and deduplicates (*perms)[0] — the raw triple list — into SPO
// order, and fills [1] and [2] with the POS and OSP orders. Duplicates
// are adjacent under any total order over (s,p,o), so each permutation
// deduplicates on its own and the three pool tasks share nothing.
void SortPermutations(Permutations* perms, util::ThreadPool* pool) {
  std::vector<EncodedTriple>& spo = (*perms)[0];
  std::vector<EncodedTriple>& pos = (*perms)[1];
  std::vector<EncodedTriple>& osp = (*perms)[2];
  if (pool != nullptr && pool->size() > 0) {
    pos = spo;
    osp = spo;
    auto sort_one = [perms](size_t task) {
      std::vector<EncodedTriple>& v = (*perms)[task];
      switch (task) {
        case 0:
          std::sort(v.begin(), v.end(), SpoLess());
          break;
        case 1:
          std::sort(v.begin(), v.end(), PosLess());
          break;
        default:
          std::sort(v.begin(), v.end(), OspLess());
          break;
      }
      v.erase(std::unique(v.begin(), v.end()), v.end());
      v.shrink_to_fit();
    };
    pool->ParallelFor(3, sort_one);
    return;
  }
  std::sort(spo.begin(), spo.end(), SpoLess());
  spo.erase(std::unique(spo.begin(), spo.end()), spo.end());
  spo.shrink_to_fit();
  pos = spo;
  std::sort(pos.begin(), pos.end(), PosLess());
  osp = spo;
  std::sort(osp.begin(), osp.end(), OspLess());
}

// Per-thread stack of pinned chains, at most one frame per store (a
// nested pin of the same store shares the outer frame). Entries hold
// shared_ptrs, so a pinned chain survives any number of concurrent
// publications.
struct PinFrame {
  const TripleStore* store;
  std::shared_ptr<const EpochChain> chain;
};
thread_local std::vector<PinFrame> t_pin_stack;

const PinFrame* FindPin(const TripleStore* store) {
  for (auto it = t_pin_stack.rbegin(); it != t_pin_stack.rend(); ++it) {
    if (it->store == store) return &*it;
  }
  return nullptr;
}

}  // namespace

IndexFormat DefaultIndexFormat() {
  // Read once: flipping the env mid-process must not change behavior of
  // stores that already froze under the other format.
  static const IndexFormat format = [] {
    const char* env = std::getenv("RE2XOLAP_INDEX_FORMAT");
    if (env != nullptr && std::string_view(env) == "compressed") {
      return IndexFormat::kCompressed;
    }
    return IndexFormat::kRaw;
  }();
  return format;
}

TripleStore::TripleStore() : format_(DefaultIndexFormat()) {
  auto chain = std::make_shared<EpochChain>();
  chain->base = std::make_shared<const FrozenBase>();
  chain_ = std::move(chain);
}

TripleStore::~TripleStore() = default;

void TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  AddEncoded(EncodedTriple{dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)});
}

void TripleStore::AddEncoded(EncodedTriple t) {
  assert(dict_.IsValid(t.s) && dict_.IsValid(t.p) && dict_.IsValid(t.o));
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::Add() during concurrent reads of a frozen store");
  assert(!live() && "live stores mutate via store::Ingestor, not Add()");
  if (frozen_) {
    pending_ = chain_->base->Triples();
    frozen_ = false;
  }
  pending_.push_back(t);
}

void TripleStore::Adopt(std::shared_ptr<const FrozenBase> base,
                        uint64_t epoch) {
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::Adopt() during concurrent reads");
  assert(!live() && "TripleStore::Adopt() on a live store");
  assert(base != nullptr);
  pending_.clear();
  pending_.shrink_to_fit();
  auto chain = std::make_shared<EpochChain>();
  chain->visible_triples = base->size();
  chain->stats = base->stats;
  chain->epoch = epoch;
  chain->base = std::move(base);
  chain_ = std::move(chain);
  frozen_ = true;
  UpdateStoreGauges();
}

void TripleStore::Freeze(util::ThreadPool* pool) {
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::Freeze() during concurrent reads");
  assert(!live() && "live stores advance epochs via PublishChain()");
  obs::Span span("store.freeze");
  // A re-Freeze of an unchanged store rebuilds from its current base.
  if (frozen_) pending_ = chain_->base->Triples();
  const uint64_t epoch = chain_->epoch + 1;
  span.SetAttr("triples", static_cast<uint64_t>(pending_.size()));
  Permutations perms;
  perms[0] = std::move(pending_);
  pending_ = {};
  {
    obs::Span child("store.build_indexes");
    SortPermutations(&perms, pool);
  }
  auto base = std::make_shared<FrozenBase>();
  {
    obs::Span child("store.compute_stats");
    base->stats = ComputePredicateStats(perms[1], pool);
  }
  base->directory = SubjectDirectory::Build(perms[0]);
  if (format_ == IndexFormat::kCompressed) {
    obs::Span child("store.compress_indexes");
    std::array<CompressedPermutation, 3> blocks;
    auto compress_one = [&](size_t i) {
      blocks[i] = CompressedPermutation::Build(perms[i], static_cast<Perm>(i));
    };
    if (pool != nullptr && pool->size() > 0) {
      pool->ParallelFor(3, compress_one);
    } else {
      for (size_t i = 0; i < 3; ++i) compress_one(i);
    }
    for (size_t i = 0; i < 3; ++i) {
      base->SetBlocks(static_cast<Perm>(i), std::move(blocks[i]));
    }
  } else {
    for (size_t i = 0; i < 3; ++i) {
      base->Own(static_cast<Perm>(i), std::move(perms[i]));
    }
  }
  Adopt(std::move(base), epoch);
}

std::unordered_map<TermId, PredicateStats> ComputePredicateStats(
    std::span<const EncodedTriple> pos_sorted, util::ThreadPool* pool) {
  std::unordered_map<TermId, PredicateStats> stats;
  // The input is sorted by (p, o, s): per-predicate runs are contiguous,
  // and within a run objects are grouped, enabling distinct-object
  // counting in one pass. Distinct subjects need a second pass over a
  // scratch copy per predicate run sorted by subject.
  std::vector<std::pair<size_t, size_t>> runs;  // [begin, end) per predicate
  size_t i = 0;
  while (i < pos_sorted.size()) {
    size_t j = i;
    while (j < pos_sorted.size() && pos_sorted[j].p == pos_sorted[i].p) ++j;
    runs.emplace_back(i, j);
    i = j;
  }
  std::vector<PredicateStats> per_run(runs.size());
  auto stat_one = [pos_sorted, &runs, &per_run](size_t r) {
    auto [begin, end] = runs[r];
    PredicateStats st;
    TermId prev_o = kInvalidTermId;
    std::vector<TermId> subjects;
    subjects.reserve(end - begin);
    for (size_t k = begin; k < end; ++k) {
      ++st.triple_count;
      if (pos_sorted[k].o != prev_o) {
        ++st.distinct_objects;
        prev_o = pos_sorted[k].o;
      }
      subjects.push_back(pos_sorted[k].s);
    }
    std::sort(subjects.begin(), subjects.end());
    st.distinct_subjects = static_cast<uint64_t>(
        std::unique(subjects.begin(), subjects.end()) - subjects.begin());
    per_run[r] = st;
  };
  if (pool != nullptr && pool->size() > 0) {
    pool->ParallelFor(runs.size(), stat_one);
  } else {
    for (size_t r = 0; r < runs.size(); ++r) stat_one(r);
  }
  stats.reserve(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    stats.emplace(pos_sorted[runs[r].first].p, per_run[r]);
  }
  return stats;
}

TripleStore::ReadPin::ReadPin(const TripleStore& store,
                              std::shared_ptr<const EpochChain> chain) {
  if (!store.live() || FindPin(&store) != nullptr) return;
  t_pin_stack.push_back(
      {&store, chain != nullptr ? std::move(chain) : store.LatestChain()});
  store_ = &store;
}

TripleStore::ReadPin::~ReadPin() {
  if (store_ == nullptr) return;
  assert(!t_pin_stack.empty() && t_pin_stack.back().store == store_ &&
         "ReadPin destruction order violates stack discipline");
  t_pin_stack.pop_back();
}

void ParallelForPinned(util::ThreadPool* pool, const TripleStore& store,
                       size_t n, const std::function<void(size_t)>& fn) {
  std::shared_ptr<const EpochChain> chain = store.chain();
  pool->ParallelFor(n, [&](size_t i) {
    TripleStore::ReadPin pin(store, chain);
    fn(i);
  });
}

const EpochChain& TripleStore::ReadChain() const {
  if (!live()) return *chain_;
  if (const PinFrame* pin = FindPin(this)) return *pin->chain;
  assert(false && "unpinned read of a live store: hold a TripleStore::ReadPin");
  std::lock_guard<std::mutex> lock(chain_mu_);
  return *chain_;
}

std::shared_ptr<const EpochChain> TripleStore::chain() const {
  if (!live()) return chain_;
  if (const PinFrame* pin = FindPin(this)) return pin->chain;
  return LatestChain();
}

std::shared_ptr<const EpochChain> TripleStore::LatestChain() const {
  std::lock_guard<std::mutex> lock(chain_mu_);
  return chain_;
}

uint64_t TripleStore::freeze_epoch() const {
  ReadPin pin(*this);
  return ReadChain().epoch;
}

void TripleStore::EnterLive() {
  assert(frozen_ && "EnterLive() requires a frozen store");
  assert(!live() && "EnterLive() called twice");
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::EnterLive() during concurrent reads");
  dict_.EnterLive();
  UpdateChainGauges(*chain_);
  live_.store(true, std::memory_order_release);
}

void TripleStore::PublishChain(std::shared_ptr<const EpochChain> chain) {
  assert(live() && "PublishChain() requires EnterLive()");
  assert(chain != nullptr && chain->base != nullptr);
  UpdateChainGauges(*chain);
  std::shared_ptr<const EpochChain> previous;
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    previous = std::exchange(chain_, std::move(chain));
  }
  // `previous` (possibly the last owner of an old chain and its base) is
  // released outside the lock.
}

void TripleStore::RestoreChain(
    std::vector<std::shared_ptr<const DeltaLayer>> layers, uint64_t epoch) {
  assert(live() && "RestoreChain() requires EnterLive()");
  auto chain = std::make_shared<EpochChain>();
  chain->base = LatestChain()->base;
  chain->layers = std::move(layers);
  chain->epoch = epoch;
  chain->stats = chain->base->stats;
  uint64_t visible = chain->base->size();
  for (const std::shared_ptr<const DeltaLayer>& layer : chain->layers) {
    chain->delta_adds += layer->add_count();
    chain->delta_dels += layer->del_count();
    visible += layer->add_count();
    visible -= layer->del_count();
    ApplyLayerToStats(*layer, &chain->stats);
  }
  chain->visible_triples = visible;
  PublishChain(std::move(chain));
}

uint64_t TripleStore::chain_depth() const {
  ReadPin pin(*this);
  return ReadChain().depth();
}

TripleStore::LiveInfo TripleStore::live_info() const {
  LiveInfo info;
  if (!live()) return info;
  ReadPin pin(*this);
  const EpochChain& chain = ReadChain();
  info.live = true;
  info.epoch = chain.epoch;
  info.chain_depth = chain.depth();
  info.delta_adds = chain.delta_adds;
  info.delta_dels = chain.delta_dels;
  info.visible_triples = chain.visible_triples;
  info.compacted_base = chain.base->compacted;
  return info;
}

void TripleStore::UpdateChainGauges(const EpochChain& chain) const {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("store.epoch").Set(static_cast<double>(chain.epoch));
  reg.GetGauge("store.delta.layers").Set(static_cast<double>(chain.depth()));
  reg.GetGauge("store.delta.triples")
      .Set(static_cast<double>(chain.delta_adds));
  reg.GetGauge("store.delta.tombstones")
      .Set(static_cast<double>(chain.delta_dels));
  reg.GetGauge("store.triples")
      .Set(static_cast<double>(chain.visible_triples));
}

bool TripleStore::compressed_index() const {
  ReadPin pin(*this);
  return ReadChain().base->compressed();
}

bool TripleStore::borrows_snapshot() const {
  ReadPin pin(*this);
  return ReadChain().base->keepalive != nullptr;
}

const FrozenBase& TripleStore::base() const { return *ReadChain().base; }

IndexRange TripleStore::Range(Perm perm, const EncodedTriple& lo,
                              const EncodedTriple& hi,
                              const SubjectDirectory** directory) const {
  assert(frozen_ && "TripleStore::Freeze() must be called before reads");
  ReadGuard guard(this);
  return ReadChain().Clip(perm, lo, hi, directory);
}

IndexRange TripleStore::PermutationRange(
    Perm perm, const SubjectDirectory** directory) const {
  return Range(perm, {}, {kMaxTermId, kMaxTermId, kMaxTermId}, directory);
}

IndexRange TripleStore::Match(const TriplePattern& q) const {
  const bool bs = q.s != kInvalidTermId;
  const bool bp = q.p != kInvalidTermId;
  const bool bo = q.o != kInvalidTermId;
  // Unbound trailing components span the whole id range.
  auto lo = [](bool bound, TermId v) { return bound ? v : kInvalidTermId; };
  auto hi = [](bool bound, TermId v) { return bound ? v : kMaxTermId; };
  if (bs && !bp && bo) {
    // OSP serves s,o.
    return Range(Perm::kOsp, {q.s, kInvalidTermId, q.o},
                 {q.s, kMaxTermId, q.o});
  }
  if (bs) {
    // SPO serves s / s,p / s,p,o.
    return Range(Perm::kSpo, {q.s, lo(bp, q.p), lo(bo, q.o)},
                 {q.s, hi(bp, q.p), hi(bo, q.o)});
  }
  if (bp) {
    // POS serves p / p,o.
    return Range(Perm::kPos, {kInvalidTermId, q.p, lo(bo, q.o)},
                 {kMaxTermId, q.p, hi(bo, q.o)});
  }
  if (bo) {
    // OSP serves o.
    return Range(Perm::kOsp, {kInvalidTermId, kInvalidTermId, q.o},
                 {kMaxTermId, kMaxTermId, q.o});
  }
  return PermutationRange(Perm::kSpo);
}

uint64_t TripleStore::CountMatches(const TriplePattern& pattern) const {
  ReadPin pin(*this);
  return Match(pattern).size();
}

bool TripleStore::Exists(const TriplePattern& pattern) const {
  ReadPin pin(*this);
  return !Match(pattern).empty();
}

std::vector<TermId> TripleStore::PredicatesOfSubject(TermId s) const {
  ReadPin pin(*this);
  std::vector<TermId> out;
  TermId prev = kInvalidTermId;
  for (const EncodedTriple& t :
       Match(TriplePattern{s, kInvalidTermId, kInvalidTermId})) {
    if (t.p != prev) {
      out.push_back(t.p);
      prev = t.p;
    }
  }
  // SPO order groups by predicate within a subject, so `out` is already
  // deduplicated.
  return out;
}

std::vector<TermId> TripleStore::PredicatesOfObject(TermId o) const {
  ReadPin pin(*this);
  std::vector<TermId> out;
  for (const EncodedTriple& t :
       Match(TriplePattern{kInvalidTermId, kInvalidTermId, o})) {
    out.push_back(t.p);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<TermId> TripleStore::AllPredicates() const {
  ReadPin pin(*this);
  const EpochChain& chain = ReadChain();
  std::vector<TermId> out;
  out.reserve(chain.stats.size());
  for (const auto& [p, st] : chain.stats) out.push_back(p);
  std::sort(out.begin(), out.end());
  return out;
}

PredicateStats TripleStore::predicate_stats(TermId p) const {
  ReadPin pin(*this);
  const EpochChain& chain = ReadChain();
  auto it = chain.stats.find(p);
  return it == chain.stats.end() ? PredicateStats{} : it->second;
}

uint64_t TripleStore::size() const {
  if (!frozen_) return pending_.size();
  ReadPin pin(*this);
  return ReadChain().visible_triples;
}

StoreMemory TripleStore::MemoryBreakdown() const {
  ReadPin pin(*this);
  const EpochChain& chain = ReadChain();
  StoreMemory m;
  m.numeric_bytes = dict_.numeric_bytes();
  m.directory_bytes = chain.base->directory.bytes();
  m.heap_bytes = dict_.MemoryUsage() +
                 pending_.capacity() * sizeof(EncodedTriple) +
                 chain.base->heap_bytes();
  m.mapped_bytes = chain.base->borrowed_bytes();
  for (const std::shared_ptr<const DeltaLayer>& layer : chain.layers) {
    m.heap_bytes += layer->MemoryUsage();
  }
  return m;
}

void TripleStore::UpdateStoreGauges() const {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("store.triples").Set(static_cast<double>(size()));
  StoreMemory m = MemoryBreakdown();
  reg.GetGauge("store.bytes.heap").Set(static_cast<double>(m.heap_bytes));
  reg.GetGauge("store.bytes.mapped").Set(static_cast<double>(m.mapped_bytes));
  reg.GetGauge("store.bytes.subject_directory")
      .Set(static_cast<double>(m.directory_bytes));
  reg.GetGauge("store.bytes.numeric_column")
      .Set(static_cast<double>(m.numeric_bytes));
  const FrozenBase& b = *chain_->base;
  reg.GetGauge("store.index.spo.bytes")
      .Set(static_cast<double>(b.index_bytes(Perm::kSpo)));
  reg.GetGauge("store.index.pos.bytes")
      .Set(static_cast<double>(b.index_bytes(Perm::kPos)));
  reg.GetGauge("store.index.osp.bytes")
      .Set(static_cast<double>(b.index_bytes(Perm::kOsp)));
}

}  // namespace re2xolap::rdf
