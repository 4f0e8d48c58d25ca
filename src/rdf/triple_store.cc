#include "rdf/triple_store.h"

#include <algorithm>
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

TripleStore::TripleStore() : format_(DefaultIndexFormat()) {}

TripleStore::~TripleStore() = default;

void TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  AddEncoded(EncodedTriple{dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)});
}

void TripleStore::AddEncoded(EncodedTriple t) {
  assert(dict_.IsValid(t.s) && dict_.IsValid(t.p) && dict_.IsValid(t.o));
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::Add() during concurrent reads of a frozen store");
  assert(!live() && "live stores mutate via store::Ingestor, not Add()");
  Materialize();
  spo_.push_back(t);
  frozen_ = false;
}

void TripleStore::Materialize() {
  if (spo_blocks_ != nullptr) {
    // Compressed (owned or borrowed): decode the canonical SPO list; the
    // other permutations are rebuilt by the next Freeze().
    std::vector<EncodedTriple> spo;
    spo_blocks_->DecodeAll(&spo);
    ResetIndexState();
    spo_ = std::move(spo);
    return;
  }
  if (keepalive_ == nullptr) return;
  spo_.assign(spo_view_.begin(), spo_view_.end());
  pos_.assign(pos_view_.begin(), pos_view_.end());
  osp_.assign(osp_view_.begin(), osp_view_.end());
  spo_view_ = {};
  pos_view_ = {};
  osp_view_ = {};
  keepalive_.reset();
}

void TripleStore::ResetIndexState() {
  spo_.clear();
  spo_.shrink_to_fit();
  pos_.clear();
  pos_.shrink_to_fit();
  osp_.clear();
  osp_.shrink_to_fit();
  spo_view_ = {};
  pos_view_ = {};
  osp_view_ = {};
  spo_blocks_.reset();
  pos_blocks_.reset();
  osp_blocks_.reset();
  keepalive_.reset();
  directory_ = SubjectDirectory();
}

void TripleStore::AdoptFrozenView(
    std::span<const EncodedTriple> spo, std::span<const EncodedTriple> pos,
    std::span<const EncodedTriple> osp,
    std::unordered_map<TermId, PredicateStats> stats,
    SubjectDirectory directory, uint64_t epoch,
    std::shared_ptr<const void> keepalive) {
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::AdoptFrozenView() during concurrent reads");
  assert(!live() && "TripleStore::AdoptFrozenView() on a live store");
  assert(keepalive != nullptr && "view adoption requires a keepalive");
  ResetIndexState();
  spo_view_ = spo;
  pos_view_ = pos;
  osp_view_ = osp;
  keepalive_ = std::move(keepalive);
  directory_ = std::move(directory);
  stats_ = std::move(stats);
  frozen_ = true;
  freeze_epoch_ = epoch;
  UpdateStoreGauges();
}

void TripleStore::AdoptFrozenCompressed(
    CompressedPermutation spo, CompressedPermutation pos,
    CompressedPermutation osp,
    std::unordered_map<TermId, PredicateStats> stats,
    SubjectDirectory directory, uint64_t epoch,
    std::shared_ptr<const void> keepalive) {
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::AdoptFrozenCompressed() during concurrent reads");
  assert(!live() && "TripleStore::AdoptFrozenCompressed() on a live store");
  assert(spo.size() == pos.size() && pos.size() == osp.size());
  ResetIndexState();
  spo_blocks_ = std::make_unique<CompressedPermutation>(std::move(spo));
  pos_blocks_ = std::make_unique<CompressedPermutation>(std::move(pos));
  osp_blocks_ = std::make_unique<CompressedPermutation>(std::move(osp));
  keepalive_ = std::move(keepalive);
  directory_ = std::move(directory);
  stats_ = std::move(stats);
  frozen_ = true;
  freeze_epoch_ = epoch;
  UpdateStoreGauges();
}

void TripleStore::Freeze(util::ThreadPool* pool) {
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::Freeze() during concurrent reads");
  assert(!live() && "live stores advance epochs via PublishChain()");
  obs::Span span("store.freeze");
  Materialize();
  span.SetAttr("triples", static_cast<uint64_t>(spo_.size()));
  {
    obs::Span child("store.build_indexes");
    BuildIndexes(pool);
  }
  {
    obs::Span child("store.compute_stats");
    ComputeStats(pool);
  }
  directory_ = SubjectDirectory::Build(spo_);
  if (format_ == IndexFormat::kCompressed) {
    obs::Span child("store.compress_indexes");
    CompressIndexes(pool);
  }
  frozen_ = true;
  ++freeze_epoch_;
  UpdateStoreGauges();
}

void TripleStore::BuildIndexes(util::ThreadPool* pool) {
  if (pool != nullptr && pool->size() > 0) {
    // Each permutation sorts an independent copy of the raw triple list
    // and deduplicates in place (duplicates are adjacent under any total
    // order over (s,p,o)), so the three tasks share nothing.
    pos_ = spo_;
    osp_ = spo_;
    auto sort_one = [this](size_t task) {
      switch (task) {
        case 0:
          std::sort(spo_.begin(), spo_.end(), SpoLess());
          spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
          spo_.shrink_to_fit();
          break;
        case 1:
          std::sort(pos_.begin(), pos_.end(), PosLess());
          pos_.erase(std::unique(pos_.begin(), pos_.end()), pos_.end());
          pos_.shrink_to_fit();
          break;
        default:
          std::sort(osp_.begin(), osp_.end(), OspLess());
          osp_.erase(std::unique(osp_.begin(), osp_.end()), osp_.end());
          osp_.shrink_to_fit();
          break;
      }
    };
    pool->ParallelFor(3, sort_one);
    return;
  }
  std::sort(spo_.begin(), spo_.end(), SpoLess());
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  spo_.shrink_to_fit();
  pos_ = spo_;
  std::sort(pos_.begin(), pos_.end(), PosLess());
  osp_ = spo_;
  std::sort(osp_.begin(), osp_.end(), OspLess());
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

void TripleStore::ComputeStats(util::ThreadPool* pool) {
  stats_ = ComputePredicateStats(pos_, pool);
}

void TripleStore::CompressIndexes(util::ThreadPool* pool) {
  auto spo_cp = std::make_unique<CompressedPermutation>();
  auto pos_cp = std::make_unique<CompressedPermutation>();
  auto osp_cp = std::make_unique<CompressedPermutation>();
  auto compress_one = [&](size_t task) {
    switch (task) {
      case 0:
        *spo_cp = CompressedPermutation::Build(spo_, Perm::kSpo);
        break;
      case 1:
        *pos_cp = CompressedPermutation::Build(pos_, Perm::kPos);
        break;
      default:
        *osp_cp = CompressedPermutation::Build(osp_, Perm::kOsp);
        break;
    }
  };
  if (pool != nullptr && pool->size() > 0) {
    pool->ParallelFor(3, compress_one);
  } else {
    for (size_t t = 0; t < 3; ++t) compress_one(t);
  }
  spo_blocks_ = std::move(spo_cp);
  pos_blocks_ = std::move(pos_cp);
  osp_blocks_ = std::move(osp_cp);
  spo_.clear();
  spo_.shrink_to_fit();
  pos_.clear();
  pos_.shrink_to_fit();
  osp_.clear();
  osp_.shrink_to_fit();
}

IndexRange TripleStore::PermutationRange(
    Perm perm, const SubjectDirectory** directory) const {
  const SubjectDirectory* dir = &directory_;
  IndexRange range;
  if (live()) {
    std::shared_ptr<const EpochChain> chain = PinnedChain();
    if (!chain->layers.empty()) {
      dir = nullptr;
    } else if (chain->base != nullptr) {
      dir = &chain->base->directory;
    }
    range = ChainPermutationRange(std::move(chain), perm);
  } else {
    range = ClassicPermutationRange(perm);
  }
  if (directory != nullptr) {
    *directory =
        perm == Perm::kSpo && dir != nullptr && !dir->empty() ? dir : nullptr;
  }
  return range;
}

IndexRange TripleStore::ClassicPermutationRange(Perm perm) const {
  switch (perm) {
    case Perm::kSpo:
      if (spo_blocks_ != nullptr) {
        return IndexRange::FromBlocks(spo_blocks_.get(), 0,
                                      spo_blocks_->size(), perm);
      }
      return IndexRange::FromSpan(SpoView(), perm);
    case Perm::kPos:
      if (pos_blocks_ != nullptr) {
        return IndexRange::FromBlocks(pos_blocks_.get(), 0,
                                      pos_blocks_->size(), perm);
      }
      return IndexRange::FromSpan(PosView(), perm);
    default:
      if (osp_blocks_ != nullptr) {
        return IndexRange::FromBlocks(osp_blocks_.get(), 0,
                                      osp_blocks_->size(), perm);
      }
      return IndexRange::FromSpan(OspView(), perm);
  }
}

namespace {

// Clips a whole-permutation range down to the triples between the lo/hi
// sentinels (inclusive prefix semantics, exactly the old EqualRange).
IndexRange ClipRange(const IndexRange& perm_range, const EncodedTriple& lo,
                     const EncodedTriple& hi) {
  uint64_t first = perm_range.LowerBound(lo);
  uint64_t last = perm_range.GallopUpperBound(first, hi);
  if (last < first) last = first;
  return perm_range.Slice(first, last);
}

// Per-thread stack of pinned chains. A stack (not a single slot) so
// nested pins — e.g. a query engine pin around a test helper's own pin —
// compose; lookups scan backwards so the innermost pin for a given store
// wins. Entries hold shared_ptrs, so a pinned chain survives any number
// of concurrent publications.
struct PinFrame {
  const TripleStore* store;
  std::shared_ptr<const EpochChain> chain;
};
thread_local std::vector<PinFrame> t_pin_stack;

}  // namespace

TripleStore::ReadPin::ReadPin(const TripleStore& store) {
  if (!store.live()) return;
  t_pin_stack.push_back({&store, store.LatestChain()});
  store_ = &store;
}

TripleStore::ReadPin::~ReadPin() {
  if (store_ == nullptr) return;
  assert(!t_pin_stack.empty() && t_pin_stack.back().store == store_ &&
         "ReadPin destruction order violates stack discipline");
  t_pin_stack.pop_back();
}

std::shared_ptr<const EpochChain> TripleStore::PinnedChain() const {
  for (auto it = t_pin_stack.rbegin(); it != t_pin_stack.rend(); ++it) {
    if (it->store == this) return it->chain;
  }
  return LatestChain();
}

std::shared_ptr<const EpochChain> TripleStore::LatestChain() const {
  std::lock_guard<std::mutex> lock(chain_mu_);
  return chain_;
}

std::shared_ptr<const EpochChain> TripleStore::live_chain() const {
  if (!live()) return nullptr;
  return PinnedChain();
}

uint64_t TripleStore::freeze_epoch() const {
  if (live()) return PinnedChain()->epoch;
  return freeze_epoch_;
}

void TripleStore::EnterLive() {
  assert(frozen_ && "EnterLive() requires a frozen store");
  assert(!live() && "EnterLive() called twice");
  assert(active_readers_.load(std::memory_order_relaxed) == 0 &&
         "TripleStore::EnterLive() during concurrent reads");
  dict_.EnterLive();
  auto chain = std::make_shared<EpochChain>();
  chain->epoch = freeze_epoch_;
  chain->visible_triples = ClassicSize();
  chain->stats = stats_;
  UpdateChainGauges(*chain);
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    chain_ = std::move(chain);
  }
  live_.store(true, std::memory_order_release);
}

void TripleStore::PublishChain(std::shared_ptr<const EpochChain> chain) {
  assert(live() && "PublishChain() requires EnterLive()");
  assert(chain != nullptr);
  UpdateChainGauges(*chain);
  std::shared_ptr<const EpochChain> previous;
  {
    std::lock_guard<std::mutex> lock(chain_mu_);
    previous = std::exchange(chain_, std::move(chain));
  }
  // `previous` (possibly the last owner of an old chain) is released
  // outside the lock.
}

void TripleStore::RestoreChain(
    std::vector<std::shared_ptr<const DeltaLayer>> layers, uint64_t epoch) {
  assert(live() && "RestoreChain() requires EnterLive()");
  auto chain = std::make_shared<EpochChain>();
  chain->layers = std::move(layers);
  chain->epoch = epoch;
  chain->stats = stats_;
  uint64_t visible = ClassicSize();
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
  return live() ? PinnedChain()->depth() : 0;
}

TripleStore::LiveInfo TripleStore::live_info() const {
  LiveInfo info;
  if (!live()) return info;
  std::shared_ptr<const EpochChain> chain = PinnedChain();
  info.live = true;
  info.epoch = chain->epoch;
  info.chain_depth = chain->depth();
  info.delta_adds = chain->delta_adds;
  info.delta_dels = chain->delta_dels;
  info.visible_triples = chain->visible_triples;
  info.compacted_base = chain->base != nullptr;
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

IndexRange TripleStore::ChainPermutationRange(
    std::shared_ptr<const EpochChain> chain, Perm perm) const {
  const LiveBase* base = chain->base.get();
  if (base == nullptr && chain->layers.empty()) {
    // Pristine chain: the store's own frozen arrays ARE the view, and
    // they are store-owned, so no keepalive is needed.
    return ClassicPermutationRange(perm);
  }
  std::vector<IndexRange> adds;
  std::vector<IndexRange> dels;
  adds.reserve(chain->layers.size() + 1);
  IndexRange base_range;
  if (base != nullptr) {
    const std::vector<EncodedTriple>& v = perm == Perm::kSpo   ? base->spo
                                          : perm == Perm::kPos ? base->pos
                                                               : base->osp;
    base_range = IndexRange::FromSpan(v, perm);
  } else {
    base_range = ClassicPermutationRange(perm);
  }
  if (!base_range.empty()) adds.push_back(base_range);
  for (const std::shared_ptr<const DeltaLayer>& layer : chain->layers) {
    if (!layer->adds(perm).empty()) {
      adds.push_back(IndexRange::FromSpan(layer->adds(perm), perm));
    }
    if (!layer->dels(perm).empty()) {
      dels.push_back(IndexRange::FromSpan(layer->dels(perm), perm));
    }
  }
  if (adds.empty()) return IndexRange();
  // Even a single-source view goes through MergedRun when it aliases
  // chain-owned memory (a compacted base or a layer): the run's
  // keepalive is what lets the range outlive a concurrent publication.
  auto run = std::make_shared<const MergedRun>(std::move(adds),
                                               std::move(dels), perm, chain);
  const uint64_t n = run->size();
  return IndexRange::FromMerged(std::move(run), 0, n, perm);
}

IndexRange TripleStore::Match(const TriplePattern& q) const {
  assert(frozen_ && "TripleStore::Freeze() must be called before Match()");
  ReadGuard guard(this);
  const bool bs = q.s != kInvalidTermId;
  const bool bp = q.p != kInvalidTermId;
  const bool bo = q.o != kInvalidTermId;

  if (bs) {
    // SPO serves s / s,p / s,p,o; OSP serves s,o.
    if (!bp && bo) {
      return ClipRange(PermutationRange(Perm::kOsp),
                       EncodedTriple{q.s, kInvalidTermId, q.o},
                       EncodedTriple{q.s, kMaxTermId, q.o});
    }
    const SubjectDirectory* dir = nullptr;
    IndexRange spo = PermutationRange(Perm::kSpo, &dir);
    if (dir != nullptr) {
      const auto [first, last] = dir->Run(q.s);
      spo = spo.Slice(first, last);
      if (!bp) return spo;
    }
    EncodedTriple lo{q.s, bp ? q.p : kInvalidTermId, bo ? q.o : kInvalidTermId};
    EncodedTriple hi{q.s, bp ? q.p : kMaxTermId, bo ? q.o : kMaxTermId};
    return ClipRange(spo, lo, hi);
  }
  if (bp) {
    // POS serves p / p,o.
    EncodedTriple lo{kInvalidTermId, q.p, bo ? q.o : kInvalidTermId};
    EncodedTriple hi{kMaxTermId, q.p, bo ? q.o : kMaxTermId};
    return ClipRange(PermutationRange(Perm::kPos), lo, hi);
  }
  if (bo) {
    // OSP serves o.
    return ClipRange(PermutationRange(Perm::kOsp),
                     EncodedTriple{kInvalidTermId, kInvalidTermId, q.o},
                     EncodedTriple{kMaxTermId, kMaxTermId, q.o});
  }
  return PermutationRange(Perm::kSpo);
}

uint64_t TripleStore::CountMatches(const TriplePattern& pattern) const {
  return Match(pattern).size();
}

std::vector<TermId> TripleStore::PredicatesOfSubject(TermId s) const {
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
  std::shared_ptr<const EpochChain> chain;
  const std::unordered_map<TermId, PredicateStats>* stats = &stats_;
  if (live()) {
    chain = PinnedChain();
    stats = &chain->stats;
  }
  std::vector<TermId> out;
  out.reserve(stats->size());
  for (const auto& [p, st] : *stats) out.push_back(p);
  std::sort(out.begin(), out.end());
  return out;
}

PredicateStats TripleStore::predicate_stats(TermId p) const {
  if (live()) {
    std::shared_ptr<const EpochChain> chain = PinnedChain();
    auto it = chain->stats.find(p);
    return it == chain->stats.end() ? PredicateStats{} : it->second;
  }
  auto it = stats_.find(p);
  return it == stats_.end() ? PredicateStats{} : it->second;
}

uint64_t TripleStore::size() const {
  if (live()) return PinnedChain()->visible_triples;
  return ClassicSize();
}

uint64_t TripleStore::ClassicSize() const {
  if (spo_blocks_ != nullptr) return spo_blocks_->size();
  return SpoView().size();
}

StoreMemory TripleStore::MemoryBreakdown() const {
  StoreMemory m;
  m.numeric_bytes = dict_.numeric_bytes();
  m.directory_bytes = directory_.bytes();
  m.heap_bytes = dict_.MemoryUsage() + directory_.bytes() +
                 (spo_.capacity() + pos_.capacity() + osp_.capacity()) *
                     sizeof(EncodedTriple) +
                 stats_.size() * (sizeof(TermId) + sizeof(PredicateStats) +
                                  2 * sizeof(void*));
  for (const CompressedPermutation* cp :
       {spo_blocks_.get(), pos_blocks_.get(), osp_blocks_.get()}) {
    if (cp == nullptr) continue;
    m.heap_bytes += cp->heap_bytes();
    if (cp->borrowed()) m.mapped_bytes += cp->byte_size();
  }
  if (keepalive_ != nullptr && spo_blocks_ == nullptr) {
    // Raw borrowed views: the image bytes the three spans alias.
    m.mapped_bytes +=
        (spo_view_.size() + pos_view_.size() + osp_view_.size()) *
        sizeof(EncodedTriple);
  }
  if (live()) {
    std::shared_ptr<const EpochChain> chain = PinnedChain();
    if (chain->base != nullptr) {
      m.heap_bytes += chain->base->MemoryUsage();
      m.directory_bytes += chain->base->directory.bytes();
    }
    for (const std::shared_ptr<const DeltaLayer>& layer : chain->layers) {
      m.heap_bytes += layer->MemoryUsage();
    }
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
  auto index_bytes = [this](Perm perm) -> double {
    const CompressedPermutation* cp = perm == Perm::kSpo ? spo_blocks_.get()
                                     : perm == Perm::kPos ? pos_blocks_.get()
                                                          : osp_blocks_.get();
    if (cp != nullptr) return static_cast<double>(cp->byte_size());
    std::span<const EncodedTriple> view = perm == Perm::kSpo   ? SpoView()
                                          : perm == Perm::kPos ? PosView()
                                                               : OspView();
    return static_cast<double>(view.size() * sizeof(EncodedTriple));
  };
  reg.GetGauge("store.index.spo.bytes").Set(index_bytes(Perm::kSpo));
  reg.GetGauge("store.index.pos.bytes").Set(index_bytes(Perm::kPos));
  reg.GetGauge("store.index.osp.bytes").Set(index_bytes(Perm::kOsp));
}

}  // namespace re2xolap::rdf
