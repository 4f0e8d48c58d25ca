#include "rdf/dictionary.h"

#include <mutex>
#include <utility>

namespace re2xolap::rdf {

TermId Dictionary::Intern(const Term& term) {
  assert(!live() && "Dictionary::Intern() on a live dictionary");
  auto it = index_.find(term);
  if (it != index_.end()) return *it;
  TermId id = static_cast<TermId>(terms_.size());
  // Push before inserting the id: the index hashes ids through terms_.
  terms_.push_back(term);
  numeric_.push_back(NumericOf(term));
  index_.insert(id);
  return id;
}

TermId Dictionary::Intern(Term&& term) {
  assert(!live() && "Dictionary::Intern() on a live dictionary");
  // Insert-first: push the term, then let the single hash of insert()
  // either claim the new id or reveal the existing one. Bulk loaders
  // (snapshot restore) intern mostly-new terms, and this halves the hash
  // computations versus find-then-insert.
  TermId id = static_cast<TermId>(terms_.size());
  terms_.push_back(std::move(term));
  auto [it, inserted] = index_.insert(id);
  if (!inserted) {
    terms_.pop_back();
    return *it;
  }
  numeric_.push_back(NumericOf(terms_.back()));
  return id;
}

void Dictionary::EnterLive() {
  assert(!live() && "Dictionary::EnterLive() called twice");
  live_.store(true, std::memory_order_release);
}

TermId Dictionary::InternLive(const Term& term) {
  assert(live() && "Dictionary::InternLive() requires EnterLive()");
  // The base index is immutable in live mode: probe it lock-free first
  // (the common case for terms referenced by deletes and re-inserts).
  auto it = index_.find(term);
  if (it != index_.end()) return *it;
  std::unique_lock lk(ext_mu_);
  auto [eit, inserted] = ext_index_.try_emplace(term, kInvalidTermId);
  if (!inserted) return eit->second;
  const TermId id = static_cast<TermId>(terms_.size() + ext_terms_.size());
  eit->second = id;
  ext_terms_.push_back(term);
  ext_numeric_.push_back(NumericOf(term));
  return id;
}

const Term& Dictionary::ExtTerm(TermId id) const {
  assert(live());
  std::shared_lock lk(ext_mu_);
  assert(id >= terms_.size() && id < terms_.size() + ext_terms_.size());
  // Deque elements have stable addresses: the reference outlives the lock.
  return ext_terms_[id - terms_.size()];
}

double Dictionary::ExtNumeric(TermId id) const {
  assert(live());
  std::shared_lock lk(ext_mu_);
  assert(id >= terms_.size() && id < terms_.size() + ext_numeric_.size());
  return ext_numeric_[id - terms_.size()];
}

TermId Dictionary::Lookup(const Term& term) const {
  auto it = index_.find(term);
  if (it != index_.end()) return *it;
  if (!live()) return kInvalidTermId;
  std::shared_lock lk(ext_mu_);
  auto eit = ext_index_.find(term);
  return eit == ext_index_.end() ? kInvalidTermId : eit->second;
}

void Dictionary::Reserve(size_t n) {
  assert(!live() && "Dictionary::Reserve() on a live dictionary");
  terms_.reserve(n + 1);
  numeric_.reserve(n + 1);
  index_.reserve(n);
}

size_t Dictionary::numeric_bytes() const {
  size_t bytes = numeric_.capacity() * sizeof(double);
  if (live()) {
    std::shared_lock lk(ext_mu_);
    bytes += ext_numeric_.size() * sizeof(double);
  }
  return bytes;
}

size_t Dictionary::MemoryUsage() const {
  size_t bytes = terms_.capacity() * sizeof(Term) + numeric_bytes();
  for (const Term& t : terms_) bytes += t.value.capacity();
  // The id index stores 4-byte ids, not Term copies: bucket array + nodes.
  bytes += index_.bucket_count() * sizeof(void*);
  bytes += index_.size() * (sizeof(TermId) + 2 * sizeof(void*));
  if (live()) {
    std::shared_lock lk(ext_mu_);
    for (const Term& t : ext_terms_) bytes += sizeof(Term) + t.value.capacity();
    bytes += ext_index_.bucket_count() * sizeof(void*);
    // Extension index nodes key full Term copies (no base-vector trick:
    // the deque is not indexable through a transparent set cheaply).
    for (const auto& [t, id] : ext_index_) {
      bytes += sizeof(Term) + t.value.capacity() + sizeof(TermId) +
               2 * sizeof(void*);
    }
  }
  return bytes;
}

}  // namespace re2xolap::rdf
