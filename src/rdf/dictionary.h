#ifndef RE2XOLAP_RDF_DICTIONARY_H_
#define RE2XOLAP_RDF_DICTIONARY_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdf/term.h"
#include "util/result.h"

namespace re2xolap::rdf {

/// Dense integer id for an interned term. Id 0 is reserved as the invalid
/// id so pattern wildcards and "no match" can be represented cheaply.
using TermId = uint32_t;
inline constexpr TermId kInvalidTermId = 0;

/// Bidirectional Term <-> TermId mapping. Interning terms once lets the
/// triple store and all query processing work on fixed-width integers.
///
/// Each term is stored exactly once, in `terms_`: the reverse index is an
/// unordered_set of TermIds whose transparent hash/equality functors look
/// the term text up through `terms_`, so interning N terms costs N Term
/// objects plus N 4-byte ids — not 2N Terms as a Term-keyed map would.
///
/// Concurrent-read contract: once loading finishes (in practice: once the
/// owning TripleStore is Freeze()-d), Lookup()/term()/IsValid()/ForEach()
/// are safe from any number of threads — they are const hash/vector reads
/// with no lazy caches. Intern() mutates and must never overlap a read;
/// query paths must use Lookup() only. The TripleStore wrapper asserts
/// this in debug builds.
///
/// Numeric side column: every term's Term::AsDouble() value is parsed
/// once when the term is interned (0 for non-numeric terms) and kept in a
/// dense array parallel to the terms, so aggregation and numeric
/// comparisons read a double instead of calling strtod per row.
///
/// Live mode (EnterLive, driven by TripleStore::EnterLive): the base
/// mapping built so far becomes immutable — its vector and hash index are
/// never touched again, so base reads stay lock-free — and new terms land
/// in an extension area (stable-address deque + Term-keyed map) guarded by
/// a shared_mutex. InternLive() is the only mutator afterwards; it may run
/// concurrently with any reads, but InternLive() calls themselves must be
/// externally serialized (store::Ingestor's batch mutex does this).
class Dictionary {
 public:
  Dictionary()
      : index_(/*bucket_count=*/16, IdHash{&terms_}, IdEq{&terms_}) {
    // Slot 0 is the invalid id.
    terms_.emplace_back();
    numeric_.push_back(0.0);
  }

  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// Interns `term`, returning its id (existing id if already present).
  /// Load-time only: rejected after EnterLive().
  TermId Intern(const Term& term);
  /// Move-interning overload: bulk loaders (snapshot restore, parsers)
  /// hand the Term over instead of paying a lexical-form copy per call.
  TermId Intern(Term&& term);

  /// Freezes the current mapping as the immutable base and switches new
  /// interning to the locked extension area. Irreversible.
  void EnterLive();

  bool live() const { return live_.load(std::memory_order_acquire); }

  /// Interns a term into a live dictionary; safe against concurrent
  /// reads. Concurrent InternLive() calls must be serialized by the
  /// caller (one ingest batch at a time).
  TermId InternLive(const Term& term);

  /// Looks up an existing term; kInvalidTermId when absent.
  TermId Lookup(const Term& term) const;

  /// The term for `id`. `id` must be a valid interned id. The reference
  /// stays valid for the dictionary's lifetime (extension storage is a
  /// deque: no reallocation).
  const Term& term(TermId id) const {
    if (id < terms_.size()) return terms_[id];
    return ExtTerm(id);
  }

  /// term(id).AsDouble(), precomputed at intern time. `id` must be a
  /// valid interned id.
  double numeric(TermId id) const {
    if (id < numeric_.size()) return numeric_[id];
    return ExtNumeric(id);
  }

  bool IsValid(TermId id) const {
    if (id == 0) return false;
    if (id < terms_.size()) return true;
    if (!live()) return false;
    std::shared_lock lk(ext_mu_);
    return id < terms_.size() + ext_terms_.size();
  }

  /// Number of interned terms (excluding the reserved invalid slot).
  size_t size() const {
    size_t n = terms_.size() - 1;
    if (live()) {
      std::shared_lock lk(ext_mu_);
      n += ext_terms_.size();
    }
    return n;
  }

  /// Pre-sizes the term vector and hash index for `n` terms (snapshot
  /// restore knows the exact count up front).
  void Reserve(size_t n);

  /// Iterates every interned (id, term) pair in id order. Fn is called as
  /// fn(TermId, const Term&). On a live dictionary the extension area is
  /// walked under the shared lock, so the iteration is a consistent
  /// point-in-time enumeration even against a concurrent InternLive().
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (TermId id = 1; id < terms_.size(); ++id) fn(id, terms_[id]);
    if (!live()) return;
    std::shared_lock lk(ext_mu_);
    TermId id = static_cast<TermId>(terms_.size());
    for (const Term& t : ext_terms_) fn(id++, t);
  }

  /// Approximate heap footprint in bytes (for Table 3-style reporting),
  /// numeric column included.
  size_t MemoryUsage() const;

  /// Bytes of the numeric side column (part of MemoryUsage()).
  size_t numeric_bytes() const;

 private:
  /// Transparent hash/equality pair for the id index: an id hashes/compares
  /// as the Term it denotes, so lookups by `const Term&` need no Term copy.
  /// The functors hold a pointer to the vector object (not its data), so
  /// term-vector reallocation is harmless; Dictionary is neither copyable
  /// nor movable, so the pointer never dangles.
  struct IdHash {
    using is_transparent = void;
    const std::vector<Term>* terms;
    size_t operator()(TermId id) const { return TermHash()((*terms)[id]); }
    size_t operator()(const Term& t) const { return TermHash()(t); }
  };
  struct IdEq {
    using is_transparent = void;
    const std::vector<Term>* terms;
    // Id-id equality goes through the terms (not id identity) so the
    // move-Intern's insert-first path can detect that a freshly pushed
    // term equals an already-indexed one. Stored ids always denote
    // distinct terms, so behavior for existing elements is unchanged.
    bool operator()(TermId a, TermId b) const {
      return a == b || (*terms)[a] == (*terms)[b];
    }
    bool operator()(TermId a, const Term& b) const { return (*terms)[a] == b; }
    bool operator()(const Term& a, TermId b) const { return (*terms)[b] == a; }
  };

  /// The numeric column's entry for `t`: Term::AsDouble(), skipping the
  /// call for the (mostly IRI) terms that are not numeric literals.
  static double NumericOf(const Term& t) {
    return t.is_numeric_literal() ? t.AsDouble() : 0.0;
  }

  /// Extension-area slot for `id` (id >= terms_.size(); live mode only).
  const Term& ExtTerm(TermId id) const;
  double ExtNumeric(TermId id) const;

  std::vector<Term> terms_;
  std::vector<double> numeric_;  // numeric_[id] = terms_[id].AsDouble()
  std::unordered_set<TermId, IdHash, IdEq> index_;
  // Live-mode extension area: terms interned after EnterLive(). The deque
  // gives stable element addresses, so term() can hand out references
  // that outlive the shared lock.
  std::atomic<bool> live_{false};
  mutable std::shared_mutex ext_mu_;
  std::deque<Term> ext_terms_;  // id = terms_.size() + deque index
  std::deque<double> ext_numeric_;  // parallel to ext_terms_
  std::unordered_map<Term, TermId, TermHash> ext_index_;
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_DICTIONARY_H_
