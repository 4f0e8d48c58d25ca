#ifndef RE2XOLAP_RDF_SUBJECT_DIRECTORY_H_
#define RE2XOLAP_RDF_SUBJECT_DIRECTORY_H_

// Dense subject directory over a frozen SPO permutation: for every term id
// the position of the first triple whose subject is >= that id, so the run
// of subject `s` is [start(s), start(s + 1)) — one array read instead of a
// binary search or gallop over the whole permutation. Star-shaped
// analytical queries probe the SPO index once per observation and
// dimension, which makes this the hottest seek of the join.
//
// The directory is built wherever a frozen base is produced (Freeze,
// snapshot load, compaction), always from a pass that already walks the
// SPO order, and never on the read path. Positions are uint32: a base of
// 2^32 triples or more gets no directory and probes keep galloping.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "rdf/triple.h"

namespace re2xolap::rdf {

class SubjectDirectory {
 public:
  /// Builds the directory of an SPO-sorted array in one pass.
  static SubjectDirectory Build(std::span<const EncodedTriple> spo) {
    SubjectDirectory d;
    if (spo.empty() || spo.size() > kMaxTriples) return d;
    d.Reset(spo.back().s + 1);
    TermId prev = kInvalidTermId;
    for (size_t i = 0; i < spo.size(); ++i) {
      if (spo[i].s != prev) {
        d.MarkBoundary(prev, spo[i].s, i);
        prev = spo[i].s;
      }
    }
    d.Finish(prev, spo.size());
    return d;
  }

  /// Incremental construction for passes that walk the SPO order in
  /// chunks (snapshot validation): Reset to the subject-id bound, mark
  /// every subject change, then Finish with the last subject and the
  /// triple count. Boundaries in disjoint ascending id ranges touch
  /// disjoint entries, so chunks of one sorted array may mark
  /// concurrently.
  void Reset(uint64_t id_limit) {
    starts_.assign(id_limit + 1, 0);
    triples_ = 0;
  }

  /// The subject changes from `prev` to `s` at `pos`: entries (prev, s]
  /// start at `pos`. Ignored unless prev < s < id_limit (input that is
  /// not sorted fails its own validation and never gets adopted).
  void MarkBoundary(TermId prev, TermId s, uint64_t pos) {
    if (s <= prev || s >= starts_.size()) return;
    std::fill(starts_.begin() + prev + 1, starts_.begin() + s + 1,
              static_cast<uint32_t>(pos));
  }

  void Finish(TermId last, uint64_t triple_count) {
    triples_ = triple_count;
    if (last + 1 < starts_.size()) {
      std::fill(starts_.begin() + last + 1, starts_.end(),
                static_cast<uint32_t>(triple_count));
    }
  }

  bool empty() const { return starts_.empty(); }

  /// Positions [first, second) of subject `s`'s triples; an empty run at
  /// the end for subjects past the directory.
  std::pair<uint64_t, uint64_t> Run(TermId s) const {
    if (static_cast<uint64_t>(s) + 1 >= starts_.size()) {
      return {triples_, triples_};
    }
    return {starts_[s], starts_[s + 1]};
  }

  /// Requests the cache line holding `s`'s entry (batched probes look
  /// subjects up ahead of use).
  void Prefetch(TermId s) const {
    if (static_cast<uint64_t>(s) + 1 < starts_.size()) {
      __builtin_prefetch(&starts_[s]);
    }
  }

  size_t bytes() const { return starts_.capacity() * sizeof(uint32_t); }

  /// Largest base a directory can describe with uint32 positions.
  static constexpr uint64_t kMaxTriples =
      std::numeric_limits<uint32_t>::max();

 private:
  // starts_[id] = position of the first triple whose subject is >= id.
  std::vector<uint32_t> starts_;
  uint64_t triples_ = 0;
};

}  // namespace re2xolap::rdf

#endif  // RE2XOLAP_RDF_SUBJECT_DIRECTORY_H_
