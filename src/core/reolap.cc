#include "core/reolap.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "core/describe.h"
#include "engine/query_engine.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparql/executor.h"
#include "util/failpoint.h"
#include "util/string_utils.h"
#include "util/timer.h"

namespace re2xolap::core {

namespace {

/// Cap on text-index hits considered per example value.
constexpr size_t kMaxMatchesPerValue = 200;
/// Cap on generated queries; combination enumeration stops beyond it.
constexpr size_t kMaxQueries = 256;
/// Cap on one validation probe; the caller's guard may shorten it.
constexpr uint64_t kProbeCapMillis = 10'000;
/// Floor on a probe's deadline, so the min-progress block still runs real
/// probes under an expired caller. It must outlast a scheduling delay
/// between the probe's start and the engine's entry check: at 1 ms,
/// oversubscribed runs lost first-block probes to that check.
constexpr uint64_t kProbeFloorMillis = 25;

/// The guard one validation probe runs under: a child of `parent` whose
/// deadline is the cap or the parent's remaining time, whichever is
/// smaller, but at least the floor. It shares the parent's cancellation
/// token.
util::ExecGuard ProbeGuard(const util::ExecGuard* parent) {
  util::ExecGuard::Limits limits;
  limits.deadline_millis = kProbeCapMillis;
  if (parent == nullptr) return util::ExecGuard(limits);
  limits.deadline_millis = std::max(
      kProbeFloorMillis, std::min(kProbeCapMillis, parent->remaining_millis()));
  return util::ExecGuard(limits, parent->token());
}

std::string IriLocalName(const std::string& iri) {
  size_t cut = iri.find_last_of("/#");
  return cut == std::string::npos ? iri : iri.substr(cut + 1);
}

/// Resolves the effective validation parallelism of `options`.
size_t EffectiveThreads(const ReolapOptions& options) {
  return options.num_threads == 0 ? util::ThreadPool::DefaultThreads()
                                  : options.num_threads;
}

/// Returns the pool to fan work onto: the caller-supplied one, a freshly
/// created local pool (owned by `local`), or nullptr for serial runs.
util::ThreadPool* ResolvePool(const ReolapOptions& options,
                              std::unique_ptr<util::ThreadPool>* local) {
  if (options.pool != nullptr) return options.pool;
  size_t threads = EffectiveThreads(options);
  if (threads <= 1) return nullptr;
  *local = std::make_unique<util::ThreadPool>(threads);
  return local->get();
}

/// Column/variable name for the group-by variable of an interpretation:
/// dimension predicate local name, plus the last hierarchy predicate when
/// the path is deeper than the base level (e.g. "refPeriod_inYear").
std::string GroupVarName(const rdf::TripleStore& store, const LevelPath& path,
                         size_t value_index) {
  std::string name = IriLocalName(store.term(path.predicates.front()).value);
  if (path.predicates.size() > 1) {
    name += "_" + IriLocalName(store.term(path.predicates.back()).value);
  }
  // Prefix with the value index so that two values interpreted over
  // sibling paths of the same dimension never clash.
  return "g" + std::to_string(value_index) + "_" + name;
}

}  // namespace

Reolap::Reolap(engine::QueryEngine& engine, const VirtualSchemaGraph* vsg,
               const rdf::TextIndex* text_index)
    : engine_(&engine), vsg_(vsg), text_(text_index) {}

std::vector<Interpretation> Reolap::MatchValue(
    const std::string& value, const ReolapOptions& options) const {
  std::vector<Interpretation> out;
  std::set<std::pair<rdf::TermId, const LevelPath*>> seen;

  // Mixed input: direct IRI references skip the label index entirely.
  std::string iri;
  if (value.size() > 2 && value.front() == '<' && value.back() == '>') {
    iri = value.substr(1, value.size() - 2);
  } else if (value.rfind("http://", 0) == 0 ||
             value.rfind("https://", 0) == 0) {
    iri = value;
  }
  if (!iri.empty()) {
    rdf::TermId member = store().Lookup(rdf::Term::Iri(iri));
    if (member != rdf::kInvalidTermId) {
      for (int node : vsg_->NodesOfMember(member)) {
        for (const LevelPath* path : vsg_->PathsTo(node)) {
          if (seen.emplace(member, path).second) {
            out.push_back(Interpretation{member, path});
          }
        }
      }
    }
    return out;
  }

  std::vector<rdf::TermId> literals =
      text_->Match(value, kMaxMatchesPerValue, options.guard);
  for (rdf::TermId lit : literals) {
    // Subjects holding this literal value are candidate dimension members.
    for (const rdf::EncodedTriple& t : store().Match(
             rdf::TriplePattern{rdf::kInvalidTermId, rdf::kInvalidTermId,
                                lit})) {
      for (int node : vsg_->NodesOfMember(t.s)) {
        for (const LevelPath* path : vsg_->PathsTo(node)) {
          if (seen.emplace(t.s, path).second) {
            out.push_back(Interpretation{t.s, path});
          }
        }
      }
    }
  }
  return out;
}

CandidateQuery Reolap::BuildQuery(
    const std::vector<Interpretation>& combo) const {
  using sparql::SelectItem;
  using sparql::TriplePatternAst;
  using sparql::Variable;

  CandidateQuery cq;
  cq.interpretations = combo;
  sparql::SelectQuery& q = cq.query;

  const Variable obs{"obs"};

  // ?obs a <ObservationClass>. Identify the class via the root's typing:
  // every observation carries rdf:type; we reconstruct the class from the
  // store by looking at any observation. Simpler and robust: the class is
  // remembered by the caller's VSG bootstrap — but the paths already
  // constrain ?obs to link to dimension members, and the type pattern only
  // matters when other node kinds share dimension predicates. We include
  // the measure pattern, which only observations have.
  int fresh = 0;
  for (size_t i = 0; i < combo.size(); ++i) {
    const LevelPath& path = *combo[i].path;
    std::string group_var = GroupVarName(store(), path, i);
    sparql::TermOrVar current = obs;
    for (size_t s = 0; s < path.predicates.size(); ++s) {
      sparql::TermOrVar next =
          (s + 1 == path.predicates.size())
              ? sparql::TermOrVar(Variable{group_var})
              : sparql::TermOrVar(
                    Variable{"h" + std::to_string(fresh++)});
      q.patterns.push_back(TriplePatternAst{
          current, store().term(path.predicates[s]), next});
      current = next;
    }
    q.group_by.push_back(Variable{group_var});
    SelectItem item;
    item.var = Variable{group_var};
    q.items.push_back(item);
    cq.group_columns.push_back(group_var);
  }

  // Measures: one variable per measure predicate, aggregated.
  const std::vector<rdf::TermId>& measures = vsg_->measure_predicates();
  for (size_t m = 0; m < measures.size(); ++m) {
    std::string mvar = "m" + std::to_string(m);
    q.patterns.push_back(TriplePatternAst{
        obs, store().term(measures[m]), Variable{mvar}});
    for (sparql::AggFunc f : {sparql::AggFunc::kSum, sparql::AggFunc::kMin,
                              sparql::AggFunc::kMax, sparql::AggFunc::kAvg}) {
      SelectItem item;
      item.is_aggregate = true;
      item.func = f;
      item.var = Variable{mvar};
      std::string fname = sparql::AggFuncName(f);
      for (char& c : fname) c = static_cast<char>(std::tolower(c));
      item.alias = fname + "_" + IriLocalName(store().term(measures[m]).value);
      cq.measure_columns.push_back(item.alias);
      q.items.push_back(std::move(item));
    }
  }

  // Natural-language description from the data's own annotations
  // (Section 5.1): rdfs:label declarations on predicates when present,
  // prettified local names otherwise.
  std::string desc = "Return ";
  for (size_t m = 0; m < measures.size(); ++m) {
    if (m > 0) desc += ", ";
    desc += "SUM(" + DisplayName(store(), measures[m]) + ")";
  }
  desc += " grouped by ";
  for (size_t i = 0; i < combo.size(); ++i) {
    if (i > 0) desc += " and ";
    desc += "\"" + DescribePath(store(), *combo[i].path) + "\"";
  }
  cq.description = std::move(desc);
  return cq;
}

bool Reolap::ValidateCombo(const std::vector<Interpretation>& combo,
                           const util::ExecGuard* parent) const {
  obs::Span span("reolap.probe");
  static obs::Counter& probes_total =
      obs::MetricsRegistry::Global().GetCounter("reolap.probes");
  probes_total.Inc();
  // Fault-injection site: an injected error makes this probe report "no
  // observation", exercising the no-valid-candidate paths downstream.
  if (!util::FailpointStatus("reolap.validate").ok()) return false;
  // Probe: SELECT ?obs WHERE { <paths pinned to the members> } LIMIT 1.
  using sparql::TriplePatternAst;
  using sparql::Variable;
  sparql::SelectQuery probe;
  sparql::SelectItem item;
  item.var = Variable{"obs"};
  probe.items.push_back(item);
  probe.limit = 1;
  const Variable obs{"obs"};
  int fresh = 0;
  for (const Interpretation& in : combo) {
    sparql::TermOrVar current = obs;
    const LevelPath& path = *in.path;
    for (size_t s = 0; s < path.predicates.size(); ++s) {
      sparql::TermOrVar next =
          (s + 1 == path.predicates.size())
              ? sparql::TermOrVar(store().term(in.member))
              : sparql::TermOrVar(Variable{"v" + std::to_string(fresh++)});
      probe.patterns.push_back(TriplePatternAst{
          current, store().term(path.predicates[s]), next});
      current = next;
    }
  }
  const util::ExecGuard guard = ProbeGuard(parent);
  sparql::ExecOptions opts;
  opts.guard = &guard;
  auto result = engine_->Execute(probe, opts);
  return result.ok() && (*result)->row_count() > 0;
}

util::Result<std::vector<CandidateQuery>> Reolap::Synthesize(
    const std::vector<std::string>& example_tuple,
    const ReolapOptions& options, ReolapStats* stats) const {
  if (example_tuple.empty()) {
    return util::Status::InvalidArgument("example tuple is empty");
  }
  // The caller's guard bounds the call. Expiry degrades the synthesis
  // (partial-but-validated candidates, truncated flag in stats) rather
  // than erroring; the first validation block always completes, so even
  // an already expired guard yields a usable answer.
  const util::ExecGuard* guard = options.guard;
  std::unique_ptr<util::ThreadPool> local_pool;
  util::ThreadPool* pool = ResolvePool(options, &local_pool);
  if (stats) stats->threads_used = EffectiveThreads(options);
  obs::Span synth_span("reolap.synthesize");
  synth_span.SetAttr("values", static_cast<uint64_t>(example_tuple.size()));
  util::WallTimer timer;

  // Lines 2–7 of Algorithm 1: interpretations per value. Each value's
  // MATCHES() is independent and read-only, so values fan out across the
  // pool into per-index slots (order-preserving).
  std::vector<std::vector<Interpretation>> dims(example_tuple.size());
  {
    obs::Span match_span("reolap.match");
    auto match_one = [&](size_t i) {
      dims[i] = MatchValue(example_tuple[i], options);
    };
    if (pool != nullptr && example_tuple.size() > 1) {
      rdf::ParallelForPinned(pool, store(), dims.size(), match_one);
    } else {
      for (size_t i = 0; i < dims.size(); ++i) match_one(i);
    }
  }
  for (const auto& d : dims) {
    if (d.empty()) {
      // Some value cannot be mapped to any dimension member: no query can
      // subsume the tuple.
      if (stats) stats->match_millis = timer.ElapsedMillis();
      return std::vector<CandidateQuery>{};
    }
  }
  if (stats) {
    stats->match_millis = timer.ElapsedMillis();
    size_t space = 1;
    for (const auto& d : dims) space *= d.size();
    stats->interpretations_considered = space;
  }

  // Lines 8–11: combine interpretations. Within one combination every value
  // must map to a distinct dimension (distinct root predicates): a single
  // result tuple carries one member per dimension.
  //
  // The probe fan-out works in blocks to stay deterministic: the odometer
  // enumerates the next block of deduplicated combinations in serial
  // order, the block's LIMIT-1 probes run concurrently into per-index
  // verdict slots, and the verdicts are then consumed back in serial
  // order — so the output candidates, their ordering, and the stats
  // counters are byte-identical for every thread count (the only
  // difference is up to one block of extra probes past the kMaxQueries
  // cut-off, whose verdicts are discarded uncounted).
  std::vector<CandidateQuery> out;
  std::vector<Interpretation> combo(example_tuple.size());
  std::set<std::vector<std::pair<rdf::TermId, const LevelPath*>>> emitted;

  const size_t block_size =
      pool == nullptr ? 1 : std::max<size_t>(4 * (pool->size() + 1), 16);
  std::vector<std::vector<Interpretation>> pending;
  std::vector<size_t> idx(example_tuple.size(), 0);
  bool exhausted = false, capped = false;
  double combine_ms = 0, validate_ms = 0;
  obs::Span combine_span("reolap.combine_validate");
  while (!exhausted && !capped) {
    // Enumerate the next block of unique, distinct-dimension combos.
    timer.Restart();
    pending.clear();
    while (!exhausted && pending.size() < block_size) {
      bool ok = true;
      std::set<rdf::TermId> used_dims;
      for (size_t i = 0; i < idx.size() && ok; ++i) {
        combo[i] = dims[i][idx[i]];
        rdf::TermId dim_pred = combo[i].path->dimension_predicate();
        if (!used_dims.insert(dim_pred).second) ok = false;
      }
      if (ok) {
        // The same (member, path) multiset may arise from different
        // matched literals; dedupe by the combo signature.
        std::vector<std::pair<rdf::TermId, const LevelPath*>> sig;
        sig.reserve(combo.size());
        for (const Interpretation& in : combo) {
          sig.emplace_back(in.member, in.path);
        }
        if (emitted.insert(sig).second) pending.push_back(combo);
      }
      // Advance the odometer.
      size_t pos = 0;
      while (pos < idx.size()) {
        if (++idx[pos] < dims[pos].size()) break;
        idx[pos] = 0;
        ++pos;
      }
      if (pos == idx.size()) exhausted = true;
    }
    combine_ms += timer.ElapsedMillis();

    // Probe the block concurrently; verdicts land in per-index slots.
    // Each probe's child guard is clamped to the caller's remaining time.
    timer.Restart();
    std::vector<uint8_t> valid(pending.size(), 0);
    auto probe = [&](size_t i) {
      valid[i] = ValidateCombo(pending[i], guard) ? 1 : 0;
    };
    if (pool != nullptr) {
      rdf::ParallelForPinned(pool, store(), pending.size(), probe);
    } else {
      for (size_t i = 0; i < pending.size(); ++i) probe(i);
    }
    validate_ms += timer.ElapsedMillis();

    // Consume verdicts in serial candidate order.
    timer.Restart();
    for (size_t i = 0; i < pending.size() && !capped; ++i) {
      if (stats) ++stats->combinations_checked;
      if (valid[i]) {
        if (stats) ++stats->validated_ok;
        // Different members on the same path family produce the same
        // query shape; the paper still treats them as one query per
        // combination of *levels*. Dedupe output queries by path set.
        out.push_back(BuildQuery(pending[i]));
        if (out.size() >= kMaxQueries) capped = true;
      }
    }
    combine_ms += timer.ElapsedMillis();

    // Degradation point: checked only *after* a block has been fully
    // consumed, so the first block's candidates always survive.
    if (guard != nullptr && !exhausted && !capped && !guard->Check().ok()) {
      if (stats) {
        stats->truncated = true;
        stats->degraded_reason =
            "overall deadline expired after " +
            std::to_string(stats->combinations_checked) +
            " combinations; remaining combinations skipped";
      }
      break;
    }
  }
  combine_span.End();

  // Queries over the same ordered set of level paths are duplicates from
  // the user's perspective (identical SPARQL text); keep the first.
  std::set<std::vector<const LevelPath*>> seen_paths;
  std::vector<CandidateQuery> unique;
  for (CandidateQuery& cq : out) {
    std::vector<const LevelPath*> key;
    key.reserve(cq.interpretations.size());
    for (const Interpretation& in : cq.interpretations) key.push_back(in.path);
    if (seen_paths.insert(key).second) unique.push_back(std::move(cq));
  }

  if (stats) {
    stats->combine_millis = combine_ms;
    stats->validate_millis = validate_ms;
  }
  if (options.rank_candidates) RankCandidates(*vsg_, &unique);
  synth_span.SetAttr("candidates", static_cast<uint64_t>(unique.size()));
  return unique;
}

util::Result<std::vector<CandidateQuery>> Reolap::SynthesizeMulti(
    const std::vector<std::vector<std::string>>& example_tuples,
    const ReolapOptions& options, ReolapStats* stats) const {
  if (example_tuples.empty()) {
    return util::Status::InvalidArgument("no example tuples");
  }
  const size_t arity = example_tuples[0].size();
  for (const auto& t : example_tuples) {
    if (t.size() != arity) {
      return util::Status::InvalidArgument(
          "example tuples must all have the same arity");
    }
  }
  // Candidates from the first tuple; the remaining tuples then filter
  // them: every row must map onto the candidate's level paths and
  // jointly validate (T_E ⊑ T for every tuple in T_E). One pool serves
  // both the nested Synthesize call and the per-candidate row checks.
  std::unique_ptr<util::ThreadPool> local_pool;
  util::ThreadPool* pool = ResolvePool(options, &local_pool);
  ReolapOptions pooled_options = options;
  pooled_options.pool = pool;
  // The caller's guard spans the nested Synthesize and the multi-tuple
  // filtering, so its deadline covers the whole call.
  const util::ExecGuard* guard = options.guard;
  RE2X_ASSIGN_OR_RETURN(std::vector<CandidateQuery> candidates,
                        Synthesize(example_tuples[0], pooled_options, stats));
  if (example_tuples.size() == 1) return candidates;

  // Degradation point: when the budget is already gone, skip the
  // multi-tuple filtering and hand back the (validated) first-tuple
  // candidates instead of erroring — explicitly flagged as unfiltered.
  if (guard != nullptr && !guard->Check().ok()) {
    if (stats) {
      stats->truncated = true;
      stats->degraded_reason =
          "overall deadline expired before multi-tuple filtering; "
          "candidates reflect the first example tuple only";
    }
    return candidates;
  }

  // Interpretations per (tuple >= 1, column), computed once; the
  // (tuple, column) MATCHES() lookups are independent and fan out.
  std::vector<std::vector<std::vector<Interpretation>>> interps(
      example_tuples.size());
  for (size_t t = 1; t < example_tuples.size(); ++t) interps[t].resize(arity);
  auto match_one = [&](size_t flat) {
    size_t t = 1 + flat / arity;
    size_t j = flat % arity;
    interps[t][j] = MatchValue(example_tuples[t][j], pooled_options);
  };
  const size_t n_lookups = (example_tuples.size() - 1) * arity;
  if (pool != nullptr) {
    rdf::ParallelForPinned(pool, store(), n_lookups, match_one);
  } else {
    for (size_t flat = 0; flat < n_lookups; ++flat) match_one(flat);
  }

  // Each candidate's row filtering is independent of the others: verdicts
  // (plus the validated extra rows) land in per-candidate slots and the
  // surviving candidates are collected in serial order afterwards.
  struct RowCheck {
    bool keep = false;
    std::vector<std::vector<Interpretation>> extra_rows;
  };
  std::vector<RowCheck> checks(candidates.size());
  auto check_one = [&](size_t c) {
    const CandidateQuery& cand = candidates[c];
    RowCheck& rc = checks[c];
    bool all_rows_ok = true;
    for (size_t t = 1; t < example_tuples.size() && all_rows_ok; ++t) {
      // Per column: members of this tuple interpretable over the
      // candidate's path.
      std::vector<std::vector<Interpretation>> per_column(arity);
      for (size_t j = 0; j < arity; ++j) {
        for (const Interpretation& in : interps[t][j]) {
          if (in.path == cand.interpretations[j].path) {
            per_column[j].push_back(in);
          }
        }
        if (per_column[j].empty()) {
          all_rows_ok = false;
          break;
        }
      }
      if (!all_rows_ok) break;
      // Try member combinations (bounded) until one row validates.
      constexpr size_t kMaxRowAttempts = 8;
      std::vector<size_t> idx(arity, 0);
      bool row_ok = false;
      for (size_t attempt = 0; attempt < kMaxRowAttempts; ++attempt) {
        std::vector<Interpretation> row(arity);
        for (size_t j = 0; j < arity; ++j) row[j] = per_column[j][idx[j]];
        if (ValidateCombo(row, guard)) {
          rc.extra_rows.push_back(std::move(row));
          row_ok = true;
          break;
        }
        // Advance the odometer; stop when exhausted.
        size_t pos = 0;
        while (pos < arity) {
          if (++idx[pos] < per_column[pos].size()) break;
          idx[pos] = 0;
          ++pos;
        }
        if (pos == arity) break;
      }
      if (!row_ok) all_rows_ok = false;
    }
    rc.keep = all_rows_ok;
  };
  if (pool != nullptr) {
    rdf::ParallelForPinned(pool, store(), candidates.size(), check_one);
  } else {
    for (size_t c = 0; c < candidates.size(); ++c) check_one(c);
  }

  std::vector<CandidateQuery> kept;
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (!checks[c].keep) continue;
    candidates[c].extra_rows = std::move(checks[c].extra_rows);
    kept.push_back(std::move(candidates[c]));
  }
  return kept;
}

void RankCandidates(const VirtualSchemaGraph& vsg,
                    std::vector<CandidateQuery>* candidates) {
  auto score = [&vsg](const CandidateQuery& c) {
    size_t depth = 0;
    double log_card = 0;
    for (const Interpretation& in : c.interpretations) {
      depth += in.path->predicates.size();
      size_t members = vsg.node(in.path->target_node).members.size();
      log_card += std::log(static_cast<double>(std::max<size_t>(1, members)));
    }
    return std::make_pair(depth, log_card);
  };
  std::stable_sort(candidates->begin(), candidates->end(),
                   [&](const CandidateQuery& a, const CandidateQuery& b) {
                     return score(a) < score(b);
                   });
}

}  // namespace re2xolap::core
