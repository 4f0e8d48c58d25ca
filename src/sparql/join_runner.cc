#include "sparql/join_runner.h"

#include "util/failpoint.h"

namespace re2xolap::sparql {

namespace {

constexpr uint64_t kGuardCheckInterval = 8192;

}  // namespace

std::string TermShortName(const rdf::TripleStore& store, rdf::TermId id) {
  const rdf::Term& t = store.term(id);
  if (t.is_iri()) {
    size_t cut = t.value.find_last_of("/#");
    return cut == std::string::npos ? t.value : t.value.substr(cut + 1);
  }
  return "\"" + t.value + "\"";
}

std::string PatternLabel(const rdf::TripleStore& store,
                         const std::vector<std::string>& slot_names,
                         const PhysicalPattern& pp, const char* prefix) {
  auto pos = [&](rdf::TermId id, int slot) -> std::string {
    if (id != rdf::kInvalidTermId) return TermShortName(store, id);
    if (slot >= 0 && static_cast<size_t>(slot) < slot_names.size()) {
      return "?" + slot_names[slot];
    }
    return "?_";
  };
  return std::string(prefix) + " (" + pos(pp.s_id, pp.s_slot) + " " +
         pos(pp.p_id, pp.p_slot) + " " + pos(pp.o_id, pp.o_slot) + ")";
}

JoinRunner::JoinRunner(const rdf::TripleStore& store, const Plan& plan,
                       const ExecOptions& options, ExecStats* stats)
    : store_(store),
      plan_(plan),
      options_(options),
      stats_(stats),
      profiling_(stats != nullptr),
      timing_(stats != nullptr && options.profile) {}

util::Status JoinRunner::Run(RowSink on_row, uint64_t row_cap) {
  bindings_.assign(plan_.slot_count, rdf::kInvalidTermId);
  step_cursors_.resize(plan_.steps.size());
  opt_cursors_.resize(plan_.optionals.size());
  for (size_t b = 0; b < plan_.optionals.size(); ++b) {
    opt_cursors_[b].resize(plan_.optionals[b].steps.size());
  }
  row_cap_ = row_cap;
  rows_emitted_ = 0;
  emitted_ = 0;
  sink_micros_ = 0;
  stopped_ = false;
  if (profiling_) {
    step_prof_.assign(plan_.steps.size(), StepProf{});
    opt_prof_.assign(plan_.optionals.size(), StepProf{});
  }
  timer_.Restart();
  util::Status st = Step(0, on_row);
  FlushStats();
  return st;
}

util::Status JoinRunner::RunBlocks(BlockSink on_block) {
  BindingBlock block;
  block.Reset(plan_.slot_count, BindingBlock::kDefaultCapacity);
  std::vector<uint32_t> rows;
  auto flush = [&] {
    rows.resize(block.size());
    for (uint32_t r = 0; r < rows.size(); ++r) rows[r] = r;
    util::WallTimer sink_timer;
    on_block(block, rows);
    sink_micros_ += sink_timer.ElapsedMicros();
    block.Clear();
  };
  util::Status st = Run(
      [&](const std::vector<rdf::TermId>& bindings) {
        block.AppendRow(bindings);
        if (block.full()) flush();
      },
      /*row_cap=*/0);
  if (st.ok() && !block.empty()) {
    flush();
    if (options_.guard != nullptr) st = options_.guard->CheckBudgets();
  }
  return st;
}

/// Rolls the per-step counters up into the ExecStats aggregates:
/// `triples_scanned` sums every index entry inspected; the
/// `intermediate_bindings` total counts bindings produced across all
/// steps — one per successful mandatory-step extension plus one per
/// matched OPTIONAL extension (fall-throughs bind nothing).
void JoinRunner::FlushStats() {
  if (!profiling_) return;
  uint64_t scanned = 0;
  uint64_t produced = 0;
  for (const StepProf& sp : step_prof_) {
    scanned += sp.scanned;
    produced += sp.rows_out;
  }
  for (const StepProf& op : opt_prof_) {
    scanned += op.scanned;
    produced += op.matched;
  }
  stats_->triples_scanned += scanned;
  stats_->intermediate_bindings += produced;
}

util::Status JoinRunner::CheckGuard() {
  const util::ExecGuard* guard = options_.guard;
  if (options_.timeout_millis == 0 && guard == nullptr) {
    return util::Status::OK();
  }
  // The full poll (clock read included) is amortized behind the interval
  // counter; budgets get their own cheap recheck at every charge site
  // (produced binding, emitted row), so a row-budget overrun surfaces
  // within one produced binding even when the interval never trips.
  if (++ops_ % kGuardCheckInterval != 0) return util::Status::OK();
  if (options_.timeout_millis != 0 &&
      timer_.ElapsedMillis() > static_cast<double>(options_.timeout_millis)) {
    return util::Status::Timeout("query exceeded " +
                                 std::to_string(options_.timeout_millis) +
                                 " ms");
  }
  if (guard != nullptr) return guard->Check();
  return util::Status::OK();
}

bool JoinRunner::Passes(const PlannedFilter& pf) const {
  return pf.compiled.Eval(store_, [this](int slot) {
    return bindings_[slot];
  }) == Ebv::kTrue;
}

util::Status JoinRunner::ApplyFiltersAfter(size_t step, bool* pass) {
  *pass = true;
  for (const PlannedFilter& pf : plan_.filters) {
    if (pf.apply_after_step != step) continue;
    if (!Passes(pf)) {
      *pass = false;
      return util::Status::OK();
    }
  }
  return util::Status::OK();
}

util::Status JoinRunner::Step(size_t step, const RowSink& on_row) {
  if (step == 0) {
    bool pass = true;
    RE2X_RETURN_IF_ERROR(ApplyFiltersAfter(0, &pass));
    if (!pass) return util::Status::OK();
  }
  if (step == plan_.steps.size()) {
    return OptionalStep(0, on_row);
  }
  if (stopped_) return util::Status::OK();
  StepTimeGuard time_guard(timing_ ? &step_prof_[step].micros : nullptr,
                           &sink_micros_);
  if (profiling_) ++step_prof_[step].rows_in;
  const PhysicalPattern& pp = plan_.steps[step];
  rdf::TriplePattern q;
  auto fix = [&](rdf::TermId cid, int slot) -> rdf::TermId {
    if (cid != rdf::kInvalidTermId) return cid;
    if (slot >= 0 && bindings_[slot] != rdf::kInvalidTermId) {
      return bindings_[slot];
    }
    return rdf::kInvalidTermId;
  };
  q.s = fix(pp.s_id, pp.s_slot);
  q.p = fix(pp.p_id, pp.p_slot);
  q.o = fix(pp.o_id, pp.o_slot);

  // Fault-injection site at the executor's index-scan boundary.
  RE2X_FAILPOINT("store.scan");
  rdf::IndexCursor& cursor = step_cursors_[step];
  cursor.Attach(store_.Match(q));
  for (std::span<const rdf::EncodedTriple> chunk = cursor.NextChunk();
       !chunk.empty(); chunk = cursor.NextChunk()) {
    for (const rdf::EncodedTriple& t : chunk) {
      if (stopped_) return util::Status::OK();
      if (profiling_) ++step_prof_[step].scanned;
      RE2X_RETURN_IF_ERROR(CheckGuard());
      // Bind unbound slots; verify repeated-variable consistency.
      int newly_bound[3];
      int n_new = 0;
      bool consistent = true;
      auto bind = [&](int slot, rdf::TermId value) {
        if (slot < 0) return;
        if (bindings_[slot] == rdf::kInvalidTermId) {
          bindings_[slot] = value;
          newly_bound[n_new++] = slot;
        } else if (bindings_[slot] != value) {
          consistent = false;
        }
      };
      bind(pp.s_slot, t.s);
      if (consistent) bind(pp.p_slot, t.p);
      if (consistent) bind(pp.o_slot, t.o);
      if (consistent) {
        bool pass = true;
        RE2X_RETURN_IF_ERROR(ApplyFiltersAfter(step + 1, &pass));
        if (pass) {
          if (profiling_) ++step_prof_[step].rows_out;
          if (options_.guard != nullptr) {
            options_.guard->ChargeRows(1);
            // Budget-only recheck at the charge site: a row-budget overrun
            // surfaces here even when no row ever reaches the emit path
            // (e.g. a highly selective later step).
            util::Status bst = options_.guard->CheckBudgets();
            if (!bst.ok()) {
              for (int i = 0; i < n_new; ++i) {
                bindings_[newly_bound[i]] = rdf::kInvalidTermId;
              }
              return bst;
            }
          }
          util::Status st = Step(step + 1, on_row);
          if (!st.ok()) {
            for (int i = 0; i < n_new; ++i) {
              bindings_[newly_bound[i]] = rdf::kInvalidTermId;
            }
            return st;
          }
        }
      }
      for (int i = 0; i < n_new; ++i) {
        bindings_[newly_bound[i]] = rdf::kInvalidTermId;
      }
    }
  }
  return util::Status::OK();
}

// Left-join extension: tries to match optional block `block`; every
// complete extension recurses into the next block, and a block with no
// match falls through with its variables left unbound.
util::Status JoinRunner::OptionalStep(size_t block, const RowSink& on_row) {
  if (stopped_) return util::Status::OK();
  if (block == plan_.optionals.size()) {
    // Filters that could not be attached to the mandatory join.
    for (const PlannedFilter& pf : plan_.post_optional_filters) {
      if (!Passes(pf)) return util::Status::OK();
    }
    ++emitted_;
    on_row(bindings_);
    if (row_cap_ != 0 && ++rows_emitted_ >= row_cap_) stopped_ = true;
    // Re-check budgets on every emitted row: the sink may have charged
    // result bytes / group-state bytes against the guard just now.
    if (options_.guard != nullptr) {
      RE2X_RETURN_IF_ERROR(options_.guard->CheckBudgets());
    }
    return CheckGuard();
  }
  StepTimeGuard time_guard(timing_ ? &opt_prof_[block].micros : nullptr,
                           &sink_micros_);
  if (profiling_) ++opt_prof_[block].rows_in;
  const PlannedOptional& po = plan_.optionals[block];
  if (po.never_matches || po.steps.empty()) {
    if (profiling_) ++opt_prof_[block].rows_out;
    return OptionalStep(block + 1, on_row);
  }
  bool matched = false;
  RE2X_RETURN_IF_ERROR(OptionalPattern(block, 0, &matched, on_row));
  if (!matched && !stopped_) {
    if (profiling_) ++opt_prof_[block].rows_out;
    return OptionalStep(block + 1, on_row);
  }
  return util::Status::OK();
}

util::Status JoinRunner::OptionalPattern(size_t block, size_t idx,
                                         bool* matched,
                                         const RowSink& on_row) {
  const PlannedOptional& po = plan_.optionals[block];
  if (idx == po.steps.size()) {
    *matched = true;
    if (profiling_) {
      ++opt_prof_[block].matched;
      ++opt_prof_[block].rows_out;
    }
    if (options_.guard != nullptr) {
      options_.guard->ChargeRows(1);
      RE2X_RETURN_IF_ERROR(options_.guard->CheckBudgets());
    }
    return OptionalStep(block + 1, on_row);
  }
  const PhysicalPattern& pp = po.steps[idx];
  rdf::TriplePattern q;
  auto fix = [&](rdf::TermId cid, int slot) -> rdf::TermId {
    if (cid != rdf::kInvalidTermId) return cid;
    if (slot >= 0 && bindings_[slot] != rdf::kInvalidTermId) {
      return bindings_[slot];
    }
    return rdf::kInvalidTermId;
  };
  q.s = fix(pp.s_id, pp.s_slot);
  q.p = fix(pp.p_id, pp.p_slot);
  q.o = fix(pp.o_id, pp.o_slot);
  rdf::IndexCursor& cursor = opt_cursors_[block][idx];
  cursor.Attach(store_.Match(q));
  for (std::span<const rdf::EncodedTriple> chunk = cursor.NextChunk();
       !chunk.empty(); chunk = cursor.NextChunk()) {
    for (const rdf::EncodedTriple& t : chunk) {
      if (stopped_) return util::Status::OK();
      if (profiling_) ++opt_prof_[block].scanned;
      RE2X_RETURN_IF_ERROR(CheckGuard());
      int newly_bound[3];
      int n_new = 0;
      bool consistent = true;
      auto bind = [&](int slot, rdf::TermId value) {
        if (slot < 0) return;
        if (bindings_[slot] == rdf::kInvalidTermId) {
          bindings_[slot] = value;
          newly_bound[n_new++] = slot;
        } else if (bindings_[slot] != value) {
          consistent = false;
        }
      };
      bind(pp.s_slot, t.s);
      if (consistent) bind(pp.p_slot, t.p);
      if (consistent) bind(pp.o_slot, t.o);
      if (consistent) {
        util::Status st = OptionalPattern(block, idx + 1, matched, on_row);
        if (!st.ok()) {
          for (int i = 0; i < n_new; ++i) {
            bindings_[newly_bound[i]] = rdf::kInvalidTermId;
          }
          return st;
        }
      }
      for (int i = 0; i < n_new; ++i) {
        bindings_[newly_bound[i]] = rdf::kInvalidTermId;
      }
    }
  }
  return util::Status::OK();
}

}  // namespace re2xolap::sparql
