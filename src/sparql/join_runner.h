#ifndef RE2XOLAP_SPARQL_JOIN_RUNNER_H_
#define RE2XOLAP_SPARQL_JOIN_RUNNER_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "rdf/index_cursor.h"
#include "rdf/triple_store.h"
#include "sparql/binding_block.h"
#include "sparql/executor.h"
#include "sparql/plan.h"
#include "util/status.h"
#include "util/timer.h"

namespace re2xolap::sparql {

/// Per-operator observation slots for one join run. For mandatory steps
/// `rows_out` counts successful (consistent + filter-passing) extensions;
/// for OPTIONAL blocks `rows_out` counts rows passed downstream (matched
/// extensions plus left-join fall-throughs) and `matched` only the
/// extensions that bound new variables.
struct StepProf {
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t matched = 0;
  uint64_t scanned = 0;
  double micros = 0;  // inclusive wall time, timing mode only
};

/// Accumulates a join operator's wall time (microseconds) into `*acc`
/// over the guard's lifetime, less the block-sink time the runner spent
/// meanwhile (`*sink_micros`): aggregation is attributed to its own
/// operator, not to the scans that feed it. A null `acc` disables the
/// clock reads entirely.
class StepTimeGuard {
 public:
  StepTimeGuard(double* acc, const double* sink_micros)
      : acc_(acc), sink_micros_(sink_micros) {
    if (acc_ == nullptr) return;
    sink_start_ = *sink_micros_;
    start_ = std::chrono::steady_clock::now();
  }
  ~StepTimeGuard() {
    if (acc_ == nullptr) return;
    *acc_ += std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - start_)
                 .count() -
             (*sink_micros_ - sink_start_);
  }
  StepTimeGuard(const StepTimeGuard&) = delete;
  StepTimeGuard& operator=(const StepTimeGuard&) = delete;

 private:
  double* acc_;
  const double* sink_micros_;
  double sink_start_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Non-owning, non-allocating reference to a complete-binding callback
/// (`const std::vector<rdf::TermId>& -> void`). The referenced callable
/// must outlive the JoinRunner::Run call it is passed to.
class RowSink {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, RowSink>>>
  RowSink(const F& f)  // NOLINT(runtime/explicit)
      : obj_(&f), fn_([](const void* obj,
                         const std::vector<rdf::TermId>& bindings) {
          (*static_cast<const F*>(obj))(bindings);
        }) {}

  void operator()(const std::vector<rdf::TermId>& bindings) const {
    fn_(obj_, bindings);
  }

 private:
  const void* obj_;
  void (*fn_)(const void*, const std::vector<rdf::TermId>&);
};

/// Non-owning, non-allocating reference to a block-of-bindings callback
/// (`const BindingBlock&, std::span<const uint32_t> rows -> void`): `rows`
/// lists, in ascending order, the rows of the block that are complete
/// bindings. The referenced callable must outlive the RunBlocks call.
class BlockSink {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BlockSink>>>
  BlockSink(const F& f)  // NOLINT(runtime/explicit)
      : obj_(&f),
        fn_([](const void* obj, const BindingBlock& block,
               std::span<const uint32_t> rows) {
          (*static_cast<const F*>(obj))(block, rows);
        }) {}

  void operator()(const BindingBlock& block,
                  std::span<const uint32_t> rows) const {
    fn_(obj_, block, rows);
  }

 private:
  const void* obj_;
  void (*fn_)(const void*, const BindingBlock&, std::span<const uint32_t>);
};

/// Short display form of a term for operator labels: IRIs by local name,
/// literals quoted.
std::string TermShortName(const rdf::TripleStore& store, rdf::TermId id);

/// Operator label of one physical pattern, e.g. "scan (?s type Obs)".
std::string PatternLabel(const rdf::TripleStore& store,
                         const std::vector<std::string>& slot_names,
                         const PhysicalPattern& pp, const char* prefix);

/// Abstract join core. Both runners (volcano JoinRunner, vectorized
/// VectorizedRunner) implement this so the executor can dispatch on
/// ExecOptions::executor and build the profile tree from either.
class JoinExecutor {
 public:
  virtual ~JoinExecutor() = default;

  /// Runs the join; calls `on_row(bindings)` for every complete binding.
  /// When `row_cap` is non-zero the join stops early after producing that
  /// many rows (safe only when no later operator reorders/merges rows).
  /// Returns non-OK on timeout / guard violation. The per-step counters
  /// are flushed into the ExecStats sink on both success and error paths.
  virtual util::Status Run(RowSink on_row, uint64_t row_cap) = 0;

  /// Runs the join to completion and hands every complete binding to
  /// `on_block`, a block at a time, in the order Run would emit them
  /// (aggregation consumes the join this way). Budgets are rechecked
  /// after every block.
  virtual util::Status RunBlocks(BlockSink on_block) = 0;

  virtual const std::vector<StepProf>& step_prof() const = 0;
  virtual const std::vector<StepProf>& opt_prof() const = 0;
  virtual uint64_t emitted() const = 0;
  virtual bool timing() const = 0;
  /// Display label of the join operator in EXPLAIN output.
  virtual const char* join_label() const = 0;
};

/// Volcano join executor: row-at-a-time index nested loop join over the
/// planned steps with early filters and timeout/guard checks. When
/// ExecOptions carries an ExecGuard, the runner polls it (cancellation,
/// deadline, budgets) at the scan-interval boundaries, charges every
/// produced binding against its row budget, and re-checks the budgets on
/// each emitted row so sink-side charges surface promptly.
class JoinRunner : public JoinExecutor {
 public:
  JoinRunner(const rdf::TripleStore& store, const Plan& plan,
             const ExecOptions& options, ExecStats* stats);

  util::Status Run(RowSink on_row, uint64_t row_cap = 0) override;
  /// Buffers the emitted rows into a BindingBlock and flushes it whenever
  /// it fills, so the row-at-a-time core feeds the same block consumers.
  util::Status RunBlocks(BlockSink on_block) override;

  const std::vector<StepProf>& step_prof() const override {
    return step_prof_;
  }
  const std::vector<StepProf>& opt_prof() const override { return opt_prof_; }
  uint64_t emitted() const override { return emitted_; }
  bool timing() const override { return timing_; }
  const char* join_label() const override {
    return "join (index nested loop)";
  }

 private:
  void FlushStats();
  util::Status CheckGuard();
  bool Passes(const PlannedFilter& pf) const;
  util::Status ApplyFiltersAfter(size_t step, bool* pass);
  util::Status Step(size_t step, const RowSink& on_row);
  util::Status OptionalStep(size_t block, const RowSink& on_row);
  util::Status OptionalPattern(size_t block, size_t idx, bool* matched,
                               const RowSink& on_row);

  const rdf::TripleStore& store_;
  const Plan& plan_;
  const ExecOptions& options_;
  ExecStats* stats_;
  const bool profiling_;  // counters + operator tree (any stats sink)
  const bool timing_;     // per-step wall times (ExecOptions::profile)
  std::vector<rdf::TermId> bindings_;
  // One cursor per recursion depth, so compressed-format block scratch is
  // allocated once per depth and reused across every binding. Each Step /
  // OptionalPattern depth is active at most once on the stack.
  std::vector<rdf::IndexCursor> step_cursors_;
  std::vector<std::vector<rdf::IndexCursor>> opt_cursors_;
  std::vector<StepProf> step_prof_;
  std::vector<StepProf> opt_prof_;
  double sink_micros_ = 0;  // time spent in RunBlocks' block sink
  util::WallTimer timer_;
  uint64_t ops_ = 0;
  uint64_t row_cap_ = 0;
  uint64_t rows_emitted_ = 0;
  uint64_t emitted_ = 0;
  bool stopped_ = false;
};

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_JOIN_RUNNER_H_
