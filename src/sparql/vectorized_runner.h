#ifndef RE2XOLAP_SPARQL_VECTORIZED_RUNNER_H_
#define RE2XOLAP_SPARQL_VECTORIZED_RUNNER_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "rdf/index_cursor.h"
#include "rdf/triple_store.h"
#include "sparql/binding_block.h"
#include "sparql/executor.h"
#include "sparql/plan.h"
#include "util/function_ref.h"
#include "util/status.h"

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

/// Complete-binding callback of VectorizedRunner::Run.
using RowSink = util::FunctionRef<void(const std::vector<rdf::TermId>&)>;

/// Block-of-bindings callback of VectorizedRunner::RunBlocks: `rows`
/// lists, in ascending order, the rows of the block that are complete
/// bindings.
using BlockSink =
    util::FunctionRef<void(const BindingBlock&, std::span<const uint32_t>)>;

/// The join core: batch-at-a-time over columnar BindingBlocks, consuming
/// a planner Plan (so cached plans serve every run). Its semantics are
/// those of a nested-loop join over the plan's steps in order: blocks
/// flow depth-first through the step pipeline, rows stay in input order,
/// and extensions are appended in index order, so a run's row order and
/// its StepProf / ExecStats counters are a deterministic function of the
/// plan and the index ranges it reads (the same on raw and compressed
/// stores). tests/reference_eval.h holds the independent oracle it is
/// checked against.
///
/// Each mandatory step is compiled once per run into a CompiledStep: the
/// index permutation and exact key prefix it probes (mirroring
/// TripleStore::Match's selection rules), split into a constant prefix —
/// located once per run with a single equal_range — and per-row varying
/// parts. When consecutive rows' probe keys are non-decreasing (the common
/// case after joining along an index's sort order), the runner *merge
/// joins*: it advances a cursor through the constant-prefix run with a
/// galloping lower_bound instead of re-searching from the start; rows
/// whose keys regress fall back to a plain binary search within the run.
/// Subject-led SPO probes skip both: the store's subject directory hands
/// back the subject's run in O(1). Matched extensions are appended
/// column-wise (broadcast of the parent row + bind-column writes from the
/// sorted run).
///
/// Guards: the deadline/cancellation poll is amortized behind
/// kGuardCheckInterval scanned entries, every produced binding is charged
/// against the row budget with a budget-only recheck at the charge site,
/// and the emit path re-checks budgets per row. OPTIONAL blocks extend
/// parent rows left-join style, each parent row either appending its
/// matched extensions or falling through unchanged; the per-pattern
/// matching walks rows of the parent block (variables bound by earlier
/// OPTIONAL blocks are only known per row, so their probes cannot be
/// compiled statically).
class VectorizedRunner {
 public:
  VectorizedRunner(const rdf::TripleStore& store, const Plan& plan,
                   const ExecOptions& options, ExecStats* stats);

  /// Runs the join; calls `on_row(bindings)` for every complete binding.
  /// When `row_cap` is non-zero the join stops early after producing that
  /// many rows (safe only when no later operator reorders/merges rows).
  /// Returns non-OK on a guard violation. The per-step counters
  /// are flushed into the ExecStats sink on both success and error paths.
  util::Status Run(RowSink on_row, uint64_t row_cap = 0);

  /// Runs the join to completion and hands every complete binding to
  /// `on_block`, a block at a time, in the order Run would emit them
  /// (aggregation consumes the join this way). Budgets are rechecked
  /// after every block.
  util::Status RunBlocks(BlockSink on_block);

  const std::vector<StepProf>& step_prof() const { return step_prof_; }
  const std::vector<StepProf>& opt_prof() const { return opt_prof_; }
  uint64_t emitted() const { return emitted_; }
  bool timing() const { return timing_; }

 private:
  /// One component of a step's probe key, in the permutation's key order:
  /// either a plan constant or a slot read from the input row.
  struct KeyPart {
    bool is_const = false;
    rdf::TermId cid = rdf::kInvalidTermId;
    int slot = -1;
    int pos = 0;  // triple component: 0 = s, 1 = p, 2 = o
  };

  /// A mandatory plan step compiled against the static boundness at its
  /// position in the pipeline (slots are assigned in execution order, so
  /// which slots are bound when a step runs is known at compile time).
  struct CompiledStep {
    rdf::Perm perm = rdf::Perm::kSpo;
    std::vector<KeyPart> key;  // exact-prefix parts in index key order
    size_t const_prefix = 0;   // leading key parts that are constants
    int bind_slot[3] = {-1, -1, -1};  // per triple pos: slot to bind
    // Repeated-variable checks within one pattern: candidate triples must
    // have equal components at (pos, first_pos) for each pair.
    std::vector<std::pair<int, int>> check_pairs;
    bool has_filters = false;  // any PlannedFilter applies after this step
    // Slots bound by earlier steps: the only parent columns worth
    // broadcasting into this stage's output. Slots bound by later steps
    // are written before anything reads them, so copying them forward
    // would be wasted work (the dominant cost on probe-heavy joins).
    std::vector<int> broadcast_slots;
    // Last mandatory step only: slots no mandatory step ever binds
    // (OPTIONAL-only variables). Filled with kInvalidTermId so the
    // optional/emit stages see them as unbound rather than stale data.
    std::vector<int> invalidate_slots;
    // Constant-prefix run, located lazily on first use and cached for the
    // rest of the run (the prefix never varies). Raw-format stores back it
    // with a zero-copy span; compressed stores with a block range whose
    // seeks gallop over the skip keys (rdf/index_cursor.h). A merged run
    // (a live store's delta layers share the window with the base) is
    // not searched: each row's window is read from the store instead.
    bool run_located = false;
    rdf::IndexRange run;
    // Subject-led SPO probes with no constant prefix: the subject
    // directory indexing `run`, which turns each probe's subject seek
    // into one array read (null unless `run` is the base's whole SPO
    // permutation).
    const rdf::SubjectDirectory* directory = nullptr;
    // Per-row lo/hi sentinel templates: constant prefix baked in,
    // remaining components 0 / kMaxTermId. Probes copy these and stamp
    // the row's varying key values into both.
    rdf::EncodedTriple lo_base{0, 0, 0};
    rdf::EncodedTriple hi_base{0, 0, 0};
    // Separate decode scratch for seeks vs chunk fetches so a search that
    // lands in the next block does not evict the block the fetch loop is
    // consuming (no-ops on raw-format stores).
    rdf::IndexBlockScratch search_scratch;
    rdf::IndexBlockScratch fetch_scratch;
  };

  void CompileSteps();
  /// The shared body of Run / RunBlocks (exactly one sink is set).
  util::Status RunPipeline(uint64_t row_cap);
  bool PassesPostOptional(const BindingBlock& in, size_t r) const;
  util::Status BumpOps(uint64_t n);
  util::Status RunStage(size_t stage, const BindingBlock& in);
  util::Status ApplyStepFilters(size_t after_step, BindingBlock* out,
                                size_t from, uint64_t* survivors);
  util::Status RunOptionalStage(size_t block, const BindingBlock& in);
  util::Status OptionalPattern(size_t block, size_t idx, bool* matched,
                               BindingBlock* out);
  util::Status EmitBlock(const BindingBlock& in);
  void FlushStats();

  const rdf::TripleStore& store_;
  const Plan& plan_;
  const ExecOptions& options_;
  ExecStats* stats_;
  const bool profiling_;
  const bool timing_;

  RowSink* on_row_ = nullptr;
  BlockSink* on_block_ = nullptr;
  std::vector<CompiledStep> steps_;
  std::vector<BindingBlock> blocks_;      // per mandatory stage output
  std::vector<BindingBlock> opt_blocks_;  // per OPTIONAL stage output
  // OPTIONAL extension row state, one scratch row per block: a block's
  // mid-loop flush recurses into later blocks, which extract their own
  // rows while the suspended caller's row must stay intact.
  std::vector<std::vector<rdf::TermId>> scratch_rows_;
  // OPTIONAL scan cursors, one per (block, step) recursion depth — each
  // depth is on the stack at most once, and pooling keeps compressed-block
  // scratch allocations out of the per-row loop.
  std::vector<std::vector<rdf::IndexCursor>> opt_cursors_;
  std::vector<rdf::TermId> row_buf_;      // emit-path row materialization
  std::vector<uint32_t> emit_rows_;       // block-emit survivors
  std::vector<uint32_t> keep_;            // filter compaction scratch
  std::vector<StepProf> step_prof_;
  std::vector<StepProf> opt_prof_;
  double sink_micros_ = 0;  // time spent in the RunBlocks sink
  uint64_t ops_ = 0;
  uint64_t row_cap_ = 0;
  uint64_t rows_emitted_ = 0;
  uint64_t emitted_ = 0;
  bool stopped_ = false;
};

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_VECTORIZED_RUNNER_H_
