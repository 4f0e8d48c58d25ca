#include "core/session.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace re2xolap::core {

namespace {

/// Appends the flight-recorder record of one finished session
/// interaction. Interactions append directly instead of holding a
/// QueryRecordScope: engine executions they trigger are real queries and
/// must keep their own records (see obs/query_log.h).
void AppendInteraction(obs::QueryRecord rec, const util::Status& status,
                       uint64_t rows, double millis, std::string query_text) {
  rec.status = static_cast<uint8_t>(status.code());
  rec.rows_out = rows;
  rec.total_millis = millis;
  obs::QueryLog::Global().AppendCompleted(rec, std::move(query_text));
}

}  // namespace

const char* RefinementKindName(RefinementKind kind) {
  switch (kind) {
    case RefinementKind::kDisaggregate:
      return "Disaggregate";
    case RefinementKind::kRollUp:
      return "RollUp";
    case RefinementKind::kTopK:
      return "TopK";
    case RefinementKind::kPercentile:
      return "Percentile";
    case RefinementKind::kSimilarity:
      return "Similarity";
    case RefinementKind::kCluster:
      return "Cluster";
  }
  return "?";
}

void Session::RecordInteraction(double millis) {
  stats_.interaction_latency_millis.push_back(millis);
  obs::MetricsRegistry::Global()
      .GetHistogram("session.interaction.millis")
      .Observe(millis);
}

util::Result<std::vector<CandidateQuery>> Session::Start(
    const std::vector<std::string>& example_tuple,
    const ReolapOptions& options) {
  util::WallTimer timer;
  obs::Span span("session.start");
  span.SetAttr("examples", static_cast<uint64_t>(example_tuple.size()));
  obs::QueryRecord rec;
  rec.op = obs::QueryOp::kSessionSynthesize;
  rec.freeze_epoch = store_->freeze_epoch();
  // The example tuple is the synthesize call's identity (there is no
  // single query yet — ReOLAP produces many).
  std::string ident;
  for (const std::string& v : example_tuple) {
    ident += v;
    ident += '\t';
  }
  rec.fingerprint = obs::FingerprintQuery(ident);
  ReolapStats rstats;
  util::Result<std::vector<CandidateQuery>> synthesized =
      reolap_.Synthesize(example_tuple, options, &rstats);
  rec.degraded = rstats.truncated;
  if (!synthesized.ok()) {
    AppendInteraction(rec, synthesized.status(), /*rows=*/0,
                      timer.ElapsedMillis(), std::move(ident));
    return synthesized.status();
  }
  candidates_ = std::move(synthesized).value();
  history_.clear();
  pending_refinements_.clear();
  InvalidateResults();
  ++stats_.interactions;
  stats_.frontier = std::max<size_t>(1, candidates_.size());
  stats_.cumulative_paths += candidates_.size();
  span.SetAttr("candidates", static_cast<uint64_t>(candidates_.size()));
  RecordInteraction(timer.ElapsedMillis());
  AppendInteraction(rec, util::Status::OK(), candidates_.size(),
                    timer.ElapsedMillis(), std::move(ident));
  return candidates_;
}

util::Status Session::PickCandidate(size_t index) {
  if (index >= candidates_.size()) {
    return util::Status::InvalidArgument("candidate index out of range");
  }
  history_.clear();
  history_.push_back(InitialState(candidates_[index]));
  pending_refinements_.clear();
  InvalidateResults();
  return util::Status::OK();
}

util::Result<const sparql::ResultTable*> Session::Execute(
    const sparql::ExecOptions& options) {
  if (history_.empty()) {
    return util::Status::InvalidArgument("no current query; call Start/Pick");
  }
  if (results_ == nullptr) {
    obs::Span span("session.execute");
    last_exec_ = sparql::ExecStats{};
    RE2X_ASSIGN_OR_RETURN(
        engine::TableHandle table,
        engine_->Execute(history_.back().query, options, &last_exec_));
    stats_.cumulative_tuples += table->row_count();
    stats_.cumulative_exec_millis += last_exec_.exec_millis;
    stats_.cumulative_triples_scanned += last_exec_.triples_scanned;
    stats_.cumulative_intermediate_bindings += last_exec_.intermediate_bindings;
    span.SetAttr("rows", static_cast<uint64_t>(table->row_count()));
    results_ = std::move(table);
  }
  return results_.get();
}

util::Result<std::vector<ExploreState>> Session::Refine(
    RefinementKind kind, const sparql::ExecOptions& exec,
    const SimilarityOptions& sim_options,
    const PercentileOptions& perc_options,
    const ClusterOptions& cluster_options) {
  if (history_.empty()) {
    return util::Status::InvalidArgument("no current query; call Start/Pick");
  }
  util::WallTimer timer;
  obs::Span span("session.refine");
  span.SetAttr("kind", RefinementKindName(kind));
  const ExploreState& state = history_.back();
  std::string query_text = sparql::ToSparql(state.query);
  obs::QueryRecord rec;
  rec.op = obs::QueryOp::kSessionRefine;
  rec.freeze_epoch = store_->freeze_epoch();
  rec.fingerprint = obs::FingerprintQuery(query_text);
  std::vector<ExploreState> refinements;
  auto compute = [&]() -> util::Status {
    switch (kind) {
      case RefinementKind::kDisaggregate:
        refinements = Disaggregate(*vsg_, *store_, state);
        break;
      case RefinementKind::kRollUp:
        refinements = RollUp(*vsg_, *store_, state);
        break;
      case RefinementKind::kTopK: {
        RE2X_ASSIGN_OR_RETURN(const sparql::ResultTable* table, Execute(exec));
        RE2X_ASSIGN_OR_RETURN(refinements, SubsetTopK(state, *table));
        break;
      }
      case RefinementKind::kPercentile: {
        RE2X_ASSIGN_OR_RETURN(const sparql::ResultTable* table, Execute(exec));
        RE2X_ASSIGN_OR_RETURN(refinements,
                              SubsetPercentile(state, *table, perc_options));
        break;
      }
      case RefinementKind::kSimilarity: {
        RE2X_ASSIGN_OR_RETURN(const sparql::ResultTable* table, Execute(exec));
        RE2X_ASSIGN_OR_RETURN(
            refinements, SimilaritySearch(*store_, state, *table, sim_options));
        break;
      }
      case RefinementKind::kCluster: {
        RE2X_ASSIGN_OR_RETURN(const sparql::ResultTable* table, Execute(exec));
        RE2X_ASSIGN_OR_RETURN(refinements,
                              SubsetCluster(state, *table, cluster_options));
        break;
      }
    }
    return util::Status::OK();
  };
  util::Status compute_status = compute();
  if (!compute_status.ok()) {
    AppendInteraction(rec, compute_status, /*rows=*/0, timer.ElapsedMillis(),
                      std::move(query_text));
    return compute_status;
  }
  pending_refinements_ = refinements;
  ++stats_.interactions;
  // Every path on the current frontier could take any of these
  // refinements: the reachable-path frontier multiplies.
  if (!refinements.empty()) stats_.frontier *= refinements.size();
  stats_.cumulative_paths += stats_.frontier;
  span.SetAttr("refinements", static_cast<uint64_t>(refinements.size()));
  RecordInteraction(timer.ElapsedMillis());
  AppendInteraction(rec, util::Status::OK(), refinements.size(),
                    timer.ElapsedMillis(), std::move(query_text));
  return refinements;
}

util::Status Session::PickRefinement(size_t index) {
  if (index >= pending_refinements_.size()) {
    return util::Status::InvalidArgument("refinement index out of range");
  }
  history_.push_back(pending_refinements_[index]);
  pending_refinements_.clear();
  InvalidateResults();
  return util::Status::OK();
}

util::Result<std::vector<std::string>> Session::ExcludeNegative(
    const std::vector<std::string>& negative_values) {
  if (history_.empty()) {
    return util::Status::InvalidArgument("no current query; call Start/Pick");
  }
  util::WallTimer timer;
  obs::Span span("session.exclude_negative");
  span.SetAttr("values", static_cast<uint64_t>(negative_values.size()));
  std::string query_text = sparql::ToSparql(history_.back().query);
  obs::QueryRecord rec;
  rec.op = obs::QueryOp::kSessionExclude;
  rec.freeze_epoch = store_->freeze_epoch();
  rec.fingerprint = obs::FingerprintQuery(query_text);
  util::Result<NegativeResult> excluded =
      ExcludeNegativeExamples(reolap_, history_.back(), negative_values);
  if (!excluded.ok()) {
    AppendInteraction(rec, excluded.status(), /*rows=*/0,
                      timer.ElapsedMillis(), std::move(query_text));
    return excluded.status();
  }
  NegativeResult result = std::move(excluded).value();
  history_.push_back(std::move(result.state));
  pending_refinements_.clear();
  InvalidateResults();
  ++stats_.interactions;
  ++stats_.cumulative_paths;
  RecordInteraction(timer.ElapsedMillis());
  AppendInteraction(rec, util::Status::OK(), result.unmatched_values.size(),
                    timer.ElapsedMillis(), std::move(query_text));
  return result.unmatched_values;
}

util::Status Session::Slice(size_t example_index) {
  if (history_.empty()) {
    return util::Status::InvalidArgument("no current query; call Start/Pick");
  }
  util::WallTimer timer;
  obs::Span span("session.slice");
  span.SetAttr("example", static_cast<uint64_t>(example_index));
  std::string query_text = sparql::ToSparql(history_.back().query);
  obs::QueryRecord rec;
  rec.op = obs::QueryOp::kSessionSlice;
  rec.freeze_epoch = store_->freeze_epoch();
  rec.fingerprint = obs::FingerprintQuery(query_text);
  util::Result<ExploreState> sliced =
      SliceToExample(*store_, history_.back(), example_index);
  if (!sliced.ok()) {
    AppendInteraction(rec, sliced.status(), /*rows=*/0, timer.ElapsedMillis(),
                      std::move(query_text));
    return sliced.status();
  }
  history_.push_back(std::move(sliced).value());
  pending_refinements_.clear();
  InvalidateResults();
  ++stats_.interactions;
  ++stats_.cumulative_paths;
  RecordInteraction(timer.ElapsedMillis());
  AppendInteraction(rec, util::Status::OK(), /*rows=*/0,
                    timer.ElapsedMillis(), std::move(query_text));
  return util::Status::OK();
}

void Session::Back() {
  if (history_.size() > 1) {
    history_.pop_back();
    pending_refinements_.clear();
    InvalidateResults();
  }
}

// SnapshotSession's special members live out of line because the struct is
// declared before Session is complete (it holds a unique_ptr<Session>).
SnapshotSession::SnapshotSession() = default;
SnapshotSession::SnapshotSession(SnapshotSession&&) noexcept = default;
SnapshotSession& SnapshotSession::operator=(SnapshotSession&&) noexcept =
    default;
SnapshotSession::~SnapshotSession() = default;

util::Status Session::SaveSnapshot(
    const std::string& path,
    const storage::SnapshotWriteOptions& options) const {
  if (text_ == nullptr || vsg_ == nullptr) {
    return util::Status::InvalidArgument(
        "Session::SaveSnapshot needs the text index and schema graph; use "
        "engine().SaveSnapshot() for a store-only image");
  }
  storage::VsgImage image = storage::MakeVsgImage(*vsg_);
  return storage::SaveSnapshot(path, *store_, text_, &image, options);
}

util::Result<SnapshotSession> Session::OpenSnapshot(
    const std::string& path, const storage::SnapshotLoadOptions& options,
    engine::EngineConfig engine_config) {
  RE2X_ASSIGN_OR_RETURN(storage::LoadedSnapshot data,
                        storage::LoadSnapshot(path, options));
  if (data.text == nullptr || !data.vsg.has_value()) {
    return util::Status::InvalidArgument(
        "snapshot lacks the text-index and/or schema-graph sections a "
        "session needs; load it with storage::LoadSnapshot or "
        "engine::QueryEngine::OpenSnapshot instead");
  }
  SnapshotSession out;
  out.data = std::move(data);
  RE2X_ASSIGN_OR_RETURN(
      VirtualSchemaGraph graph,
      VirtualSchemaGraph::FromParts(std::move(out.data.vsg->nodes),
                                    std::move(out.data.vsg->edges),
                                    std::move(out.data.vsg->measures),
                                    std::move(out.data.vsg->observation_attrs)));
  out.vsg = std::make_unique<VirtualSchemaGraph>(std::move(graph));
  out.data.vsg.reset();  // parts were consumed by FromParts
  out.session = std::make_unique<Session>(out.data.store.get(), out.vsg.get(),
                                          out.data.text.get(), engine_config);
  return out;
}

}  // namespace re2xolap::core
