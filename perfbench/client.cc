// perfbench_client: the load generator, validator and traced in-process
// replay of the end-to-end benchmark (run it through run.py, which builds
// it, boots the server and turns this program's output into metrics).
//
//   perfbench_client prepare <observations> <out.snap>
//       Generates the Eurostat-shaped cube (qb::Generate, fixed generator
//       seed), bootstraps the schema graph and text index, and writes one
//       snapshot image holding all three.
//
//   perfbench_client run --workload explore|hot_query|live_ingest
//       --seed N --seconds T --port P --image PATH --trace 0|1 --out DIR
//       Opens the image in process to derive the workload's inputs from
//       the seed, drives the server on 127.0.0.1:P for T seconds (trace 1:
//       T/2 untraced, then T/2 with client spans on), validates every
//       response, and with trace 1 replays the workload in process with a
//       span around each call into a layer's public functions. Writes
//       DIR/result.json, DIR/metrics_*.txt (GET /metrics before the
//       warm-up and after the untraced window) and, with trace 1,
//       DIR/spans.jsonl.
//
// The server receives only the image and the requests; no flag tells it
// which workload runs. Load threads: at most 4, one keep-alive connection
// each.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/session.h"
#include "core/virtual_schema_graph.h"
#include "engine/query_engine.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "qb/datasets.h"
#include "qb/generator.h"
#include "rdf/ntriples.h"
#include "rdf/text_index.h"
#include "rdf/triple_store.h"
#include "server/http_client.h"
#include "server/server.h"
#include "sparql/ast.h"
#include "sparql/executor.h"
#include "sparql/parser.h"
#include "sparql/plan.h"
#include "storage/snapshot.h"
#include "store/ingestor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace re2xolap;
using Clock = std::chrono::steady_clock;

constexpr size_t kPoolSize = 32;
constexpr size_t kObservationsPerBatch = 8;
constexpr double kBatchesPerSecond = 20;
constexpr uint64_t kHttpTimeoutMillis = 60'000;
constexpr char kFreshIriBase[] = "http://perfbench.example/ingested/";

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

uint64_t Mix(uint64_t a, uint64_t b) {
  util::Rng rng(a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL));
  return rng.Next();
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and request id, plus counts recorded at
// the same boundary. Kept in memory and written out when the run ends.

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::vector<std::pair<std::string, double>> attrs;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// One open span; records itself into the tracer when it ends. A scope
  /// from a disabled tracer (or a null one) records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, uint64_t parent, uint64_t request)
        : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
      if (tracer_ == nullptr) return;
      span_.id = tracer_->next_id_.fetch_add(1) + 1;
      span_.parent = parent;
      span_.request = request;
      span_.name = std::move(name);
      span_.start = Clock::now();
    }
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    uint64_t id() const { return span_.id; }
    void Attr(const std::string& key, double value) {
      if (tracer_ != nullptr) span_.attrs.emplace_back(key, value);
    }
    /// Ends the span now (idempotent) and returns its duration in ms.
    double End() {
      if (tracer_ == nullptr) return 0;
      span_.end = Clock::now();
      const double ms = MillisBetween(span_.start, span_.end);
      tracer_->Record(std::move(span_));
      tracer_ = nullptr;
      return ms;
    }

   private:
    Tracer* tracer_;
    Span span_;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      char times[96];
      std::snprintf(times, sizeof(times),
                    "\"start_us\": %.3f, \"end_us\": %.3f", Micros(s.start),
                    Micros(s.end));
      out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << ", \"name\": \"" << s.name
          << "\", " << times << ", \"attrs\": {";
      for (size_t i = 0; i < s.attrs.size(); ++i) {
        char value[32];
        std::snprintf(value, sizeof(value), "%.10g", s.attrs[i].second);
        out << (i > 0 ? ", " : "") << "\"" << s.attrs[i].first
            << "\": " << value;
      }
      out << "}}\n";
    }
  }

 private:
  void Record(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  const Clock::time_point epoch_;
  bool enabled_ = false;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Response checks.

/// Strict JSON syntax check (RFC 8259 grammar, no semantic checks).
class JsonChecker {
 public:
  static bool Valid(std::string_view s) {
    JsonChecker c(s);
    c.Ws();
    if (!c.Value()) return false;
    c.Ws();
    return c.pos_ == s.size();
  }

 private:
  explicit JsonChecker(std::string_view s) : s_(s) {}
  bool Eof() const { return pos_ >= s_.size(); }
  char Peek() const { return Eof() ? '\0' : s_[pos_]; }
  void Ws() {
    while (!Eof() && (Peek() == ' ' || Peek() == '\n' || Peek() == '\r' ||
                      Peek() == '\t')) {
      ++pos_;
    }
  }
  bool Lit(std::string_view w) {
    if (s_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }
  bool Value() {
    if (++depth_ > 64) return false;
    bool ok = false;
    switch (Peek()) {
      case '{': ok = Object(); break;
      case '[': ok = Array(); break;
      case '"': ok = String(); break;
      case 't': ok = Lit("true"); break;
      case 'f': ok = Lit("false"); break;
      case 'n': ok = Lit("null"); break;
      default: ok = Number();
    }
    --depth_;
    return ok;
  }
  bool Object() {
    ++pos_;
    Ws();
    if (Peek() == '}') return ++pos_, true;
    for (;;) {
      Ws();
      if (!String()) return false;
      Ws();
      if (Peek() != ':') return false;
      ++pos_;
      Ws();
      if (!Value()) return false;
      Ws();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool Array() {
    ++pos_;
    Ws();
    if (Peek() == ']') return ++pos_, true;
    for (;;) {
      Ws();
      if (!Value()) return false;
      Ws();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (!Eof()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (Eof()) return false;
        const char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (Eof() || !std::isxdigit(static_cast<unsigned char>(Peek()))) {
              return false;
            }
            ++pos_;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool Number() {
    const size_t begin = pos_;
    if (Peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > begin;
  }

  std::string_view s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

/// The unsigned integer following `"key": ` in a server response, or -1.
int64_t JsonUint(std::string_view body, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const size_t at = body.find(needle);
  if (at == std::string_view::npos) return -1;
  int64_t v = 0;
  size_t i = at + needle.size();
  if (i >= body.size() || !std::isdigit(static_cast<unsigned char>(body[i]))) {
    return -1;
  }
  for (; i < body.size() && std::isdigit(static_cast<unsigned char>(body[i]));
       ++i) {
    v = v * 10 + (body[i] - '0');
  }
  return v;
}

/// Entries of the server's candidate / refinement lists.
size_t CountListEntries(std::string_view body) {
  size_t n = 0;
  for (size_t at = body.find("{\"index\": "); at != std::string_view::npos;
       at = body.find("{\"index\": ", at + 1)) {
    ++n;
  }
  return n;
}

/// The response without its per-execution "stats" object, which carries
/// timings and differs between a cold execution and a cache hit.
std::string_view WithoutStats(std::string_view body) {
  const size_t at = body.rfind(", \"stats\": {");
  return at == std::string_view::npos ? body : body.substr(0, at);
}

class Validation {
 public:
  void Check(bool ok, const std::string& what) {
    checks_.fetch_add(1);
    if (ok) return;
    failures_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 8) messages_.push_back(what);
  }
  uint64_t checks() const { return checks_.load(); }
  uint64_t failures() const { return failures_.load(); }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  std::atomic<uint64_t> checks_{0}, failures_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

// ---------------------------------------------------------------------------
// Workload inputs, all derived from the seed and the image.

struct Env {
  core::SnapshotSession snap;
  std::string observation_class;
  rdf::TermId type_pred = rdf::kInvalidTermId;
  rdf::TermId obs_class = rdf::kInvalidTermId;
  rdf::TermId label_pred = rdf::kInvalidTermId;

  rdf::TripleStore& store() { return *snap.data.store; }
};

/// The paper's workload recipe (Section 7.1, "we randomly selected
/// dimension members from each dimension and combined them"): values are
/// drawn from a random observation, for each of k distinct dimensions its
/// base member or, with probability 1/2 per hop, a hierarchy ancestor; the
/// example value is the member's label.
std::vector<std::string> SampleExampleTuple(Env& env, size_t k,
                                            util::Rng& rng) {
  const rdf::TripleStore& store = env.store();
  const core::VirtualSchemaGraph& vsg = *env.snap.vsg;
  auto typings = store.Match({rdf::kInvalidTermId, env.type_pred,
                              env.obs_class});
  if (typings.empty() || k == 0) return {};
  for (int attempt = 0; attempt < 64; ++attempt) {
    rdf::TermId obs = typings[rng.Uniform(typings.size())].s;
    std::vector<rdf::EncodedTriple> dims;
    for (const rdf::EncodedTriple& t :
         store.Match({obs, rdf::kInvalidTermId, rdf::kInvalidTermId})) {
      if (t.p == env.type_pred || !store.term(t.o).is_iri()) continue;
      dims.push_back(t);
    }
    if (dims.size() < k) continue;
    for (size_t i = 0; i < dims.size(); ++i) {
      std::swap(dims[i], dims[i + rng.Uniform(dims.size() - i)]);
    }
    std::vector<std::string> tuple;
    for (size_t i = 0; i < k; ++i) {
      rdf::TermId member = dims[i].o;
      for (int hop = 0; hop < 2 && rng.Bernoulli(0.5); ++hop) {
        std::vector<rdf::TermId> ups;
        for (const rdf::EncodedTriple& t : store.Match(
                 {member, rdf::kInvalidTermId, rdf::kInvalidTermId})) {
          if (store.term(t.o).is_iri() && !vsg.NodesOfMember(t.o).empty()) {
            ups.push_back(t.o);
          }
        }
        if (ups.empty()) break;
        member = ups[rng.Uniform(ups.size())];
      }
      std::string label;
      for (const rdf::EncodedTriple& t :
           store.Match({member, env.label_pred, rdf::kInvalidTermId})) {
        if (store.term(t.o).is_literal()) {
          label = store.term(t.o).value;
          break;
        }
      }
      if (label.empty()) break;
      tuple.push_back(label);
    }
    if (tuple.size() == k) return tuple;
  }
  return {};
}

/// Example tuple of session `index` (1 or 2 values; empty only when the
/// image has no labelled observations).
std::vector<std::string> SessionTuple(Env& env, uint64_t seed,
                                      uint64_t index) {
  util::Rng rng(Mix(seed, index));
  std::vector<std::string> tuple;
  for (int attempt = 0; attempt < 64 && tuple.empty(); ++attempt) {
    tuple = SampleExampleTuple(env, 1 + rng.Uniform(2), rng);
  }
  return tuple;
}

struct PoolQuery {
  std::string text;
  size_t rows = 0;  // row count of an in-process execution on the image
};

/// kPoolSize distinct ReOLAP-synthesized candidate queries. The
/// candidates of seeded example tuples whose materialized result fits an
/// eighth of one result-cache shard are sorted by that size and cut into
/// kPoolSize strata; the seed picks one query per stratum. Every seed thus
/// gets a pool with the same spread of result sizes, and the whole pool
/// fits one shard, so no eviction can occur and one warm-up pass makes
/// every later request a cache hit.
std::vector<PoolQuery> SynthesizePool(Env& env, uint64_t seed,
                                      util::ThreadPool* pool) {
  const engine::EngineConfig engine_defaults;
  const size_t shard_bytes =
      engine_defaults.result_cache_bytes / engine_defaults.result_cache_shards;
  struct Candidate {
    size_t cost = 0;
    std::string text;
    size_t rows = 0;
  };
  std::vector<Candidate> eligible;
  std::set<std::string> seen;
  core::ReolapOptions options;
  options.pool = pool;
  for (uint64_t t = 0;
       t < 4096 && (t < 512 || eligible.size() < kPoolSize);) {
    std::vector<std::string> fresh;
    for (const uint64_t end = t + 64; t < end; ++t) {
      auto candidates = env.snap.session->Start(
          SessionTuple(env, Mix(seed, 0x9001), t), options);
      if (!candidates.ok()) continue;
      for (const core::CandidateQuery& c : *candidates) {
        std::string text = sparql::ToSparql(c.query);
        if (seen.insert(text).second) fresh.push_back(std::move(text));
      }
    }
    std::vector<Candidate> executed(fresh.size());
    pool->ParallelFor(fresh.size(), [&](size_t i) {
      auto table = sparql::ExecuteText(env.store(), fresh[i]);
      executed[i].cost = SIZE_MAX;
      if (!table.ok()) return;
      executed[i] = {engine::EstimateTableCost(*table), std::move(fresh[i]),
                     table->row_count()};
    });
    for (Candidate& c : executed) {
      if (c.cost <= shard_bytes / 8) eligible.push_back(std::move(c));
    }
  }
  std::sort(eligible.begin(), eligible.end(),
            [](const Candidate& a, const Candidate& b) {
              return std::tie(a.cost, a.text) < std::tie(b.cost, b.text);
            });
  std::vector<PoolQuery> out;
  if (eligible.size() < kPoolSize) return out;
  auto stratum_begin = [&](size_t j) {
    return j * eligible.size() / kPoolSize;
  };
  auto distance = [](size_t a, size_t b) { return a > b ? a - b : b - a; };
  util::Rng pick(Mix(seed, 0x9002));
  std::vector<size_t> chosen(kPoolSize);
  size_t pool_cost = 0, target = 0;
  for (size_t j = 0; j < kPoolSize; ++j) {
    const size_t lo = stratum_begin(j), hi = stratum_begin(j + 1);
    chosen[j] = lo + pick.Uniform(hi - lo);
    pool_cost += eligible[chosen[j]].cost;
    size_t stratum_cost = 0;
    for (size_t i = lo; i < hi; ++i) stratum_cost += eligible[i].cost;
    target += stratum_cost / (hi - lo);
  }
  // The heaviest strata dominate serving cost; re-pick them, heaviest
  // first, to bring the pool's total to the sum of the strata means.
  for (size_t j = kPoolSize; j-- > 0;) {
    for (size_t i = stratum_begin(j); i < stratum_begin(j + 1); ++i) {
      const size_t alt = pool_cost - eligible[chosen[j]].cost + eligible[i].cost;
      if (distance(alt, target) < distance(pool_cost, target)) {
        pool_cost = alt;
        chosen[j] = i;
      }
    }
  }
  for (size_t i : chosen) {
    out.push_back({std::move(eligible[i].text), eligible[i].rows});
  }
  if (pool_cost > shard_bytes) out.clear();
  return out;
}

/// N-Triples for `count` new observations, each a copy of a seeded
/// existing observation's edges under a fresh IRI.
std::string IngestBatch(Env& env, uint64_t seed, uint64_t batch,
                        size_t* statements) {
  const rdf::TripleStore& store = env.store();
  auto typings =
      store.Match({rdf::kInvalidTermId, env.type_pred, env.obs_class});
  util::Rng rng(Mix(seed ^ 0x17E57, batch));
  std::string text;
  for (size_t i = 0; i < kObservationsPerBatch; ++i) {
    const rdf::TermId source = typings[rng.Uniform(typings.size())].s;
    const std::string fresh = "<" + std::string(kFreshIriBase) + "s" +
                              std::to_string(seed) + "/b" +
                              std::to_string(batch) + "/o" +
                              std::to_string(i) + ">";
    for (const rdf::EncodedTriple& t :
         store.Match({source, rdf::kInvalidTermId, rdf::kInvalidTermId})) {
      text += fresh + " " + rdf::ToNTriples(store.term(t.p)) + " " +
              rdf::ToNTriples(store.term(t.o)) + " .\n";
      ++*statements;
    }
  }
  return text;
}

// ---------------------------------------------------------------------------
// HTTP load.

struct Population {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // completion time, seconds into the phase
  uint64_t ok = 0;
  uint64_t failed = 0;

  void Merge(const Population& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
    ok += o.ok;
    failed += o.failed;
  }
};

/// Cumulative CPU ticks of the whole machine (first line of /proc/stat):
/// all states, and steal, the time the hypervisor ran something else.
struct CpuSample {
  double t = 0;  // seconds into the phase
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuSample ReadCpu(double t) {
  CpuSample sample{t, 0, 0};
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  for (int i = 0; i < 8 && stat; ++i) {  // user .. steal
    uint64_t v = 0;
    stat >> v;
    sample.total += v;
    if (i == 7) sample.steal = v;
  }
  return sample;
}

struct PhaseResult {
  bool traced = false;
  double wall_s = 0;
  std::vector<CpuSample> cpu;
  Population requests;  // the workload's request population
  Population sessions;  // explore: whole sessions
  Population ingest;    // live_ingest: ack latency from the scheduled time
  double writer_late_ms_max = 0;
  double sampler_late_ms_max = 0;  // the main thread's 100 ms CPU samples
  uint64_t chain_depth_max = 0;
  uint64_t acked_observations = 0;
};

struct LoadGenerator {
  Env* env = nullptr;
  std::string workload;
  uint64_t seed = 0;
  uint16_t port = 0;
  Validation* validation = nullptr;
  Tracer* tracer = nullptr;
  std::vector<PoolQuery> pool;
  std::vector<std::string> reference_bodies;  // hot_query, per pool query
  std::atomic<uint64_t> next_session{0};
  std::atomic<uint64_t> next_request{1};
  std::atomic<uint64_t> next_batch{0};
  Clock::time_point phase_start;

  double SecondsIntoPhase() const {
    return MillisBetween(phase_start, Clock::now()) / 1000.0;
  }

  /// One timed request; a transport error or non-2xx counts as failed.
  bool Call(server::HttpClient& client, Population& pop, const char* method,
            const std::string& target, const std::string& body,
            uint64_t parent, uint64_t request, std::string* out) {
    Tracer::Scope span(tracer,
                       tracer->enabled()
                           ? std::string("http ") + method + " " +
                                 RouteName(target)
                           : std::string(),
                       parent, request);
    const auto start = Clock::now();
    auto resp = client.Request(method, target, body);
    const double ms = MillisBetween(start, Clock::now());
    if (!resp.ok() || resp->status < 200 || resp->status >= 300) {
      ++pop.failed;
      validation->Check(
          false, std::string(method) + " " + target + ": " +
                     (resp.ok() ? std::to_string(resp->status) + " " +
                                      resp->body.substr(0, 200)
                                : resp.status().ToString()));
      return false;
    }
    span.Attr("bytes", static_cast<double>(resp->body.size()));
    ++pop.ok;
    pop.latency_ms.push_back(ms);
    pop.done_s.push_back(SecondsIntoPhase());
    *out = std::move(resp->body);
    return true;
  }

  static std::string RouteName(const std::string& target) {
    std::string path = target.substr(0, target.find('?'));
    if (path.rfind("/session/", 0) == 0) {
      const size_t slash = path.find('/', 9);
      return slash == std::string::npos ? "/session/<id>"
                                        : "/session/<id>" + path.substr(slash);
    }
    return path;
  }

  /// One full exploration session (explore workload), Fig. 8c shape:
  /// ReOLAP, then Disaggregate, TopK and Similarity refinements.
  void Session(server::HttpClient& client, PhaseResult& r) {
    const uint64_t index = next_session.fetch_add(1);
    const std::vector<std::string> tuple = SessionTuple(*env, seed, index);
    util::Rng rng(Mix(seed ^ 0x5E55, index));
    Tracer::Scope session_span(tracer, "explore.session", 0, index + 1);
    const uint64_t sid = session_span.id();
    const uint64_t req = index + 1;
    const auto start = Clock::now();
    const uint64_t failed_before = r.requests.failed;
    std::string body;
    bool ok = Call(client, r.requests, "POST", "/session", "", sid, req, &body);
    validation->Check(!ok || JsonChecker::Valid(body), "/session: bad JSON");
    const size_t at = body.find("\"session\": \"");
    if (!ok || at == std::string::npos) {
      ++r.sessions.failed;
      return;
    }
    const std::string id =
        body.substr(at + 12, body.find('"', at + 12) - (at + 12));
    const std::string base = "/session/" + id;
    auto step = [&](const char* method, const std::string& target,
                    const std::string& payload) {
      std::string resp;
      const bool done =
          Call(client, r.requests, method, target, payload, sid, req, &resp);
      if (done) {
        validation->Check(JsonChecker::Valid(resp),
                          target + ": response is not valid JSON");
      }
      return done ? resp : std::string();
    };
    std::string examples;
    for (const std::string& v : tuple) examples += v + "\n";
    const size_t candidates =
        CountListEntries(step("POST", base + "/start", examples));
    validation->Check(candidates >= 1,
                      "session " + std::to_string(index) +
                          " yielded no candidate for " + examples);
    if (candidates >= 1) {
      step("POST",
           base + "/pick?index=" + std::to_string(rng.Uniform(candidates)),
           "");
      step("POST", base + "/execute", "");
      for (const char* kind : {"disaggregate", "topk", "similarity"}) {
        const size_t options = CountListEntries(
            step("POST", base + "/refine?kind=" + kind, ""));
        if (options == 0) continue;
        step("POST",
             base + "/pick_refinement?index=" +
                 std::to_string(rng.Uniform(options)),
             "");
        step("POST", base + "/execute", "");
      }
    }
    step("DELETE", base, "");
    session_span.End();
    if (r.requests.failed == failed_before && candidates >= 1) {
      ++r.sessions.ok;
      r.sessions.latency_ms.push_back(MillisBetween(start, Clock::now()));
      r.sessions.done_s.push_back(SecondsIntoPhase());
    } else {
      ++r.sessions.failed;
    }
  }

  /// One /query over the pool; with references (hot_query) the body must
  /// equal the warm-up body byte for byte, otherwise its row count must
  /// equal the in-process execution on the frozen image.
  void Query(server::HttpClient& client, size_t i, PhaseResult& r) {
    const PoolQuery& q = pool[i % pool.size()];
    const uint64_t req = next_request.fetch_add(1);
    std::string body;
    if (!Call(client, r.requests, "POST", "/query", q.text, 0, req, &body)) {
      return;
    }
    if (!reference_bodies.empty()) {
      validation->Check(body == reference_bodies[i % pool.size()],
                        "pool query " + std::to_string(i % pool.size()) +
                            ": body differs from its warm-up body");
    } else {
      validation->Check(
          JsonChecker::Valid(body) &&
              JsonUint(body, "row_count") == static_cast<int64_t>(q.rows),
          "pool query " + std::to_string(i % pool.size()) +
              ": row count differs from the frozen image");
    }
  }

  /// Open-loop writer: batch k is due at start + k / kBatchesPerSecond.
  void Writer(server::HttpClient& client, Clock::time_point start,
              Clock::time_point deadline, PhaseResult& r) {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kBatchesPerSecond));
    for (uint64_t k = 0;; ++k) {
      const Clock::time_point due = start + period * static_cast<int64_t>(k);
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      r.writer_late_ms_max =
          std::max(r.writer_late_ms_max, MillisBetween(due, Clock::now()));
      const uint64_t batch = next_batch.fetch_add(1);
      size_t statements = 0;
      const std::string text = IngestBatch(*env, seed, batch, &statements);
      const uint64_t req = next_request.fetch_add(1);
      Tracer::Scope span(tracer, "http POST /ingest", 0, req);
      auto resp = client.Post("/ingest", text);
      const double ms = MillisBetween(due, Clock::now());
      span.End();
      if (!resp.ok() || resp->status != 200) {
        ++r.ingest.failed;
        validation->Check(false, "ingest batch " + std::to_string(batch) +
                                     ": " +
                                     (resp.ok() ? resp->body
                                                : resp.status().ToString()));
        continue;
      }
      validation->Check(
          JsonUint(resp->body, "added") == static_cast<int64_t>(statements),
          "ingest batch " + std::to_string(batch) + ": not every statement "
                                                    "was added");
      ++r.ingest.ok;
      r.ingest.latency_ms.push_back(ms);
      r.ingest.done_s.push_back(SecondsIntoPhase());
      r.acked_observations += kObservationsPerBatch;
      const int64_t depth = JsonUint(resp->body, "chain_depth");
      if (depth > 0) {
        r.chain_depth_max =
            std::max(r.chain_depth_max, static_cast<uint64_t>(depth));
      }
    }
  }

  /// Closed-loop clients (plus the open-loop writer on live_ingest) for
  /// `seconds`; requests in flight at the deadline complete and count.
  PhaseResult Phase(double seconds, bool traced) {
    tracer->set_enabled(traced);
    PhaseResult r;
    r.traced = traced;
    const bool live = workload == "live_ingest";
    // hot_query runs 2 clients: its cache hits leave the server CPU-bound
    // on rendering, and 4 clients saturate a 4-CPU machine, which on a
    // shared host draws hypervisor steal and doubles run-to-run spread.
    const size_t clients = live ? 3 : workload == "hot_query" ? 2 : 4;
    std::vector<PhaseResult> per(clients + (live ? 1 : 0));
    const auto start = Clock::now();
    phase_start = start;
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::atomic<size_t> running{per.size()};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        server::HttpClient client("127.0.0.1", port, kHttpTimeoutMillis);
        size_t i = t * (kPoolSize / clients);
        while (Clock::now() < deadline) {
          if (workload == "explore") {
            Session(client, per[t]);
          } else {
            Query(client, i++, per[t]);
          }
        }
        running.fetch_sub(1);
      });
    }
    if (live) {
      threads.emplace_back([&] {
        server::HttpClient client("127.0.0.1", port, kHttpTimeoutMillis);
        Writer(client, start, deadline, per.back());
        running.fetch_sub(1);
      });
    }
    // The main thread only samples the machine's CPU accounting, every
    // 100 ms; how late it wakes measures the client process's own health.
    for (Clock::time_point due = start; running.load() > 0;
         due += std::chrono::milliseconds(100)) {
      std::this_thread::sleep_until(due);
      r.sampler_late_ms_max =
          std::max(r.sampler_late_ms_max, MillisBetween(due, Clock::now()));
      r.cpu.push_back(ReadCpu(SecondsIntoPhase()));
    }
    for (std::thread& th : threads) th.join();
    r.cpu.push_back(ReadCpu(SecondsIntoPhase()));
    r.wall_s = MillisBetween(start, Clock::now()) / 1000.0;
    for (const PhaseResult& p : per) {
      r.requests.Merge(p.requests);
      r.sessions.Merge(p.sessions);
      r.ingest.Merge(p.ingest);
      r.writer_late_ms_max = std::max(r.writer_late_ms_max,
                                      p.writer_late_ms_max);
      r.chain_depth_max = std::max(r.chain_depth_max, p.chain_depth_max);
      r.acked_observations += p.acked_observations;
    }
    tracer->set_enabled(false);
    return r;
  }
};

bool Scrape(uint16_t port, const std::string& path) {
  server::HttpClient client("127.0.0.1", port, kHttpTimeoutMillis);
  auto resp = client.Get("/metrics");
  if (!resp.ok() || resp->status != 200) return false;
  std::ofstream(path) << resp->body;
  return true;
}

// ---------------------------------------------------------------------------
// Traced in-process replay.

/// Parse, plan, execute (profiled) and render one query text, one span
/// per layer call, all sharing request id `request`.
double ReplayQuery(Env& env, const std::string& text, uint64_t request,
                   Tracer* tracer) {
  static obs::Counter& blocks = obs::MetricsRegistry::Global().GetCounter(
      "store.index.blocks_decoded");
  Tracer::Scope top(tracer, "replay.query", 0, request);
  Tracer::Scope parse_span(tracer, "sparql.parse", top.id(), request);
  auto query = sparql::ParseQuery(text);
  parse_span.End();
  if (!query.ok()) return 0;
  Tracer::Scope plan_span(tracer, "sparql.plan", top.id(), request);
  auto plan = sparql::PlanQuery(env.store(), *query);
  plan_span.End();
  if (!plan.ok()) return 0;
  sparql::ExecOptions options;
  options.profile = true;
  sparql::ExecStats stats;
  const uint64_t blocks_before = blocks.value();
  Tracer::Scope exec_span(tracer, "sparql.exec", top.id(), request);
  auto table = sparql::Execute(env.store(), *query, *plan, options, &stats);
  if (!table.ok()) return 0;
  // Root "select": children are plan, the join (with its scan chain),
  // then aggregate and post-ops; the join is the child after "plan".
  double join_ms = 0, aggregate_ms = 0;
  for (size_t c = 0; c < stats.profile.children.size(); ++c) {
    const obs::ProfileNode& n = stats.profile.children[c];
    if (c == 1) join_ms = n.millis;
    if (n.label.rfind("aggregate", 0) == 0) aggregate_ms = n.millis;
  }
  exec_span.Attr("rows", static_cast<double>(table->row_count()));
  exec_span.Attr("scanned", static_cast<double>(stats.triples_scanned));
  exec_span.Attr("join_ms", join_ms);
  exec_span.Attr("aggregate_ms", aggregate_ms);
  exec_span.Attr("blocks_decoded",
                 static_cast<double>(blocks.value() - blocks_before));
  exec_span.End();
  Tracer::Scope render_span(tracer, "sparql.render", top.id(), request);
  size_t bytes = 0;
  for (size_t r = 0; r < table->row_count(); ++r) {
    for (size_t c = 0; c < table->columns().size(); ++c) {
      bytes += table->CellToString(table->at(r, c)).size();
    }
  }
  render_span.Attr("rows", static_cast<double>(table->row_count()));
  render_span.Attr("bytes", static_cast<double>(bytes));
  render_span.End();
  return top.End();
}

/// Replays explore sessions 0.. in process (same tuples and picks as the
/// HTTP run) with spans around each core::Session call and each text
/// index lookup, until `budget_ms` is spent; returns the query texts the
/// sessions executed, in order.
std::vector<std::string> ReplaySessions(Env& env, uint64_t seed,
                                        double budget_ms, Tracer* tracer) {
  static obs::Counter& probes =
      obs::MetricsRegistry::Global().GetCounter("reolap.probes");
  std::vector<std::string> executed;
  // A fresh session and engine: pool synthesis warmed the image's own.
  core::Session s(&env.store(), env.snap.vsg.get(), env.snap.data.text.get());
  const auto start = Clock::now();
  for (uint64_t index = 0;
       index < 1 || MillisBetween(start, Clock::now()) < budget_ms; ++index) {
    const std::vector<std::string> tuple = SessionTuple(env, seed, index);
    util::Rng rng(Mix(seed ^ 0x5E55, index));
    const uint64_t req = index + 1;
    Tracer::Scope session_span(tracer, "replay.session", 0, req);
    for (const std::string& v : tuple) {
      Tracer::Scope lookup(tracer, "rdf.text_lookup", session_span.id(), req);
      lookup.Attr("matches",
                  static_cast<double>(env.snap.data.text->Match(v).size()));
    }
    const uint64_t probes_before = probes.value();
    Tracer::Scope start_span(tracer, "core.session.start", session_span.id(),
                             req);
    auto candidates = s.Start(tuple);
    if (!candidates.ok() || candidates->empty()) continue;
    start_span.Attr("candidates", static_cast<double>(candidates->size()));
    start_span.Attr("probes",
                    static_cast<double>(probes.value() - probes_before));
    start_span.End();
    auto execute = [&] {
      Tracer::Scope span(tracer, "core.session.execute", session_span.id(),
                         req);
      if (s.Execute().ok()) {
        executed.push_back(sparql::ToSparql(s.current().query));
      }
    };
    if (!s.PickCandidate(rng.Uniform(candidates->size())).ok()) continue;
    execute();
    const std::pair<core::RefinementKind, const char*> kinds[] = {
        {core::RefinementKind::kDisaggregate, "exref.disaggregate"},
        {core::RefinementKind::kTopK, "exref.topk"},
        {core::RefinementKind::kSimilarity, "exref.similarity"}};
    for (const auto& [kind, name] : kinds) {
      Tracer::Scope refine_span(tracer, name, session_span.id(), req);
      auto options = s.Refine(kind);
      refine_span.End();
      if (!options.ok() || options->empty()) continue;
      if (!s.PickRefinement(rng.Uniform(options->size())).ok()) continue;
      execute();
    }
  }
  return executed;
}

/// Cold execution time of `texts` against the store's current state.
double TimeQueries(Env& env, const std::vector<std::string>& texts) {
  const auto start = Clock::now();
  for (const std::string& text : texts) {
    rdf::TripleStore::ReadPin pin(env.store());
    (void)sparql::ExecuteText(env.store(), text);
  }
  return MillisBetween(start, Clock::now());
}

/// Live-store layers in process: ingest batches, cold reads on a chain of
/// depth 4 and right after compaction (each against the frozen image),
/// and one compaction of a 256-layer chain. Runs last: it turns the
/// image's store live.
void ReplayLive(Env& env, uint64_t seed,
                const std::vector<std::string>& probe_queries,
                util::ThreadPool* pool, Tracer* tracer) {
  std::vector<double> frozen;
  for (int i = 0; i < 3; ++i) frozen.push_back(TimeQueries(env, probe_queries));
  std::sort(frozen.begin(), frozen.end());
  const double frozen_ms = frozen[1];

  env.store().EnterLive();
  store::IngestorConfig config;
  config.auto_compact = false;
  store::Ingestor ingestor(&env.store(), pool, config);
  uint64_t batch = 1u << 20;  // disjoint from the HTTP writer's batches
  auto ingest = [&](int layers) {
    for (int i = 0; i < layers; ++i) {
      size_t statements = 0;
      const std::string text = IngestBatch(env, seed, batch++, &statements);
      Tracer::Scope span(tracer, "store.ingest", 0, 0);
      auto receipt =
          ingestor.IngestText(text, store::IngestOp::kInsert, nullptr);
      span.Attr("statements", static_cast<double>(statements));
      if (receipt.ok()) {
        span.Attr("chain_depth", static_cast<double>(receipt->chain_depth));
      }
    }
  };
  auto slowdown = [&](const char* name) {
    Tracer::Scope span(tracer, name, 0, 0);
    span.Attr("frozen_ms", frozen_ms);
    span.Attr("live_ms", TimeQueries(env, probe_queries));
    span.Attr("chain_depth", static_cast<double>(env.store().chain_depth()));
  };
  ingest(4);
  slowdown("rdf.live_read.depth4");
  {
    Tracer::Scope span(tracer, "store.compact", 0, 0);
    (void)ingestor.Compact();
  }
  slowdown("rdf.live_read.compacted");
  ingest(256);
  Tracer::Scope span(tracer, "store.compact.depth256", 0, 0);
  span.Attr("chain_depth", static_cast<double>(env.store().chain_depth()));
  (void)ingestor.Compact();
}

// ---------------------------------------------------------------------------
// Output.

void WriteArray(std::ostream& out, const std::vector<double>& v) {
  out << "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.4f", v[i]);
    out << (i > 0 ? ", " : "") << buf;
  }
  out << "]";
}

void WritePopulation(std::ostream& out, const Population& p) {
  out << "{\"ok\": " << p.ok << ", \"failed\": " << p.failed
      << ", \"latency_ms\": ";
  WriteArray(out, p.latency_ms);
  out << ", \"done_s\": ";
  WriteArray(out, p.done_s);
  out << "}";
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// The defaults the program ships with, as this build resolves them.
std::string DefaultsJson() {
  const engine::EngineConfig engine;
  const server::ServerConfig server;
  const obs::QueryLog& query_log = obs::QueryLog::Global();
  return std::string("{\"executor\": ") +
         (sparql::DefaultExecutorKind() == sparql::ExecutorKind::kVolcano
              ? "\"volcano\""
              : "\"vectorized\"") +
         ", \"index_format\": " +
         (rdf::DefaultIndexFormat() == rdf::IndexFormat::kCompressed
              ? "\"compressed\""
              : "\"raw\"") +
         ", \"result_cache_bytes\": " +
         std::to_string(engine.result_cache_bytes) +
         ", \"plan_cache_capacity\": " +
         std::to_string(engine.plan_cache_capacity) +
         ", \"server_workers\": " + std::to_string(server.worker_threads) +
         ", \"server_queue\": " + std::to_string(server.queue_capacity) +
         ", \"query_log\": " + (query_log.enabled() ? "true" : "false") +
         ", \"query_log_ring\": " +
         std::to_string(query_log.config().ring_capacity) + "}";
}

int Usage() {
  std::cerr << "usage: perfbench_client prepare <observations> <out.snap>\n"
               "       perfbench_client run --workload W --seed N "
               "--seconds T --port P --image PATH --trace 0|1 --out DIR\n";
  return 2;
}

int Prepare(uint64_t observations, const std::string& out) {
  util::ThreadPool pool(util::ThreadPool::DefaultThreads());
  auto ds = qb::Generate(qb::EurostatSpec(observations), &pool);
  if (!ds.ok()) {
    std::cerr << "generate: " << ds.status() << "\n";
    return 1;
  }
  auto vsg = core::VirtualSchemaGraph::Build(*ds->store,
                                             ds->spec.observation_class);
  if (!vsg.ok()) {
    std::cerr << "schema graph: " << vsg.status() << "\n";
    return 1;
  }
  rdf::TextIndex text(*ds->store);
  const storage::VsgImage image = storage::MakeVsgImage(*vsg);
  storage::SnapshotWriteOptions options;
  options.pool = &pool;
  util::Status st =
      storage::SaveSnapshot(out, *ds->store, &text, &image, options);
  if (!st.ok()) {
    std::cerr << "save: " << st << "\n";
    return 1;
  }
  std::cerr << "prepared " << out << ": " << ds->store->size()
            << " triples\n";
  return 0;
}

int Run(const std::map<std::string, std::string>& args) {
  for (const char* key :
       {"--workload", "--seed", "--seconds", "--port", "--image", "--trace",
        "--out"}) {
    if (!args.count(key)) return Usage();
  }
  const std::string workload = args.at("--workload");
  if (workload != "explore" && workload != "hot_query" &&
      workload != "live_ingest") {
    std::cerr << "unknown workload " << workload << "\n";
    return 2;
  }
  const uint64_t seed = std::stoull(args.at("--seed"));
  const double seconds = std::stod(args.at("--seconds"));
  const bool trace = args.at("--trace") == "1";
  const std::string out_dir = args.at("--out");
  const uint16_t port = static_cast<uint16_t>(std::stoul(args.at("--port")));

  const auto epoch = Clock::now();
  Tracer tracer(epoch);
  tracer.set_enabled(trace);
  // Helper threads for loading and replay only; released while the load
  // runs, so the process drives the server with its load threads alone.
  auto pool = std::make_unique<util::ThreadPool>(
      util::ThreadPool::DefaultThreads());

  Env env;
  {
    storage::SnapshotLoadOptions load;
    load.use_mmap = true;
    load.pool = pool.get();
    Tracer::Scope span(&tracer, "storage.open_snapshot", 0, 0);
    auto snap = core::Session::OpenSnapshot(args.at("--image"), load);
    if (!snap.ok()) {
      std::cerr << "open " << args.at("--image") << ": " << snap.status()
                << "\n";
      return 1;
    }
    env.snap = std::move(snap).value();
    span.Attr("triples", static_cast<double>(env.store().size()));
    span.Attr("image_bytes", static_cast<double>(env.snap.data.info.file_bytes));
  }
  const rdf::TripleStore& store = env.store();
  env.type_pred = store.Lookup(rdf::Term::Iri(qb::kRdfType));
  env.label_pred = store.Lookup(rdf::Term::Iri(qb::kHasLabel));
  env.observation_class = qb::EurostatSpec(1).observation_class;
  env.obs_class = store.Lookup(rdf::Term::Iri(env.observation_class));
  const uint64_t base_observations =
      store.Match({rdf::kInvalidTermId, env.type_pred, env.obs_class}).size();

  Validation validation;
  LoadGenerator generator;
  generator.env = &env;
  generator.workload = workload;
  generator.seed = seed;
  generator.port = port;
  generator.validation = &validation;
  generator.tracer = &tracer;
  if (workload != "explore") {
    generator.pool = SynthesizePool(env, seed, pool.get());
    if (generator.pool.size() < kPoolSize) {
      std::cerr << "query pool: only " << generator.pool.size()
                << " queries synthesized\n";
      return 1;
    }
  }
  tracer.set_enabled(false);
  pool.reset();

  // The server-side window opens before the warm-up, so that hot_query's
  // cold executions count as the engine's misses.
  if (!Scrape(port, out_dir + "/metrics_before.txt")) {
    std::cerr << "GET /metrics failed\n";
    return 1;
  }
  uint64_t warmup_requests = 0;
  if (workload == "hot_query") {
    // Pass 1 fills the result cache (its bodies carry cold-execution
    // stats); pass 2 is served from the cache and is the reference.
    server::HttpClient client("127.0.0.1", port, kHttpTimeoutMillis);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < generator.pool.size(); ++i) {
        auto resp = client.Post("/query", generator.pool[i].text);
        ++warmup_requests;
        const bool ok = resp.ok() && resp->status == 200 &&
                        JsonChecker::Valid(resp->body) &&
                        JsonUint(resp->body, "row_count") ==
                            static_cast<int64_t>(generator.pool[i].rows);
        validation.Check(ok, "warm-up of pool query " + std::to_string(i) +
                                 " failed or row count differs from the "
                                 "frozen image");
        if (!ok) break;
        if (pass == 0) {
          generator.reference_bodies.push_back(resp->body);
        } else {
          validation.Check(WithoutStats(resp->body) ==
                               WithoutStats(generator.reference_bodies[i]),
                           "pool query " + std::to_string(i) +
                               ": cached rows differ from the cold rows");
          generator.reference_bodies[i] = resp->body;
        }
      }
    }
  }

  std::vector<PhaseResult> phases;
  const double untraced_s = trace ? seconds / 2 : seconds;
  phases.push_back(generator.Phase(untraced_s, false));
  if (!Scrape(port, out_dir + "/metrics_after.txt")) {
    std::cerr << "GET /metrics failed\n";
    return 1;
  }
  if (trace) phases.push_back(generator.Phase(seconds - untraced_s, true));

  uint64_t acked = 0;
  for (const PhaseResult& p : phases) acked += p.acked_observations;
  if (workload == "live_ingest") {
    // Every acknowledged observation must be visible, and nothing more.
    server::HttpClient client("127.0.0.1", port, kHttpTimeoutMillis);
    auto resp = client.Post(
        "/query", "SELECT (COUNT(?o) AS ?n) WHERE { ?o <" +
                      std::string(qb::kRdfType) + "> <" +
                      env.observation_class + "> . }");
    int64_t visible = -1;
    if (resp.ok() && resp->status == 200) {
      const size_t at = resp->body.find("\"rows\": [[");
      if (at != std::string::npos) {
        visible = std::atoll(resp->body.c_str() + at + 10);
      }
    }
    validation.Check(
        visible == static_cast<int64_t>(base_observations + acked),
        "COUNT of observations is " + std::to_string(visible) +
            ", expected " + std::to_string(base_observations) + " + " +
            std::to_string(acked) + " acknowledged");
  }

  if (trace) {
    pool = std::make_unique<util::ThreadPool>(
        util::ThreadPool::DefaultThreads());
    tracer.set_enabled(true);
    std::vector<std::string> texts;
    if (workload == "explore") {
      texts = ReplaySessions(env, seed, 3000, &tracer);
    } else {
      for (const PoolQuery& q : generator.pool) texts.push_back(q.text);
      ReplaySessions(env, seed, 1500, &tracer);
    }
    // Per-query frozen times pick the live-read probe: the cheapest
    // queries, so a 13-43x slowdown still fits the run.
    std::vector<std::pair<double, std::string>> timed;
    const auto replay_start = Clock::now();
    for (size_t i = 0; i < texts.size() &&
                       (i < 4 || MillisBetween(replay_start, Clock::now()) <
                                     4000);
         ++i) {
      timed.emplace_back(ReplayQuery(env, texts[i], i + 1, &tracer),
                         texts[i]);
    }
    std::sort(timed.begin(), timed.end());
    std::vector<std::string> probe;
    double probe_ms = 0;
    for (const auto& [ms, text] : timed) {
      if (!probe.empty() && (probe.size() == 4 || probe_ms + ms > 25)) break;
      probe.push_back(text);
      probe_ms += ms;
    }
    ReplayLive(env, seed, probe, pool.get(), &tracer);
    tracer.Write(out_dir + "/spans.jsonl");
  }

  uint64_t attempted = warmup_requests;
  uint64_t failed = validation.failures();
  for (const PhaseResult& p : phases) {
    attempted += p.requests.ok + p.requests.failed + p.ingest.ok +
                 p.ingest.failed;
  }
  std::ofstream out(out_dir + "/result.json");
  out << "{\"workload\": " << JsonString(workload) << ", \"seed\": " << seed
      << ", \"defaults\": " << DefaultsJson()
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"validation_checks\": " << validation.checks()
      << ", \"validation_messages\": [";
  const std::vector<std::string> messages = validation.messages();
  for (size_t i = 0; i < messages.size(); ++i) {
    out << (i > 0 ? ", " : "") << JsonString(messages[i]);
  }
  out << "], \"pool_queries\": " << generator.pool.size()
      << ", \"base_observations\": " << base_observations
      << ", \"phases\": [";
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& p = phases[i];
    out << (i > 0 ? ", " : "") << "{\"traced\": "
        << (p.traced ? "true" : "false") << ", \"wall_s\": " << p.wall_s
        << ", \"writer_late_ms_max\": " << p.writer_late_ms_max
        << ", \"sampler_late_ms_max\": " << p.sampler_late_ms_max
        << ", \"chain_depth_max\": " << p.chain_depth_max
        << ", \"acked_observations\": " << p.acked_observations
        << ", \"cpu\": [";
    for (size_t c = 0; c < p.cpu.size(); ++c) {
      out << (c > 0 ? ", " : "") << "[" << p.cpu[c].t << ", "
          << p.cpu[c].total << ", " << p.cpu[c].steal << "]";
    }
    out << "]"
        << ", \"requests\": ";
    WritePopulation(out, p.requests);
    out << ", \"sessions\": ";
    WritePopulation(out, p.sessions);
    out << ", \"ingest\": ";
    WritePopulation(out, p.ingest);
    out << "}";
  }
  out << "]}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "prepare" && argc == 4) {
    return Prepare(std::stoull(argv[2]), argv[3]);
  }
  if (cmd == "run" && argc % 2 == 0) {
    std::map<std::string, std::string> args;
    for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
    return Run(args);
  }
  return Usage();
}
