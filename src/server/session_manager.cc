#include "server/session_manager.h"

#include <vector>

#include "obs/metrics.h"

namespace re2xolap::server {

namespace {

obs::Counter& CreatedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("server.sessions_created");
  return c;
}

obs::Counter& EvictedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("server.sessions_evicted");
  return c;
}

obs::Gauge& ActiveGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("server.sessions_active");
  return g;
}

}  // namespace

util::Result<std::string> SessionManager::Create(
    const rdf::TripleStore* store, const core::VirtualSchemaGraph* vsg,
    const rdf::TextIndex* text, engine::QueryEngine* engine) {
  if (vsg == nullptr || text == nullptr) {
    return util::Status::InvalidArgument(
        "this server was started without the schema-graph/text-index "
        "sections sessions need (store-only snapshot); /query remains "
        "available");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= max_sessions_) {
    return util::Status::ResourceExhausted(
        "session limit of " + std::to_string(max_sessions_) + " reached");
  }
  std::string id = "s-" + std::to_string(next_id_++);
  sessions_.emplace(
      id, std::make_shared<ServerSession>(store, vsg, text, engine));
  CreatedCounter().Inc();
  ActiveGauge().Set(static_cast<double>(sessions_.size()));
  return id;
}

util::Result<std::shared_ptr<ServerSession>> SessionManager::Acquire(
    const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return util::Status::NotFound("unknown session \"" + id +
                                  "\" (expired or never created)");
  }
  it->second->last_used = std::chrono::steady_clock::now();
  return it->second;
}

util::Status SessionManager::Remove(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return util::Status::NotFound("unknown session \"" + id + "\"");
  }
  sessions_.erase(it);
  ActiveGauge().Set(static_cast<double>(sessions_.size()));
  return util::Status::OK();
}

size_t SessionManager::EvictIdle() {
  if (idle_millis_ == 0) return 0;
  const auto now = std::chrono::steady_clock::now();
  // Collect victims under the lock but destroy them outside it: a
  // session's destructor is not cheap (engine cache handles, history).
  std::vector<std::shared_ptr<ServerSession>> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
          now - it->second->last_used);
      if (static_cast<uint64_t>(idle.count()) > idle_millis_) {
        victims.push_back(std::move(it->second));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    ActiveGauge().Set(static_cast<double>(sessions_.size()));
  }
  EvictedCounter().Inc(victims.size());
  return victims.size();
}

size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace re2xolap::server
