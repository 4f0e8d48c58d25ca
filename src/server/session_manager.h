#ifndef RE2XOLAP_SERVER_SESSION_MANAGER_H_
#define RE2XOLAP_SERVER_SESSION_MANAGER_H_

// Server-side exploration-session registry: maps opaque session ids to
// core::Session instances (all sharing the server's one QueryEngine),
// serializes concurrent requests onto the same session, bounds the total
// session count, and evicts sessions that sit idle past a TTL — the
// per-session state half of the front door's robustness story (the
// admission-control half lives in server.cc).

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/session.h"
#include "util/result.h"

namespace re2xolap::server {

/// One server-held exploration session. Handlers lock `mu` for the
/// duration of a request touching the session: a core::Session is a
/// single explorer's state machine, so two requests racing on one id
/// serialize instead of corrupting the exploration history.
struct ServerSession {
  std::mutex mu;
  core::Session session;
  /// Updated (under the manager lock) on every successful Acquire.
  std::chrono::steady_clock::time_point last_used;

  template <typename... Args>
  explicit ServerSession(Args&&... args)
      : session(std::forward<Args>(args)...),
        last_used(std::chrono::steady_clock::now()) {}
};

class SessionManager {
 public:
  /// `max_sessions` bounds resident sessions (Create beyond it fails with
  /// kResourceExhausted — the caller sheds); `idle_millis` is the
  /// eviction TTL (0 = never evict).
  SessionManager(size_t max_sessions, uint64_t idle_millis)
      : max_sessions_(max_sessions), idle_millis_(idle_millis) {}

  /// Creates a session over the shared dataset + engine and returns its
  /// id ("s-<n>", unique per manager).
  util::Result<std::string> Create(const rdf::TripleStore* store,
                                   const core::VirtualSchemaGraph* vsg,
                                   const rdf::TextIndex* text,
                                   engine::QueryEngine* engine);

  /// Looks up a session and refreshes its idle clock. The returned
  /// shared_ptr keeps the session alive even if eviction races the
  /// request; callers must lock `->mu` before touching `->session`.
  util::Result<std::shared_ptr<ServerSession>> Acquire(const std::string& id);

  /// Removes a session; kNotFound when the id is unknown (or already
  /// evicted). In-flight requests holding the shared_ptr finish safely.
  util::Status Remove(const std::string& id);

  /// Evicts every session idle longer than the TTL; returns how many.
  /// Called periodically from the server's acceptor loop.
  size_t EvictIdle();

  size_t size() const;

 private:
  const size_t max_sessions_;
  const uint64_t idle_millis_;

  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::unordered_map<std::string, std::shared_ptr<ServerSession>> sessions_;
};

}  // namespace re2xolap::server

#endif  // RE2XOLAP_SERVER_SESSION_MANAGER_H_
