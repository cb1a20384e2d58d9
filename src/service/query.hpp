#pragma once
// Service query engine (docs/SERVICE.md §Query kinds).
//
// One QueryEngine wraps one engine::Engine and answers flat-JSON requests
// through a per-kind handler registry:
//
//   route — walk one src->dst packet under minimal/Valiant/UGAL over
//           distance rows (routing/distance_rows.hpp): rows of the cached
//           tables at or below the exact threshold, one BFS per
//           destination above it or over a failed-link overlay;
//   sim   — evaluate one SimScenario through Engine::evaluate and
//           return the journaled SimResult row verbatim, so a service
//           answer is byte-identical to the batch/bench answer;
//   rank  — score registered topologies for a job size via the existing
//           structure + spectral metrics;
//   stats — daemon counters (queries, errors, artifact footprints, and
//           the table, next-hop and cell build counters the
//           warm-restart checks assert on).
//
// handle() never throws: a malformed or throwing query becomes an
// {"ok":false,"error":...} response, which the server forwards as an
// error frame without dropping the connection or the daemon.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "engine/engine.hpp"
#include "util/json.hpp"

namespace sfly::service {

class QueryEngine {
 public:
  explicit QueryEngine(engine::EngineConfig cfg = {});

  /// Parse a textual topology spec (topo::parse_topology) and register it
  /// with the engine's artifact cache; returns the canonical name.
  /// Already-registered names are left untouched (idempotent).
  std::string register_spec(const std::string& spec);

  /// The wrapped engine (snapshot load / save paths go through its
  /// artifact cache).
  [[nodiscard]] engine::Engine& engine() { return engine_; }

  /// Answer one request.  `request` is one flat JSON object with a
  /// numeric "id" and a "kind"; the response echoes the id and carries
  /// either the kind's payload with "ok":true or "ok":false plus "error".
  /// Thread-safe and non-throwing.
  [[nodiscard]] std::string handle(const std::string& request);

  [[nodiscard]] std::uint64_t queries() const { return queries_.load(); }
  [[nodiscard]] std::uint64_t errors() const { return errors_.load(); }

 private:
  using Handler =
      std::function<std::string(const JsonObject&, std::uint64_t id)>;

  [[nodiscard]] std::string handle_route(const JsonObject& q, std::uint64_t id);
  [[nodiscard]] std::string handle_sim(const JsonObject& q, std::uint64_t id);
  [[nodiscard]] std::string handle_rank(const JsonObject& q, std::uint64_t id);
  [[nodiscard]] std::string handle_stats(const JsonObject& q, std::uint64_t id);

  engine::Engine engine_;
  std::map<std::string, Handler> handlers_;  // kind -> handler
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> errors_{0};
};

/// {"id":N,"ok":false,"error":"..."} — shared by QueryEngine and the
/// server's pre-dispatch rejections (bad frame type, version skew).
[[nodiscard]] std::string error_response(std::uint64_t id,
                                         const std::string& message);

}  // namespace sfly::service
