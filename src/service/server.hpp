#pragma once
// Concurrent socket front end for the query engine (docs/SERVICE.md
// §Protocol).
//
// Reuses the campaign transport's length-delimited frame protocol
// (util/net.hpp): a client connects, sends HELLO {"v":1,"role":"query"},
// receives WELCOME, then exchanges DATA frames — one flat-JSON request
// per frame, one flat-JSON response per frame, matched by the request's
// "id" (responses may complete out of order under concurrency).
//
// A poll loop owns every fd and does all reads; decoded requests are
// dispatched onto Engine::pool(), and each worker writes its response frame
// directly under a per-connection write mutex.  Per-query isolation is
// QueryEngine::handle's no-throw contract: a malformed or throwing query
// costs one error frame, never the connection or the daemon.  Version
// skew in HELLO gets an error frame and a close; a corrupt frame stream
// closes the connection (frames cannot be resynchronized).

#include <cstdint>
#include <memory>
#include <thread>

#include "service/query.hpp"

namespace sfly::service {

class Server {
 public:
  /// `queries` must outlive the server; `port` 0 binds an ephemeral one.
  explicit Server(QueryEngine& queries, std::uint16_t port = 0);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, honor SFLY_LISTEN_PORT_FILE, and start the accept/dispatch
  /// thread.  False if the port cannot be bound.
  [[nodiscard]] bool start();

  /// Bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Stop accepting, drain in-flight queries, close every connection,
  /// join the loop thread.  Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] bool running() const;

 private:
  struct Impl;
  void loop();

  QueryEngine& queries_;
  std::uint16_t port_;
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
};

}  // namespace sfly::service
