#include "service/server.hpp"

#include <signal.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "util/conn_set.hpp"

namespace sfly::service {

namespace {

// A connection stops being read while this many of its requests are
// unanswered: running, or answered into an outbox it has not drained.
constexpr std::size_t kMaxUnanswered = 256;

struct Conn : net::Link {
  std::size_t inflight = 0;  // dispatched; the answer is not queued yet
  std::size_t queued = 0;    // answers queued since the outbox last drained
};

}  // namespace

struct Server::Impl {
  net::ConnSet<Conn> set;
  std::atomic<bool> running{false};
  // Answers the pool's workers hand to the loop thread, by connection id.
  std::mutex posted_mu;
  std::vector<std::pair<std::uint64_t, std::string>> posted;
};

Server::Server(QueryEngine& queries, std::uint16_t port)
    : queries_(queries), port_(port), impl_(new Impl) {}

Server::~Server() { stop(); }

bool Server::running() const { return impl_->running.load(); }

bool Server::start() {
  ::signal(SIGPIPE, SIG_IGN);
  if (!impl_->set.listen(port_, port_)) return false;
  impl_->running.store(true);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void Server::stop() {
  if (impl_->running.exchange(false)) impl_->set.wake();
  if (thread_.joinable()) thread_.join();
}

void Server::loop() {
  auto& im = *impl_;
  const auto on_frame = [&](Conn& c, net::Frame& f,
                            const std::string& refusal) {
    // A refused frame gets its reason; the set closes the link once it
    // is flushed.
    if (!refusal.empty())
      return c.queue(net::FrameType::kData, error_response(0, refusal));
    switch (f.type) {
      case net::FrameType::kData:
        // handle() never throws, so a poisonous request costs exactly
        // one error frame; the worker posts it for this thread to write.
        c.paused = ++c.inflight + c.queued >= kMaxUnanswered;
        queries_.engine().pool().submit(
            [&im, &qe = queries_, id = c.id,
             request = std::move(f.payload)] {
              std::string response = qe.handle(request);
              std::unique_lock lock(im.posted_mu);
              const bool first = im.posted.empty();
              im.posted.emplace_back(id, std::move(response));
              lock.unlock();
              if (first) im.set.wake();
            });
        return;
      case net::FrameType::kHello:
        return c.queue(net::FrameType::kWelcome, net::welcome_payload({}));
      case net::FrameType::kHeartbeat:
        return c.queue(net::FrameType::kHeartbeat, "");
      case net::FrameType::kStop:
      case net::FrameType::kBye:
        c.dead = true;
        return;
      default:
        return;
    }
  };
  std::vector<std::pair<std::uint64_t, std::string>> answers;
  const auto queue_answers = [&] {
    {
      std::lock_guard lock(im.posted_mu);
      answers.swap(im.posted);
    }
    auto& conns = im.set.conns();
    for (auto& [id, response] : answers) {
      const auto it = conns.find(id);
      if (it == conns.end()) continue;  // closed meanwhile
      --it->second.inflight;
      ++it->second.queued;
      it->second.queue(net::FrameType::kData, response);
    }
    answers.clear();
    for (auto& [id, c] : conns) {
      if (c.unsent() == 0) c.queued = 0;
      c.paused = c.inflight + c.queued >= kMaxUnanswered;
    }
  };
  while (im.running.load() && im.set.poll(-1, on_frame)) {
    queue_answers();
    im.set.sweep([](Conn&) {});
  }
  // Drain in-flight queries: once serving, they are all the engine's pool
  // runs.  Their answers get one write attempt before every socket closes.
  queries_.engine().pool().wait();
  queue_answers();
  im.set.clear();
  im.set.close_listener();
}

}  // namespace sfly::service
