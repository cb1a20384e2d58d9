#include "service/server.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

#include "util/net.hpp"

namespace sfly::service {

namespace {

// Per-connection state.  Reads happen only on the poll loop; response
// writes happen on worker threads under `write_mu` (send_frame writes the
// whole frame before releasing, so frames never interleave).  The struct
// is shared_ptr-held by both the loop's fd table and in-flight tasks, so
// a connection that drops mid-query stays valid until its last response
// write fails harmlessly against the closed fd.
struct Conn {
  int fd = -1;
  net::FrameReader reader;
  bool greeted = false;   // HELLO seen and accepted
  bool closing = false;   // loop dropped it; workers must not write
  std::mutex write_mu;
  std::uint32_t seq_out = 0;

  bool send(net::FrameType type, const std::string& payload) {
    std::unique_lock lock(write_mu);
    if (closing || fd < 0) return false;
    return net::send_frame(fd, type, seq_out++, payload);
  }
};

}  // namespace

struct Server::Impl {
  int listen_fd = -1;
  int wake_fd = -1;  // eventfd: stop() pokes the poll loop
  std::atomic<bool> running{false};
  std::vector<std::shared_ptr<Conn>> conns;
};

Server::Server(QueryEngine& queries, std::uint16_t port)
    : queries_(queries), port_(port), impl_(new Impl) {}

Server::~Server() { stop(); }

bool Server::running() const { return impl_->running.load(); }

bool Server::start() {
  ::signal(SIGPIPE, SIG_IGN);
  impl_->listen_fd = net::tcp_listen(port_, port_);
  if (impl_->listen_fd < 0) return false;
  impl_->wake_fd = ::eventfd(0, EFD_CLOEXEC);
  if (impl_->wake_fd < 0) {
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    return false;
  }
  impl_->running.store(true);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void Server::stop() {
  if (!impl_->running.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (impl_->wake_fd >= 0) {
    const std::uint64_t one = 1;
    (void)!::write(impl_->wake_fd, &one, sizeof one);
  }
  if (thread_.joinable()) thread_.join();
  // Closed only here, after the join: stop() writes to it above, and a
  // close in the loop could let that write land on a recycled descriptor.
  if (impl_->wake_fd >= 0) ::close(impl_->wake_fd);
  impl_->wake_fd = -1;
}

void Server::loop() {
  auto& im = *impl_;
  while (im.running.load()) {
    std::vector<pollfd> fds;
    fds.push_back({im.listen_fd, POLLIN, 0});
    fds.push_back({im.wake_fd, POLLIN, 0});
    for (const auto& c : im.conns) fds.push_back({c->fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), 500) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!im.running.load()) break;

    // Connections accepted below grow im.conns past what this poll
    // round covered; remember the polled prefix so the read loop never
    // indexes fds[] with a connection poll() never saw.
    const std::size_t polled = im.conns.size();

    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(im.listen_fd, nullptr, nullptr);
      if (fd >= 0) {
        auto c = std::make_shared<Conn>();
        c->fd = fd;
        im.conns.push_back(std::move(c));
      }
    }
    if (fds[1].revents & POLLIN) {
      std::uint64_t n = 0;
      (void)!::read(im.wake_fd, &n, sizeof n);
    }

    // Read every signaled connection; the first 2 pollfds are the listen
    // socket and the wake eventfd, so conn i maps to fds[i + 2].
    for (std::size_t i = 0; i < polled; ++i) {
      auto& c = im.conns[i];
      const short ev = fds[i + 2].revents;
      if (!ev) continue;
      bool drop = (ev & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      if (ev & POLLIN) {
        char buf[64 * 1024];
        const ssize_t n = ::read(c->fd, buf, sizeof buf);
        if (n <= 0 && !(n < 0 && (errno == EAGAIN || errno == EINTR))) {
          drop = true;
        } else if (n > 0) {
          c->reader.feed(buf, static_cast<std::size_t>(n));
          net::Frame f;
          while (!drop && c->reader.next(f)) {
            switch (f.type) {
              case net::FrameType::kHello: {
                int version = 0;
                std::string role;
                if (!net::parse_hello(f.payload, version, role)) {
                  (void)c->send(net::FrameType::kData,
                                error_response(0, "malformed HELLO"));
                  drop = true;
                } else if (version != net::kProtocolVersion) {
                  // Version skew: tell the peer both versions, then close.
                  (void)c->send(
                      net::FrameType::kData,
                      error_response(0, "protocol version skew: peer v" +
                                            std::to_string(version) +
                                            ", daemon v" +
                                            std::to_string(net::kProtocolVersion)));
                  drop = true;
                } else {
                  c->greeted = true;
                  net::Welcome w;
                  (void)c->send(net::FrameType::kWelcome,
                                net::welcome_payload(w));
                }
                break;
              }
              case net::FrameType::kData: {
                if (!c->greeted) {
                  (void)c->send(net::FrameType::kData,
                                error_response(0, "DATA before HELLO"));
                  drop = true;
                  break;
                }
                // Dispatch; the worker owns the response write.  handle()
                // never throws, so a poisonous request costs exactly one
                // error frame.
                auto conn = c;
                std::string request = std::move(f.payload);
                queries_.engine().pool().submit(
                    [conn, request = std::move(request), &qe = queries_] {
                      (void)conn->send(net::FrameType::kData, qe.handle(request));
                    });
                break;
              }
              case net::FrameType::kHeartbeat:
                (void)c->send(net::FrameType::kHeartbeat, "");
                break;
              case net::FrameType::kStop:
              case net::FrameType::kBye:
                drop = true;
                break;
              default:
                break;
            }
          }
          if (c->reader.corrupt()) drop = true;
        }
      }
      if (drop) {
        std::unique_lock lock(c->write_mu);
        c->closing = true;
        ::close(c->fd);
        c->fd = -1;
      }
    }
    std::erase_if(im.conns, [](const auto& c) { return c->closing; });
  }

  // Drain in-flight queries (their response writes hit closing fds at
  // worst), then close everything.  Once serving, queries are all the
  // engine's pool runs, so waiting for it to go idle drains them.
  queries_.engine().pool().wait();
  for (auto& c : im.conns) {
    std::unique_lock lock(c->write_mu);
    c->closing = true;
    if (c->fd >= 0) ::close(c->fd);
    c->fd = -1;
  }
  im.conns.clear();
  if (im.listen_fd >= 0) ::close(im.listen_fd);
  im.listen_fd = -1;
}

}  // namespace sfly::service
