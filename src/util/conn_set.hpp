#pragma once
/// \file conn_set.hpp
/// The framed-connection set that both servers of the wire protocol
/// (util/net.hpp) run on: sflyd's query front end (service/server.hpp)
/// and the fleet parent (engine/transport_tcp.hpp).
///
/// One thread owns the set and all its fds, every one non-blocking: the
/// listen socket, a wake eventfd (wake() is the one thread-safe call),
/// accepted sockets (TCP_NODELAY) and adopted ones (socketpair ends).
/// poll() accepts, writes each outbox as far as its socket takes it,
/// reads into each FrameReader and hands every frame to the caller.  It
/// checks each HELLO against kProtocolVersion and refuses DATA before a
/// good HELLO; a refused link closes once its outbox is flushed, so the
/// caller may queue a reason first.  Callers derive their connection
/// type from Link and keep their own state there.  A paused link is not
/// read, and its buffered frames wait, until the caller unpauses it.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/net.hpp"

namespace sfly::net {

/// The set's part of one connection.
struct Link {
  int fd = -1;
  std::uint64_t id = 0;  ///< unique within the set, increasing
  FrameReader frames;
  std::string outbox;    ///< queued frames; the first `sent` bytes are out
  std::size_t sent = 0;
  std::uint32_t seq_out = 0;  ///< seq of the next queued frame
  bool greeted = false;       ///< a HELLO passed the version check
  std::string role;           ///< the role its last HELLO named
  bool paused = false;        ///< caller: read and pop nothing for now
  bool close_when_flushed = false;
  bool dead = false;          ///< closed by the next sweep
  bool hup = false;           ///< the peer closed (vs. we gave up)

  [[nodiscard]] std::size_t unsent() const { return outbox.size() - sent; }
  [[nodiscard]] bool reading() const {
    return !dead && !hup && !paused && !close_when_flushed;
  }

  /// Append one frame (seq = seq_out++) and write what the socket takes.
  void queue(FrameType type, std::string_view payload) {
    if (dead) return;
    // Written bytes are dropped once they are the larger part, so each
    // byte moves at most once however slowly the peer reads.
    if (sent > outbox.size() / 2) {
      outbox.erase(0, sent);
      sent = 0;
    }
    append_frame(outbox, type, seq_out++, payload);
    flush();
  }

  /// Write until the socket would block; a write error kills the link.
  void flush() {
    while (sent < outbox.size()) {
      const ssize_t w = ::write(fd, outbox.data() + sent, outbox.size() - sent);
      if (w < 0 && errno == EINTR) continue;
      if (w < 0) {
        dead = dead || (errno != EAGAIN && errno != EWOULDBLOCK);
        return;
      }
      sent += static_cast<std::size_t>(w);
    }
    outbox.clear();
    sent = 0;
  }
};

/// The connection set over a caller's link type C (derived from Link).
template <class C>
class ConnSet {
 public:
  ConnSet() : wake_fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {}
  ~ConnSet() {
    clear();
    close_listener();
    ::close(wake_fd_);
  }
  ConnSet(const ConnSet&) = delete;
  ConnSet& operator=(const ConnSet&) = delete;

  /// Bind + listen via tcp_listen (port file included); false if unbound.
  [[nodiscard]] bool listen(std::uint16_t port, std::uint16_t& bound_port) {
    listen_fd_ = tcp_listen(port, bound_port);
    if (listen_fd_ >= 0) ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
    return listen_fd_ >= 0;
  }
  void close_listener() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
  }
  /// Make the owner's current or next poll() return.  Thread-safe.
  void wake() {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof one);
  }

  /// Adopt a connected fd.
  C& adopt(int fd) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    const std::uint64_t id = next_id_++;
    C& c = conns_[id];
    c.fd = fd;
    c.id = id;
    return c;
  }
  /// Every connection not yet swept, oldest first.
  [[nodiscard]] std::map<std::uint64_t, C>& conns() { return conns_; }

  /// Deliver frames buffered on links no longer paused, wait up to
  /// timeout_ms (-1 = until something happens), then accept, flush, read,
  /// and hand each frame to on_frame(C&, Frame&, refusal).  A non-empty
  /// refusal says why the set refused the frame (a bad or version-skewed
  /// HELLO, DATA before HELLO); the link then closes once flushed.  False
  /// if poll() failed.
  template <class F>
  [[nodiscard]] bool poll(int timeout_ms, F&& on_frame) {
    std::vector<pollfd> fds{{listen_fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
    std::vector<C*> links;
    for (auto& [id, c] : conns_) {
      deliver(c, on_frame);
      short ev = c.unsent() ? POLLOUT : 0;
      if (c.reading()) ev |= POLLIN;
      fds.push_back({c.dead ? -1 : c.fd, ev, 0});
      links.push_back(&c);
    }
    const int pr = ::poll(fds.data(), fds.size(), timeout_ms);
    if (pr < 0 && errno != EINTR) return false;
    if (pr <= 0) return true;
    if (fds[1].revents & POLLIN) {
      std::uint64_t n = 0;
      (void)!::read(wake_fd_, &n, sizeof n);
    }
    while (fds[0].revents & POLLIN) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) break;
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      adopt(fd);
    }
    for (std::size_t i = 0; i < links.size(); ++i) {
      C& c = *links[i];
      const short ev = fds[i + 2].revents;
      if ((ev & (POLLOUT | POLLERR | POLLHUP)) && c.unsent()) c.flush();
      // A paused link is not read, so an error or hangup ends it here.
      if (c.paused && (ev & (POLLERR | POLLHUP))) c.hup = true;
      while ((ev & (POLLIN | POLLERR | POLLHUP)) && c.reading() &&
             read_some(c.fd, c.frames, c.hup))
        deliver(c, on_frame);
      deliver(c, on_frame);
    }
    return true;
  }

  /// Close and erase every dead link and every flushed close_when_flushed
  /// one, calling on_close(C&) once its fd is closed.
  template <class F>
  void sweep(F&& on_close) {
    for (auto it = conns_.begin(); it != conns_.end();) {
      C& c = it->second;
      c.dead = c.dead || (c.close_when_flushed && c.unsent() == 0);
      if (!c.dead) {
        ++it;
        continue;
      }
      ::close(c.fd);
      c.fd = -1;
      on_close(c);
      it = conns_.erase(it);
    }
  }

  /// Close every connection.
  void clear() {
    for (auto& [id, c] : conns_) c.dead = true;
    sweep([](C&) {});
  }

 private:
  template <class F>
  static void deliver(C& c, F& on_frame) {
    Frame f;
    std::string refusal;
    while (!c.dead && !c.close_when_flushed) {
      if (c.paused || !c.frames.next(f)) {
        // Past its last frame, a closed or corrupt stream is done.
        c.dead = c.hup || c.frames.corrupt();
        return;
      }
      refusal.clear();
      int version = 0;
      if (f.type == FrameType::kHello) {
        if (!parse_hello(f.payload, version, c.role))
          refusal = "malformed HELLO";
        else if (version != kProtocolVersion)
          refusal.assign("protocol version skew: peer v")
              .append(std::to_string(version))
              .append(", daemon v")
              .append(std::to_string(kProtocolVersion));
        c.greeted = c.greeted || refusal.empty();
      } else if (f.type == FrameType::kData && !c.greeted) {
        refusal = "DATA before HELLO";
      }
      c.close_when_flushed = !refusal.empty();
      on_frame(c, f, refusal);
    }
  }

  int listen_fd_ = -1;
  int wake_fd_ = -1;
  std::map<std::uint64_t, C> conns_;
  std::uint64_t next_id_ = 1;
};

}  // namespace sfly::net
