#include "util/net.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/json.hpp"

namespace sfly::net {

namespace {

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::write(fd, data, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>((v >> 24) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>(v & 0xff));
}

std::uint32_t get_u32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return (static_cast<std::uint32_t>(u[0]) << 24) |
         (static_cast<std::uint32_t>(u[1]) << 16) |
         (static_cast<std::uint32_t>(u[2]) << 8) |
         static_cast<std::uint32_t>(u[3]);
}

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kBye);
}

}  // namespace

bool send_frame(int fd, FrameType type, std::uint32_t seq,
                const std::string& payload) {
  if (payload.size() > kMaxFramePayload) return false;
  std::string buf;
  buf.reserve(kFrameHeaderBytes + payload.size());
  put_u32(buf, static_cast<std::uint32_t>(payload.size()));
  buf.push_back(static_cast<char>(type));
  put_u32(buf, seq);
  buf += payload;
  return write_all(fd, buf.data(), buf.size());
}

void FrameReader::feed(const char* data, std::size_t n) {
  if (corrupt_) return;
  buf_.append(data, n);
}

bool FrameReader::next(Frame& out) {
  if (corrupt_ || buf_.size() < kFrameHeaderBytes) return false;
  const std::uint32_t len = get_u32(buf_.data());
  const auto type = static_cast<std::uint8_t>(buf_[4]);
  if (len > kMaxFramePayload || !known_type(type)) {
    corrupt_ = true;
    return false;
  }
  if (buf_.size() < kFrameHeaderBytes + len) return false;
  out.type = static_cast<FrameType>(type);
  out.seq = get_u32(buf_.data() + 5);
  out.payload.assign(buf_, kFrameHeaderBytes, len);
  buf_.erase(0, kFrameHeaderBytes + len);
  return true;
}

bool read_frame_blocking(int fd, Frame& out, FrameReader& fr,
                         int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (fr.next(out)) return true;
    if (fr.corrupt()) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, static_cast<int>(left));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) return false;
    char buf[4096];
    const ssize_t rd = ::read(fd, buf, sizeof buf);
    if (rd < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    if (rd == 0) return false;
    fr.feed(buf, static_cast<std::size_t>(rd));
  }
}

bool parse_hostport(const std::string& spec, std::string& host,
                    std::uint16_t& port) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size())
    return false;
  const std::string p = spec.substr(colon + 1);
  char* end = nullptr;
  const unsigned long v = std::strtoul(p.c_str(), &end, 10);
  if (end != p.c_str() + p.size() || v == 0 || v > 65535) return false;
  host = spec.substr(0, colon);
  port = static_cast<std::uint16_t>(v);
  return true;
}

int tcp_listen(std::uint16_t port, std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  bound_port = ntohs(addr.sin_port);
  return fd;
}

int tcp_connect(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0)
    return -1;
  int fd = -1;
  for (addrinfo* ai = res; ai; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fd;
}

std::uint64_t backoff_delay_ms(std::size_t attempt, std::uint64_t base_ms,
                               std::uint64_t max_ms, std::uint64_t seed) {
  std::uint64_t step = base_ms;
  for (std::size_t i = 0; i < attempt && step < max_ms; ++i) step *= 2;
  if (step > max_ms) step = max_ms;
  // splitmix64 on (seed, attempt): deterministic per worker, decorrelated
  // across the fleet.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (attempt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const std::uint64_t jitter = step > 1 ? z % (step / 2 + 1) : 0;
  return step + jitter;
}

int connect_with_backoff(const std::string& host, std::uint16_t port,
                         std::size_t attempts, std::uint64_t base_ms,
                         std::uint64_t max_ms, std::uint64_t seed) {
  for (std::size_t k = 0; k < attempts; ++k) {
    const int fd = tcp_connect(host, port);
    if (fd >= 0) return fd;
    if (k + 1 == attempts) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff_delay_ms(k, base_ms, max_ms, seed)));
  }
  return -1;
}

std::string hello_payload(const std::string& role) {
  return "{\"v\":" + std::to_string(kProtocolVersion) +
         ",\"role\":" + json_quote(role) + "}";
}

bool parse_hello(const std::string& payload, int& version, std::string& role) {
  JsonObject j;
  return JsonObject::scan(payload, j) && j.get_uint("v", version) &&
         j.get_str("role", role);
}

std::string welcome_payload(const Welcome& w) {
  std::string out = "{\"v\":" + std::to_string(w.version);
  if (w.busy) out += ",\"busy\":1";
  if (w.lease_ms > 0) {
    out += ",\"lease_ms\":" + std::to_string(w.lease_ms);
    out += ",\"hb_ms\":" + std::to_string(w.heartbeat_ms);
  }
  if (w.budget_seconds > 0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, ",\"budget_s\":%.6f", w.budget_seconds);
    out += buf;
  }
  if (!w.exe.empty()) out += ",\"exe\":" + json_quote(w.exe);
  if (!w.args.empty()) {
    out += ",\"args\":[";
    for (std::size_t i = 0; i < w.args.size(); ++i) {
      if (i) out += ",";
      out += json_quote(w.args[i]);
    }
    out += "]";
  }
  out += "}";
  return out;
}

bool parse_welcome(const std::string& payload, Welcome& out) {
  // Optional fields default when absent; a present field of the wrong
  // type or out of range rejects the whole payload.
  JsonObject j;
  int busy = 0;
  out = Welcome{};
  const auto opt_int = [&](const char* key, int& v) {
    return !j.has(key) || j.get_uint(key, v);
  };
  if (!JsonObject::scan(payload, j) || !j.get_uint("v", out.version) ||
      !opt_int("busy", busy) || !opt_int("lease_ms", out.lease_ms) ||
      !opt_int("hb_ms", out.heartbeat_ms) ||
      (j.has("budget_s") && !j.get_f64("budget_s", out.budget_seconds)) ||
      (j.has("exe") && !j.get_str("exe", out.exe)) ||
      (j.has("args") && !j.get_str_array("args", out.args)))
    return false;
  out.busy = busy != 0;
  return std::isfinite(out.budget_seconds) && out.budget_seconds >= 0;
}

}  // namespace sfly::net
