#pragma once
/// \file net.hpp
/// Socket + framing primitives for campaign dispatch (local socketpair
/// and cross-machine TCP fleets alike; docs/CAMPAIGNS.md §Distributed
/// runs) and the sflyd query service.
///
/// Every message rides inside a length-delimited frame, and a DATA
/// frame carries exactly one protocol line (a jsonl_meta header, a
/// {"slice":[lo,hi]} assignment, or a jsonl_row), unterminated:
///
///     [u32 length (BE)] [u8 type] [u32 seq (BE)] [payload bytes]
///
/// A socket can tear mid-byte, duplicate under a misbehaving middlebox,
/// or stall for seconds.  A torn frame is held by FrameReader until
/// completed and dropped at EOF — the framing-level twin of the
/// journal's truncate-the-torn-tail rule.  DATA frames carry a
/// per-sender monotonic sequence number so a duplicated frame is
/// detected and dropped before its payload can reach the row path.
/// Servers run their sockets on util/conn_set.hpp.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sfly::net {

/// Wire protocol version; HELLO/WELCOME must agree.  Version 2 made a
/// DATA frame exactly one protocol line, so v2 parents refuse v1
/// workers (whose frames could hold several newline-joined lines).
inline constexpr int kProtocolVersion = 2;

/// Exit code a --connect worker uses for "link lost, reconnect me"
/// (sfly_worker's supervisor loop re-dials on it).  Distinct from 75
/// (EX_TEMPFAIL, graceful budget stop) and 2 (stale declaration).
inline constexpr int kExitLinkLost = 76;

enum class FrameType : std::uint8_t {
  kHello = 1,      ///< first frame from any connector: {v, role}
  kWelcome = 2,    ///< parent's reply: lease/heartbeat/budget or exe+args
  kData = 3,       ///< protocol lines (headers, slices, rows, broadcasts)
  kHeartbeat = 4,  ///< lease keep-alive, both directions
  kStop = 5,       ///< worker -> parent: stopping gracefully (budget)
  kBye = 6,        ///< parent -> worker: fleet is done; EOF after it is
                   ///< graceful (exit 75), EOF without it a lost link
};

/// Largest payload a well-formed peer ever sends (a full-batch row
/// broadcast is a few MB at paper scale); anything larger is treated as
/// stream corruption, not data.
inline constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

inline constexpr std::size_t kFrameHeaderBytes = 9;  // len + type + seq

struct Frame {
  FrameType type = FrameType::kData;
  std::uint32_t seq = 0;
  std::string payload;
};

/// Append one serialized frame to `out`.
void append_frame(std::string& out, FrameType type, std::uint32_t seq,
                  std::string_view payload);

/// Serialize and write one frame, retrying on EINTR / partial writes.
/// Returns false on any write error (the connection is then dead).
[[nodiscard]] bool send_frame(int fd, FrameType type, std::uint32_t seq,
                              std::string_view payload);

/// Incremental frame decoder: feed() raw bytes, next() pops complete
/// frames in order.  A partial frame stays buffered (and is simply
/// dropped when the connection ends — torn frames never surface).  An
/// oversized length or unknown type marks the stream corrupt; corrupt()
/// streams must be treated as dead.
class FrameReader {
 public:
  void feed(const char* data, std::size_t n);
  /// Pop the next complete frame; false when none is buffered (or the
  /// stream is corrupt).
  [[nodiscard]] bool next(Frame& out);
  [[nodiscard]] bool corrupt() const { return corrupt_; }
  /// Bytes fed and not yet popped (diagnostics only).
  [[nodiscard]] std::size_t pending_bytes() const { return buf_.size() - read_; }

 private:
  std::string buf_;
  std::size_t read_ = 0;  // buf_[0, read_) is popped
  bool corrupt_ = false;
};

/// One read() of up to 64 KiB from `fd` into `fr`, retrying EINTR: true
/// if bytes arrived; false if none were ready, or with `closed` set at EOF
/// or on a socket error (a torn frame then never pops).
[[nodiscard]] bool read_some(int fd, FrameReader& fr, bool& closed);

/// Block (via poll) until one complete frame arrives on `fd`, feeding
/// `fr`; false on EOF, error, corruption, or after timeout_ms of
/// silence.  Handshake-sized helper for connectors (SocketChannel,
/// sfly_worker's probe).
[[nodiscard]] bool read_frame_blocking(int fd, Frame& out, FrameReader& fr,
                                       int timeout_ms);

/// "host:port" -> parts; false on malformed input (missing colon,
/// non-numeric or out-of-range port).
[[nodiscard]] bool parse_hostport(const std::string& spec, std::string& host,
                                  std::uint16_t& port);

/// Bind + listen on `port` (0 = ephemeral); returns the listening fd or
/// -1, storing the actual port in `bound_port`.  On success the port is
/// also written to the file named by $SFLY_LISTEN_PORT_FILE, if set.
[[nodiscard]] int tcp_listen(std::uint16_t port, std::uint16_t& bound_port);

/// One blocking connect attempt; -1 on failure.
[[nodiscard]] int tcp_connect(const std::string& host, std::uint16_t port);

/// Exponential backoff with deterministic jitter: delay before attempt
/// k (0-based) in milliseconds, growing base*2^k, capped, plus a
/// seed-derived jitter of up to half the step — so a rebooted fleet
/// does not reconnect in lockstep.
[[nodiscard]] std::uint64_t backoff_delay_ms(std::size_t attempt,
                                             std::uint64_t base_ms,
                                             std::uint64_t max_ms,
                                             std::uint64_t seed);

/// Dial host:port with backoff_delay_ms() pacing; up to `attempts`
/// tries.  Returns the connected fd or -1 once the budget is spent.
[[nodiscard]] int connect_with_backoff(const std::string& host,
                                       std::uint16_t port,
                                       std::size_t attempts,
                                       std::uint64_t base_ms,
                                       std::uint64_t max_ms,
                                       std::uint64_t seed);

// Handshake payloads are flat JSON written with json_quote and read with
// JsonObject (util/json.hpp), the codec the journal lines use.  A parse
// fails on malformed JSON, a missing required field, or an integer field
// that is not a whole number in int range.

/// HELLO payload: {"v":2,"role":"worker"|"probe"}
[[nodiscard]] std::string hello_payload(const std::string& role);
[[nodiscard]] bool parse_hello(const std::string& payload, int& version,
                               std::string& role);

/// WELCOME payload.  To a worker: lease/heartbeat intervals and the
/// remaining --max-seconds budget.  To a probe: the bench binary and
/// argv a joining machine should exec.  busy=true means every slot is
/// taken (the connector should back off and retry).
struct Welcome {
  int version = kProtocolVersion;
  bool busy = false;
  int lease_ms = 0;
  int heartbeat_ms = 0;
  double budget_seconds = 0;  ///< remaining --max-seconds (0 = no budget)
  std::string exe;            ///< probe reply: bench binary basename
  std::vector<std::string> args;  ///< probe reply: worker argv
};
[[nodiscard]] std::string welcome_payload(const Welcome& w);
[[nodiscard]] bool parse_welcome(const std::string& payload, Welcome& out);

}  // namespace sfly::net
