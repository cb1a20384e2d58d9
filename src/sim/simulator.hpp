#pragma once
// Event-driven packet-level interconnect simulator — the repository's
// stand-in for SST/macro's SNAPPR network model (see DESIGN.md).
//
// Model: store-and-forward routers with per-output-port, per-VC FIFO
// queues; credit-based flow control against finite per-input-VC buffers;
// links with configurable bandwidth and latency; NIC injection/ejection
// ports with the same bandwidth.  The virtual-channel index increases on
// every network hop (Section V-A), which makes the channel dependency
// graph acyclic and the simulation deadlock-free when the VC pool is
// sized per routing::required_vcs.
//
// Hot-path structure (DESIGN.md §4): every hop goes through one
// forwarding rule, output_port, whose minimal pick is a bit select in the
// router pair's port-slot mask with the router's down-slot row masked out
// (zero while every port is up; no adjacency scan, no distance-matrix
// probes).  Every queue probe reads a per-port running byte counter (no
// per-VC sum, no lower_bound), and the per-VC FIFOs are intrusive
// singly-linked rings threaded through the pooled Packet records — after
// warm-up the event loop performs zero allocations per simulated event.
//
// Deferred no-op events (DESIGN.md §4): a port retry armed at a port with
// nothing queued would find every lane empty and only clear itself, and a
// credit return to an upstream port that cannot act on it would only add
// the credit.  Neither is pushed: it draws the seq it would have had and
// waits on its port (the retry in Port, the credit in the Packet that
// freed it).  A credit is pushed at once only to a severed port or to a
// credit-blocked one (bytes queued, idle, no retry pushed).  Every change
// to a port's state runs try_transmit on it, and one settle rule runs
// there: parked credits that have passed are applied before the lane
// scan; on exit, a credit-blocked port pushes every parked credit under
// its own (time, seq), and a busy one only those due exactly at
// busy_until with a seq below its pushed retry's, which would pop first
// and find it idle.  Every other parked credit would pop while the port
// is busy or empty, or after the port's next try_transmit, which settles
// again.  A credit that no rule claimed folds in at its packet's next
// event, which always comes later.  So every event that runs, runs at
// the same (time, seq) as if all had been pushed, and every result but
// events_processed() is unchanged.

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "graph/failures.hpp"
#include "graph/graph.hpp"
#include "routing/next_hop_index.hpp"
#include "routing/policy.hpp"
#include "routing/tables.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"

namespace sfly::sim {

struct SimConfig {
  double bandwidth_bytes_per_ns = 12.5;  // 100 Gb/s links
  double link_latency_ns = 50.0;
  double router_latency_ns = 100.0;
  double nic_latency_ns = 50.0;
  std::uint32_t concentration = 8;       // endpoints per router
  std::uint32_t vcs = 4;                 // virtual channels per port
  std::uint32_t vc_buffer_bytes = 16384; // per VC per input port (64 KB/port at 4 VCs)
  std::uint32_t packet_bytes = 4096;     // message segmentation unit
  routing::Algo algo = routing::Algo::kMinimal;
  std::uint64_t seed = 1;
};

using EndpointId = std::uint32_t;
using MessageId = std::uint32_t;

struct MessageRecord {
  EndpointId src = 0, dst = 0;
  std::uint32_t bytes = 0;
  double created_ns = 0.0;
  double delivered_ns = -1.0;
  std::uint64_t tag = 0;
};

class Simulator {
 public:
  /// Builds a private next-hop index from `tables` (one scan over every
  /// (router, dst) pair).  Callers that simulate the same topology many
  /// times should build the index once and use the sharing constructor.
  Simulator(const Graph& topo, const routing::Tables& tables, SimConfig cfg);

  /// Shares a prebuilt next-hop index (e.g. out of an engine::ArtifactCache
  /// or a core::Network); `index` must have been built over `topo`+`tables`.
  Simulator(const Graph& topo, const routing::Tables& tables,
            std::shared_ptr<const routing::NextHopIndex> index, SimConfig cfg);

  [[nodiscard]] std::uint32_t num_endpoints() const {
    return topo_.num_vertices() * cfg_.concentration;
  }
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }

  /// Schedule a message; `when` must be finite and >= now() (else
  /// std::invalid_argument). Returns the message id.
  MessageId send(EndpointId src, EndpointId dst, std::uint32_t bytes, double when,
                 std::uint64_t tag = 0);

  /// Called on each delivery (motifs react by issuing more sends).
  void set_delivery_callback(std::function<void(const MessageRecord&)> cb) {
    on_delivery_ = std::move(cb);
  }

  /// Process events until the queue drains, the next event lies past
  /// `until`, or `max_events` events have run.  Returns true if the queue
  /// drained (all traffic delivered).  Deferred no-op events never run:
  /// they count toward neither `max_events` nor events_processed(), and a
  /// stop at a finite `until` leaves now() at the last event that ran,
  /// which can be earlier than a deferred one's time.
  bool run(double until = std::numeric_limits<double>::infinity(),
           std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max());

  [[nodiscard]] const LatencyStats& message_latency() const { return latency_; }
  [[nodiscard]] const std::vector<MessageRecord>& messages() const { return msgs_; }
  [[nodiscard]] double completion_time() const { return completion_; }
  [[nodiscard]] std::uint64_t packets_forwarded() const { return packets_forwarded_; }
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }
  /// events_processed() split by EventKind (indexed by its value).
  [[nodiscard]] const std::array<std::uint64_t, kEventKinds>& events_by_kind() const {
    return events_by_kind_;
  }
  /// The retries (kTryTransmit) and credit returns among those events
  /// that forwarded no packet, indexed as events_by_kind(); every other
  /// kind reads 0.
  [[nodiscard]] const std::array<std::uint64_t, kEventKinds>& noops_by_kind() const {
    return noops_by_kind_;
  }

  /// Schedule a deterministic link/router churn timeline (DESIGN.md §7).
  /// Call before (or between) run()s; events land in the ordinary event
  /// queue.  When a link goes down its two directed ports stop
  /// transmitting and their queued packets re-route from the owning
  /// router (non-minimal hops when the minimal set is severed; counted
  /// drops with upstream-credit reconciliation when the destination is
  /// unreachable); recovery re-enables the ports.  A router-down event
  /// severs every incident link at once — local NIC injection/ejection
  /// keeps draining, so intra-router traffic survives.
  void inject_failures(const FailureSchedule& schedule);

  /// Packets diverted by churn: queued packets evacuated off a severed
  /// port plus per-hop decisions that left the pristine minimal set.
  [[nodiscard]] std::uint64_t packets_rerouted() const { return rerouted_; }
  /// Packets dropped because their destination router was unreachable in
  /// the live (post-churn) topology at decision time.
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }
  /// Messages with at least one dropped packet (never delivered).
  [[nodiscard]] std::uint64_t messages_undeliverable() const {
    return msgs_undeliverable_;
  }
  /// Fully delivered messages (each contributes one latency sample).
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return latency_.count();
  }
  /// Time of the first down event processed; +infinity when none fired.
  [[nodiscard]] double first_failure_ns() const { return first_failure_ns_; }
  /// Latency stats restricted to messages delivered at or after `t0` —
  /// the post-churn tail when t0 = first_failure_ns().
  [[nodiscard]] LatencyStats latency_since(double t0) const;

  /// Bytes currently queued across all VCs of the output port from
  /// `router` toward its neighbor `neighbor` — UGAL's congestion signal.
  /// O(1): a running per-port counter maintained by enqueue/dequeue (the
  /// vertex->port translation is the only remaining lookup; the simulator's
  /// own hot path addresses ports by slot and skips even that).
  [[nodiscard]] std::uint64_t queue_probe(Vertex router, Vertex neighbor) const;

  /// Test aid: checks the conservation invariants and throws
  /// std::logic_error naming the first broken one.  At any time, each
  /// port's queued-byte counter equals the bytes queued on its lanes; a
  /// port with bytes queued holds no deferred retry; a live port that is
  /// busy has a retry armed; a live credit-blocked port holds no parked
  /// credit, and a live port with bytes queued none due at busy_until
  /// with a seq below its retry's; each parked credit belongs to a live
  /// packet on exactly one port's list; each credit-limited lane's credit
  /// plus the bytes out of its buffer (parked credits, credit-return
  /// events, queued packets that arrived through it, packets in flight on
  /// its link) is exactly vc_buffer_bytes; and packets injected =
  /// delivered + dropped + live records.  Once the event queue is empty,
  /// nothing is deferred, every packet record is on the free list, and
  /// every message is delivered or marked failed.
  void audit() const;

  /// Per-network-link load: bytes forwarded over each directed router
  /// port.  The coefficient of variation quantifies hot links (the
  /// discrepancy property predicts a low CoV for SpectralFly).
  struct LinkLoad {
    double mean_bytes = 0.0;
    double max_bytes = 0.0;
    double cov = 0.0;  // stddev / mean over directed network ports
  };
  [[nodiscard]] LinkLoad link_load() const;

 private:
  static constexpr std::uint32_t kNoPort = 0xFFFFFFFF;
  static constexpr std::uint32_t kNil = 0xFFFFFFFF;  // intrusive-list null

  struct Packet {
    MessageId msg = 0;
    std::uint32_t bytes = 0;
    EndpointId dst_ep = 0;
    routing::PacketRoute route;
    std::uint8_t vc = 0;
    std::uint8_t hops = 0;
    // The port (and its VC) the packet arrived through, whose buffer it
    // holds: the target of its credit return.  Set on arrival, so while
    // the packet is in flight it still names the buffer it just left.
    std::uint8_t upstream_vc = 0;
    bool credit_deferred = false;  // that credit waits on upstream_port
    std::uint32_t upstream_port = kNoPort;
    // Intrusive link: the per-VC FIFO while queued, the upstream port's
    // deferred-credit list while in flight with credit_deferred.
    std::uint32_t next_in_q = kNil;
    double credit_time = 0.0;     // of a deferred credit
    std::uint64_t credit_seq = 0;
  };

  enum class Role : std::uint8_t { kNetwork, kInjection, kEjection };
  // kDeferred: armed at busy_until under retry_seq, but not pushed.
  enum class Retry : std::uint8_t { kNone, kPushed, kDeferred };

  struct Port {
    double busy_until = 0.0;
    std::uint64_t total_bytes = 0;    // queued bytes across VCs (queue_probe)
    std::uint64_t retry_seq = 0;      // of the armed retry, pushed or not
    Vertex to_router = 0;             // network and injection ports
    std::uint32_t credits = kNil;     // deferred-credit list head (packet id)
    std::uint32_t lane0 = 0;          // its first lane (see lane())
    std::uint16_t rr = 0;             // round-robin VC scan start
    Role role = Role::kEjection;
    Retry retry = Retry::kNone;       // at most one kTryTransmit per port
  };
  // A paper-scale run holds a port per directed link and endpoint in each
  // of its concurrent simulators: keep a port within five words.
  static_assert(sizeof(Port) == 40, "Port grew");

  void handle_inject(MessageId m);
  void handle_arrival(std::uint32_t pkt, std::uint32_t in_port);
  void try_transmit(std::uint32_t port);
  // Bytes queued, idle and no retry pushed: only a credit can unblock it.
  [[nodiscard]] bool credit_blocked(const Port& p) const {
    return p.total_bytes > 0 && now_ >= p.busy_until && p.retry != Retry::kPushed;
  }
  // Unlinks each credit parked on `port` whose packet `take` accepts.
  template <class Take>
  void take_credits(std::uint32_t port, Take&& take) {
    std::uint32_t* at = &ports_[port].credits;
    while (*at != kNil) {
      Packet& c = packets_[*at];
      if (take(c)) {
        c.credit_deferred = false;
        *at = c.next_in_q;
      } else {
        at = &c.next_in_q;
      }
    }
  }
  // Adds the credits parked on `port` that have passed.
  void apply_passed_credits(std::uint32_t port);
  // Applies a packet's parked credit at its next event, which was pushed
  // after the credit's seq was drawn, at a time no earlier: it has passed.
  // (The packet's link then leaves the list for a FIFO.)
  void fold_credit(std::uint32_t pkt);
  // (time, seq) before the event being handled: it would have run.
  [[nodiscard]] bool passed(double time, std::uint64_t seq) const {
    return time < now_ || (time == now_ && seq < now_seq_);
  }
  void handle_deliver(std::uint32_t pkt);
  void enqueue(std::uint32_t port, std::uint32_t pkt, std::uint8_t vc);
  // The one lane rule: a network port has a lane per VC, a NIC port one
  // (injection and ejection enqueue on VC 0 only).
  [[nodiscard]] std::size_t lane(std::uint32_t port, std::uint32_t vc) const {
    return ports_[port].lane0 + vc;
  }
  [[nodiscard]] std::uint32_t lanes(const Port& p) const {
    return p.role == Role::kNetwork ? cfg_.vcs : 1;
  }
  [[nodiscard]] std::uint32_t port_toward(Vertex router, Vertex neighbor) const;
  [[nodiscard]] Vertex router_of(EndpointId ep) const {
    return static_cast<Vertex>(ep / cfg_.concentration);
  }
  std::uint32_t alloc_packet(const Packet& p);
  void free_packet(std::uint32_t id);

  // --- dynamic-fault machinery (DESIGN.md §7) --------------------------
  static constexpr std::uint16_t kUnreachable = 0xFFFF;
  // Past this many hops a churned packet routes strictly downhill on the
  // live distance field, so mixed minimal/detour decisions cannot livelock
  // (and uint8 hop counters stay far from wrapping: 64 + live diameter).
  static constexpr std::uint32_t kChurnHopLimit = 64;

  [[nodiscard]] std::uint16_t live_dist(Vertex u, Vertex v) const {
    return live_dist_[static_cast<std::size_t>(u) * topo_.num_vertices() + v];
  }
  [[nodiscard]] Vertex port_owner(std::uint32_t port) const;
  void fault_link(Vertex u, Vertex v, bool down);
  void fault_router(Vertex r, bool down);
  // Shared tail of fault_link/fault_router once port depths changed:
  // rebuild the live-distance field, then evacuate (down) or wake (up)
  // every transitioned port.
  void settle_fault(const std::uint32_t* ports, std::size_t count, bool down);
  void rebuild_live_dist();
  void evacuate_port(std::uint32_t port);
  // The one forwarding rule (kNoPort = dst unreachable: drop): the
  // slot-mask pick over live minimal hops, greedy live-distance descent
  // when churn severed them all (counted as a reroute).
  [[nodiscard]] std::uint32_t output_port(Packet& pkt, Vertex router,
                                          Vertex dst_router, std::uint64_t entropy);
  void drop_packet(std::uint32_t pkt_id);
  [[nodiscard]] std::uint64_t packet_entropy(const Packet& pkt,
                                             Vertex router) const;

  const Graph& topo_;
  const routing::Tables& tables_;
  std::shared_ptr<const routing::NextHopIndex> index_;
  SimConfig cfg_;

  std::vector<Port> ports_;
  std::vector<std::uint32_t> net_port_base_;   // per router, into ports_
  std::vector<std::uint32_t> inject_port_;     // per endpoint
  std::vector<std::uint32_t> eject_port_;      // per endpoint

  // Per-lane FIFO state, flat at lane(port, vc): the tail of an intrusive
  // ring through packets_ (the tail's next_in_q is the head; kNil when
  // empty) and the downstream credits.  (Queued-byte totals live per
  // port — Port::total_bytes — since nothing probes per VC.)
  std::vector<std::uint32_t> q_tail_;
  std::vector<std::uint32_t> credits_;  // bytes (ejection lanes: unlimited)

  std::vector<Packet> packets_;
  std::vector<std::uint32_t> free_packets_;

  std::vector<MessageRecord> msgs_;
  std::vector<std::uint32_t> msg_remaining_;   // undelivered packets per message
  std::vector<std::uint8_t> msg_failed_;       // >= 1 packet dropped

  std::vector<std::uint64_t> port_bytes_;  // forwarded bytes per port

  // Dynamic-fault state.  link_down_ is a per-port down depth (a link and
  // a router failure can overlap; the port is live iff the depth is 0) —
  // always sized, only ever nonzero after inject_failures; down_slots_
  // mirrors depth > 0 as bits in the next-hop mask layout.  The live
  // distance field (BFS over surviving links, rebuilt per churn event
  // into preallocated storage) backs non-minimal fallback routing and the
  // unreachable-destination drop decision.
  std::vector<std::uint8_t> link_down_;
  std::vector<std::uint64_t> down_slots_;  // per router, index_->words() words
  std::uint32_t down_ports_ = 0;       // network ports with depth > 0
  bool churn_enabled_ = false;
  std::vector<std::uint16_t> live_dist_;  // n*n; kUnreachable = severed
  std::vector<Vertex> bfs_queue_;
  std::vector<std::uint32_t> fault_ports_;  // scratch for settle_fault
  std::uint64_t rerouted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t msgs_undeliverable_ = 0;
  double first_failure_ns_ = std::numeric_limits<double>::infinity();

  EventQueue events_;
  double now_ = 0.0;
  std::uint64_t now_seq_ = 0;  // seq of the event being (or last) handled
  double completion_ = 0.0;
  std::uint64_t packets_injected_ = 0;
  std::uint64_t packets_forwarded_ = 0;
  std::uint64_t events_processed_ = 0;
  std::array<std::uint64_t, kEventKinds> events_by_kind_{};
  std::array<std::uint64_t, kEventKinds> noops_by_kind_{};
  LatencyStats latency_;
  std::function<void(const MessageRecord&)> on_delivery_;
};

}  // namespace sfly::sim
