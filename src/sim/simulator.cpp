#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.hpp"

namespace sfly::sim {

Simulator::Simulator(const Graph& topo, const routing::Tables& tables, SimConfig cfg)
    : Simulator(topo, tables, nullptr, cfg) {}

Simulator::Simulator(const Graph& topo, const routing::Tables& tables,
                     std::shared_ptr<const routing::NextHopIndex> index,
                     SimConfig cfg)
    : topo_(topo), tables_(tables), index_(std::move(index)), cfg_(cfg) {
  if (tables_.num_vertices() != topo_.num_vertices())
    throw std::invalid_argument("Simulator: tables/topology mismatch");
  if (cfg_.vcs == 0 || cfg_.concentration == 0 || cfg_.packet_bytes == 0)
    throw std::invalid_argument("Simulator: degenerate configuration");
  if (!index_)
    index_ = std::make_shared<const routing::NextHopIndex>(
        routing::NextHopIndex::build(topo_, tables_));
  else if (index_->num_vertices() != topo_.num_vertices())
    throw std::invalid_argument("Simulator: next-hop index/topology mismatch");

  const Vertex n = topo_.num_vertices();
  // Network ports in adjacency order per router.
  net_port_base_.resize(n + 1);
  net_port_base_[0] = 0;
  for (Vertex r = 0; r < n; ++r)
    net_port_base_[r + 1] = net_port_base_[r] + topo_.degree(r);

  const std::uint32_t eps = n * cfg_.concentration;
  const std::size_t nports = net_port_base_[n] + 2ull * eps;
  ports_.reserve(nports);
  for (Vertex r = 0; r < n; ++r)
    for (Vertex nb : topo_.neighbors(r)) {
      Port p;
      p.role = Role::kNetwork;
      p.to_router = nb;
      ports_.push_back(p);
    }
  inject_port_.resize(eps);
  eject_port_.resize(eps);
  for (EndpointId e = 0; e < eps; ++e) {
    inject_port_[e] = static_cast<std::uint32_t>(ports_.size());
    Port inj;
    inj.role = Role::kInjection;
    inj.to_router = router_of(e);
    ports_.push_back(inj);
    eject_port_[e] = static_cast<std::uint32_t>(ports_.size());
    ports_.emplace_back();  // ejection
  }
  port_bytes_.assign(ports_.size(), 0);
  link_down_.assign(ports_.size(), 0);
  down_slots_.assign(static_cast<std::size_t>(n) * index_->words(), 0);

  // Flat per-lane queue state: vcs lanes per network port, one per NIC
  // port.  Network and injection ports push into a downstream router
  // input buffer and are credit-limited; ejection drains into the NIC
  // freely (try_transmit ignores an ejection lane's credit).
  std::uint64_t nlanes = 0;
  for (Port& p : ports_) {
    p.lane0 = static_cast<std::uint32_t>(nlanes);
    nlanes += lanes(p);
  }
  if (nlanes > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("Simulator: more lanes than uint32 lane ids");
  q_tail_.assign(nlanes, kNil);
  credits_.assign(nlanes, cfg_.vc_buffer_bytes);
}

Simulator::LinkLoad Simulator::link_load() const {
  LinkLoad out;
  const std::uint32_t net_ports = net_port_base_.back();
  if (net_ports == 0) return out;
  double sum = 0.0, sum2 = 0.0;
  for (std::uint32_t p = 0; p < net_ports; ++p) {
    double b = static_cast<double>(port_bytes_[p]);
    sum += b;
    sum2 += b * b;
    out.max_bytes = std::max(out.max_bytes, b);
  }
  out.mean_bytes = sum / net_ports;
  double var = sum2 / net_ports - out.mean_bytes * out.mean_bytes;
  out.cov = out.mean_bytes > 0 ? std::sqrt(std::max(0.0, var)) / out.mean_bytes : 0.0;
  return out;
}

std::uint32_t Simulator::port_toward(Vertex router, Vertex neighbor) const {
  auto nb = topo_.neighbors(router);
  auto it = std::lower_bound(nb.begin(), nb.end(), neighbor);
  if (it == nb.end() || *it != neighbor)
    throw std::logic_error("Simulator: no port toward neighbor");
  return net_port_base_[router] + static_cast<std::uint32_t>(it - nb.begin());
}

std::uint64_t Simulator::queue_probe(Vertex router, Vertex neighbor) const {
  return ports_[port_toward(router, neighbor)].total_bytes;
}

std::uint32_t Simulator::alloc_packet(const Packet& p) {
  if (!free_packets_.empty()) {
    std::uint32_t id = free_packets_.back();
    free_packets_.pop_back();
    packets_[id] = p;
    return id;
  }
  packets_.push_back(p);
  // The free list can hold at most one entry per pooled packet; growing it
  // here (instead of inside free_packet) keeps the drain-down phase — when
  // deliveries outpace injections and the free list fills — allocation-free.
  free_packets_.reserve(packets_.capacity());
  return static_cast<std::uint32_t>(packets_.size() - 1);
}

void Simulator::free_packet(std::uint32_t id) { free_packets_.push_back(id); }

MessageId Simulator::send(EndpointId src, EndpointId dst, std::uint32_t bytes,
                          double when, std::uint64_t tag) {
  if (src >= num_endpoints() || dst >= num_endpoints())
    throw std::out_of_range("Simulator::send: endpoint out of range");
  if (!std::isfinite(when) || when < now_)
    throw std::invalid_argument("Simulator::send: time must be finite and >= now()");
  if (bytes == 0) bytes = 1;
  MessageId m = static_cast<MessageId>(msgs_.size());
  msgs_.push_back({src, dst, bytes, when, -1.0, tag});
  // In 64 bits: bytes + packet_bytes - 1 can pass 2^32.
  msg_remaining_.push_back(static_cast<std::uint32_t>(
      (std::uint64_t{bytes} + cfg_.packet_bytes - 1) / cfg_.packet_bytes));
  msg_failed_.push_back(0);
  events_.push(when, EventKind::kInjectMessage, m);
  return m;
}

void Simulator::handle_inject(MessageId m) {
  const MessageRecord& rec = msgs_[m];
  std::uint32_t remaining = rec.bytes;
  const std::uint32_t inj = inject_port_[rec.src];
  while (remaining > 0) {
    std::uint32_t sz = std::min(remaining, cfg_.packet_bytes);
    remaining -= sz;
    Packet p;
    p.msg = m;
    p.bytes = sz;
    p.dst_ep = rec.dst;
    p.vc = 0;
    p.hops = 0;
    enqueue(inj, alloc_packet(p), 0);
    ++packets_injected_;
  }
  try_transmit(inj);
}

void Simulator::enqueue(std::uint32_t port, std::uint32_t pkt, std::uint8_t vc) {
  std::uint32_t& tail = q_tail_[lane(port, vc)];
  if (tail == kNil) {
    packets_[pkt].next_in_q = pkt;
  } else {
    packets_[pkt].next_in_q = packets_[tail].next_in_q;
    packets_[tail].next_in_q = pkt;
  }
  tail = pkt;
  ports_[port].total_bytes += packets_[pkt].bytes;
}

void Simulator::handle_arrival(std::uint32_t pkt_id, std::uint32_t in_port) {
  fold_credit(pkt_id);
  Packet& pkt = packets_[pkt_id];
  pkt.upstream_port = in_port;
  pkt.upstream_vc = pkt.vc;
  const Vertex router = ports_[in_port].to_router;
  const Vertex dst_router = router_of(pkt.dst_ep);

  if (router == dst_router) {
    std::uint32_t ej = eject_port_[pkt.dst_ep];
    enqueue(ej, pkt_id, 0);
    try_transmit(ej);
    return;
  }

  const std::uint64_t entropy = packet_entropy(pkt, router);
  if (pkt.hops == 0) {
    // Source-router routing decision (minimal vs Valiant vs UGAL); queue
    // probes address output ports directly by slot, O(1) each.
    const routing::ExactOracle oracle{tables_, *index_};
    pkt.route = routing::source_decision(
        cfg_.algo, oracle, router, dst_router, entropy,
        [this](Vertex at, std::uint16_t slot) {
          return ports_[net_port_base_[at] + slot].total_bytes;
        });
  }
  const std::uint32_t port = output_port(pkt, router, dst_router, entropy);
  if (port == kNoPort) {
    drop_packet(pkt_id);
    return;
  }
  pkt.vc = static_cast<std::uint8_t>(std::min<std::uint32_t>(pkt.hops, cfg_.vcs - 1));
  enqueue(port, pkt_id, pkt.vc);
  try_transmit(port);
}

void Simulator::try_transmit(std::uint32_t port_id) {
  Port& p = ports_[port_id];
  if (link_down_[port_id]) return;  // severed: recovery re-arms this port
  // Only an enqueue makes a port non-empty, and each is followed by this
  // call, so here a port's first enqueue settles its deferred retry.
  if (p.retry == Retry::kDeferred && p.total_bytes > 0) {
    if (passed(p.busy_until, p.retry_seq)) {
      p.retry = Retry::kNone;
    } else {
      p.retry = Retry::kPushed;
      events_.push_drawn(p.busy_until, p.retry_seq, EventKind::kTryTransmit, port_id);
    }
  }
  // The lane scan below sees every parked credit that would have run by
  // now.  (At a busy or empty port they can wait: nothing scans.)
  if (p.credits != kNil && p.total_bytes > 0 && now_ >= p.busy_until)
    apply_passed_credits(port_id);
  const std::size_t lane0 = p.lane0;
  const std::uint32_t nvc = lanes(p);
  while (true) {
    if (now_ < p.busy_until) {
      // Coalesce wake-ups: one pending retry per port, re-armed when it
      // fires.  (Without this, every arrival at a hot port would clone a
      // retry event per serialization slot and the event queue would grow
      // quadratically under congestion.)  At an empty port it would only
      // find nothing to send, so it waits for an enqueue instead.
      if (p.retry == Retry::kNone) {
        p.retry_seq = events_.draw_seq();
        if (p.total_bytes > 0) {
          p.retry = Retry::kPushed;
          events_.push_drawn(p.busy_until, p.retry_seq, EventKind::kTryTransmit,
                             port_id);
        } else {
          p.retry = Retry::kDeferred;
        }
      }
      break;
    }
    // Round-robin across the port's lanes for a head packet with
    // available credit.
    const bool unlimited = p.role == Role::kEjection;
    std::uint32_t chosen_vc = nvc;
    std::uint32_t vc = p.rr;
    for (std::uint32_t i = 0; i < nvc; ++i, vc = vc + 1 < nvc ? vc + 1 : 0) {
      const std::uint32_t tail = q_tail_[lane0 + vc];
      if (tail == kNil) continue;
      const Packet& head = packets_[packets_[tail].next_in_q];
      if (unlimited || credits_[lane0 + vc] >= head.bytes) {
        chosen_vc = vc;
        break;
      }
    }
    if (chosen_vc == nvc) break;  // nothing sendable now
    p.rr = static_cast<std::uint16_t>(chosen_vc + 1 < nvc ? chosen_vc + 1 : 0);

    const std::size_t lane = lane0 + chosen_vc;
    std::uint32_t& tail = q_tail_[lane];
    const std::uint32_t pkt_id = packets_[tail].next_in_q;
    Packet& pkt = packets_[pkt_id];
    if (pkt_id == tail)
      tail = kNil;
    else
      packets_[tail].next_in_q = pkt.next_in_q;
    p.total_bytes -= pkt.bytes;
    if (!unlimited) credits_[lane] -= pkt.bytes;

    const double ser = pkt.bytes / cfg_.bandwidth_bytes_per_ns;
    const double done = now_ + ser;
    p.busy_until = done;
    ++packets_forwarded_;
    port_bytes_[port_id] += pkt.bytes;

    // This packet leaving the port frees the buffer it occupied at *this*
    // router's input; return the credit upstream at transmit completion.
    // Only a severed or credit-blocked upstream port gets it as an event;
    // at any other the packet parks it on that port's list, where the
    // port's next try_transmit settles it.
    if (pkt.upstream_port != kNoPort) {
      const std::uint32_t up = pkt.upstream_port;
      if (credit_blocked(ports_[up]) || (down_ports_ > 0 && link_down_[up])) {
        events_.push(done, EventKind::kCreditReturn, up,
                     (static_cast<std::uint64_t>(pkt.upstream_vc) << 32) | pkt.bytes);
      } else {
        pkt.credit_deferred = true;
        pkt.credit_time = done;
        pkt.credit_seq = events_.draw_seq();
        pkt.next_in_q = ports_[up].credits;
        ports_[up].credits = pkt_id;
      }
    }

    if (p.role != Role::kEjection) {
      if (p.role == Role::kNetwork) ++pkt.hops;
      events_.push(done + cfg_.link_latency_ns + cfg_.router_latency_ns,
                   EventKind::kArrival, pkt_id, port_id);
    } else {
      events_.push(done + cfg_.nic_latency_ns, EventKind::kDeliver, pkt_id);
    }
    // Loop to fill the next idle slot (busy_until just moved forward, so
    // the next iteration arms a retry instead of spinning).
  }
  // The settle rule: push each parked credit the port could act on when
  // it comes due.  A credit-blocked port can act on any.  One with bytes
  // queued and a pushed retry (busy, or idle with the retry due now) can
  // act only on those due at busy_until that pop before its retry, which
  // find it idle.  Every other credit pops while the port is busy, or
  // after its next try_transmit, which settles again.  An empty port
  // acts on none.
  if (p.credits != kNil && p.total_bytes > 0) {
    const bool blocked = credit_blocked(p);
    take_credits(port_id, [&](const Packet& c) {
      if (!blocked && !(c.credit_time == p.busy_until && c.credit_seq < p.retry_seq))
        return false;
      events_.push_drawn(c.credit_time, c.credit_seq, EventKind::kCreditReturn,
                         port_id,
                         (static_cast<std::uint64_t>(c.upstream_vc) << 32) | c.bytes);
      return true;
    });
  }
}

void Simulator::apply_passed_credits(std::uint32_t port_id) {
  take_credits(port_id, [&](const Packet& c) {
    if (!passed(c.credit_time, c.credit_seq)) return false;
    credits_[lane(port_id, c.upstream_vc)] += c.bytes;
    return true;
  });
}

void Simulator::fold_credit(std::uint32_t pkt_id) {
  const Packet& pkt = packets_[pkt_id];
  if (pkt.credit_deferred) apply_passed_credits(pkt.upstream_port);
}

void Simulator::handle_deliver(std::uint32_t pkt_id) {
  fold_credit(pkt_id);
  const Packet& pkt = packets_[pkt_id];
  MessageRecord& rec = msgs_[pkt.msg];
  // A message with any dropped packet never completes: its surviving
  // packets still drain (and release credits/pool slots), but no latency
  // sample or delivery callback fires for a partial payload.
  if (--msg_remaining_[pkt.msg] == 0 && !msg_failed_[pkt.msg]) {
    rec.delivered_ns = now_;
    latency_.record(now_ - rec.created_ns);
    if (now_ > completion_) completion_ = now_;
    if (on_delivery_) on_delivery_(rec);
  }
  free_packet(pkt_id);
}

bool Simulator::run(double until, std::uint64_t max_events) {
  // All messages scheduled so far will record one latency sample each;
  // reserving here keeps the delivery path allocation-free for workloads
  // that submit their sends up front (the synthetic patterns).
  latency_.reserve(msgs_.size());
  std::uint64_t processed = 0;
  while (!events_.empty() && processed < max_events) {
    if (events_.top().time > until) return false;
    Event e = events_.pop();
    now_ = e.time;
    now_seq_ = e.seq;
    ++processed;
    ++events_processed_;
    ++events_by_kind_[static_cast<std::size_t>(e.kind)];
    const std::uint64_t forwarded = packets_forwarded_;
    switch (e.kind) {
      case EventKind::kInjectMessage:
        handle_inject(static_cast<MessageId>(e.a));
        break;
      case EventKind::kArrival:
        handle_arrival(static_cast<std::uint32_t>(e.a), static_cast<std::uint32_t>(e.b));
        break;
      case EventKind::kTryTransmit:
        ports_[e.a].retry = Retry::kNone;
        try_transmit(static_cast<std::uint32_t>(e.a));
        break;
      case EventKind::kCreditReturn: {
        std::uint32_t vc = static_cast<std::uint32_t>(e.b >> 32);
        std::uint32_t bytes = static_cast<std::uint32_t>(e.b & 0xFFFFFFFF);
        const std::size_t l = lane(static_cast<std::uint32_t>(e.a), vc);
        credits_[l] += bytes;
        try_transmit(static_cast<std::uint32_t>(e.a));
        break;
      }
      case EventKind::kDeliver:
        handle_deliver(static_cast<std::uint32_t>(e.a));
        break;
      case EventKind::kLinkDown:
        fault_link(static_cast<Vertex>(e.a), static_cast<Vertex>(e.b), true);
        break;
      case EventKind::kLinkUp:
        fault_link(static_cast<Vertex>(e.a), static_cast<Vertex>(e.b), false);
        break;
      case EventKind::kRouterDown:
        fault_router(static_cast<Vertex>(e.a), true);
        break;
      case EventKind::kRouterUp:
        fault_router(static_cast<Vertex>(e.a), false);
        break;
    }
    if ((e.kind == EventKind::kTryTransmit || e.kind == EventKind::kCreditReturn) &&
        packets_forwarded_ == forwarded)
      ++noops_by_kind_[static_cast<std::size_t>(e.kind)];
  }
  if (!events_.empty()) return false;
  // Each deferred credit folded at its packet's last event.  A deferred
  // retry lies at or before the event that ended the run, so each would
  // have run by now and found nothing to send.
  for (Port& p : ports_)
    if (p.retry == Retry::kDeferred) p.retry = Retry::kNone;
  return true;
}

// ---------------------------------------------------------------------------
// Dynamic fault injection (DESIGN.md §7).

void Simulator::inject_failures(const FailureSchedule& schedule) {
  const Vertex n = topo_.num_vertices();
  if (!churn_enabled_) {
    churn_enabled_ = true;
    // Preallocate every churn-path buffer now, so fault events and the
    // reroute/drop machinery stay allocation-free inside run().
    live_dist_.assign(static_cast<std::size_t>(n) * n, kUnreachable);
    bfs_queue_.resize(n);
    std::uint32_t max_deg = 0;
    for (Vertex r = 0; r < n; ++r) max_deg = std::max(max_deg, topo_.degree(r));
    fault_ports_.reserve(2ull * max_deg);
  }
  for (const auto& ev : schedule) {
    if (!(ev.time_ns >= 0.0) || !std::isfinite(ev.time_ns))
      throw std::invalid_argument("inject_failures: event time must be finite and >= 0");
    const bool link = ev.kind == ChurnKind::kLinkDown || ev.kind == ChurnKind::kLinkUp;
    if (ev.u >= n || (link && ev.v >= n))
      throw std::out_of_range("inject_failures: vertex out of range");
    if (link && !topo_.has_edge(ev.u, ev.v))
      throw std::invalid_argument("inject_failures: no such link");
    switch (ev.kind) {
      case ChurnKind::kLinkDown:
        events_.push(ev.time_ns, EventKind::kLinkDown, ev.u, ev.v);
        break;
      case ChurnKind::kLinkUp:
        events_.push(ev.time_ns, EventKind::kLinkUp, ev.u, ev.v);
        break;
      case ChurnKind::kRouterDown:
        events_.push(ev.time_ns, EventKind::kRouterDown, ev.u);
        break;
      case ChurnKind::kRouterUp:
        events_.push(ev.time_ns, EventKind::kRouterUp, ev.u);
        break;
    }
  }
}

std::uint64_t Simulator::packet_entropy(const Packet& pkt, Vertex router) const {
  return split_seed(cfg_.seed, (static_cast<std::uint64_t>(pkt.msg) << 16) ^
                                   (static_cast<std::uint64_t>(pkt.hops) << 8) ^
                                   router);
}

Vertex Simulator::port_owner(std::uint32_t port) const {
  auto it = std::upper_bound(net_port_base_.begin(), net_port_base_.end(), port);
  return static_cast<Vertex>(it - net_port_base_.begin() - 1);
}

void Simulator::fault_link(Vertex u, Vertex v, bool down) {
  fault_ports_.clear();
  fault_ports_.push_back(port_toward(u, v));
  fault_ports_.push_back(port_toward(v, u));
  settle_fault(fault_ports_.data(), fault_ports_.size(), down);
}

void Simulator::fault_router(Vertex r, bool down) {
  // A dead router severs every incident link in both directions; its NIC
  // ports keep draining, so already-arrived traffic ejects and locally
  // injected packets reach a (now isolated) switch that drops them unless
  // the destination is router-local.
  fault_ports_.clear();
  const auto nbs = topo_.neighbors(r);
  const std::uint32_t base = net_port_base_[r];
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    fault_ports_.push_back(base + static_cast<std::uint32_t>(i));
    fault_ports_.push_back(port_toward(nbs[i], r));
  }
  settle_fault(fault_ports_.data(), fault_ports_.size(), down);
}

void Simulator::settle_fault(const std::uint32_t* ports, std::size_t count,
                             bool down) {
  // Depth-counted port state: a link failure and a router failure can
  // overlap on the same port, and the port is live only at depth 0.
  // A port crossing depth 0 flips its bit in the owner's down-slot row.
  bool changed = false;
  auto flip = [&](std::uint32_t port) {
    const Vertex r = port_owner(port);
    const std::uint32_t s = port - net_port_base_[r];
    down_slots_[static_cast<std::size_t>(r) * index_->words() + s / 64] ^=
        std::uint64_t{1} << (s % 64);
    changed = true;
  };
  if (down) {
    if (now_ < first_failure_ns_) first_failure_ns_ = now_;
    for (std::size_t i = 0; i < count; ++i)
      if (link_down_[ports[i]]++ == 0) {
        ++down_ports_;
        flip(ports[i]);
      }
  } else {
    for (std::size_t i = 0; i < count; ++i)
      if (link_down_[ports[i]] && --link_down_[ports[i]] == 0) {
        --down_ports_;
        flip(ports[i]);
      }
  }
  if (changed) rebuild_live_dist();
  // Evacuate after the distance rebuild: rerouting consults the updated
  // field.  Recovery instead wakes the port (new traffic may already be
  // minimal through it; its own queue emptied when it went down).
  for (std::size_t i = 0; i < count; ++i) {
    if (down)
      evacuate_port(ports[i]);
    else if (link_down_[ports[i]] == 0)
      try_transmit(ports[i]);
  }
}

void Simulator::rebuild_live_dist() {
  if (down_ports_ == 0) return;  // fully recovered: routing ignores the field
  const Vertex n = topo_.num_vertices();
  for (Vertex s = 0; s < n; ++s) {
    std::uint16_t* row = live_dist_.data() + static_cast<std::size_t>(s) * n;
    std::fill(row, row + n, kUnreachable);
    row[s] = 0;
    std::size_t head = 0, tail = 0;
    bfs_queue_[tail++] = s;
    while (head < tail) {
      const Vertex u = bfs_queue_[head++];
      const std::uint32_t base = net_port_base_[u];
      const std::uint16_t du = row[u];
      const auto nbs = topo_.neighbors(u);
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        if (link_down_[base + i]) continue;
        if (row[nbs[i]] != kUnreachable) continue;
        row[nbs[i]] = static_cast<std::uint16_t>(du + 1);
        bfs_queue_[tail++] = nbs[i];
      }
    }
  }
}

void Simulator::evacuate_port(std::uint32_t port_id) {
  Port& p = ports_[port_id];
  if (p.total_bytes == 0) return;
  const Vertex u = port_owner(port_id);
  for (std::uint32_t vc = 0; vc < lanes(p); ++vc) {
    const std::uint32_t tail = std::exchange(q_tail_[lane(port_id, vc)], kNil);
    if (tail == kNil) continue;
    // Cut the ring after the tail and walk it from the head.
    std::uint32_t id = std::exchange(packets_[tail].next_in_q, kNil);
    while (id != kNil) {
      const std::uint32_t next = packets_[id].next_in_q;
      Packet& pkt = packets_[id];
      p.total_bytes -= pkt.bytes;
      ++rerouted_;
      const std::uint32_t out =
          output_port(pkt, u, router_of(pkt.dst_ep), packet_entropy(pkt, u));
      if (out == kNoPort) {
        drop_packet(id);
      } else {
        enqueue(out, id, pkt.vc);
        try_transmit(out);
      }
      id = next;
    }
  }
}

std::uint32_t Simulator::output_port(Packet& pkt, Vertex router, Vertex dst_router,
                                     std::uint64_t entropy) {
  // A Valiant packet heads for its intermediate until it gets there, or
  // until churn cuts it off (the leg is abandoned rather than chased).
  Vertex target = dst_router;
  if (pkt.route.valiant && pkt.route.phase == 0) {
    if (router == pkt.route.intermediate ||
        (down_ports_ > 0 && live_dist(router, pkt.route.intermediate) == kUnreachable))
      pkt.route.phase = 1;
    else
      target = pkt.route.intermediate;
  }
  const std::uint32_t base = net_port_base_[router];
  if (down_ports_ == 0 || pkt.hops < kChurnHopLimit) {
    // The minimal next hops with down ports masked out.  With every port
    // up the router's down row is zero and this is the pristine pick, so
    // recovered runs converge back bitwise.
    const routing::NextHopIndex& idx = *index_;
    const std::uint64_t* down =
        down_slots_.data() + static_cast<std::size_t>(router) * idx.words();
    std::uint32_t slot = routing::NextHopIndex::kNoSlot;
    if (cfg_.algo == routing::Algo::kAdaptiveMin) {
      // Per-hop adaptivity: the least-congested live minimal port (the
      // first in adjacency order wins ties).
      std::uint64_t best_q = ~0ull;
      idx.for_each_slot(router, target, down, [&](std::uint16_t s) {
        const std::uint64_t q = ports_[base + s].total_bytes;
        if (q < best_q) {
          best_q = q;
          slot = s;
        }
      });
    } else {
      slot = idx.select(router, target, entropy, down);
    }
    if (slot != routing::NextHopIndex::kNoSlot) return base + slot;
  }
  // Minimal set severed (or the hop cap fired): descend the live distance
  // field.  Every such hop strictly decreases the live distance, so mixed
  // minimal/detour trajectories terminate; past kChurnHopLimit only this
  // rule runs.  The phase check leaves target == dst_router whenever the
  // field cannot reach it, and with no port down an empty minimal set
  // means the topology itself is disconnected: drop.
  if (down_ports_ == 0 || live_dist(router, target) == kUnreachable) return kNoPort;
  const auto nbs = topo_.neighbors(router);
  std::uint16_t best = kUnreachable;
  std::uint32_t count = 0;
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    if (link_down_[base + i]) continue;
    const std::uint16_t d = live_dist(nbs[i], target);
    if (d < best) {
      best = d;
      count = 1;
    } else if (d == best) {
      ++count;
    }
  }
  ++rerouted_;
  std::uint32_t k = static_cast<std::uint32_t>(entropy % count);
  for (std::size_t i = 0; i < nbs.size(); ++i) {
    if (link_down_[base + i]) continue;
    if (live_dist(nbs[i], target) != best) continue;
    if (k-- == 0) return base + static_cast<std::uint32_t>(i);
  }
  return kNoPort;  // unreachable: count >= 1 whenever live_dist is finite
}

void Simulator::drop_packet(std::uint32_t pkt_id) {
  Packet& pkt = packets_[pkt_id];
  ++dropped_;
  if (!msg_failed_[pkt.msg]) {
    msg_failed_[pkt.msg] = 1;
    ++msgs_undeliverable_;
  }
  --msg_remaining_[pkt.msg];
  // The packet dies occupying this router's input buffer: hand the credit
  // back upstream immediately so neither the upstream VC nor the packet
  // pool leaks capacity.
  if (pkt.upstream_port != kNoPort)
    events_.push(now_, EventKind::kCreditReturn, pkt.upstream_port,
                 (static_cast<std::uint64_t>(pkt.upstream_vc) << 32) | pkt.bytes);
  free_packet(pkt_id);
}

void Simulator::audit() const {
  const auto broken = [](const char* what) {
    throw std::logic_error(std::string("Simulator::audit: ") + what);
  };
  const bool drained = events_.empty();
  std::vector<std::uint8_t> is_free(packets_.size(), 0);
  for (const std::uint32_t id : free_packets_) is_free[id] = 1;
  std::vector<std::uint8_t> listed(packets_.size(), 0);
  // Credit bytes each lane's buffer space is out as: credit-return events
  // and packets in flight toward it (arrival events) here, then parked
  // credits and queued packets that it holds, per port below.
  std::vector<std::int64_t> held(credits_.size(), 0);
  events_.for_each([&](const Event& e) {
    if (e.kind == EventKind::kCreditReturn)
      held[lane(static_cast<std::uint32_t>(e.a), static_cast<std::uint32_t>(e.b >> 32))] +=
          static_cast<std::int64_t>(e.b & 0xFFFFFFFF);
    else if (e.kind == EventKind::kArrival)
      held[lane(static_cast<std::uint32_t>(e.b), packets_[e.a].vc)] += packets_[e.a].bytes;
  });
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    const Port& port = ports_[p];
    const bool live = link_down_[p] == 0;
    if (port.total_bytes > 0 && port.retry == Retry::kDeferred)
      broken("port with queued bytes holds a deferred retry");
    if (live && now_ < port.busy_until && port.retry == Retry::kNone)
      broken("busy port with no retry armed");
    if (live && credit_blocked(port) && port.credits != kNil)
      broken("credit-blocked port holds parked credits");
    if ((port.retry == Retry::kDeferred || port.credits != kNil) && drained)
      broken("deferred event left once drained");
    for (std::uint32_t id = port.credits; id != kNil; id = packets_[id].next_in_q) {
      const Packet& pkt = packets_[id];
      if (is_free[id]) broken("deferred credit held by a freed packet");
      if (listed[id]++ || !pkt.credit_deferred || pkt.upstream_port != p)
        broken("deferred credit not on exactly its own port's list");
      // One due at busy_until before the retry would find the port idle.
      if (live && port.total_bytes > 0 && pkt.credit_time == port.busy_until &&
          pkt.credit_seq < port.retry_seq)
        broken("parked credit pops before its port's retry");
      held[lane(static_cast<std::uint32_t>(p), pkt.upstream_vc)] += pkt.bytes;
    }
    std::uint64_t queued = 0;
    for (std::uint32_t vc = 0; vc < lanes(port); ++vc) {
      const std::uint32_t tail = q_tail_[lane(static_cast<std::uint32_t>(p), vc)];
      if (tail == kNil) continue;
      std::uint32_t id = tail;
      do {
        id = packets_[id].next_in_q;
        const Packet& pkt = packets_[id];
        queued += pkt.bytes;
        if (pkt.upstream_port != kNoPort)
          held[lane(pkt.upstream_port, pkt.upstream_vc)] += pkt.bytes;
      } while (id != tail);
    }
    if (queued != port.total_bytes)
      broken("port total_bytes differs from the bytes queued on its lanes");
  }
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    if (ports_[p].role == Role::kEjection) continue;  // not credit-limited
    for (std::uint32_t vc = 0; vc < lanes(ports_[p]); ++vc) {
      const std::size_t l = lane(static_cast<std::uint32_t>(p), vc);
      if (std::int64_t{credits_[l]} + held[l] != std::int64_t{cfg_.vc_buffer_bytes})
        broken("lane credit plus the credit held downstream is not vc_buffer_bytes");
    }
  }
  for (std::size_t id = 0; id < packets_.size(); ++id)
    if (!is_free[id] && packets_[id].credit_deferred && !listed[id])
      broken("deferred credit on no port's list");
  const std::uint64_t live = packets_.size() - free_packets_.size();
  const std::uint64_t delivered =
      events_by_kind_[static_cast<std::size_t>(EventKind::kDeliver)];
  if (packets_injected_ != delivered + dropped_ + live)
    broken("packets injected differ from delivered + dropped + live");
  if (!drained) return;
  if (live != 0) broken("packet record off the free list once drained");
  for (std::size_t m = 0; m < msgs_.size(); ++m)
    if (msgs_[m].delivered_ns < 0.0 && !msg_failed_[m])
      broken("message neither delivered nor failed once drained");
}

LatencyStats Simulator::latency_since(double t0) const {
  LatencyStats out;
  out.reserve(msgs_.size());
  for (const auto& rec : msgs_)
    if (rec.delivered_ns >= t0) out.record(rec.delivered_ns - rec.created_ns);
  return out;
}

}  // namespace sfly::sim
