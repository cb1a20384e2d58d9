// Edge-case and utility coverage: event queue ordering (checked against a
// reference heap), latency stats, table rendering, simulator argument
// validation, cabinet grids, and the odd corners of the topology parameter
// space; and the examples' argument parsing.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "layout/cabinets.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/traffic.hpp"
#include "topo/lps.hpp"
#include "topo/mms.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace sfly {
namespace {

// ---------------- event queue ----------------

TEST(EventQueue, TimeOrdering) {
  sim::EventQueue q;
  q.push(5.0, sim::EventKind::kDeliver, 1);
  q.push(1.0, sim::EventKind::kDeliver, 2);
  q.push(3.0, sim::EventKind::kDeliver, 3);
  EXPECT_EQ(q.pop().a, 2u);
  EXPECT_EQ(q.pop().a, 3u);
  EXPECT_EQ(q.pop().a, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FifoAmongSimultaneous) {
  sim::EventQueue q;
  for (std::uint64_t i = 0; i < 20; ++i)
    q.push(7.0, sim::EventKind::kTryTransmit, i);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(q.pop().a, i);
}

// The queue against a reference (time, seq) heap: seeded random monotone
// push/pop interleavings must pop the identical (time, seq, kind, a, b)
// sequence, bit for bit.  The times stress the radix key: many equal
// times, pushes at exactly the last popped time, +-0.0, subnormals, 1e300
// and, before the first pop, negative times.  Each round drains to empty
// and the next refills from the last popped time.  Later rounds aim at the
// sorted run: each opens with a burst of 31, 32 or 33 events on nearby
// keys (one bucket, settled just under, at, or just over one chunk), then
// pushes land strictly between the last pop and top(), on keys tied with
// queued ones, and at exactly the last popped time after a full drain.
// The last rounds draw seqs with draw_seq() and push them later with
// push_drawn(), after fresh pushes that tie with them: into the run, at
// exactly the last popped time, on keys tied with queued ones, and into a
// burst bucket that settles as one chunk or is redistributed.
TEST(EventQueue, MatchesReferenceHeap) {
  struct Later {
    bool operator()(const sim::Event& x, const sim::Event& y) const {
      if (x.time != y.time) return x.time > y.time;
      return x.seq > y.seq;
    }
  };
  const auto same = [](const sim::Event& x, const sim::Event& y) {
    return std::bit_cast<std::uint64_t>(x.time) == std::bit_cast<std::uint64_t>(y.time) &&
           x.seq == y.seq && x.kind == y.kind && x.a == y.a && x.b == y.b;
  };
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    sim::EventQueue q;
    std::priority_queue<sim::Event, std::vector<sim::Event>, Later> ref;
    std::uint64_t seq = 0;
    double last = 0.0;
    // Sums over the queued events' seqs and their squares: for_each must
    // visit each queued event exactly once.
    std::uint64_t sum = 0, sum2 = 0, pops = 0;
    const auto push = [&](double t) {
      const auto kind = static_cast<sim::EventKind>(rng() % 9);
      const std::uint64_t a = rng(), b = rng();
      q.push(t, kind, a, b);
      sum += seq;
      sum2 += seq * seq;
      ref.push(sim::Event{t, seq++, kind, a, b});
    };
    const auto visit = [&] {
      std::size_t n = 0;
      std::uint64_t s = 0, s2 = 0;
      q.for_each([&](const sim::Event& e) {
        ++n;
        s += e.seq;
        s2 += e.seq * e.seq;
      });
      if (n != q.size() || s != sum || s2 != sum2)
        throw std::logic_error("for_each differs from the queued events: seed " +
                               std::to_string(seed));
    };
    // A mismatch throws: the queue and the heap have diverged, and the
    // loops below would otherwise keep popping one of them past empty.
    const auto check = [&](const sim::Event& e, const char* what) {
      if (!same(e, ref.top()))
        throw std::logic_error(std::string(what) + " differs from the reference: seed " +
                               std::to_string(seed) + ", seq " + std::to_string(e.seq) +
                               " against " + std::to_string(ref.top().seq));
    };
    const auto pop = [&] {
      if (rng() % 4 == 0) check(q.top(), "top()");
      const sim::Event e = q.pop();
      check(e, "pop()");
      ref.pop();
      sum -= e.seq;
      sum2 -= e.seq * e.seq;
      last = e.time;
      if (++pops % 64 == 0) visit();
    };
    for (double t : {0.0, -0.0, -1e300, -kSub, kSub, 1e300, 3.0, -2.5, -2.5}) push(t);
    for (const std::uint64_t push_percent : {50, 60, 75}) {
      for (int step = 0; step < 20000; ++step) {
        if (!ref.empty() && rng() % 100 >= push_percent) {
          pop();
          continue;
        }
        switch (rng() % 8) {
          case 0: push(last); break;
          case 1: push(last == 0.0 ? -last : last); break;  // the other zero
          case 2: push(last + kSub * static_cast<double>(rng() % 3)); break;
          case 3: push(std::nextafter(last, 1e308)); break;
          case 4: push(std::max(last, 1e300)); break;
          default: push(last + static_cast<double>(rng() % 4)); break;
        }
      }
      while (!ref.empty()) pop();
      ASSERT_TRUE(q.empty());
      ASSERT_EQ(q.size(), 0u);
    }
    for (const std::uint64_t burst : {31, 32, 33, 33, 32, 31}) {
      // Keys s .. s+4*burst differ from each other in the low two digits
      // only, and from the last pop in a higher one: one bucket.
      const double x = std::max(1.0, last + std::max(1000.0, std::abs(last) * 1e-6));
      const std::uint64_t s = (std::bit_cast<std::uint64_t>(x) | 0xFF) + 1;
      const auto near = [&] { return std::bit_cast<double>(s + rng() % (4 * burst)); };
      for (std::uint64_t k = 0; k < burst; ++k) push(near());
      for (int step = 0; step < 4000; ++step) {
        if (ref.empty()) {
          push(last);  // the run has drained
          continue;
        }
        const double top = ref.top().time;
        switch (rng() % 6) {
          case 0:
          case 1: pop(); break;
          case 2: {
            const double mid =
                last + (top - last) * static_cast<double>(1 + rng() % 999) / 1000.0;
            push(mid > last && mid < top ? mid : top);
            break;
          }
          case 3: push(top); break;
          case 4: push(std::max(last, near())); break;
          default: push(last + (top - last) * 1.5 + 0.25); break;
        }
      }
      while (!ref.empty()) pop();
      push(last);
      pop();
      ASSERT_TRUE(q.empty());
    }
    // Drawn events wait here until pushed; one whose time has passed is
    // dropped unpushed, as the simulator applies it instead.
    std::vector<sim::Event> drawn;
    const auto draw = [&](double t) {
      const auto kind = static_cast<sim::EventKind>(rng() % 9);
      const std::uint64_t a = rng(), b = rng();
      ASSERT_EQ(q.draw_seq(), seq);
      drawn.push_back(sim::Event{t, seq++, kind, a, b});
    };
    const auto push_drawn = [&](std::size_t i) {
      const sim::Event e = drawn[i];
      drawn.erase(drawn.begin() + static_cast<std::ptrdiff_t>(i));
      if (e.time < last) return;
      q.push_drawn(e.time, e.seq, e.kind, e.a, e.b);
      sum += e.seq;
      sum2 += e.seq * e.seq;
      ref.push(e);
    };
    const auto tie = [&] { return drawn[rng() % drawn.size()].time; };
    for (int step = 0; step < 20000; ++step) {
      const double top = ref.empty() ? last : ref.top().time;
      switch (rng() % 10) {
        case 0:
        case 1:
          if (!ref.empty()) pop();
          break;
        case 2: draw(last); break;
        case 3: draw(top); break;
        case 4: draw(last + static_cast<double>(rng() % 4)); break;
        case 5:
        case 6:
          if (!drawn.empty()) push_drawn(rng() % drawn.size());
          break;
        case 7: push(drawn.empty() ? top : std::max(last, tie())); break;
        case 8: push(last); break;
        default: push(top); break;
      }
    }
    while (!drawn.empty()) push_drawn(drawn.size() - 1);
    while (!ref.empty()) pop();
    for (const std::uint64_t burst : {31, 32, 33, 64, 33, 32, 31}) {
      // As above, one bucket; a third of the burst is drawn first, a third
      // pushed fresh on a drawn key, and the drawn ones pushed last.
      const double x = std::max(1.0, last + std::max(1000.0, std::abs(last) * 1e-6));
      const std::uint64_t s = (std::bit_cast<std::uint64_t>(x) | 0xFF) + 1;
      const auto near = [&] { return std::bit_cast<double>(s + rng() % burst); };
      for (std::uint64_t k = 0; k < burst; ++k) {
        const auto r = rng() % 3;
        if (r == 0 || k == 0)
          draw(near());
        else
          push(r == 1 ? tie() : near());
      }
      while (!drawn.empty()) push_drawn(rng() % drawn.size());
      ASSERT_EQ(q.size(), burst);
      for (int step = 0; step < 4000 && !ref.empty(); ++step) {
        switch (rng() % 5) {
          case 0:
          case 1: pop(); break;
          case 2: draw(rng() % 2 ? last : ref.top().time); break;
          case 3: push(drawn.empty() ? last : std::max(last, tie())); break;
          default:
            if (!drawn.empty()) push_drawn(rng() % drawn.size());
            break;
        }
      }
      while (!drawn.empty()) push_drawn(drawn.size() - 1);
      while (!ref.empty()) pop();
      ASSERT_TRUE(q.empty());
    }
  }
}

TEST(EventQueue, RejectsNaNAndTimesBeforeTheLastPop) {
  sim::EventQueue q;
  EXPECT_THROW(q.push(std::nan(""), sim::EventKind::kDeliver, 1), std::invalid_argument);
  q.push(5.0, sim::EventKind::kDeliver, 1);
  q.push(9.0, sim::EventKind::kDeliver, 2);
  EXPECT_EQ(q.pop().a, 1u);
  EXPECT_THROW(q.push(4.5, sim::EventKind::kDeliver, 3), std::invalid_argument);
  EXPECT_THROW(q.push(std::nan(""), sim::EventKind::kDeliver, 3), std::invalid_argument);
  EXPECT_EQ(q.size(), 1u);
  // top() looks ahead without moving the bound: a time between the last
  // pop and the top is still accepted, and pops first.
  EXPECT_EQ(q.top().a, 2u);
  q.push(5.0, sim::EventKind::kDeliver, 4);
  q.push(7.0, sim::EventKind::kDeliver, 5);
  EXPECT_EQ(q.pop().a, 4u);
  EXPECT_EQ(q.pop().a, 5u);
  EXPECT_EQ(q.pop().a, 2u);
  EXPECT_TRUE(q.empty());
}

// ---------------- rng ----------------

// LazyRng is std::mt19937_64, bit for bit: raw outputs across the hand-over
// from directly computed outputs (0-155) to the full engine (156 on), and
// exponential draws through the standard distribution, as run_synthetic
// takes them.
TEST(LazyRng, MatchesMt19937_64) {
  for (std::uint64_t stream = 0; stream < 1200; ++stream) {
    const std::uint64_t seed = split_seed(0x5eed, stream);
    Rng ref(seed);
    LazyRng lazy(seed);
    for (int i = 0; i < 400; ++i) ASSERT_EQ(lazy(), ref()) << "seed " << seed << " output " << i;
  }
  for (std::uint64_t stream = 0; stream < 1000; ++stream) {
    const std::uint64_t seed = split_seed(42, stream);
    Rng ref(seed);
    LazyRng lazy(seed);
    std::exponential_distribution<double> ref_gap(0.0125), lazy_gap(0.0125);
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(lazy_gap(lazy)),
                std::bit_cast<std::uint64_t>(ref_gap(ref)))
          << "seed " << seed << " draw " << i;
      ASSERT_EQ(lazy(), ref());
    }
  }
  // Seeds at the edges of the word.
  for (const std::uint64_t seed : {std::uint64_t{0}, ~std::uint64_t{0}, std::uint64_t{5489}}) {
    Rng ref(seed);
    LazyRng lazy(seed);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(lazy(), ref()) << "seed " << seed;
  }
}

// ---------------- latency stats ----------------

TEST(LatencyStats, MomentsAndPercentiles) {
  sim::LatencyStats s;
  for (int i = 1; i <= 100; ++i) s.record(i);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(0.99), 99.01, 0.01);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(LatencyStats, EmptyIsZero) {
  sim::LatencyStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
}

// ---------------- table ----------------

TEST(TableUtil, AlignsColumns) {
  Table t({"A", "Bee"});
  t.add_row({"xx", "y"});
  t.add_row({"x", "yyyy"});
  auto s = t.str();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  EXPECT_NE(s.find("Bee"), std::string::npos);
  EXPECT_NE(s.find("yyyy"), std::string::npos);
}

TEST(TableUtil, ShortRowsPadded) {
  Table t({"A", "B", "C"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.str());
}

TEST(TableUtil, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

// ---------------- rng ----------------

TEST(RngUtil, SplitSeedDecorrelates) {
  // Different streams from the same base must differ.
  EXPECT_NE(split_seed(42, 0), split_seed(42, 1));
  EXPECT_NE(split_seed(42, 0), split_seed(43, 0));
  // uniform_below stays below.
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(uniform_below(rng, 7), 7u);
}

// ---------------- simulator argument validation ----------------

TEST(SimulatorEdge, RejectsBadEndpoints) {
  auto g = Graph::from_edges(2, {{0, 1}});
  auto t = routing::Tables::build(g);
  sim::SimConfig cfg;
  cfg.concentration = 1;
  sim::Simulator s(g, t, cfg);
  EXPECT_THROW(s.send(0, 99, 100, 0.0), std::out_of_range);
  EXPECT_THROW(s.send(99, 0, 100, 0.0), std::out_of_range);
}

TEST(SimulatorEdge, RejectsPastNonFiniteTimesAndLoads) {
  auto g = Graph::from_edges(2, {{0, 1}});
  auto t = routing::Tables::build(g);
  sim::SimConfig cfg;
  cfg.concentration = 1;
  sim::Simulator s(g, t, cfg);
  s.send(0, 1, 100, 50.0);
  ASSERT_TRUE(s.run());
  const double now = s.now();
  ASSERT_GT(now, 50.0);
  EXPECT_THROW(s.send(0, 1, 100, now - 1.0), std::invalid_argument);
  EXPECT_THROW(s.send(0, 1, 100, std::nan("")), std::invalid_argument);
  EXPECT_THROW(s.send(0, 1, 100, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_NO_THROW(s.send(0, 1, 100, now));
  EXPECT_TRUE(s.run());

  sim::SyntheticLoad load;
  load.nranks = 2;
  load.messages_per_rank = 1;
  for (double bad : {0.0, -1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
    load.offered_load = bad;
    sim::Simulator fresh(g, t, cfg);
    EXPECT_THROW((void)sim::run_synthetic(fresh, load), std::invalid_argument) << bad;
  }
}

TEST(SimulatorEdge, ZeroByteMessageClampsToOne) {
  auto g = Graph::from_edges(2, {{0, 1}});
  auto t = routing::Tables::build(g);
  sim::SimConfig cfg;
  cfg.concentration = 1;
  sim::Simulator s(g, t, cfg);
  s.send(0, 1, 0, 0.0);
  EXPECT_TRUE(s.run());
  EXPECT_EQ(s.message_latency().count(), 1u);
}

TEST(SimulatorEdge, RunUntilStopsEarly) {
  auto g = Graph::from_edges(2, {{0, 1}});
  auto t = routing::Tables::build(g);
  sim::SimConfig cfg;
  cfg.concentration = 1;
  sim::Simulator s(g, t, cfg);
  s.send(0, 1, 4096, 1e9);  // scheduled far in the future
  EXPECT_FALSE(s.run(/*until=*/10.0));
  EXPECT_EQ(s.message_latency().count(), 0u);
  EXPECT_TRUE(s.run());  // finish it
  EXPECT_EQ(s.message_latency().count(), 1u);
}

TEST(SimulatorEdge, DegenerateConfigRejected) {
  auto g = Graph::from_edges(2, {{0, 1}});
  auto t = routing::Tables::build(g);
  sim::SimConfig cfg;
  cfg.vcs = 0;
  EXPECT_THROW(sim::Simulator(g, t, cfg), std::invalid_argument);
}

TEST(SimulatorEdge, SelfMessageDelivered) {
  auto g = Graph::from_edges(2, {{0, 1}});
  auto t = routing::Tables::build(g);
  sim::SimConfig cfg;
  cfg.concentration = 2;
  sim::Simulator s(g, t, cfg);
  s.send(0, 0, 512, 0.0);  // endpoint to itself through its router
  EXPECT_TRUE(s.run());
  EXPECT_EQ(s.message_latency().count(), 1u);
}

// ---------------- cabinets ----------------

TEST(CabinetGridEdge, SingleRouter) {
  auto g = layout::CabinetGrid::for_routers(1);
  EXPECT_EQ(g.cabinets, 1u);
  EXPECT_GE(g.grid_x * g.grid_y, 1u);
}

TEST(CabinetGridEdge, OddRouterCount) {
  auto g = layout::CabinetGrid::for_routers(169);
  EXPECT_EQ(g.cabinets, 85u);  // one cabinet half full
}

TEST(CabinetGridEdge, WireSymmetryExhaustive) {
  auto g = layout::CabinetGrid::for_routers(40);
  for (std::uint32_t a = 0; a < g.cabinets; ++a)
    for (std::uint32_t b = 0; b < g.cabinets; ++b)
      EXPECT_DOUBLE_EQ(g.wire_length(a, b), g.wire_length(b, a));
}

// ---------------- parameter-space corners ----------------

TEST(ParamCorners, LpsNonRamanujanRangeStillBuilds) {
  // Table II uses LPS(19,7) although 7 < 2*sqrt(19): the construction is
  // still a valid simple 20-regular Cayley graph, just without the
  // spectral certificate.
  topo::LpsParams p{19, 7};
  EXPECT_TRUE(p.valid());
  EXPECT_FALSE(p.is_ramanujan_range());
  auto g = topo::lps_graph(p);
  EXPECT_EQ(g.num_vertices(), 336u);
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, 20u);
}

TEST(ParamCorners, MmsRejectsTwoModFour) {
  EXPECT_FALSE(topo::MmsParams{6}.valid());
  EXPECT_FALSE(topo::MmsParams{2}.valid());
  EXPECT_THROW(topo::mms_graph({6}), std::invalid_argument);
}

TEST(ParamCorners, SmallestMms) {
  auto g = topo::mms_graph({3});
  EXPECT_EQ(g.num_vertices(), 18u);
  std::uint32_t k = 0;
  EXPECT_TRUE(g.is_regular(&k));
  EXPECT_EQ(k, 5u);
}

// ---------------- examples ----------------

// The example binaries live next to this test binary (single-directory
// CMake build); ctest may run us from anywhere, so resolve via
// /proc/self/exe.
std::string bin_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

TEST(Examples, MalformedArgumentExitsTwoWithUsage) {
  // "12x" is not 12 routers (atoi's answer): parse_uint refuses it.
  const std::string err = std::string(::testing::TempDir()) + "examples_usage.err";
  const int st = std::system(
      (bin_dir() + "/topology_explorer 12x > /dev/null 2> " + err).c_str());
  ASSERT_TRUE(WIFEXITED(st));
  EXPECT_EQ(WEXITSTATUS(st), 2);
  std::ifstream in(err);
  const std::string msg{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  EXPECT_NE(msg.find("usage: topology_explorer"), std::string::npos) << msg;
}

}  // namespace
}  // namespace sfly
