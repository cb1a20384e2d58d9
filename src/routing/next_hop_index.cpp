#include "routing/next_hop_index.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

namespace sfly::routing {

namespace {
std::atomic<std::uint64_t> g_index_builds{0};

std::size_t max_degree(const Graph& g) {
  std::size_t d = 0;
  for (Vertex u = 0; u < g.num_vertices(); ++u)
    d = std::max<std::size_t>(d, g.degree(u));
  return d;
}

constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;

// Bytes p[0, len) as a word, byte i in bits [8i, 8i + 8) (len <= 8).
static_assert(std::endian::native == std::endian::little,
              "the match masks number bytes from the low end of a word");
std::uint64_t load_bytes(const std::uint8_t* p, std::size_t len) {
  std::uint64_t x = 0;
  std::memcpy(&x, p, len);
  return x;
}

// Bit i set iff byte i of x is zero: bytewise SWAR (no carry crosses a
// byte) puts 0x80 in each zero byte, and the multiply gathers those eight
// bits into the top byte.
std::uint64_t zero_bytes(std::uint64_t x) {
  const std::uint64_t z = ~(((x & kLow7) + kLow7) | x) & ~kLow7;
  return ((z >> 7) * 0x0102040810204080ull) >> 56;
}

// Sources [lo, hi): for each block of 64 destinations and each slot s of
// u, ORs bit s into the (zeroed) mask of every destination v of the block
// that s matches: bit s % 8 of the mask's byte s / 8, so each store stays
// inside source u's own run of n * pair_bytes bytes.  Slot w matches v
// iff dist[w][v] == want[v] = dist[u][v] - 1 and bit v of `valid`
// (dist[u][v] != 0, v != u; clear past n, where the tail's zero padding
// compares equal) is set.
void fill_masks(const Graph& g, const std::uint8_t* dist, std::size_t lo,
                std::size_t hi, std::size_t pair_bytes, std::uint8_t* masks) {
  const std::size_t n = g.num_vertices();
  const std::size_t blocks = (n + 63) / 64;
  std::vector<std::uint8_t> want_buf(n);
  std::vector<std::uint64_t> valid_buf(blocks);
  std::uint8_t* const want = want_buf.data();
  std::uint64_t* const valid = valid_buf.data();
  for (std::size_t u = lo; u < hi; ++u) {
    const std::uint8_t* du = dist + u * n;
    std::fill_n(valid, blocks, 0);
    for (std::size_t v = 0; v < n; ++v) {
      want[v] = static_cast<std::uint8_t>(du[v] - 1);
      valid[v / 64] |= std::uint64_t{du[v] != 0 && v != u} << (v % 64);
    }
    const auto nb = g.neighbors(static_cast<Vertex>(u));
    for (std::size_t base = 0; base < n; base += 64) {
      const std::size_t len = std::min<std::size_t>(64, n - base);
      std::uint8_t* const rows = masks + (u * n + base) * pair_bytes;
      for (std::size_t s = 0; s < nb.size(); ++s) {
        const std::uint8_t* dw = dist + static_cast<std::size_t>(nb[s]) * n + base;
        std::uint64_t m = 0;
        std::size_t j = 0;
        for (; j + 8 <= len; j += 8)
          m |= zero_bytes(load_bytes(dw + j, 8) ^ load_bytes(want + base + j, 8)) << j;
        if (j < len)
          m |= zero_bytes(load_bytes(dw + j, len - j) ^
                          load_bytes(want + base + j, len - j)) << j;
        const auto bit = static_cast<std::uint8_t>(1u << (s % 8));
        std::uint8_t* const byte = rows + s / 8;
        for (m &= valid[base / 64]; m != 0; m &= m - 1)
          byte[static_cast<std::size_t>(std::countr_zero(m)) * pair_bytes] |= bit;
      }
    }
  }
}
}  // namespace

std::uint64_t NextHopIndex::builds() { return g_index_builds.load(); }

std::size_t NextHopIndex::words_for(const Graph& g) {
  return std::max<std::size_t>(1, (max_degree(g) + 63) / 64);
}

std::size_t NextHopIndex::pair_bytes_for(const Graph& g) {
  const std::size_t d = max_degree(g);
  return d <= 64 ? std::max<std::size_t>(1, (d + 7) / 8) : 8 * words_for(g);
}

NextHopIndex NextHopIndex::build(const Graph& g, const Tables& tables,
                                 TaskPool* pool) {
  g_index_builds.fetch_add(1, std::memory_order_relaxed);
  const Vertex n = g.num_vertices();
  if (tables.num_vertices() != n)
    throw std::invalid_argument("NextHopIndex: tables/graph mismatch");

  for (Vertex u = 0; u < n; ++u)
    if (g.degree(u) > std::numeric_limits<std::uint16_t>::max() + 1ull)
      throw std::invalid_argument("NextHopIndex: radix exceeds uint16 slots");

  NextHopIndex idx;
  idx.n_ = n;
  idx.words_ = words_for(g);
  idx.pair_bytes_ = pair_bytes_for(g);
  idx.keep_ = idx.pair_bytes_ >= 8 ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << (8 * idx.pair_bytes_)) - 1;
  idx.graph_ = g;
  std::vector<std::uint8_t> masks(static_cast<std::size_t>(n) * n * idx.pair_bytes_ +
                                  kPadding);

  // The fill takes raw pointers as plain arguments: reached through a
  // closure, they would be reloaded after every store.
  const std::uint8_t* dist = tables.raw_distances().data();
  TaskPool::parallel_for(pool, n, 8, [&](std::size_t lo, std::size_t hi) {
    fill_masks(g, dist, lo, hi, idx.pair_bytes_, masks.data());
  });
  idx.masks_ = std::move(masks);
  return idx;
}

}  // namespace sfly::routing
