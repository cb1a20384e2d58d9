#include "routing/next_hop_index.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace sfly::routing {

namespace {
std::atomic<std::uint64_t> g_index_builds{0};

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

// Pass 1, sources [lo, hi): adds each slot's matches over the whole row
// dist[u] into the row counts at offsets[u * n + v + 1], so the prefix sum
// lands each row's base at offsets[u * n + v].  Row (u, u) stays empty.
void count_rows(const Graph& g, const std::uint8_t* dist, std::size_t lo,
                std::size_t hi, std::uint32_t* offsets) {
  const std::size_t n = g.num_vertices();
  for (std::size_t u = lo; u < hi; ++u) {
    const std::uint8_t* du = dist + u * n;
    std::uint32_t* count = offsets + u * n + 1;
    for (const Vertex w : g.neighbors(static_cast<Vertex>(u))) {
      const std::uint8_t* dw = dist + static_cast<std::size_t>(w) * n;
      for (std::size_t v = 0; v < n; ++v)
        count[v] += (du[v] != 0) & (static_cast<std::uint8_t>(dw[v] + 1) == du[v]);
    }
    count[u] = 0;
  }
}

// Pass 2, sources [lo, hi): for each block of 64 rows, walks u's slots in
// adjacency order and appends (nb[s], s) at the cursor of every row v of
// the block that slot s matches, so each row ends up in scan order.  Slot
// w matches v iff dist[w][v] == want[v] = dist[u][v] - 1 and bit v of
// `valid` (dist[u][v] != 0, v != u; clear past n, where the tail's zero
// padding compares equal) is set.
void fill_rows(const Graph& g, const std::uint8_t* dist, std::size_t lo,
               std::size_t hi, const std::uint32_t* offsets, Vertex* verts,
               std::uint16_t* slots) {
  const std::size_t n = g.num_vertices();
  const std::size_t blocks = (n + 63) / 64;
  std::vector<std::uint32_t> cursor_buf(n);
  std::vector<std::uint8_t> want_buf(n);
  std::vector<std::uint64_t> valid_buf(blocks);
  std::uint32_t* const cursor = cursor_buf.data();
  std::uint8_t* const want = want_buf.data();
  std::uint64_t* const valid = valid_buf.data();
  for (std::size_t u = lo; u < hi; ++u) {
    const std::uint8_t* du = dist + u * n;
    std::copy_n(offsets + u * n, n, cursor);
    std::fill_n(valid, blocks, 0);
    for (std::size_t v = 0; v < n; ++v) {
      want[v] = static_cast<std::uint8_t>(du[v] - 1);
      valid[v / 64] |= std::uint64_t{du[v] != 0 && v != u} << (v % 64);
    }
    const auto nb = g.neighbors(static_cast<Vertex>(u));
    for (std::size_t base = 0; base < n; base += 64) {
      const std::size_t len = std::min<std::size_t>(64, n - base);
      for (std::size_t s = 0; s < nb.size(); ++s) {
        const std::uint8_t* dw = dist + static_cast<std::size_t>(nb[s]) * n + base;
        std::uint64_t m = 0;
        std::size_t j = 0;
        for (; j + 8 <= len; j += 8)
          m |= zero_bytes(load_bytes(dw + j, 8) ^ load_bytes(want + base + j, 8)) << j;
        if (j < len)
          m |= zero_bytes(load_bytes(dw + j, len - j) ^
                          load_bytes(want + base + j, len - j)) << j;
        for (m &= valid[base / 64]; m != 0; m &= m - 1) {
          const std::uint32_t at = cursor[base + std::countr_zero(m)]++;
          verts[at] = nb[s];
          slots[at] = static_cast<std::uint16_t>(s);
        }
      }
    }
  }
}
}  // namespace

std::uint64_t NextHopIndex::builds() { return g_index_builds.load(); }

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
  const std::size_t rows = static_cast<std::size_t>(n) * n;
  std::vector<std::uint32_t> offsets(rows + 1, 0);

  // The passes take raw pointers as plain arguments: reached through a
  // closure, they would be reloaded after every store.
  const std::uint8_t* dist = tables.raw_distances().data();
  TaskPool::parallel_for(pool, n, 8, [&](std::size_t lo, std::size_t hi) {
    count_rows(g, dist, lo, hi, offsets.data());
  });
  for (std::size_t r = 0; r < rows; ++r) offsets[r + 1] += offsets[r];

  const std::size_t entries = offsets[rows];
  std::vector<Vertex> verts(entries);
  std::vector<std::uint16_t> slots(entries);
  TaskPool::parallel_for(pool, n, 8, [&](std::size_t lo, std::size_t hi) {
    fill_rows(g, dist, lo, hi, offsets.data(), verts.data(), slots.data());
  });
  idx.offsets_ = std::move(offsets);
  idx.verts_ = std::move(verts);
  idx.slots_ = std::move(slots);
  return idx;
}

NextHopIndex NextHopIndex::from_view(Vertex n,
                                     std::span<const std::uint32_t> offsets,
                                     std::span<const Vertex> verts,
                                     std::span<const std::uint16_t> slots) {
  const std::size_t rows = static_cast<std::size_t>(n) * n;
  if (offsets.size() != rows + 1)
    throw std::invalid_argument("NextHopIndex::from_view: offsets size != n*n+1");
  if (rows > 0 && (verts.size() != offsets[rows] || slots.size() != offsets[rows]))
    throw std::invalid_argument("NextHopIndex::from_view: entry count mismatch");
  NextHopIndex idx;
  idx.n_ = n;
  idx.offsets_ = OwnedSpan<std::uint32_t>::view(offsets.data(), offsets.size());
  idx.verts_ = OwnedSpan<Vertex>::view(verts.data(), verts.size());
  idx.slots_ = OwnedSpan<std::uint16_t>::view(slots.data(), slots.size());
  return idx;
}

}  // namespace sfly::routing
