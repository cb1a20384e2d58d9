#pragma once
// Fiduccia–Mattheyses gain buckets for the two sides of a bisection.
// Private to partition/bisection.cpp; a header only so tests can drive it.
//
// Each side holds a set of (gain, vertex) entries, at most one per vertex
// overall, ordered like std::pair: higher gain first, ties to the higher
// vertex id.  Gains in [-G, G] live in rows, one per side and gain value,
// each a bitset over vertex ids with a one-word summary of which chunks of
// it hold entries, so a row's best entry is its highest set bit and a gain
// change is one bit moved between two rows.  Entries with |gain| > G live
// in `over_`, a small ordered set per side: they rank above (gain > G) or
// below (gain < -G) every row.  G comes from row_bound(), which keeps the
// rows within the size of the level being refined.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "graph/graph.hpp"

namespace sfly::detail {

class GainBuckets {
 public:
  // (gain, v) packed so one unsigned compare is the pair compare: biased
  // gain in the high word, vertex in the low word.  |gain| is at most the
  // vertex's weighted degree, which is at most |E| <= 2^30 (bisect's edge
  // guard), so the biased gain fits 32 bits and stays above zero.
  using Entry = std::uint64_t;
  static constexpr std::int64_t kBias = std::int64_t{1} << 31;
  static constexpr Entry kNone = 0;  // ranks below every real entry
  static Entry entry(std::int64_t gain, Vertex v) {
    return (static_cast<std::uint64_t>(gain + kBias) << 32) | v;
  }
  static Vertex vertex(Entry e) { return static_cast<Vertex>(e); }
  static std::int64_t gain(Entry e) { return static_cast<std::int64_t>(e >> 32) - kBias; }

  /// The row bound G for a level with n vertices, `adjacency` CSR entries
  /// (2|E|) and weighted degrees `wdeg` (|gain(v)| <= wdeg[v]).
  ///
  /// Storage.  Rows take 2(2G+1)(W+1) words, W = ceil(n/64) bitset words
  /// and one summary word per row; the first cap below keeps that at most
  /// 2(n + 2|E|).  Gains and flags add 5n/8 words, and `over_` at most n
  /// nodes (a vertex sits on one side) of 6 words with the allocator's
  /// header: under 9(n + 2|E|) words at every level.
  ///
  /// Time.  Rows past the (n/64 + 1)-th largest weighted degree would
  /// serve at most n/64 vertices, so G stops there: a star's hub keeps its
  /// ±hub-degree gain in `over_` instead of stretching every leaf's rows.
  static std::int64_t row_bound(Vertex n, std::size_t adjacency,
                                std::vector<std::int64_t> wdeg) {
    if (n == 0) return 0;
    const std::size_t row_words = words_for(n) + 1;
    const std::size_t rows = std::max<std::size_t>(1, (n + adjacency) / row_words);
    const std::int64_t by_size = static_cast<std::int64_t>((rows - 1) / 2);
    const auto kth = wdeg.begin() + n / 64;
    std::nth_element(wdeg.begin(), kth, wdeg.end(), std::greater<>());
    return std::min(by_size, *kth);
  }

  /// Empties both sides and lays them out for vertex ids below n, with one
  /// row per gain in [-bound, bound].
  void reset(Vertex n, std::int64_t bound) {
    g_ = bound;
    w_ = words_for(n);
    for (chunk_ = 0; (w_ + (std::size_t{1} << chunk_) - 1) >> chunk_ > 64;) ++chunk_;
    rows_ = static_cast<std::size_t>(2 * bound + 1);
    bits_.assign(2 * rows_ * w_, 0);
    sums_.assign(2 * rows_, 0);
    gain_.assign(n, 0);
    where_.assign(n, 0);
    clear();
  }

  /// Removes every entry; keeps the layout.  Zeroes only the chunks the
  /// summaries flag.
  void clear() {
    for (std::size_t r = 0; r < sums_.size(); ++r) {
      std::uint64_t* words = bits_.data() + r * w_;
      for (std::uint64_t m = sums_[r]; m != 0; m &= m - 1) {
        const std::size_t lo = static_cast<std::size_t>(std::countr_zero(m)) << chunk_;
        std::fill(words + lo, words + std::min(w_, lo + (std::size_t{1} << chunk_)), 0);
      }
      sums_[r] = 0;
    }
    std::fill(where_.begin(), where_.end(), 0);
    over_[0].clear();
    over_[1].clear();
    top_[0] = top_[1] = 0;
  }

  [[nodiscard]] bool contains(Vertex v) const { return (where_[v] & kLive) != 0; }
  [[nodiscard]] int side_of(Vertex v) const { return where_[v] >> 1; }
  [[nodiscard]] std::int64_t gain_of(Vertex v) const { return gain_[v]; }

  /// Adds (gain, v) to `side`; v must be absent.
  void insert(Vertex v, int side, std::int64_t gain) {
    where_[v] = static_cast<std::uint8_t>(kLive | side << 1);
    gain_[v] = static_cast<std::int32_t>(gain);
    if (!in_rows(gain)) {
      over_[side].insert(entry(gain, v));
      return;
    }
    const std::size_t r = static_cast<std::size_t>(side) * rows_ + row(gain);
    bits_[r * w_ + v / 64] |= bit(v);
    sums_[r] |= std::uint64_t{1} << (v / 64 >> chunk_);
    top_[side] = std::max(top_[side], row(gain));
  }

  /// Removes v's entry; v must be present.
  void erase(Vertex v) {
    const std::size_t side = where_[v] >> 1;
    const std::int64_t g = gain_[v];
    where_[v] = 0;
    if (in_rows(g))
      bits_[(side * rows_ + row(g)) * w_ + v / 64] ^= bit(v);
    else
      over_[side].erase(entry(g, v));
  }

  /// FM's update after a vertex moved to side `to`: each neighbour nbr[i]
  /// across an edge of weight ewgt[i] loses 2w when it sits on `to` and
  /// gains 2w otherwise.  Locked (absent) neighbours are unchanged.
  void moved_to(int to, const Vertex* nbr, const std::uint32_t* ewgt, std::size_t count) {
    Hot h = hot();
    for (std::size_t i = 0; i < count; ++i) {
      const Vertex v = nbr[i];
      const std::int64_t w2 = 2 * static_cast<std::int64_t>(ewgt[i]);
      step(h, v, (((h.where[v] >> 1) ^ to) * 2 - 1) * w2);
    }
    top_[0] = h.top[0];
    top_[1] = h.top[1];
  }

  /// The best entry of `side` whose vertex weighs at most `cap` and that
  /// ranks above `floor`, or `floor` when there is none.
  Entry best_fit(int side, const std::uint32_t* vwgt, std::uint64_t cap, Entry floor) {
    // Entries rank: over_ above G, then the rows top down, then over_
    // below -G, so one descending walk of over_ brackets the rows.
    const std::set<Entry>& over = over_[side];
    auto it = over.rbegin();
    for (; it != over.rend() && gain(*it) > g_; ++it) {
      if (*it <= floor) return floor;
      if (vwgt[vertex(*it)] <= cap) return *it;
    }
    // Walk the rows down from top_, skipping rows whose summary is clear;
    // top_ drops to the first row that holds an entry.
    std::size_t& top = top_[side];
    const std::size_t base = static_cast<std::size_t>(side) * rows_;
    bool at_top = true;
    for (std::size_t r = top + 1; r-- > 0;) {
      if (sums_[base + r] == 0) continue;
      const std::int64_t rg = static_cast<std::int64_t>(r) - g_;
      if (at_top) top = r;
      if (entry(rg, kMaxVertex) <= floor) return floor;
      bool any = false;
      const Entry e = best_in_row(base + r, rg, vwgt, cap, floor, any);
      if (e != kNone) return e;
      at_top = at_top && !any;
    }
    if (at_top) top = 0;
    for (; it != over.rend(); ++it) {
      if (*it <= floor) return floor;
      if (vwgt[vertex(*it)] <= cap) return *it;
    }
    return floor;
  }

 private:
  static constexpr std::uint8_t kLive = 1;  // where_: bit 0 live, bit 1 side
  static constexpr Vertex kMaxVertex = ~Vertex{0};
  static std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }
  static std::uint64_t bit(Vertex v) { return std::uint64_t{1} << (v % 64); }
  [[nodiscard]] bool in_rows(std::int64_t gain) const {
    return static_cast<std::uint64_t>(gain + g_) <= static_cast<std::uint64_t>(2 * g_);
  }
  [[nodiscard]] std::size_t row(std::int64_t gain) const {
    return static_cast<std::size_t>(gain + g_);
  }

  // The layout and top rows copied into locals, so a loop of step()s keeps
  // them in registers instead of reloading them after every bit store.
  struct Hot {
    std::int64_t g;
    std::size_t w, chunk, rows;
    std::uint64_t* bits;
    std::uint64_t* sums;
    std::int32_t* gain;
    const std::uint8_t* where;
    std::size_t top[2];
  };
  Hot hot() {
    return {g_,           w_,           chunk_,       rows_,
            bits_.data(), sums_.data(), gain_.data(),
            where_.data(), {top_[0], top_[1]}};
  }

  // One gain change.  Inside the rows it moves one bit with no branch: an
  // absent (locked) vertex moves a zero mask between clamped rows, and
  // summary bits and the top row only ever rise here.
  void step(Hot& h, Vertex v, std::int64_t delta) {
    const std::uint64_t live = h.where[v] & kLive;
    const std::size_t side = h.where[v] >> 1;
    const std::int64_t g = h.gain[v];
    const std::int64_t ng = g + delta;
    const std::uint64_t span = static_cast<std::uint64_t>(2 * h.g);
    const bool inside = (static_cast<std::uint64_t>(g + h.g) <= span) &
                        (static_cast<std::uint64_t>(ng + h.g) <= span);
    if (live & !inside) [[unlikely]] {
      top_[0] = h.top[0];
      top_[1] = h.top[1];
      erase(v);
      insert(v, static_cast<int>(side), ng);
      h = hot();
      return;
    }
    h.gain[v] = static_cast<std::int32_t>(g + delta * static_cast<std::int64_t>(live));
    const std::uint64_t on = 0 - live;
    const std::size_t from = static_cast<std::size_t>(std::clamp(g, -h.g, h.g) + h.g);
    const std::size_t to = static_cast<std::size_t>(std::clamp(ng, -h.g, h.g) + h.g);
    const std::size_t base = side * h.rows;
    h.bits[(base + from) * h.w + v / 64] ^= bit(v) & on;
    h.bits[(base + to) * h.w + v / 64] ^= bit(v) & on;
    h.sums[base + to] |= (std::uint64_t{1} << (v / 64 >> h.chunk)) & on;
    h.top[side] = std::max(h.top[side], to & on);
  }

  // The best entry of row r (counting both sides' rows) that ranks above
  // floor and whose vertex fits the cap, or kNone; `any` reports whether
  // the row holds an entry at all.  Summary bits of chunks found empty are
  // cleared here, not when the chunk empties.
  Entry best_in_row(std::size_t r, std::int64_t rg, const std::uint32_t* vwgt,
                    std::uint64_t cap, Entry floor, bool& any) {
    const std::uint64_t* words = &bits_[r * w_];
    for (std::uint64_t sm = sums_[r]; sm != 0;) {
      const int hs = 63 - std::countl_zero(sm);
      sm &= ~(std::uint64_t{1} << hs);
      const std::size_t lo = static_cast<std::size_t>(hs) << chunk_;
      bool held = false;
      for (std::size_t w = std::min(w_, lo + (std::size_t{1} << chunk_)); w-- > lo;) {
        if (words[w] == 0) continue;
        held = any = true;
        for (std::uint64_t bits = words[w]; bits != 0;) {
          const int hb = 63 - std::countl_zero(bits);
          bits &= ~(std::uint64_t{1} << hb);
          const Vertex v = static_cast<Vertex>(64 * w + static_cast<std::size_t>(hb));
          const Entry e = entry(rg, v);
          if (e <= floor) return kNone;
          if (vwgt[v] <= cap) return e;
        }
      }
      if (!held) sums_[r] &= ~(std::uint64_t{1} << hs);
    }
    return kNone;
  }

  std::int64_t g_ = 0;                    // rows cover gains [-g_, g_]
  std::size_t w_ = 0, rows_ = 0;  // words per row; rows per side
  std::size_t chunk_ = 0;         // a summary bit covers 2^chunk_ words
  std::vector<std::uint64_t> bits_;  // side s, row r at [(s*rows_+r)*w_, +w_)
  std::vector<std::uint64_t> sums_;  // row s*rows_+r: bit k = chunk k may hold entries
  std::size_t top_[2] = {0, 0};      // no row of side s above top_[s] has an entry
  std::vector<std::int32_t> gain_;   // gain of each present vertex
  std::vector<std::uint8_t> where_;  // kLive | side << 1 while present, else 0
  std::set<Entry> over_[2];          // entries with |gain| > g_, per side
};

}  // namespace sfly::detail
