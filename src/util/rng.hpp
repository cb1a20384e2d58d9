#pragma once
// Deterministic random-number utilities.
//
// Every stochastic component in the library (edge-failure sampling, Valiant
// intermediate selection, SkyWalk/JellyFish generation, QAP annealing,
// Poisson traffic) takes an explicit seed so experiments are reproducible
// run-to-run and across machines.

#include <cstdint>
#include <optional>
#include <random>

namespace sfly {

using Rng = std::mt19937_64;

/// Derive a stream-independent child seed from a base seed and a stream id.
/// (SplitMix64 finalizer; avoids correlated streams when a parallel loop
/// seeds one RNG per trial.)
inline std::uint64_t split_seed(std::uint64_t base, std::uint64_t stream) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The output stream of `Rng(seed)`, bit for bit, for a caller that draws
/// only a few values per seed. Output i < 156 of the engine's first twist
/// reads only seeded words i, i+1 and i+156, so words are seeded only as
/// far as the next output needs and output i is computed directly, instead
/// of seeding and twisting all 312. From output 156 on, a full `Rng(seed)`
/// advanced past the first 156 takes over.
class LazyRng {
 public:
  using result_type = Rng::result_type;
  static constexpr result_type min() { return Rng::min(); }
  static constexpr result_type max() { return Rng::max(); }

  explicit LazyRng(result_type seed) {
    low_[0] = seed;
    for (std::size_t j = 1; j <= kDirect; ++j) low_[j] = seed_word(low_[j - 1], j);
    high_ = low_[kDirect];
  }

  result_type operator()() {
    if (next_ == kDirect) {
      if (!tail_) {
        tail_.emplace(low_[0]);
        tail_->discard(kDirect);
      }
      return (*tail_)();
    }
    for (; high_index_ < next_ + Rng::shift_size; ++high_index_)
      high_ = seed_word(high_, high_index_ + 1);
    constexpr result_type kUpper = ~result_type{0} << Rng::mask_bits;
    const result_type y = (low_[next_] & kUpper) | (low_[next_ + 1] & ~kUpper);
    result_type z = high_ ^ (y >> 1) ^ ((y & 1) ? Rng::xor_mask : 0);
    ++next_;
    z ^= (z >> Rng::tempering_u) & Rng::tempering_d;
    z ^= (z << Rng::tempering_s) & Rng::tempering_b;
    z ^= (z << Rng::tempering_t) & Rng::tempering_c;
    return z ^ (z >> Rng::tempering_l);
  }

 private:
  // Outputs the first twist computes from seeded words alone.
  static constexpr std::size_t kDirect = Rng::state_size - Rng::shift_size;
  static_assert(Rng::shift_size >= kDirect, "output 0 reads word shift_size, at or past high_");

  // Seeded word j from word j-1 (the engine's seed recurrence).
  static result_type seed_word(result_type prev, std::size_t j) {
    return Rng::initialization_multiplier * (prev ^ (prev >> (Rng::word_size - 2))) + j;
  }

  result_type low_[kDirect + 1];  // seeded words 0 .. kDirect
  result_type high_ = 0;          // seeded word high_index_
  std::size_t high_index_ = kDirect;
  std::size_t next_ = 0;          // index of the next output
  std::optional<Rng> tail_;
};

/// Uniform integer in [0, n). Requires n > 0.
inline std::uint64_t uniform_below(Rng& rng, std::uint64_t n) {
  return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
}

}  // namespace sfly
