#pragma once
// Latency / completion statistics collected by the simulator.

#include <cstdint>
#include <vector>

namespace sfly::sim {

class LatencyStats {
 public:
  void record(double latency_ns);

  /// Pre-size the sample store so `record` stays allocation-free for the
  /// next `n` samples (the simulator reserves its scheduled message count
  /// when run() starts).
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? sum_ / count_ : 0.0; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  /// p clamps into [0,1] (NaN reads as 0). The first call after a
  /// record() sorts the sample store in place.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
  double min_ = 0.0;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  friend class Simulator;
};

}  // namespace sfly::sim
