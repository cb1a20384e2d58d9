#pragma once
// Shared machinery of the perfbench workloads: options, clocks, resource
// counters, latency percentiles, row digests, the in-memory span tracer,
// and the metric / record vocabulary every workload reports in.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options (see README.md §Running).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< sizes the fixed work of a run (never a timer)
  bool trace = false;
  bool tiny = false;      ///< --scale tiny: seconds-long runs, one set-up
  std::string work_dir = ".bench_build/work";  ///< traces
};

/// Number of fixed-size rounds a run executes: `seconds` divided by the
/// workload's nominal round time.  A constant of the workload, never a
/// clock reading, so a run's work depends on neither the seed nor the host.
[[nodiscard]] int rounds_for(const Options& o, double nominal_round_s);

// ---------------------------------------------------------------------------
// Clocks and process counters.

[[nodiscard]] double now_s();      ///< steady clock, seconds
[[nodiscard]] double cpu_s();      ///< process user+sys CPU (getrusage)
[[nodiscard]] double peak_rss_mb();  ///< process peak resident set

/// Cumulative host CPU ticks from /proc/stat (steal share between two
/// samples explains an outlier run on a shared VM).
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] HostTicks host_ticks();
[[nodiscard]] double steal_frac(const HostTicks& a, const HostTicks& b);

// ---------------------------------------------------------------------------
// Statistics.

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// The highest of p90 / p99 with at least 10 samples beyond it (p50 when
/// even p90 has fewer), with the sample count it was taken over.
struct Tail {
  double pct = 0.5;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_percentile(const std::vector<double>& v);

/// 64-bit FNV-1a, chainable.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t n,
                                  std::uint64_t h = 14695981039346656037ull);
[[nodiscard]] inline std::uint64_t fnv1a(const std::string& s,
                                         std::uint64_t h = 14695981039346656037ull) {
  return fnv1a(s.data(), s.size(), h);
}
[[nodiscard]] std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------------------
// Tracing: spans recorded in memory, written as Chrome trace-event JSON at
// the end of the run.  Inactive (and free apart from one branch) unless
// Tracer::install() was called, so the timed untraced phase never pays
// for it.

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    double start = 0.0;  ///< seconds, steady clock
    double end = 0.0;
    std::int64_t parent = -1;
    std::uint64_t item = 0;
    std::uint32_t tid = 0;
  };
  struct LayerTime {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus child spans
  };

  static void install(Tracer* t);
  [[nodiscard]] static Tracer* active();

  std::int64_t open(const char* name, std::uint64_t item);
  void close(std::int64_t id);

  /// Per-name totals over spans that started in [t0, t1].
  [[nodiscard]] std::map<std::string, LayerTime> layers(double t0,
                                                        double t1) const;
  void write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when no tracer is installed.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t item = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::int64_t id_ = -1;
};

/// Prints the attribution report: per-layer count, total and self time,
/// each self time as a share of `basis_s` (thread-seconds of the phase).
void print_attribution(const std::string& title,
                       const std::map<std::string, Tracer::LayerTime>& layers,
                       double basis_s);

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Extra context (work counts, host, thread counts): key -> JSON value.
  std::vector<std::pair<std::string, std::string>> record;

  void note(const std::string& key, const std::string& json_value) {
    record.emplace_back(key, json_value);
  }
  void note(const std::string& key, double v);
  /// A self-check; a false check marks the run incorrect and is printed.
  void check(bool ok, const std::string& what);
};

/// One window of the timed phase: a round of a campaign.
struct Window {
  double items = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU over the window
};

/// Inputs of the seven end-to-end metrics.  Rates and CPU per item are
/// the median over the timed phase's windows, so a short episode of host
/// contention moves one window, not the metric; latency percentiles are
/// taken over every item of the phase.
struct EndToEnd {
  double setup_s = 0.0;
  std::vector<Window> windows;
  std::vector<double> latency_ms;  ///< every item of the timed phase
  std::uint64_t failed = 0;
};
void add_end_to_end(Outcome& out, const EndToEnd& e);

/// Per-layer metric names and units (BENCHMARK.json order).  Layers a
/// workload does not run report 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_names();
void set_layer(Outcome& out, const std::string& name, double value);
/// Orders out.per_layer as per_layer_names(), adding 0 for missing layers.
void fill_layers(Outcome& out);

/// JSON number with all its digits (shortest round-trip form).
[[nodiscard]] std::string num(double v);
[[nodiscard]] std::string quote(const std::string& s);

}  // namespace perfbench
