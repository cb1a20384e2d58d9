#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace perfbench {

int rounds_for(const Options& o, double nominal_round_s) {
  return std::max(1, static_cast<int>(std::lround(o.seconds / nominal_round_s)));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

HostTicks host_ticks() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_frac(const HostTicks& a, const HostTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total ? static_cast<double>(b.steal - a.steal) / static_cast<double>(total)
               : 0.0;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t at =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return v[at];
}

Tail tail_percentile(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  for (double p : {0.5, 0.9, 0.99})
    if (static_cast<double>(v.size()) * (1.0 - p) >= 10.0) t.pct = p;
  t.value = percentile(v, t.pct);
  return t;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------

namespace {
std::atomic<Tracer*> g_tracer{nullptr};
thread_local std::vector<std::int64_t> t_open;  // this thread's open spans
std::atomic<std::uint32_t> g_next_tid{0};
thread_local std::uint32_t t_tid = g_next_tid.fetch_add(1);
}  // namespace

void Tracer::install(Tracer* t) { g_tracer.store(t); }
Tracer* Tracer::active() { return g_tracer.load(std::memory_order_relaxed); }

std::int64_t Tracer::open(const char* name, std::uint64_t item) {
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.item = item;
  s.tid = t_tid;
  s.start = now_s();
  std::int64_t id;
  {
    std::lock_guard lock(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(s);
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  const double end = now_s();
  t_open.pop_back();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::map<std::string, Tracer::LayerTime> Tracer::layers(double t0,
                                                        double t1) const {
  std::lock_guard lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.start < t0 || s.start > t1) continue;
    LayerTime& l = out[s.name];
    ++l.count;
    l.total_s += s.end - s.start;
    l.self_s += s.end - s.start - child[i];
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write trace " + path);
  const double base = spans_.empty() ? 0.0 : spans_.front().start;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"item\":%llu}}\n",
                 i ? "," : "", s.name, s.tid, (s.start - base) * 1e6,
                 (s.end - s.start) * 1e6, i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.item));
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

Scope::Scope(const char* name, std::uint64_t item) : t_(Tracer::active()) {
  if (t_) id_ = t_->open(name, item);
}

Scope::~Scope() {
  if (t_) t_->close(id_);
}

void print_attribution(const std::string& title,
                       const std::map<std::string, Tracer::LayerTime>& layers,
                       double basis_s) {
  std::printf("# attribution: %s (basis %.3f thread-s)\n", title.c_str(),
              basis_s);
  std::printf("#   %-28s %9s %11s %11s %8s\n", "layer", "spans", "total ms",
              "self ms", "self %");
  double self = 0.0;
  for (const auto& [name, l] : layers) {
    self += l.self_s;
    std::printf("#   %-28s %9zu %11.3f %11.3f %7.2f%%\n", name.c_str(), l.count,
                l.total_s * 1e3, l.self_s * 1e3,
                basis_s > 0 ? 100.0 * l.self_s / basis_s : 0.0);
  }
  std::printf("#   %-28s %9s %11s %11.3f %7.2f%%\n", "(outside any span)", "", "",
              (basis_s - self) * 1e3,
              basis_s > 0 ? 100.0 * (basis_s - self) / basis_s : 0.0);
}

// ---------------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void Outcome::note(const std::string& key, double v) { note(key, num(v)); }

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::printf("# self-check FAILED: %s\n", what.c_str());
}

void add_end_to_end(Outcome& out, const EndToEnd& e) {
  double items = 0, wall = 0, cpu = 0;
  std::vector<double> rate, cpu_ms;
  for (const Window& w : e.windows) {
    items += w.items;
    wall += w.wall_s;
    cpu += w.cpu_s;
    rate.push_back(w.items / w.wall_s);
    cpu_ms.push_back(w.cpu_s * 1e3 / w.items);
  }
  const Tail tail = tail_percentile(e.latency_ms);
  out.end_to_end = {
      {"setup_s", e.setup_s, "s"},
      {"items_per_s", median(rate), "1/s"},
      {"latency_p50_ms", percentile(e.latency_ms, 0.5), "ms"},
      {"latency_tail_ms", tail.value, "ms"},
      {"cpu_ms_per_item", median(cpu_ms), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_frac", 1.0 - static_cast<double>(e.failed) / std::max(items, 1.0), "frac"},
  };
  out.note("latency_tail_pct", tail.pct * 100.0);
  out.note("latency_tail_samples", static_cast<double>(tail.samples));
  out.note("windows", static_cast<double>(e.windows.size()));
  out.note("items", items);
  out.note("timed_s", wall);
  out.note("items_per_s.pooled", items / wall);
  out.note("cpu_ms_per_item.pooled", cpu * 1e3 / std::max(items, 1.0));
  out.note("failed_frac", static_cast<double>(e.failed) / std::max(items, 1.0));
}

const std::vector<std::pair<std::string, std::string>>& per_layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"sim.run_ms_per_item", "ms"},
      {"sim.ns_per_event", "ns"},
      {"sim.events_per_item", "count"},
      {"sim.network_build_ms", "ms"},
      {"sim.event_queue_ns", "ns"},
      {"sim.unattributed_frac", "frac"},
      {"routing.pick_ns", "ns"},
      {"routing.decision_ns.minimal", "ns"},
      {"routing.decision_ns.valiant", "ns"},
      {"routing.decision_ns.ugal", "ns"},
      {"routing.tables_build_us_per_vertex", "us"},
      {"routing.next_hop_build_us_per_vertex", "us"},
      {"routing.cell_build_us_per_vertex", "us"},
      {"partition.recursive_bisection_s", "s"},
      {"routing.cell_prepare_ms", "ms"},
      {"routing.cell_hop_ns", "ns"},
      {"routing.artifact_mb", "MB"},
      {"graph.failures_ms_per_trial", "ms"},
      {"graph.distance_stats_ms_per_trial", "ms"},
      {"partition.bisect_ms_per_trial", "ms"},
      {"topo.build_s", "s"},
      {"engine.artifact_build_s", "s"},
      {"engine.pool_idle_frac", "frac"},
      {"engine.sink_us_per_row", "us"},
      {"engine.journal_bytes_per_row", "bytes"},
      {"service.handle_us.route", "us"},
      {"service.handle_us.stats", "us"},
      {"service.json_scan_us", "us"},
      {"service.frame_us", "us"},
      {"trace.overhead_frac", "frac"},
  };
  return names;
}

void set_layer(Outcome& out, const std::string& name, double value) {
  for (const auto& [known, unit] : per_layer_names())
    if (known == name) {
      for (Metric& m : out.per_layer)
        if (m.name == name) {
          m.value = value;
          return;
        }
      out.per_layer.push_back({name, value, unit});
      return;
    }
  throw std::logic_error("unknown per-layer metric " + name);
}

void fill_layers(Outcome& out) {
  std::vector<Metric> all;
  for (const auto& [name, unit] : per_layer_names()) {
    Metric m{name, 0.0, unit};
    for (const Metric& have : out.per_layer)
      if (have.name == name) m.value = have.value;
    all.push_back(std::move(m));
  }
  out.per_layer = std::move(all);
}

}  // namespace perfbench
