// perfbench — the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|tiny] [--work-dir DIR]
//
// Runs one workload in-process, runs its self-checks, prints a record
// line ({"record":{...}}: work counts, host, threads) and, last, the
// result line {"correct","attempted","failed","metrics"} carrying the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when a self-check fails, 2 on a usage or run error.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sim_sweep|failure_sweep"
               " --seed N --seconds S --trace 0|1 [--scale full|tiny] "
               "[--work-dir DIR]\n",
               msg);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *s && end && *end == '\0';
}

void mkdirs(const std::string& path) {
  for (std::size_t at = 1; at <= path.size(); ++at)
    if (at == path.size() || path[at] == '/') ::mkdir(path.substr(0, at).c_str(), 0755);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("flag " + flag + " expects a value").c_str());
    const char* v = argv[++i];
    std::uint64_t u = 0;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed" && parse_u64(v, u)) {
      o.seed = u;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(v, u) && u > 0) {
      o.seconds = static_cast<double>(u);
      have_seconds = true;
    } else if (flag == "--trace" && parse_u64(v, u) && u <= 1) {
      o.trace = u == 1;
      have_trace = true;
    } else if (flag == "--scale" && (!std::strcmp(v, "full") || !std::strcmp(v, "tiny"))) {
      o.tiny = !std::strcmp(v, "tiny");
    } else if (flag == "--work-dir") {
      o.work_dir = v;
    } else {
      return usage(("bad flag or value: " + flag + " " + v).c_str());
    }
  }
  const std::map<std::string, std::function<Outcome(const Options&)>> workloads = {
      {"sim_sweep", run_sim_sweep},
      {"failure_sweep", run_failure_sweep},
  };
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) return usage("unknown --workload");
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");
  mkdirs(o.work_dir);
  const char* omp_env = std::getenv("OMP_NUM_THREADS");

  const HostTicks h0 = host_ticks();
  Outcome out;
  try {
    out = it->second(o);
    fill_layers(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 2;
  }
  const HostTicks h1 = host_ticks();

  out.note("workload", quote(o.workload));
  out.note("seed", static_cast<double>(o.seed));
  out.note("seconds", o.seconds);
  out.note("trace", o.trace ? 1.0 : 0.0);
  out.note("scale", quote(o.tiny ? "tiny" : "full"));
  out.note("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  out.note("omp_num_threads", quote(omp_env ? omp_env : ""));
  out.note("build_type", quote(PERFBENCH_BUILD_TYPE));
  out.note("host_steal_frac", steal_frac(h0, h1));

  std::string rec = "{\"record\":{";
  for (std::size_t i = 0; i < out.record.size(); ++i)
    rec += (i ? "," : "") + quote(out.record[i].first) + ":" + out.record[i].second;
  std::printf("%s}}\n", rec.c_str());

  const auto& metrics = o.trace ? out.per_layer : out.end_to_end;
  std::string res = "{\"correct\":" + std::string(out.correct && out.failed == 0 ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(out.attempted) +
                    ",\"failed\":" + std::to_string(out.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    res += (i ? "," : "") + quote(metrics[i].name) + ":{\"value\":" + num(metrics[i].value) +
           ",\"unit\":" + quote(metrics[i].unit) + "}";
  std::printf("%s}}\n", res.c_str());
  std::fflush(stdout);
  return out.correct && out.failed == 0 ? 0 : 1;
}
