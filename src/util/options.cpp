#include "util/options.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "engine/dispatch.hpp"
#include "engine/transport_tcp.hpp"
#include "util/net.hpp"
#include "util/parallel.hpp"

namespace sfly::bench {

Flags::Flags(std::vector<std::string> args, std::vector<FlagSpec> known)
    : known_(std::move(known)) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const FlagSpec* sp = spec(args[i]);
    if (!sp) {
      error_ = "unknown flag '" + args[i] + "' (see --help)";
      return;
    }
    // A strict surface has no silent precedence rule: "--threads 4
    // --threads 8" once ran with 4 (first occurrence won), which reads
    // like 8 won.  Repetition is a hard error instead.
    if (has(args[i])) {
      error_ = "flag '" + args[i] + "' given more than once";
      return;
    }
    present_.push_back(args[i]);
    if (sp->takes_value) {
      const bool next_is_flag =
          i + 1 < args.size() && args[i + 1].rfind("--", 0) == 0;
      if (i + 1 >= args.size() || (sp->value_optional && next_is_flag)) {
        if (!sp->value_optional) {
          error_ = "flag '" + args[i] + "' expects a value";
          return;
        }
        values_.emplace_back(args[i], "-");  // omitted value = stdout
        continue;
      }
      values_.emplace_back(args[i], args[i + 1]);
      ++i;
    }
  }
}

const FlagSpec* Flags::spec(const std::string& name) const {
  for (const auto& sp : known_)
    if (sp.name == name) return &sp;
  return nullptr;
}

bool Flags::has(const std::string& name) const {
  for (const auto& p : present_)
    if (p == name) return true;
  return false;
}

void Flags::exit_on_error_or_help(const char* prefix,
                                  const std::string& headline) const {
  if (!error_.empty()) {
    std::fprintf(stderr, "%s: %s\n", prefix, error_.c_str());
    std::exit(2);
  }
  if (has("--help") || has("-h")) {
    // One column for names as wide as the longest, and one for the
    // "<value>" marker, so every help text starts in the same column.
    std::size_t width = 0;
    for (const auto& f : known_) width = std::max(width, f.name.size());
    std::printf("# %s\n", headline.c_str());
    for (const auto& f : known_)
      std::printf("#   %-*s %-9s%s\n", static_cast<int>(width), f.name.c_str(),
                  f.takes_value ? "<value>" : "", f.help.c_str());
    std::exit(0);
  }
}

const std::string* Flags::value(const std::string& name) const {
  for (const auto& [flag, value] : values_)
    if (flag == name) return &value;
  return nullptr;
}

void Flags::exit_out_of_range(const std::string& name, const std::string& value,
                              const std::string& lo, const std::string& hi) {
  std::fprintf(stderr, "error: %s expects an integer in %s..%s, got '%s'\n",
               name.c_str(), lo.c_str(), hi.c_str(), value.c_str());
  std::exit(2);
}

double Flags::get_f64(const std::string& name, double dflt) const {
  const std::string* v = value(name);
  if (!v) return dflt;
  char* end = nullptr;
  const double x = std::strtod(v->c_str(), &end);
  if (!v->empty() && end == v->c_str() + v->size() && std::isfinite(x))
    return x;
  std::fprintf(stderr, "error: %s expects a finite number, got '%s'\n",
               name.c_str(), v->c_str());
  std::exit(2);
}

std::string Flags::get_str(const std::string& name,
                           const std::string& dflt) const {
  const std::string* v = value(name);
  return v ? *v : dflt;
}

// --- StandardOptions -------------------------------------------------------

namespace {

// A worker with no parent to join has lost its link, not crashed:
// sfly_worker re-probes on 76 instead of charging its crash budget.
template <typename Endpoint>
std::unique_ptr<engine::SocketChannel> join_fleet(const Endpoint& at) {
  try {
    return std::make_unique<engine::SocketChannel>(at);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "# %s — exiting %d\n", e.what(),
                 net::kExitLinkLost);
    std::exit(net::kExitLinkLost);
  }
}

std::vector<FlagSpec> standard_flags() {
  return {
      {"--full", false, "run the exact paper-scale configuration"},
      {"--threads", true, "engine worker threads (default: all hardware)"},
      {"--seed", true, "override the campaign base seed"},
      {"--csv", true,
       "stream results as CSV to PATH; omitted/'-' = stdout, interleaved "
       "with the report — use a file path for machine parsing",
       /*value_optional=*/true},
      {"--json", true,
       "stream results as JSON lines to PATH; omitted/'-' = stdout, "
       "interleaved with the report — use a file path for machine parsing",
       /*value_optional=*/true},
      {"--resume", true,
       "resume a killed/stopped campaign from the JSONL journal at PATH "
       "(also the --json target; completed scenarios are skipped)"},
      {"--shard", true,
       "run only shard I of N (\"I/N\", 0-based); shard journals merge "
       "back to the unsharded stream with sfly_merge"},
      {"--workers", true,
       "farm every campaign batch to N worker processes (re-execs of "
       "this bench, each over its own socket); output stays "
       "byte-identical to a single-process run, and a crashed or "
       "stalled worker's slice is reassigned automatically"},
      {"--worker-fd", true,
       "internal (passed by the --workers parent): run as a dispatch "
       "worker over the inherited socket FD"},
      {"--listen", true,
       "with --workers N: accept the N workers as sfly_worker/--connect "
       "TCP joins on PORT (0 = ephemeral, printed on stderr) instead of "
       "forking them locally; slices are held under heartbeat leases and "
       "reassigned when a worker dies, stalls, or partitions"},
      {"--connect", true,
       "join a --listen parent at HOST:PORT as a TCP dispatch worker "
       "(usually via the sfly_worker supervisor, which reconnects with "
       "backoff)"},
      {"--lease-ms", true,
       "with --workers: slice lease in milliseconds (default 10000); both "
       "sides heartbeat every third of it, and a slot silent for a full "
       "lease is replaced (a local worker killed and respawned, a "
       "--listen epoch fenced) and its remaining rows reassigned"},
      {"--max-seconds", true,
       "graceful wall-clock budget: finish in-flight scenarios, flush "
       "sinks, exit 75 (resumable) once B seconds have elapsed "
       "(fractional allowed; 0 = no budget)"},
      {"--phase-json", true,
       "write the run record (times, simulator work, artifact "
       "footprints; the BENCH_full.json format) to PATH"},
      {"--dry-run", false, "print the expanded campaign plan and exit"},
      {"--help", false, "this help"},
  };
}

std::vector<std::string> argv_vec(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) out.emplace_back(argv[i]);
  return out;
}

std::vector<FlagSpec> merge_flags(std::vector<FlagSpec> extra) {
  auto all = standard_flags();
  for (auto& f : extra) all.push_back(std::move(f));
  return all;
}

}  // namespace

StandardOptions::StandardOptions(int argc, char** argv, Spec spec)
    : flags_(argv_vec(argc, argv), merge_flags(std::move(spec.extra_flags))),
      args_(argv_vec(argc, argv)) {
  flags_.exit_on_error_or_help("error", spec.banner);
  cfg_.threads = flags_.get<unsigned>("--threads", 0);
  // From here on a SIGTERM/SIGINT is a graceful stop request: finish at
  // the next row boundary, flush sinks, exit 75 with the journal
  // resumable — the operator-initiated twin of --max-seconds.
  engine::install_stop_signal_handlers();

  // The historical bench banner, byte for byte (headline, --full line, the
  // bench's extra lines), flushed: a non-empty stdout means handlers are set.
  std::printf("# %s\n#   --full   run the exact paper-scale configuration\n%s\n",
              spec.banner, spec.extra_usage);
  std::fflush(stdout);

  if (flags_.has("--resume") && flags_.has("--json")) {
    std::fprintf(stderr,
                 "error: --resume PATH already streams the journal to PATH; "
                 "drop --json\n");
    std::exit(2);
  }
  if (const auto r = flags_.get_str("--resume");
      flags_.has("--resume") && (r.empty() || r == "-")) {
    std::fprintf(stderr, "error: --resume needs a journal file path\n");
    std::exit(2);
  }
  // Seconds, so "--max-seconds 1.5" works; get_f64 already rejects NaN,
  // inf and garbage, and 0 disables the budget.
  max_seconds_ = flags_.get_f64("--max-seconds", 0.0);
  if (max_seconds_ < 0.0) {
    std::fprintf(stderr,
                 "error: --max-seconds expects a non-negative seconds "
                 "budget (0 = no budget), got %g\n",
                 max_seconds_);
    std::exit(2);
  }
  if (flags_.has("--shard")) {
    const std::string spec_str = flags_.get_str("--shard");
    const auto in = parse_uint_pair<std::size_t>(spec_str, '/');
    if (!in || in->first >= in->second) {
      std::fprintf(stderr,
                   "error: --shard expects I/N with 0 <= I < N, got '%s'\n",
                   spec_str.c_str());
      std::exit(2);
    }
    shard_index_ = in->first;
    shard_count_ = in->second;
  }
  if (flags_.has("--workers")) {
    workers_ = flags_.get<std::size_t>("--workers", 0, 1);
    // The dispatcher slices every batch itself and its merged output IS
    // the unsharded stream — combining with --shard would shard twice,
    // and --resume's replay cursor has no meaning across a fleet whose
    // workers each re-evaluate from the declaration.
    if (flags_.has("--shard")) {
      std::fprintf(stderr,
                   "error: --workers dispatches batch slices itself and "
                   "cannot combine with --shard\n");
      std::exit(2);
    }
    if (flags_.has("--resume")) {
      std::fprintf(stderr,
                   "error: --workers cannot resume a journal; finish it "
                   "single-process with --resume, or start a fresh "
                   "--workers run\n");
      std::exit(2);
    }
    if (flags_.has("--worker-fd")) {
      std::fprintf(stderr,
                   "error: --workers and --worker-fd are mutually "
                   "exclusive (a worker never dispatches)\n");
      std::exit(2);
    }
  }
  if (flags_.has("--listen")) {
    if (!flags_.has("--workers")) {
      std::fprintf(stderr,
                   "error: --listen needs --workers N (how many TCP "
                   "joins make a full fleet)\n");
      std::exit(2);
    }
    listen_port_ = flags_.get<std::uint16_t>("--listen", 0);
  }
  // At least 100: the fleet heartbeats at a third of the lease.
  lease_ms_ = flags_.get<int>("--lease-ms", lease_ms_, 100);
  if (flags_.has("--connect")) {
    const std::string spec_str = flags_.get_str("--connect");
    if (!net::parse_hostport(spec_str, connect_.host, connect_.port)) {
      std::fprintf(stderr,
                   "error: --connect expects HOST:PORT, got '%s'\n",
                   spec_str.c_str());
      std::exit(2);
    }
    if (flags_.has("--workers") || flags_.has("--worker-fd") ||
        flags_.has("--listen")) {
      std::fprintf(stderr,
                   "error: --connect is the worker side of dispatch and "
                   "cannot combine with --workers/--worker-fd/--listen\n");
      std::exit(2);
    }
    if (flags_.has("--shard") || flags_.has("--resume")) {
      std::fprintf(stderr,
                   "error: --connect cannot combine with --shard or "
                   "--resume (the parent assigns the slices)\n");
      std::exit(2);
    }
  }
  if (flags_.has("--worker-fd")) {
    const int fd = flags_.get<int>("--worker-fd", -1);
    if (flags_.has("--shard") || flags_.has("--resume")) {
      std::fprintf(stderr,
                   "error: --worker-fd cannot combine with --shard or "
                   "--resume\n");
      std::exit(2);
    }
    // The parent's lease on a local worker runs from spawn, so the
    // handshake (and the heartbeats) must come before this bench
    // declares its campaign.  A --connect joiner's lease starts at its
    // HELLO; it dials from run_control().
    channel_ = join_fleet(fd);
  }
}

StandardOptions::~StandardOptions() {
  // These are the --csv/--json result files; a failed close here can
  // drop their final buffered lines, so it is as fatal as a failed
  // write (exit 74, the file keeps its resumable complete-line prefix).
  for (std::FILE* f : files_)
    if (f && f != stdout) engine::checked_close(f, "result file");
}

// Load the --resume journal and truncate the file to its last complete
// line (a hard kill can leave a half-written tail) so the JsonlSink can
// append from a clean prefix.  Shared by sinks() and run_control() —
// whichever the bench calls first.
void StandardOptions::prepare_resume() {
  if (resume_prepared_) return;
  resume_prepared_ = true;
  const std::string path = flags_.get_str("--resume");
  if (path.empty()) return;
  try {
    journal_ = std::make_unique<engine::CampaignJournal>(
        engine::CampaignJournal::load(path));
    std::error_code ec;
    const bool exists = std::filesystem::exists(path, ec);
    const std::uintmax_t size = exists ? std::filesystem::file_size(path, ec)
                                       : 0;
    // A non-empty file from which nothing parsed is some OTHER file the
    // user pointed --resume at (or a journal killed before its first
    // complete line — nothing recoverable either way): truncating it to
    // zero and appending would silently destroy it.  Refuse.
    if (journal_->empty() && size > 0) {
      std::fprintf(stderr,
                   "error: %s exists but holds no campaign journal data — "
                   "refusing to overwrite it; delete the file to start a "
                   "fresh run\n",
                   path.c_str());
      std::exit(2);
    }
    if (size > journal_->valid_bytes())
      std::filesystem::resize_file(path, journal_->valid_bytes());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

const std::vector<engine::ResultSink*>& StandardOptions::sinks() {
  if (sinks_built_) return sinks_;
  sinks_built_ = true;
  prepare_resume();
  auto open = [&](const std::string& path, const char* mode) -> std::FILE* {
    if (path == "-") return stdout;
    std::FILE* f = std::fopen(path.c_str(), mode);
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    files_.push_back(f);
    return f;
  };
  if (auto path = flags_.get_str("--csv"); !path.empty()) {
    owned_.push_back(std::make_unique<engine::CsvSink>(open(path, "w")));
    sinks_.push_back(owned_.back().get());
  }
  if (auto path = flags_.get_str("--json"); !path.empty()) {
    owned_.push_back(std::make_unique<engine::JsonlSink>(open(path, "w")));
    sinks_.push_back(owned_.back().get());
  }
  if (auto path = flags_.get_str("--resume"); !path.empty()) {
    // The journal doubles as the --json target: the already-valid prefix
    // stays on disk, and only freshly evaluated rows are appended.
    owned_.push_back(std::make_unique<engine::JsonlSink>(open(path, "a")));
    sinks_.push_back(owned_.back().get());
  }
  return sinks_;
}

engine::RunControl& StandardOptions::run_control() {
  if (!control_) {
    prepare_resume();
    control_ = std::make_unique<engine::RunControl>();
    control_->journal = journal_ && !journal_->empty() ? journal_.get() : nullptr;
    control_->shard_index = shard_index_;
    control_->shard_count = shard_count_;
    control_->max_seconds = max_seconds_;
    if (workers_ > 0) {
      engine::CampaignDispatcher::Config dc;
      dc.workers = workers_;
      dc.listen_port = listen_port_;
      dc.lease_ms = lease_ms_;
      dc.max_seconds = max_seconds_;
      dc.start = control_->start;
      // Local workers share this machine, so they split its engine
      // threads; a --listen fleet's probe replies do not (each joining
      // machine defaults to its own hardware).
      dc.worker_argv = worker_args(/*split_threads=*/listen_port_ < 0);
      auto d = std::make_unique<engine::CampaignDispatcher>(std::move(dc));
      control_->runner = d.get();
      runner_ = std::move(d);
    } else if (channel_ || !connect_.host.empty()) {
      if (!channel_) channel_ = join_fleet(connect_);
      // The WELCOME handshake carries the fleet's REMAINING budget, so a
      // respawned or reconnected worker shares the parent's wall clock
      // instead of resetting its own.
      if (channel_->budget_seconds() > 0.0) {
        control_->max_seconds = channel_->budget_seconds();
        control_->start = std::chrono::steady_clock::now();
      }
      auto w = std::make_unique<engine::CampaignWorker>(std::move(channel_));
      control_->runner = w.get();
      control_->quiet = true;  // the parent reports once for the fleet
      runner_ = std::move(w);
    }
  }
  return *control_;
}

// argv for a dispatch worker: the declaration and scale knobs pass
// through untouched (the worker must expand the identical campaign), the
// parent-side output/control flags are stripped, and the transport adds
// its own connection flag (--worker-fd per local spawn, --connect on the
// sfly_worker side).
std::vector<std::string> StandardOptions::worker_args(
    bool split_threads) const {
  static const char* kParentOnly[] = {"--workers",  "--json",
                                      "--csv",      "--phase-json",
                                      "--threads",  "--max-seconds",
                                      "--dry-run",  "--listen",
                                      "--lease-ms", "--connect"};
  auto parent_only = [](const std::string& f) {
    for (const char* p : kParentOnly)
      if (f == p) return true;
    return false;
  };
  std::vector<std::string> out;
  for (std::size_t i = 0; i < args_.size(); ++i) {
    const FlagSpec* sp = nullptr;
    for (const auto& k : flags_.known())
      if (k.name == args_[i]) sp = &k;
    // Mirror the parser's value-consumption rule so dropped flags drop
    // their values too.
    bool consumed_value = false;
    if (sp && sp->takes_value) {
      const bool next_is_flag =
          i + 1 < args_.size() && args_[i + 1].rfind("--", 0) == 0;
      consumed_value = i + 1 < args_.size() &&
                       !(sp->value_optional && next_is_flag);
    }
    if (sp && parent_only(sp->name)) {
      if (consumed_value) ++i;
      continue;
    }
    out.push_back(args_[i]);
    if (consumed_value) out.push_back(args_[++i]);
  }
  if (split_threads) {
    const unsigned t =
        cfg_.threads ? cfg_.threads : static_cast<unsigned>(hardware_threads());
    out.push_back("--threads");
    out.push_back(std::to_string(
        std::max<std::size_t>(1, t / std::max<std::size_t>(1, workers_))));
  }
  return out;
}

double peak_rss_mb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace sfly::bench
