#pragma once
/// \file options.hpp
/// One options surface for every bench harness (see DESIGN.md §6 and
/// docs/CAMPAIGNS.md).
///
/// Flags is a strict CLI parser and the one statement of a binary's flags:
/// every flag is declared up front in a FlagSpec table, which `--help`
/// renders.  Unknown flags, repeated flags, malformed values and numbers
/// that do not fit their field are errors (exit 2): "12x" is rejected,
/// not truncated to 12, and a port of 70000 is rejected, not narrowed to
/// 4464.  StandardOptions layers the flag set shared by all benches
/// (--threads/--full/--seed/--csv/--json/--resume/--shard/--workers/
/// --max-seconds/--phase-json/--dry-run/--help) on top, owns the
/// file-backed streaming sinks and the campaign RunControl those flags
/// select, and prints the bench banner exactly as the harnesses always
/// have.

#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/engine.hpp"
#include "engine/journal.hpp"
#include "engine/sink.hpp"
#include "engine/transport_tcp.hpp"
#include "util/parse.hpp"

namespace sfly::bench {

struct FlagSpec {
  std::string name;         // "--ranks"
  bool takes_value = false;
  std::string help;         // one line for --help
  /// Value may be omitted (end of argv, or next token is another flag);
  /// an omitted value records as "-".  Lets `--csv` alone keep meaning
  /// "CSV to stdout" as it historically did.
  bool value_optional = false;
};

class Flags {
 public:
  /// Parse `args` (argv[1..]) against the declared flags.  Parse problems
  /// (unknown flag, missing value) land in error() — callers decide
  /// whether to exit; StandardOptions does, tests inspect.
  Flags(std::vector<std::string> args, std::vector<FlagSpec> known);

  [[nodiscard]] const std::string& error() const { return error_; }
  /// A usage error prints one stderr line `PREFIX: error` and exits 2;
  /// `--help` (or a declared `-h`) prints `headline` and the flag table,
  /// one `#   --flag  help` line each, to stdout and exits 0.  Otherwise
  /// returns.
  void exit_on_error_or_help(const char* prefix,
                             const std::string& headline) const;
  [[nodiscard]] bool has(const std::string& name) const;
  /// Value of an integer flag as the field type T, `dflt` when absent.
  /// Prints one error naming the flag and the range, and exits 2, when
  /// the value does not parse exactly as a non-negative integer in
  /// [lo, hi] (by default: anything T holds).
  template <std::integral T = std::uint64_t>
  [[nodiscard]] T get(const std::string& name, std::type_identity_t<T> dflt,
                      std::type_identity_t<T> lo = T{},
                      std::type_identity_t<T> hi =
                          std::numeric_limits<T>::max()) const {
    const std::string* v = value(name);
    if (!v) return dflt;
    if (const auto x = parse_uint<T>(*v, lo, hi)) return *x;
    exit_out_of_range(name, *v, std::to_string(lo), std::to_string(hi));
  }
  /// Value of a real-valued flag (e.g. --load 0.5); prints an error and
  /// exits 2 when the value does not parse exactly as a finite double.
  [[nodiscard]] double get_f64(const std::string& name, double dflt) const;
  [[nodiscard]] std::string get_str(const std::string& name,
                                    const std::string& dflt = "") const;
  [[nodiscard]] const std::vector<FlagSpec>& known() const { return known_; }

 private:
  [[nodiscard]] const FlagSpec* spec(const std::string& name) const;
  /// The value given for `name`, nullptr when absent.
  [[nodiscard]] const std::string* value(const std::string& name) const;
  [[noreturn]] static void exit_out_of_range(const std::string& name,
                                             const std::string& value,
                                             const std::string& lo,
                                             const std::string& hi);
  std::vector<FlagSpec> known_;
  std::vector<std::string> present_;  // flag names seen (each at most once:
                                      // a repeated flag is a parse error)
  std::vector<std::pair<std::string, std::string>> values_;
  std::string error_;
};

/// The shared bench option surface.  Construction parses (exiting on
/// unknown flags / bad values), prints the bench banner exactly as the
/// pre-campaign harnesses did, and handles --help.
class StandardOptions {
 public:
  struct Spec {
    const char* banner = "";       // "Fig. 6: ..." headline
    const char* extra_usage = "";  // verbatim extra banner lines ("" = none)
    std::vector<FlagSpec> extra_flags;  // bench-specific flags
  };

  StandardOptions(int argc, char** argv, Spec spec);
  ~StandardOptions();
  StandardOptions(const StandardOptions&) = delete;
  StandardOptions& operator=(const StandardOptions&) = delete;

  [[nodiscard]] const Flags& flags() const { return flags_; }
  [[nodiscard]] bool full() const { return flags_.has("--full"); }
  [[nodiscard]] bool dry_run() const { return flags_.has("--dry-run"); }
  /// --seed override, else the bench's default campaign seed.
  [[nodiscard]] std::uint64_t seed_or(std::uint64_t dflt) const {
    return flags_.get("--seed", dflt);
  }
  /// `--threads` (0 = all hardware), checked while the flags are parsed.
  [[nodiscard]] engine::EngineConfig engine_config() const { return cfg_; }

  /// The streaming sinks the flags select: CsvSink for `--csv PATH`,
  /// JsonlSink for `--json PATH` ("-" = stdout) or appending to the
  /// `--resume PATH` journal.  Owned by this object; files close on
  /// destruction.
  [[nodiscard]] const std::vector<engine::ResultSink*>& sinks();

  /// The campaign execution controls the flags select: the parsed
  /// `--resume` journal, the `--shard I/N` slice, and the
  /// `--max-seconds` budget.  One control spans every campaign/sweep the
  /// bench runs (journal cursor and wall-clock budget carry across).
  /// Loading a corrupt or mismatched journal is a fatal error (exit 2).
  [[nodiscard]] engine::RunControl& run_control();

  /// Shard slice parsed from `--shard I/N` (0-based; {0,1} = unsharded).
  [[nodiscard]] std::pair<std::size_t, std::size_t> shard() const {
    return {shard_index_, shard_count_};
  }
  /// Path given to `--phase-json`, empty when absent.
  [[nodiscard]] std::string phase_json_path() const {
    return flags_.get_str("--phase-json");
  }
  [[nodiscard]] bool resuming() const { return flags_.has("--resume"); }

  /// `--workers N`: farm every campaign batch to N worker processes
  /// (0 = single-process).  run_control() installs the dispatcher as the
  /// control's BatchRunner.
  [[nodiscard]] std::size_t workers() const { return workers_; }

 private:
  void prepare_resume();
  [[nodiscard]] std::vector<std::string> worker_args(bool split_threads)
      const;

  Flags flags_;
  engine::EngineConfig cfg_;
  std::vector<std::string> args_;  // raw argv[1..], for worker re-exec
  std::vector<engine::ResultSink*> sinks_;
  std::vector<std::unique_ptr<engine::ResultSink>> owned_;
  std::vector<std::FILE*> files_;
  bool sinks_built_ = false;
  std::size_t shard_index_ = 0, shard_count_ = 1;
  std::size_t workers_ = 0;
  int listen_port_ = -1;      // -1 = no --listen (0 = ephemeral port)
  int lease_ms_ = 10000;      // --lease-ms (any --workers parent)
  double max_seconds_ = 0.0;  // --max-seconds (0 = no budget)
  engine::SocketChannel::Config connect_;  // --connect (host "" = none)
  // A --worker-fd child's link, joined from the constructor on;
  // run_control() hands it (or a fresh --connect link) to the worker.
  std::unique_ptr<engine::SocketChannel> channel_;
  std::unique_ptr<engine::CampaignJournal> journal_;
  std::unique_ptr<engine::RunControl> control_;
  std::unique_ptr<engine::BatchRunner> runner_;
  bool resume_prepared_ = false;
};

/// The process's peak resident set so far, in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

}  // namespace sfly::bench
