#pragma once
/// \file sink.hpp
/// Streaming result sinks (see DESIGN.md §6 and docs/CAMPAIGNS.md).
///
/// Engine::run_stream delivers results to ResultSinks in
/// strict batch order as workers complete them, so a campaign of any size
/// can emit CSV / JSON-lines output with bounded memory — no
/// whole-batch buffer between evaluation and formatting.  Sinks are called
/// from the submitting thread only, one result at a time, and see exactly
/// the same result values at any --threads count (the engine's determinism
/// contract; wall_ms is the only thread-dependent field).
///
/// Sinks are the one place the batch path is polymorphic over the row
/// type at run time: ResultSink has one consume() per kind, and a sink
/// class overrides the kinds it handles.  Each row type's columns are
/// the for_each_field list in engine/scenario.hpp; the header and row
/// formatters below walk it and hold no per-column code.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/scenario.hpp"

namespace sfly::engine {

/// Identity of one campaign batch, announced to sinks before its rows.
/// Campaign and AdaptiveSweep emit one of these per phase batch / trial
/// wave; JsonlSink serializes it as the batch header line that makes a
/// `--json` stream a resumable, mergeable journal (engine/journal.hpp).
struct BatchMeta {
  std::string campaign;        ///< owning campaign (or sweep) name
  std::string batch;           ///< phase name, or "waveN" for trial waves
  std::size_t scenarios = 0;   ///< full (unsharded) batch size
  std::size_t shard_index = 0; ///< this run's shard (0-based)
  std::size_t shard_count = 1; ///< 1 = unsharded
  std::size_t rows = 0;        ///< rows this shard contributes to the batch
  /// Fingerprint of the full expanded batch (every scenario knob, not
  /// just the shape), so resuming under changed flags — same grid, a
  /// different --seed or workload — is a hard error, never a silent
  /// splice of stale rows.  Shard-independent: always hashes the whole
  /// batch, so shard journals merge to the unsharded header.
  std::uint64_t decl = 0;
};

/// Consumer of a streamed result batch.  Override the consume overload(s)
/// for the result type(s) the sink handles; the defaults ignore results
/// of the other type, so one sink class can serve batches of both kinds.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Batch identity, delivered by the campaign layer before begin().
  /// Engine-level streams (no campaign) never call this.
  virtual void meta(const BatchMeta& m) { (void)m; }
  /// Called once before the first result with the batch size.
  virtual void begin(std::size_t total) { (void)total; }
  /// Streamed delivery, strictly in batch (index) order.
  virtual void consume(const Result& r) { (void)r; }
  virtual void consume(const SimResult& r) { (void)r; }
  /// Called once after the last result of the batch.
  virtual void end() {}

  /// Whether a `--resume` run should re-deliver rows replayed from the
  /// journal.  In-memory consumers (collect, CSV re-emission) need the
  /// full sequence; journal-writing sinks must see only the rows actually
  /// evaluated this run.
  [[nodiscard]] virtual bool wants_replay() const { return true; }
};

// ---------------------------------------------------------------------------
// Checked stdio.  A result stream (journal, CSV, phase record) that
// silently loses rows to a full disk or a closed pipe poisons every
// later --resume and every archived artifact, so stdio failures on
// these streams are fatal: print what failed and exit 74 (EX_IOERR).
// The file written so far is intact up to its last complete line — the
// campaign journal rules make exactly that prefix resumable.

inline constexpr int kExitIoError = 74;  // BSD sysexits EX_IOERR

/// fwrite `bytes` to `f` or die with exit 74; `what` names the stream
/// in the error message ("--json journal", "CSV output", ...).
void checked_write(std::FILE* f, const char* what, const std::string& bytes);
/// fflush `f` or die with exit 74.
void checked_flush(std::FILE* f, const char* what);
/// fclose `f` or die with exit 74 (a failed close can drop the final
/// buffered rows even after every write "succeeded").
void checked_close(std::FILE* f, const char* what);

// ---------------------------------------------------------------------------
// Row formatting shared by the sinks.

/// One CSV line per result, `%.6g` doubles.
[[nodiscard]] std::string csv_row(const Result& r);
[[nodiscard]] std::string csv_row(const SimResult& r);
/// One JSON object per result, `%.17g` doubles.  wall_ms (Col::kCsvOnly)
/// is excluded so the stream is byte-identical at any thread count.
[[nodiscard]] std::string jsonl_row(const Result& r);
[[nodiscard]] std::string jsonl_row(const SimResult& r);
/// The batch header line: `{"batch":...,"campaign":...,"scenarios":N}`,
/// plus `"shard":[I,K],"rows":M` when shard_count > 1.  Merging shard
/// journals strips the shard fields, so the merged bytes equal an
/// unsharded run's.
[[nodiscard]] std::string jsonl_meta(const BatchMeta& m);

// ---------------------------------------------------------------------------
// Concrete sinks.

/// Collects one row type into a caller-owned vector (the in-memory
/// terminal sink Engine::run is built on); rows of the other type are
/// ignored.  `CollectSink collect(&rows)` deduces the row type.
template <class Row>
class CollectSink final : public ResultSink {
 public:
  explicit CollectSink(std::vector<Row>* out) : out_(out) {}
  using ResultSink::consume;
  void begin(std::size_t total) override {
    out_->reserve(out_->size() + total);
  }
  void consume(const Row& r) override { out_->push_back(r); }

 private:
  std::vector<Row>* out_;
};

/// Streams RFC-4180 CSV rows to a FILE* (header emitted lazily when the
/// first result of a type arrives; re-emitted if the row type switches
/// mid-stream, e.g. a campaign mixing analytic and simulation phases).
class CsvSink final : public ResultSink {
 public:
  explicit CsvSink(std::FILE* out) : out_(out) {}
  void consume(const Result& r) override;
  void consume(const SimResult& r) override;
  void end() override;

 private:
  void write_row(const std::string& header, const std::string& row);
  std::FILE* out_;
  const std::string* header_ = nullptr;  // of the row type last written
};

/// Streams one JSON object per line per result (wall_ms excluded, so the
/// output is byte-identical at any thread count), prefixed by one batch
/// header line per campaign batch — the journal format engine/journal.hpp
/// reads back for `--resume` and shard merging.  Never receives replayed
/// rows: on resume the journal prefix is already on disk.
class JsonlSink final : public ResultSink {
 public:
  explicit JsonlSink(std::FILE* out) : out_(out) {}
  void meta(const BatchMeta& m) override;
  void consume(const Result& r) override;
  void consume(const SimResult& r) override;
  void end() override;
  [[nodiscard]] bool wants_replay() const override { return false; }

 private:
  std::FILE* out_;
};

}  // namespace sfly::engine
