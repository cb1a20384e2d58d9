#pragma once
/// \file journal.hpp
/// Campaign journals: reading a `--json` JSONL stream back as the
/// checkpoint of a partially-run campaign (see DESIGN.md §6 and
/// docs/CAMPAIGNS.md).
///
/// The JsonlSink stream is deterministic — batch-ordered rows whose bytes
/// are invariant under the thread count — which makes the stream itself a
/// resume journal: a killed campaign restarted with `--resume PATH` skips
/// every scenario whose row is already on disk and appends only the
/// remainder, so the final file is byte-identical to an uninterrupted
/// run.  To make the stream self-describing, Campaign/AdaptiveSweep
/// prefix every batch with one meta line
///
///     {"batch":"<phase>","campaign":"<name>","scenarios":N,"decl":"<hex>"}
///
/// (plus `"shard":[I,K],"rows":M` before `decl` when the batch was
/// shard-partitioned; `decl` fingerprints the expanded declaration);
/// result rows keep the exact JsonlSink format.  CampaignJournal parses
/// such a file back into batch segments of fully-typed Result/SimResult
/// rows, validating every line by re-serializing it (the `%.17g` number
/// format round-trips doubles exactly, so a parsed row is bitwise equal
/// to the evaluated one; an analytic row whose constant-zero simulation
/// columns hold anything else fails that seal).  A row is replayed only
/// where it matches the expanded scenario at its position: same index
/// and topology, plus the same kind (analytic) or label (simulation).
/// A trailing half-written line — the signature of a hard kill — is
/// detected and dropped; `valid_bytes()` tells the resume writer where
/// to truncate before appending.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "engine/scenario.hpp"
#include "engine/sink.hpp"

namespace sfly::engine {

/// The contiguous index range `[first, second)` of batch rows owned by
/// shard `index` out of `count`: ranges partition `[0, n)`, are stable
/// under `n`, and concatenate in shard order — which is what lets shard
/// journals merge back to the unsharded byte stream.
[[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
    std::size_t n, std::size_t index, std::size_t count);

/// A parsed `--json` stream: batch segments of typed result rows.
class CampaignJournal {
 public:
  /// One parsed result row.  Exactly one of the two payloads is live
  /// (`sim` discriminates); `raw` keeps the original line for stable
  /// merging.
  struct Row {
    bool sim = false;
    Result result;          ///< live when !sim
    SimResult sim_result;   ///< live when sim
    std::string raw;        ///< the original JSONL line (no newline)
  };

  /// One batch: its meta header plus the rows present in the file.  Only
  /// the final segment of a journal may hold fewer rows than its meta
  /// declares — that is the kill point a resume continues from.
  struct Segment {
    BatchMeta meta;
    std::vector<Row> rows;
  };

  /// Parse `path`.  A missing file yields an empty journal (a fresh
  /// `--resume` run starts from nothing); a file whose rows precede any
  /// batch header, or with a corrupt line before the final one, throws
  /// std::runtime_error.  A half-written final line is dropped and
  /// excluded from valid_bytes().
  [[nodiscard]] static CampaignJournal load(const std::string& path);

  [[nodiscard]] const std::vector<Segment>& segments() const {
    return segments_;
  }
  /// Total result rows across all segments.
  [[nodiscard]] std::size_t rows() const;
  [[nodiscard]] bool empty() const { return segments_.empty(); }
  /// Byte offset just past the last complete, parseable line — the
  /// truncation point before a resume run appends.
  [[nodiscard]] std::size_t valid_bytes() const { return valid_bytes_; }

  // --- line parsers (also the round-trip test surface) -----------------
  /// Parse one analytic-result line.  Returns nullopt unless
  /// re-serializing the parsed row reproduces `line` byte for byte.
  [[nodiscard]] static std::optional<Result> parse_result(
      const std::string& line);
  /// Parse one simulation-result line (same round-trip guarantee).
  [[nodiscard]] static std::optional<SimResult> parse_sim_result(
      const std::string& line);
  /// Parse one batch meta header line.
  [[nodiscard]] static std::optional<BatchMeta> parse_meta(
      const std::string& line);

  /// Stable shard merge: re-emit the batches of `inputs` (one complete
  /// journal per shard, any argument order) as the unsharded byte
  /// stream — per batch, the unsharded meta line followed by every
  /// shard's rows concatenated in shard order.  Throws
  /// std::runtime_error on incomplete or inconsistent shard sets.
  static void merge(const std::vector<std::string>& inputs, std::FILE* out);

 private:
  std::vector<Segment> segments_;
  std::size_t valid_bytes_ = 0;
};

}  // namespace sfly::engine
