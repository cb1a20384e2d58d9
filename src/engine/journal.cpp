#include "engine/journal.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <system_error>

#include "util/json.hpp"

namespace sfly::engine {

std::pair<std::size_t, std::size_t> shard_range(std::size_t n,
                                                std::size_t index,
                                                std::size_t count) {
  if (count == 0 || index >= count)
    throw std::invalid_argument("shard_range: index must be < count");
  return {n * index / count, n * (index + 1) / count};
}

namespace {

// ok rows carry no "error" field; !ok rows must.
bool get_ok_error(const JsonObject& j, bool& ok, std::string& error) {
  if (!j.get_bool("ok", ok)) return false;
  return ok ? !j.has("error") : j.get_str("error", error);
}

Kind parse_kind(const std::string& name, bool& valid) {
  for (Kind k : {Kind::kStructure, Kind::kSpectral, Kind::kLayout})
    if (name == kind_name(k)) return k;
  valid = false;
  return Kind::kStructure;
}

}  // namespace

std::optional<Result> ScenarioKind<Scenario>::parse(const std::string& line) {
  JsonObject j;
  if (!JsonObject::scan(line, j)) return std::nullopt;
  Result r;
  std::string kind;
  bool kind_valid = true;
  const bool fields =
      j.get_uint("index", r.index) && j.get_str("topology", r.topology) &&
      j.get_str("kind", kind) && get_ok_error(j, r.ok, r.error) &&
      j.get_uint("vertices", r.vertices) && j.get_uint("radix", r.radix) &&
      j.get_bool("connected", r.connected) &&
      j.get_f64("diameter", r.diameter) &&
      j.get_f64("mean_hops", r.mean_hops) && j.get_uint("girth", r.girth) &&
      j.get_f64("bisection", r.bisection) &&
      j.get_f64("normalized_bisection", r.normalized_bisection) &&
      j.get_f64("lambda", r.lambda) && j.get_f64("mu1", r.mu1) &&
      j.get_bool("ramanujan", r.ramanujan) &&
      j.get_f64("fiedler_bisection_lb", r.fiedler_bisection_lb) &&
      j.get_f64("mean_wire_m", r.mean_wire_m) &&
      j.get_f64("max_wire_m", r.max_wire_m) &&
      j.get_u64("wires_electrical", r.wires_electrical) &&
      j.get_u64("wires_optical", r.wires_optical) &&
      j.get_f64("power_watts", r.power_watts) &&
      j.get_f64("mw_per_gbps", r.mw_per_gbps);
  if (!fields) return std::nullopt;
  r.kind = parse_kind(kind, kind_valid);
  if (!kind_valid) return std::nullopt;
  // The round-trip seal: a row counts as parsed only if re-serializing it
  // reproduces the line exactly (%.17g makes doubles lossless, so this
  // also certifies the parsed values are bitwise faithful, and that the
  // constant-zero simulation columns are zeros).
  if (jsonl_row(r) != line + "\n") return std::nullopt;
  return r;
}

std::optional<SimResult> ScenarioKind<SimScenario>::parse(
    const std::string& line) {
  JsonObject j;
  if (!JsonObject::scan(line, j)) return std::nullopt;
  SimResult r;
  const bool fields =
      j.get_uint("index", r.index) && j.get_str("topology", r.topology) &&
      j.get_str("label", r.label) && get_ok_error(j, r.ok, r.error) &&
      j.get_f64("diameter", r.diameter) &&
      j.get_f64("max_latency_ns", r.max_latency_ns) &&
      j.get_f64("mean_latency_ns", r.mean_latency_ns) &&
      j.get_f64("p99_latency_ns", r.p99_latency_ns) &&
      j.get_f64("completion_ns", r.completion_ns) &&
      j.get_u64("messages", r.messages) &&
      j.get_f64("delivered", r.delivered) &&
      j.get_u64("reroutes", r.reroutes) && j.get_u64("drops", r.drops) &&
      j.get_f64("post_churn_p99_ns", r.post_churn_p99_ns) &&
      j.get_u64("events", r.events) && j.get_u64("packets", r.packets);
  if (!fields) return std::nullopt;
  if (jsonl_row(r) != line + "\n") return std::nullopt;
  return r;
}

std::optional<BatchMeta> CampaignJournal::parse_meta(const std::string& line) {
  JsonObject j;
  if (!JsonObject::scan(line, j)) return std::nullopt;
  BatchMeta m;
  if (!j.get_str("batch", m.batch) || !j.get_str("campaign", m.campaign) ||
      !j.get_uint("scenarios", m.scenarios))
    return std::nullopt;
  {
    std::string decl;
    if (!j.get_str("decl", decl) || decl.size() != 16) return std::nullopt;
    char* end = nullptr;
    errno = 0;
    m.decl = std::strtoull(decl.c_str(), &end, 16);
    if (errno != 0 || end != decl.c_str() + decl.size()) return std::nullopt;
  }
  if (j.has("shard")) {
    std::vector<std::uint64_t> shard;
    if (!j.get_u64_array("shard", shard) || shard.size() != 2 ||
        !j.get_uint("rows", m.rows))
      return std::nullopt;
    m.shard_index = static_cast<std::size_t>(shard[0]);
    m.shard_count = static_cast<std::size_t>(shard[1]);
  } else {
    m.rows = m.scenarios;
  }
  if (jsonl_meta(m) != line + "\n") return std::nullopt;
  return m;
}

CampaignJournal CampaignJournal::load(const std::string& path) {
  CampaignJournal out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return out;  // fresh resume: nothing journaled yet
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // half-written tail: drop it
    const std::string line = text.substr(pos, nl - pos);
    const bool is_meta = line.rfind("{\"batch\":", 0) == 0;
    if (is_meta) {
      auto m = parse_meta(line);
      if (!m) break;  // corrupt line: only legal as the very last one
      out.segments_.push_back({*m, {}});
    } else {
      Row row;
      if (auto sr = ScenarioKind<SimScenario>::parse(line)) {
        row.result = std::move(*sr);
      } else if (auto r = ScenarioKind<Scenario>::parse(line)) {
        row.result = std::move(*r);
      } else {
        break;
      }
      if (out.segments_.empty())
        throw std::runtime_error(
            path + ": result rows precede any batch header — not a resumable "
                   "campaign journal (written by an older --json?)");
      row.raw = line;
      out.segments_.back().rows.push_back(std::move(row));
    }
    pos = nl + 1;
    out.valid_bytes_ = pos;
  }
  // Anything between valid_bytes_ and EOF is the kill artifact — at most
  // one (possibly newline-terminated) half-flushed line.  An unparseable
  // line with further lines after it is corruption, not truncation.
  if (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl != std::string::npos && nl + 1 != text.size())
      throw std::runtime_error(path +
                               ": unparseable line before end of journal — "
                               "refusing to resume from a corrupt file");
  }
  return out;
}

std::size_t CampaignJournal::rows() const {
  std::size_t n = 0;
  for (const auto& seg : segments_) n += seg.rows.size();
  return n;
}

void CampaignJournal::merge(const std::vector<std::string>& inputs,
                            std::FILE* out) {
  if (inputs.empty()) throw std::runtime_error("merge: no input journals");
  std::vector<CampaignJournal> shards;
  shards.reserve(inputs.size());
  for (const auto& path : inputs) {
    shards.push_back(load(path));
    if (shards.back().empty())
      throw std::runtime_error(path + ": empty or missing shard journal");
  }

  // Order the journals by their declared shard index and check the set is
  // exactly 0..K-1 of a consistent K.
  std::vector<const CampaignJournal*> by_index(inputs.size(), nullptr);
  const std::size_t count = shards[0].segments()[0].meta.shard_count;
  if (count != inputs.size())
    throw std::runtime_error(
        "merge: journals declare " + std::to_string(count) +
        " shard(s) but " + std::to_string(inputs.size()) + " were given");
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto& meta = shards[s].segments()[0].meta;
    if (meta.shard_count != count || meta.shard_index >= count ||
        by_index[meta.shard_index])
      throw std::runtime_error(inputs[s] + ": inconsistent or duplicate "
                                           "shard declaration");
    by_index[meta.shard_index] = &shards[s];
  }

  const std::size_t nseg = by_index[0]->segments().size();
  for (const auto* j : by_index)
    if (j->segments().size() != nseg)
      throw std::runtime_error("merge: shard journals disagree on batch "
                               "count — at least one shard is incomplete");

  for (std::size_t seg = 0; seg < nseg; ++seg) {
    BatchMeta m = by_index[0]->segments()[seg].meta;
    std::size_t next_index = 0;
    for (std::size_t s = 0; s < count; ++s) {
      const auto& sseg = by_index[s]->segments()[seg];
      if (sseg.meta.batch != m.batch || sseg.meta.campaign != m.campaign ||
          sseg.meta.scenarios != m.scenarios || sseg.meta.decl != m.decl)
        throw std::runtime_error("merge: batch " + std::to_string(seg) +
                                 " headers disagree across shards");
      const auto [lo, hi] = shard_range(m.scenarios, s, count);
      if (sseg.rows.size() != hi - lo)
        throw std::runtime_error(
            "merge: shard " + std::to_string(s) + " of batch '" + m.batch +
            "' holds " + std::to_string(sseg.rows.size()) + " of " +
            std::to_string(hi - lo) + " rows — finish or resume it first");
      if (s == 0) {
        // The unsharded header the merged stream must carry.
        m.shard_index = 0;
        m.shard_count = 1;
        m.rows = m.scenarios;
        const std::string header = jsonl_meta(m);
        if (std::fwrite(header.data(), 1, header.size(), out) !=
            header.size())
          throw std::system_error(errno, std::generic_category(),
                                  "writing merged journal");
      }
      for (const auto& row : sseg.rows) {
        const std::size_t idx =
            std::visit([](const auto& r) { return r.index; }, row.result);
        if (idx != next_index)
          throw std::runtime_error("merge: batch '" + m.batch +
                                   "' rows are not a contiguous 0..N-1 "
                                   "sequence across shards");
        ++next_index;
        if (std::fwrite(row.raw.data(), 1, row.raw.size(), out) !=
                row.raw.size() ||
            std::fputc('\n', out) == EOF)
          throw std::system_error(errno, std::generic_category(),
                                  "writing merged journal");
      }
    }
  }
  if (std::fflush(out) != 0)
    throw std::system_error(errno, std::generic_category(),
                            "flushing merged journal");
}

}  // namespace sfly::engine
