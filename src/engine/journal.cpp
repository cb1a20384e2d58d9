#include "engine/journal.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <system_error>
#include <type_traits>

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

bool parse_kind(const std::string& name, Kind& out) {
  for (Kind k : {Kind::kStructure, Kind::kSpectral, Kind::kLayout})
    if (name == kind_name(k)) return out = k, true;
  return false;
}

template <class Row>
std::optional<Row> parse_row(const std::string& line) {
  JsonObject j;
  if (!JsonObject::scan(line, j)) return std::nullopt;
  Row r;
  bool good = true;
  for_each_field(r, [&](const char* name, auto& v, Col c = Col::kAll) {
    if (!good || c == Col::kCsvOnly) return;
    using T = std::remove_reference_t<decltype(v)>;
    if constexpr (std::is_same_v<T, std::string>) {
      good = j.get_str(name, v);
    } else if constexpr (std::is_same_v<T, Kind>) {
      std::string kind;
      good = j.get_str(name, kind) && parse_kind(kind, v);
    } else if constexpr (std::is_same_v<T, bool>) {
      good = j.get_bool(name, v);
    } else if constexpr (std::is_same_v<T, double>) {
      good = j.get_f64(name, v);
    } else {
      good = j.get_uint(name, v);
    }
  });
  // The round-trip seal: a row counts as parsed only if re-serializing it
  // reproduces the line exactly, so the parsed values are bitwise
  // faithful (json_f64 is lossless), and keys out of order, repeated or
  // extra, and nonzero constant-zero columns are refused.
  if (!good || jsonl_row(r) != line + "\n") return std::nullopt;
  return r;
}

}  // namespace

std::optional<Result> ScenarioKind<Scenario>::parse(const std::string& line) {
  return parse_row<Result>(line);
}

std::optional<SimResult> ScenarioKind<SimScenario>::parse(
    const std::string& line) {
  return parse_row<SimResult>(line);
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
