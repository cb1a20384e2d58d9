#include "engine/sink.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "util/json.hpp"

namespace sfly::engine {

namespace {

std::string csv_f64(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Topology names legitimately contain commas ("LPS(3,5)"); quote them
// and the free-text error/label fields per RFC 4180.
std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

// One value: in CSV `%.6g` doubles, 1/0 bools and quoted strings; in
// JSON json_put's (json_f64 doubles are lossless, so a journal is a
// result archive and a resume checkpoint).
template <class T>
void put(std::string& out, const T& v, bool json) {
  if constexpr (std::is_same_v<T, Kind>)
    out += json ? json_quote(kind_name(v)) : kind_name(v);
  else if (json) json_put(out, v);
  else if constexpr (std::is_same_v<T, std::string>) out += csv_quote(v);
  else if constexpr (std::is_same_v<T, bool>) out += v ? "1" : "0";
  else if constexpr (std::is_same_v<T, double>) out += csv_f64(v);
  else out += std::to_string(v);
}

// A row as one CSV line or, with `json`, one JSONL object line, which
// leaves out the Col::kCsvOnly columns.
template <class Row>
std::string row_line(const Row& r, bool json) {
  std::string out = json ? "{" : "";
  for_each_field(r, [&](const char* name, const auto& v, Col c = Col::kAll) {
    if (json && c == Col::kCsvOnly) return;
    if (json) out.append("\"").append(name).append("\":");
    put(out, v, json);
    out += ',';
  });
  out.back() = json ? '}' : '\n';
  if (json) out += '\n';
  return out;
}

template <class Row>
const std::string& csv_header() {
  static const std::string header = [] {
    std::string h;
    const Row row{};
    for_each_field(row, [&](const char* name, const auto&, Col = Col::kAll) {
      h += name;
      h += ',';
    });
    h.back() = '\n';
    return h;
  }();
  return header;
}

[[noreturn]] void io_die(const char* what) {
  std::fprintf(stderr,
               "error: writing %s failed: %s\n"
               "the file is intact up to its last complete line; a campaign "
               "journal in that state resumes with --resume once the "
               "underlying problem (disk full, closed pipe, quota) is "
               "fixed\n",
               what, std::strerror(errno));
  std::exit(kExitIoError);
}

}  // namespace

void checked_write(std::FILE* f, const char* what, const std::string& bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size())
    io_die(what);
}

void checked_flush(std::FILE* f, const char* what) {
  if (std::fflush(f) != 0) io_die(what);
}

void checked_close(std::FILE* f, const char* what) {
  if (std::fclose(f) != 0) io_die(what);
}

std::string csv_row(const Result& r) { return row_line(r, false); }
std::string csv_row(const SimResult& r) { return row_line(r, false); }
std::string jsonl_row(const Result& r) { return row_line(r, true); }
std::string jsonl_row(const SimResult& r) { return row_line(r, true); }

std::string jsonl_meta(const BatchMeta& m) {
  std::ostringstream out;
  out << "{\"batch\":" << json_quote(m.batch)
      << ",\"campaign\":" << json_quote(m.campaign)
      << ",\"scenarios\":" << m.scenarios;
  if (m.shard_count > 1)
    out << ",\"shard\":[" << m.shard_index << ',' << m.shard_count
        << "],\"rows\":" << m.rows;
  char decl[24];
  std::snprintf(decl, sizeof decl, "%016llx",
                static_cast<unsigned long long>(m.decl));
  out << ",\"decl\":\"" << decl << "\"}\n";
  return out.str();
}

// --- CsvSink ---------------------------------------------------------------

void CsvSink::write_row(const std::string& header, const std::string& row) {
  if (header_ != &header) {
    checked_write(out_, "CSV output", header);
    header_ = &header;
  }
  checked_write(out_, "CSV output", row);
}

void CsvSink::consume(const Result& r) {
  write_row(csv_header<Result>(), csv_row(r));
}
void CsvSink::consume(const SimResult& r) {
  write_row(csv_header<SimResult>(), csv_row(r));
}
void CsvSink::end() { checked_flush(out_, "CSV output"); }

// --- JsonlSink -------------------------------------------------------------

void JsonlSink::meta(const BatchMeta& m) {
  checked_write(out_, "--json journal", jsonl_meta(m));
}

void JsonlSink::consume(const Result& r) {
  checked_write(out_, "--json journal", jsonl_row(r));
}

void JsonlSink::consume(const SimResult& r) {
  checked_write(out_, "--json journal", jsonl_row(r));
}

void JsonlSink::end() { checked_flush(out_, "--json journal"); }

}  // namespace sfly::engine
