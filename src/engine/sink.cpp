#include "engine/sink.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/json.hpp"

namespace sfly::engine {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// JSON numbers print with enough digits to round-trip a double exactly,
// so the JSONL stream can serve as a lossless result archive.
std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Analytic rows keep five simulation columns (max/mean/p99 latency,
// completion, messages) as constant zeros: no analytic kind fills them,
// but the CSV and JSONL layouts that existing journals and scripts hold
// stay byte-identical.  A journaled analytic row with anything else
// there fails the round-trip seal (ScenarioKind<Scenario>::parse).
constexpr const char* kZeroSimCsv = "0,0,0,0,0,";
constexpr const char* kZeroSimJson =
    ",\"max_latency_ns\":0,\"mean_latency_ns\":0,\"p99_latency_ns\":0"
    ",\"completion_ns\":0,\"messages\":0";

// Topology names legitimately contain commas ("LPS(3,5)"); quote them
// and the free-text error/label fields per RFC 4180.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
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

const char* const ScenarioKind<Scenario>::kCsvHeader =
    "index,topology,kind,ok,error,vertices,radix,connected,diameter,"
    "mean_hops,girth,bisection,normalized_bisection,lambda,mu1,"
    "ramanujan,fiedler_bisection_lb,"
    "max_latency_ns,mean_latency_ns,p99_latency_ns,completion_ns,"
    "messages,"
    "mean_wire_m,max_wire_m,wires_electrical,wires_optical,"
    "power_watts,mw_per_gbps,wall_ms\n";

const char* const ScenarioKind<SimScenario>::kCsvHeader =
    "index,topology,label,ok,error,diameter,max_latency_ns,"
    "mean_latency_ns,p99_latency_ns,completion_ns,messages,"
    "delivered,reroutes,drops,post_churn_p99_ns,events,"
    "packets,wall_ms\n";

std::string csv_row(const Result& r) {
  std::ostringstream out;
  out << r.index << ',' << quoted(r.topology) << ',' << kind_name(r.kind) << ','
      << (r.ok ? 1 : 0) << ',' << quoted(r.error) << ',' << r.vertices << ','
      << r.radix << ',' << (r.connected ? 1 : 0) << ',' << fmt(r.diameter)
      << ',' << fmt(r.mean_hops) << ',' << r.girth << ',' << fmt(r.bisection)
      << ',' << fmt(r.normalized_bisection) << ',' << fmt(r.lambda) << ','
      << fmt(r.mu1) << ',' << (r.ramanujan ? 1 : 0) << ','
      << fmt(r.fiedler_bisection_lb) << ','
      << kZeroSimCsv << fmt(r.mean_wire_m) << ',' << fmt(r.max_wire_m)
      << ',' << r.wires_electrical << ',' << r.wires_optical << ','
      << fmt(r.power_watts) << ',' << fmt(r.mw_per_gbps) << ','
      << fmt(r.wall_ms) << '\n';
  return out.str();
}

std::string csv_row(const SimResult& r) {
  std::ostringstream out;
  out << r.index << ',' << quoted(r.topology) << ',' << quoted(r.label) << ','
      << (r.ok ? 1 : 0) << ',' << quoted(r.error) << ',' << fmt(r.diameter)
      << ',' << fmt(r.max_latency_ns) << ',' << fmt(r.mean_latency_ns) << ','
      << fmt(r.p99_latency_ns) << ',' << fmt(r.completion_ns) << ','
      << r.messages << ',' << fmt(r.delivered) << ',' << r.reroutes << ','
      << r.drops << ',' << fmt(r.post_churn_p99_ns) << ','
      << r.events << ',' << r.packets << ',' << fmt(r.wall_ms) << '\n';
  return out.str();
}

std::string jsonl_row(const Result& r) {
  std::ostringstream out;
  out << "{\"index\":" << r.index << ",\"topology\":" << json_quote(r.topology)
      << ",\"kind\":\"" << kind_name(r.kind) << '"'
      << ",\"ok\":" << (r.ok ? "true" : "false");
  if (!r.ok) out << ",\"error\":" << json_quote(r.error);
  out << ",\"vertices\":" << r.vertices << ",\"radix\":" << r.radix
      << ",\"connected\":" << (r.connected ? "true" : "false")
      << ",\"diameter\":" << jnum(r.diameter)
      << ",\"mean_hops\":" << jnum(r.mean_hops) << ",\"girth\":" << r.girth
      << ",\"bisection\":" << jnum(r.bisection)
      << ",\"normalized_bisection\":" << jnum(r.normalized_bisection)
      << ",\"lambda\":" << jnum(r.lambda) << ",\"mu1\":" << jnum(r.mu1)
      << ",\"ramanujan\":" << (r.ramanujan ? "true" : "false")
      << ",\"fiedler_bisection_lb\":" << jnum(r.fiedler_bisection_lb)
      << kZeroSimJson << ",\"mean_wire_m\":" << jnum(r.mean_wire_m)
      << ",\"max_wire_m\":" << jnum(r.max_wire_m)
      << ",\"wires_electrical\":" << r.wires_electrical
      << ",\"wires_optical\":" << r.wires_optical
      << ",\"power_watts\":" << jnum(r.power_watts)
      << ",\"mw_per_gbps\":" << jnum(r.mw_per_gbps) << "}\n";
  return out.str();
}

std::string jsonl_row(const SimResult& r) {
  std::ostringstream out;
  out << "{\"index\":" << r.index << ",\"topology\":" << json_quote(r.topology)
      << ",\"label\":" << json_quote(r.label)
      << ",\"ok\":" << (r.ok ? "true" : "false");
  if (!r.ok) out << ",\"error\":" << json_quote(r.error);
  out << ",\"diameter\":" << jnum(r.diameter)
      << ",\"max_latency_ns\":" << jnum(r.max_latency_ns)
      << ",\"mean_latency_ns\":" << jnum(r.mean_latency_ns)
      << ",\"p99_latency_ns\":" << jnum(r.p99_latency_ns)
      << ",\"completion_ns\":" << jnum(r.completion_ns)
      << ",\"messages\":" << r.messages
      << ",\"delivered\":" << jnum(r.delivered)
      << ",\"reroutes\":" << r.reroutes << ",\"drops\":" << r.drops
      << ",\"post_churn_p99_ns\":" << jnum(r.post_churn_p99_ns)
      << ",\"events\":" << r.events << ",\"packets\":" << r.packets << "}\n";
  return out.str();
}

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

void CsvSink::write_row(const char* header, const std::string& row) {
  if (header_ != header) {
    checked_write(out_, "CSV output", header);
    header_ = header;
  }
  checked_write(out_, "CSV output", row);
}

void CsvSink::consume(const Result& r) {
  write_row(ScenarioKind<Scenario>::kCsvHeader, csv_row(r));
}
void CsvSink::consume(const SimResult& r) {
  write_row(ScenarioKind<SimScenario>::kCsvHeader, csv_row(r));
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
