#include "engine/sink.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "engine/engine.hpp"
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

const char* csv_header(bool sim) {
  return sim
             ? "index,topology,label,ok,error,diameter,max_latency_ns,"
               "mean_latency_ns,p99_latency_ns,completion_ns,messages,"
               "delivered,reroutes,drops,post_churn_p99_ns,events,"
               "packets,wall_ms\n"
             : "index,topology,kind,ok,error,vertices,radix,connected,diameter,"
               "mean_hops,girth,bisection,normalized_bisection,lambda,mu1,"
               "ramanujan,fiedler_bisection_lb,"
               "max_latency_ns,mean_latency_ns,p99_latency_ns,completion_ns,"
               "messages,"
               "mean_wire_m,max_wire_m,wires_electrical,wires_optical,"
               "power_watts,mw_per_gbps,wall_ms\n";
}

std::string csv_row(const Result& r) {
  std::ostringstream out;
  out << r.index << ',' << quoted(r.topology) << ',' << kind_name(r.kind) << ','
      << (r.ok ? 1 : 0) << ',' << quoted(r.error) << ',' << r.vertices << ','
      << r.radix << ',' << (r.connected ? 1 : 0) << ',' << fmt(r.diameter)
      << ',' << fmt(r.mean_hops) << ',' << r.girth << ',' << fmt(r.bisection)
      << ',' << fmt(r.normalized_bisection) << ',' << fmt(r.lambda) << ','
      << fmt(r.mu1) << ',' << (r.ramanujan ? 1 : 0) << ','
      << fmt(r.fiedler_bisection_lb) << ','
      << fmt(r.max_latency_ns) << ',' << fmt(r.mean_latency_ns) << ','
      << fmt(r.p99_latency_ns) << ',' << fmt(r.completion_ns) << ','
      << r.messages << ',' << fmt(r.mean_wire_m) << ',' << fmt(r.max_wire_m)
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
      << ",\"max_latency_ns\":" << jnum(r.max_latency_ns)
      << ",\"mean_latency_ns\":" << jnum(r.mean_latency_ns)
      << ",\"p99_latency_ns\":" << jnum(r.p99_latency_ns)
      << ",\"completion_ns\":" << jnum(r.completion_ns)
      << ",\"messages\":" << r.messages
      << ",\"mean_wire_m\":" << jnum(r.mean_wire_m)
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

// --- CollectSink -----------------------------------------------------------

void CollectSink::begin(std::size_t total) {
  if (results_) results_->reserve(results_->size() + total);
  if (sim_results_) sim_results_->reserve(sim_results_->size() + total);
}

void CollectSink::consume(const Result& r) {
  if (results_) results_->push_back(r);
}

void CollectSink::consume(const SimResult& r) {
  if (sim_results_) sim_results_->push_back(r);
}

// --- CsvSink ---------------------------------------------------------------

void CsvSink::write_row(bool sim, const std::string& row) {
  const int want = sim ? 2 : 1;
  if (header_state_ != want) {
    checked_write(out_, "CSV output", csv_header(sim));
    header_state_ = want;
  }
  checked_write(out_, "CSV output", row);
}

void CsvSink::consume(const Result& r) { write_row(false, csv_row(r)); }
void CsvSink::consume(const SimResult& r) { write_row(true, csv_row(r)); }
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

// --- ProgressSink ----------------------------------------------------------

void ProgressSink::begin(std::size_t total) {
  total_ = total;
  seen_ = 0;
}

// Counts deliveries rather than echoing Result::index: on a sharded or
// resumed batch the indices are full-batch positions (48..95) while
// begin() announced only this run's slice, and "[49/48]" helps nobody.
void ProgressSink::line(const std::string& topology, const std::string& label,
                        bool ok, double wall_ms) {
  std::fprintf(out_, "[%zu/%zu] %s%s%s %s %.1f ms\n", ++seen_, total_,
               topology.c_str(), label.empty() ? "" : " ",
               label.c_str(), ok ? "ok" : "ERR", wall_ms);
  std::fflush(out_);
}

void ProgressSink::consume(const Result& r) {
  line(r.topology, kind_name(r.kind), r.ok, r.wall_ms);
}

void ProgressSink::consume(const SimResult& r) {
  line(r.topology, r.label, r.ok, r.wall_ms);
}

// --- TableSink -------------------------------------------------------------

void TableSink::consume(const Result& r) {
  rows_.push_back(r);
  rows_.back().placement = {};  // tables never render the embedding
}

void TableSink::consume(const SimResult& r) { sim_rows_.push_back(r); }

void TableSink::end() {
  if (!rows_.empty()) {
    checked_write(out_, "table output", Engine::to_table(rows_).str());
    rows_.clear();
  }
  if (!sim_rows_.empty()) {
    checked_write(out_, "table output", Engine::to_table(sim_rows_).str());
    sim_rows_.clear();
  }
  checked_flush(out_, "table output");
}

// --- PerfRecordSink --------------------------------------------------------

void PerfRecordSink::consume(const Result& r) {
  if (!r.ok) return;
  ++scenarios_ok_;
  messages_ += r.messages;
}

void PerfRecordSink::consume(const SimResult& r) {
  if (!r.ok) return;
  ++scenarios_ok_;
  events_ += r.events;
  packets_ += r.packets;
  messages_ += r.messages;
}

void PerfRecordSink::write(const std::string& path, const std::string& campaign,
                           unsigned threads, double artifact_build_s,
                           double eval_s) const {
  const double eps =
      eval_s > 0 ? static_cast<double>(events_) / eval_s : 0.0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  const int n = std::fprintf(f,
               "{\n"
               "  \"campaign\": \"%s\",\n"
               "  \"threads\": %u,\n"
               "  \"scenarios\": %llu,\n"
               "  \"artifact_build_s\": %.6f,\n"
               "  \"eval_s\": %.6f,\n"
               "  \"wall_s\": %.6f,\n"
               "  \"events\": %llu,\n"
               "  \"packets_forwarded\": %llu,\n"
               "  \"messages\": %llu,\n"
               "  \"events_per_sec\": %.1f\n"
               "}\n",
               campaign.c_str(), threads,
               static_cast<unsigned long long>(scenarios_ok_), artifact_build_s,
               eval_s, artifact_build_s + eval_s,
               static_cast<unsigned long long>(events_),
               static_cast<unsigned long long>(packets_),
               static_cast<unsigned long long>(messages_), eps);
  if (n < 0) io_die("--phase-json record");
  checked_close(f, "--phase-json record");
}

}  // namespace sfly::engine
