// sfly_query — thin scriptable client for sflyd (docs/SERVICE.md).
//
//   sfly_query --connect HOST:PORT route --topo 'Paley(13)' --src 0 --dst 7 --algo ugal-l
//   sfly_query --connect HOST:PORT sim --topo 'LPS(11,7)' --pattern random --load 0.5
//   sfly_query --connect HOST:PORT rank --topos 'LPS(11,7),SF(9)' --job-size 512
//   sfly_query --connect HOST:PORT stats
//
// The response JSON goes to stdout verbatim; the exit code is 0 for an
// "ok":true response and 1 for an error frame (or any transport failure),
// so the binary doubles as a CI probe.
//
// --local SNAPSHOT evaluates the *same request* in-process over a snapshot
// (or, with --local '', over topologies built on the fly) through the
// identical QueryEngine::handle code path — `diff <(sfly_query --connect
// ...) <(sfly_query --local ...)` is the service's bitwise-identity check.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "topo/factory.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/options.hpp"

namespace {

using sfly::json_quote;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--connect HOST:PORT | --local [SNAPSHOT]) KIND [flags]\n"
      "  KIND: route | sim | rank | stats\n"
      "  route: --topo SPEC --src N --dst N [--algo A] [--seed N] [--fail u-v,u-v]\n"
      "  sim:   --topo SPEC [--algo A] [--pattern P | --motif M(..)] [--load F]\n"
      "         [--nranks N] [--messages N] [--bytes N] [--placement P] [--vcs N]\n"
      "         [--failure-fraction F] [--seed N] [--label S]\n"
      "  rank:  --topos 'SPEC,SPEC,...' [--job-size N] [--seed N]\n"
      "  common: --id N (request id, default 1), --timeout-ms N (default 30000)\n",
      argv0);
  return 2;
}

// Build the request object from the parsed flags.  Only flags that are
// present are serialized, so server-side defaults stay authoritative and
// a --connect request equals the --local request byte for byte.
std::string build_request(const std::string& kind, const sfly::bench::Flags& f) {
  std::string req = "{\"id\":" + std::to_string(f.get("--id", 1)) +
                    ",\"kind\":" + json_quote(kind);
  auto add_str = [&](const char* flag, const char* key) {
    if (f.has(flag))
      req += ",\"" + std::string(key) + "\":" + json_quote(f.get_str(flag));
  };
  auto add_u64 = [&](const char* flag, const char* key) {
    if (f.has(flag))
      req += ",\"" + std::string(key) + "\":" + std::to_string(f.get(flag, 0));
  };
  auto add_f64 = [&](const char* flag, const char* key) {
    if (f.has(flag)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", f.get_f64(flag, 0.0));
      req += ",\"" + std::string(key) + "\":" + buf;
    }
  };
  add_str("--topo", "topo");
  add_u64("--src", "src");
  add_u64("--dst", "dst");
  add_str("--algo", "algo");
  add_u64("--seed", "seed");
  if (f.has("--fail")) {
    // "0-1,2-3" -> [0,1,2,3]
    req += ",\"fail\":[";
    const std::string spec = f.get_str("--fail");
    std::string tok;
    bool first = true;
    for (std::size_t i = 0; i <= spec.size(); ++i) {
      const char c = i < spec.size() ? spec[i] : ',';
      if (c == ',' || c == '-') {
        if (!tok.empty()) {
          req += (first ? "" : ",") + tok;
          first = false;
          tok.clear();
        }
      } else {
        tok += c;
      }
    }
    req += "]";
  }
  add_str("--pattern", "pattern");
  add_str("--motif", "motif");
  add_f64("--load", "load");
  add_u64("--nranks", "nranks");
  add_u64("--messages", "messages");
  add_u64("--bytes", "bytes");
  add_str("--placement", "placement");
  add_u64("--vcs", "vcs");
  add_f64("--failure-fraction", "failure_fraction");
  add_str("--label", "label");
  add_f64("--compute-ns", "compute_ns");
  if (f.has("--topos")) {
    req += ",\"topos\":[";
    const auto specs = sfly::topo::split_spec_list(f.get_str("--topos"));
    for (std::size_t i = 0; i < specs.size(); ++i)
      req.append(i ? "," : "").append(json_quote(specs[i]));
    req += "]";
  }
  add_u64("--job-size", "job_size");
  req += "}";
  return req;
}

bool response_ok(const std::string& payload) {
  sfly::JsonObject j;
  bool ok = false;
  return sfly::JsonObject::scan(payload, j) && j.get_bool("ok", ok) && ok;
}

int run_remote(const std::string& hostport, const std::string& request,
               int timeout_ms, std::string& payload) {
  std::string host;
  std::uint16_t port = 0;
  if (!sfly::net::parse_hostport(hostport, host, port)) {
    std::fprintf(stderr, "sfly_query: bad --connect '%s'\n", hostport.c_str());
    return 2;
  }
  const int fd = sfly::net::tcp_connect(host, port);
  if (fd < 0) {
    std::fprintf(stderr, "sfly_query: cannot connect to %s\n", hostport.c_str());
    return 1;
  }
  sfly::net::FrameReader reader;
  sfly::net::Frame frame;
  int rc = 1;
  do {
    if (!sfly::net::send_frame(fd, sfly::net::FrameType::kHello, 0,
                               sfly::net::hello_payload("query")))
      break;
    if (!sfly::net::read_frame_blocking(fd, frame, reader, timeout_ms)) break;
    if (frame.type != sfly::net::FrameType::kWelcome) {
      // Version-skew (or any pre-handshake) rejection arrives as a DATA
      // error frame; surface it like a query error.
      payload = frame.payload;
      break;
    }
    if (!sfly::net::send_frame(fd, sfly::net::FrameType::kData, 1, request))
      break;
    if (!sfly::net::read_frame_blocking(fd, frame, reader, timeout_ms)) break;
    if (frame.type != sfly::net::FrameType::kData) break;
    payload = frame.payload;
    rc = 0;
  } while (false);
  ::close(fd);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // The subcommand may appear anywhere among the flags (the documented
  // form puts --connect first); pull out the first token that is neither
  // a flag nor a flag's value.
  static const std::vector<sfly::bench::FlagSpec> kSpecs = {
      {"--connect", true, "daemon HOST:PORT"},
      {"--local", true, "evaluate in-process (value: snapshot file, '' = none)",
       /*value_optional=*/true},
      {"--id", true, "request id (default 1)"},
      {"--timeout-ms", true, "response timeout (default 30000)"},
      {"--topo", true, "topology spec"},
      {"--topos", true, "topology spec list (rank)"},
      {"--src", true, "source router"},
      {"--dst", true, "destination router"},
      {"--algo", true, "minimal|valiant|ugal-l|ugal-g|adaptive-min"},
      {"--seed", true, "deterministic seed"},
      {"--fail", true, "failed links u-v,u-v (route overlay)"},
      {"--pattern", true, "random|bit-shuffle|bit-reverse|transpose|neighbor|hotspot"},
      {"--motif", true, "Halo3D26(nx,ny,nz,it)|Sweep3D(px,py,s)|FFT(px,py)"},
      {"--load", true, "offered load 0..1"},
      {"--nranks", true, "job ranks"},
      {"--messages", true, "messages per rank"},
      {"--bytes", true, "message bytes"},
      {"--placement", true, "random|linear"},
      {"--vcs", true, "virtual channels (0 = auto)"},
      {"--failure-fraction", true, "static link-failure fraction"},
      {"--label", true, "row label"},
      {"--compute-ns", true, "motif compute grain"},
      {"--job-size", true, "rank: job size in ranks"},
      {"--help", false, "this text"}};

  std::string kind;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    bool is_flag = tok.size() >= 2 && tok[0] == '-' && tok[1] == '-';
    if (!is_flag && kind.empty()) {
      kind = tok;
      continue;
    }
    args.push_back(tok);
    if (is_flag) {
      for (const auto& s : kSpecs) {
        if (s.name != tok || !s.takes_value || i + 1 >= argc) continue;
        const std::string next = argv[i + 1];
        const bool next_is_kind = next == "route" || next == "sim" ||
                                  next == "rank" || next == "stats";
        // An optional value (--local) is consumed only when the next
        // token is neither a flag nor the subcommand.
        if (!s.value_optional || (next.rfind("--", 0) != 0 && !next_is_kind))
          args.push_back(argv[++i]);
        break;
      }
    }
  }
  sfly::bench::Flags flags(std::move(args), kSpecs);
  if (!flags.error().empty()) {
    std::fprintf(stderr, "sfly_query: %s\n", flags.error().c_str());
    return usage(argv[0]);
  }
  if (flags.has("--help") || kind.empty()) return usage(argv[0]);
  if (kind != "route" && kind != "sim" && kind != "rank" && kind != "stats") {
    std::fprintf(stderr, "sfly_query: unknown query kind '%s'\n", kind.c_str());
    return usage(argv[0]);
  }
  const bool remote = flags.has("--connect");
  const bool local = flags.has("--local");
  if (remote == local) {
    std::fprintf(stderr, "sfly_query: need exactly one of --connect / --local\n");
    return usage(argv[0]);
  }

  const std::string request = build_request(kind, flags);
  std::string payload;
  if (remote) {
    const int rc =
        run_remote(flags.get_str("--connect"), request,
                   static_cast<int>(flags.get("--timeout-ms", 30000)), payload);
    if (rc != 0 && payload.empty()) {
      std::fprintf(stderr, "sfly_query: transport failure\n");
      return rc;
    }
  } else {
    try {
      sfly::service::QueryEngine queries;
      const std::string snap_path = flags.get_str("--local");
      if (!snap_path.empty() && snap_path != "-") {
        auto snap = sfly::service::Snapshot::open(snap_path);
        sfly::service::Snapshot::load_into(snap, queries.engine().artifacts());
      }
      payload = queries.handle(request);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sfly_query: %s\n", e.what());
      return 1;
    }
  }
  std::printf("%s\n", payload.c_str());
  return response_ok(payload) ? 0 : 1;
}
