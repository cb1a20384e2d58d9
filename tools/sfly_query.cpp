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
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "topo/factory.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/options.hpp"
#include "util/parse.hpp"

namespace {

using sfly::json_f64;
using sfly::json_quote;

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
    if (f.has(flag))
      req += ",\"" + std::string(key) + "\":" + json_f64(f.get_f64(flag, 0.0));
  };
  add_str("--topo", "topo");
  add_u64("--src", "src");
  add_u64("--dst", "dst");
  add_str("--algo", "algo");
  add_u64("--seed", "seed");
  if (f.has("--fail")) {
    // "0-1,2-3" -> [0,1,2,3]; every endpoint a parse_u64 number
    const std::string links = f.get_str("--fail");
    req += ",\"fail\":[";
    for (std::size_t at = 0; !links.empty();) {
      const std::size_t comma = links.find(',', at);
      const auto uv = sfly::parse_uint_pair<std::uint64_t>(
          std::string_view(links).substr(at, comma - at), '-');
      if (!uv) {
        std::fprintf(stderr,
                     "error: --fail expects links u-v,u-v of non-negative "
                     "integers, got '%s'\n",
                     links.c_str());
        std::exit(2);
      }
      req.append(at ? "," : "")
          .append(std::to_string(uv->first))
          .append(",")
          .append(std::to_string(uv->second));
      if (comma == std::string::npos) break;
      at = comma + 1;
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
      {"--connect", true, "the daemon's HOST:PORT"},
      {"--local", true,
       "evaluate in-process over a snapshot file ('' or omitted = build "
       "topologies on the fly)",
       /*value_optional=*/true},
      {"--id", true, "request id (default 1)"},
      {"--timeout-ms", true,
       "response timeout in milliseconds (default 30000)"},
      {"--topo", true, "route, sim: topology spec, e.g. 'Paley(13)'"},
      {"--topos", true, "rank: topology spec list, 'SPEC,SPEC,...'"},
      {"--src", true, "route: source router"},
      {"--dst", true, "route: destination router"},
      {"--algo", true,
       "route, sim: minimal | valiant | ugal-l | ugal-g | adaptive-min"},
      {"--seed", true, "route, sim, rank: deterministic seed"},
      {"--fail", true, "route: failed links u-v,u-v (an overlay)"},
      {"--pattern", true,
       "sim: random | bit-shuffle | bit-reverse | transpose | neighbor | "
       "hotspot (or --motif)"},
      {"--motif", true,
       "sim: Halo3D26(nx,ny,nz,it) | Sweep3D(px,py,s) | FFT(px,py)"},
      {"--load", true, "sim: offered load 0..1"},
      {"--nranks", true, "sim: job ranks"},
      {"--messages", true, "sim: messages per rank"},
      {"--bytes", true, "sim: message bytes"},
      {"--placement", true, "sim: random | linear"},
      {"--vcs", true, "sim: virtual channels (0 = auto)"},
      {"--failure-fraction", true, "sim: static link-failure fraction"},
      {"--label", true, "sim: row label"},
      {"--compute-ns", true, "sim: motif compute grain in ns"},
      {"--job-size", true, "rank: job size in ranks"},
      {"--help", false, "this help"}};

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
  const sfly::bench::Flags flags(std::move(args), kSpecs);
  flags.exit_on_error_or_help(
      "sfly_query",
      "sfly_query (--connect HOST:PORT | --local [SNAPSHOT]) KIND [flags], "
      "KIND = route | sim | rank | stats; prints the response JSON");
  if (kind != "route" && kind != "sim" && kind != "rank" && kind != "stats") {
    std::fprintf(stderr,
                 "sfly_query: expects a KIND of route | sim | rank | stats, "
                 "got '%s'\n",
                 kind.c_str());
    return 2;
  }
  const bool remote = flags.has("--connect");
  const bool local = flags.has("--local");
  if (remote == local) {
    std::fprintf(stderr,
                 "sfly_query: need exactly one of --connect / --local\n");
    return 2;
  }
  const int timeout_ms = flags.get<int>("--timeout-ms", 30000);

  const std::string request = build_request(kind, flags);
  std::string payload;
  if (remote) {
    const int rc =
        run_remote(flags.get_str("--connect"), request, timeout_ms, payload);
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
