// defa_loadgen — open/closed-loop traffic generator for the serve stack.
//
//   defa_loadgen [--scenario FILE] [--sweep] [--connect HOST:PORT]
//                [--mode closed|open] [--requests N] [--concurrency N]
//                [--rate QPS] [--fixed-gap] [--timeout-ms MS] [--seed S]
//                [--mix smoke|default] [--workers N] [--queue-capacity N]
//                [--max-contexts N] [--max-memo N] [--no-memo]
//                [--out FILE] [--smoke] [--quiet]
//                [--trace-sample N] [--trace-out FILE]
//                [--wire auto|v1|v2] [--pipeline N]
//
// Wire control (--connect only, docs/PROTOCOL.md): --wire picks the
// protocol flavor — auto (default) negotiates v2 with a transparent v1
// fallback, v1 never sends the hello, v2 fails fast when the server
// refuses the upgrade.  --pipeline N caps the requests in flight on the
// connection (0 = unlimited); the report's "serialization" block records
// the encode/decode cost of whichever version was negotiated.
//
// Tracing (docs/OBSERVABILITY.md): --trace-sample N stamps every Nth
// generated request with a trace id; --trace-out FILE writes the recorded
// spans as Chrome trace-event JSON after the run (defaults the sample
// rate to 1 when not given).  In-process runs produce one process lane;
// --connect runs additionally pull the server's spans over the protocol
// `trace` method (the server must run with --trace) and merge both lanes
// into a single timeline, client and server spans joined by trace_id.
//
// Drives a serve::Server with a weighted scenario mix and prints a
// latency/throughput summary; --out writes the full report (raw latency
// histograms, achieved QPS, per-scenario breakdown, server metrics with
// context-cache hit rates) as JSON — the repo's BENCH_serve.json artifact.
//
// By default the server is in-process (`"transport": "inproc"` in the
// report).  --connect HOST:PORT drives a *separate* `defa_serve --listen`
// process over TCP through defa::client::Client instead: same schedules,
// same report schema, bit-identical results, latencies now including the
// wire — the in-process vs cross-process comparison in one tool.  The
// server flags (--workers, --queue-capacity, ..., --no-memo) configure the
// in-process server and are rejected with --connect (the remote process
// owns its configuration); a scenario file's "server" block is ignored
// with --connect for the same reason.
//
// The mix comes from a JSON scenario file (--scenario; format in
// docs/SERVING.md) or one of the two built-in mixes (--mix).  Flags given
// after --scenario override the file's settings.
//
//   --sweep   requires a scenario file with a "sweep" block: drives every
//             configured open-loop arrival rate and/or closed-loop
//             concurrency and emits one latency-vs-load curve, with
//             context-cache hit rate per point (docs/BENCH_SCHEMA.md
//             describes the output).  With --out it also writes a
//             plot-ready CSV sidecar (one row per point) next to the JSON
//             report.  Combined with --connect the sweep drives the remote
//             defa_serve instead, resetting caches and stats per point
//             through the protocol `reconfigure` method — same points,
//             same cold-cache-per-point semantics, latencies including the
//             wire.
//   --smoke   shorthand for the CI configuration: closed loop, 64 requests,
//             concurrency 4, smoke mix, --out BENCH_serve.json.
//
// Every numeric flag value must be a whole in-range number, or the tool
// exits 2 naming the flag.

#include <fstream>
#include <iostream>
#include <string>

#include "api/result_io.h"
#include "client/client.h"
#include "client/remote_loadgen.h"
#include "common/flags.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/scenario.h"

#include <unistd.h>

namespace {

int usage() {
  std::cerr
      << "usage: defa_loadgen [--scenario FILE] [--sweep] [--connect HOST:PORT]\n"
      << "                    [--mode closed|open] [--requests N] [--concurrency N]\n"
      << "                    [--rate QPS] [--fixed-gap] [--timeout-ms MS] [--seed S]\n"
      << "                    [--mix smoke|default] [--workers N] [--queue-capacity N]\n"
      << "                    [--max-contexts N] [--max-memo N] [--no-memo]\n"
      << "                    [--out FILE] [--smoke] [--quiet]\n"
      << "                    [--trace-sample N] [--trace-out FILE]\n"
      << "                    [--wire auto|v1|v2] [--pipeline N]\n";
  return 2;
}

void print_summary(const defa::serve::LoadReport& r, std::ostream& out) {
  out << "mode            " << r.mode;
  if (r.mode == "closed") {
    out << " (concurrency " << r.concurrency << ")";
  } else {
    out << " (offered " << r.offered_qps << " qps)";
  }
  out << ", transport " << r.transport;
  if (r.wire_version > 0) out << " (wire v" << r.wire_version << ")";
  out << "\n"
      << "requests        " << r.requests << "  (ok " << r.completed_ok
      << ", overload " << r.rejected_overload << ", deadline " << r.rejected_deadline
      << ", shutdown " << r.rejected_shutdown << ", error " << r.errors << ")\n"
      << "elapsed         " << r.elapsed_ms << " ms\n"
      << "achieved        " << r.achieved_qps << " qps\n"
      << "latency (ms)    p50 " << r.latency_ms.percentile(50) << "   p95 "
      << r.latency_ms.percentile(95) << "   p99 " << r.latency_ms.percentile(99)
      << "   p99.9 " << r.latency_ms.percentile(99.9) << "   max "
      << r.latency_ms.max() << "\n"
      << "queue wait (ms) p50 " << r.queue_ms.percentile(50) << "   p99 "
      << r.queue_ms.percentile(99) << "\n"
      << "context cache   hit rate " << r.server_metrics.context_hit_rate()
      << "  (hits " << r.server_metrics.context_hits << ", misses "
      << r.server_metrics.context_misses << ", evictions "
      << r.server_metrics.context_evictions << ")\n";
  if (r.wire_version > 0 && r.completed_ok > 0) {
    const double per_req = (r.ser_client.total_ms() + r.ser_server.total_ms()) /
                           static_cast<double>(r.completed_ok);
    const double p50 = r.latency_ms.percentile(50);
    out << "serialization   " << per_req << " ms/req  (share of p50 "
        << (p50 > 0 ? per_req / p50 : 0.0) << ")\n";
  }
  for (const auto& s : r.per_scenario) {
    out << "  " << s.name << ": " << s.completed_ok << " ok, p50 "
        << s.latency_ms.percentile(50) << " ms\n";
  }
}

void print_sweep_summary(const defa::serve::SweepReport& r, std::ostream& out) {
  out << "sweep           " << (r.name.empty() ? "(unnamed)" : r.name) << ", "
      << r.requests << " requests per point\n"
      << "point         achieved  p50_ms    p99_ms    hit_rate\n";
  for (const auto& pt : r.points) {
    const defa::serve::MetricsSnapshot& m = pt.report.server_metrics;
    if (pt.mode == "closed") {
      out << "conc " << pt.concurrency;
    } else {
      out << pt.rate_qps << " qps";
    }
    out << "  " << pt.report.achieved_qps << "  " << pt.report.latency_ms.percentile(50)
        << "  " << pt.report.latency_ms.percentile(99) << "  "
        << m.context_hit_rate() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) try {
  defa::serve::ScenarioFile scenario;  // .base drives single runs
  std::string out_path;
  std::string trace_out_path;
  std::string connect_endpoint;  // --connect: drive a remote defa_serve
  std::string mix = "smoke";
  defa::client::ClientOptions client_options;  // --wire / --pipeline
  bool have_scenario_file = false;
  bool mix_flag_given = false;     // --mix/--smoke conflict with --scenario
  bool server_flag_given = false;  // server-config flags conflict with --connect
  bool wire_flag_given = false;    // --wire/--pipeline require --connect
  bool sweep = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    defa::serve::LoadGenOptions& options = scenario.base;
    if (arg == "--scenario") {
      if ((v = value()) == nullptr) return usage();
      scenario = defa::serve::load_scenario_file(v);
      have_scenario_file = true;
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--connect") {
      if ((v = value()) == nullptr) return usage();
      connect_endpoint = v;
    } else if (arg == "--mode") {
      if ((v = value()) == nullptr) return usage();
      const std::string mode = v;
      if (mode == "closed") {
        options.mode = defa::serve::LoadGenOptions::Mode::kClosed;
      } else if (mode == "open") {
        options.mode = defa::serve::LoadGenOptions::Mode::kOpen;
      } else {
        return usage();
      }
    } else if (arg == "--requests") {
      if ((v = value()) == nullptr) return usage();
      options.requests = defa::parse_flag<int>(arg, v, 1);
    } else if (arg == "--concurrency") {
      if ((v = value()) == nullptr) return usage();
      // One client thread per in-flight request: keep the count sane.
      options.concurrency = defa::parse_flag<int>(arg, v, 1, 1024);
    } else if (arg == "--rate") {
      if ((v = value()) == nullptr) return usage();
      options.rate_qps = defa::parse_flag<double>(arg, v, 1e-3, 1e9);
    } else if (arg == "--fixed-gap") {
      options.poisson = false;
    } else if (arg == "--timeout-ms") {
      if ((v = value()) == nullptr) return usage();
      options.timeout_ms = defa::parse_flag<double>(arg, v, 0.0, 1e9);
    } else if (arg == "--seed") {
      if ((v = value()) == nullptr) return usage();
      options.seed = defa::parse_flag<std::uint64_t>(arg, v);
    } else if (arg == "--mix") {
      if ((v = value()) == nullptr) return usage();
      mix = v;
      mix_flag_given = true;
    } else if (arg == "--workers") {
      server_flag_given = true;
      if ((v = value()) == nullptr) return usage();
      options.server.max_concurrency = defa::parse_flag<int>(arg, v, 0);
    } else if (arg == "--queue-capacity") {
      server_flag_given = true;
      if ((v = value()) == nullptr) return usage();
      options.server.queue_capacity = defa::parse_flag<std::size_t>(arg, v, 1);
    } else if (arg == "--max-contexts") {
      server_flag_given = true;
      if ((v = value()) == nullptr) return usage();
      options.server.engine.max_contexts = defa::parse_flag<std::size_t>(arg, v);
    } else if (arg == "--max-memo") {
      server_flag_given = true;
      if ((v = value()) == nullptr) return usage();
      options.server.engine.max_memo = defa::parse_flag<std::size_t>(arg, v);
    } else if (arg == "--no-memo") {
      server_flag_given = true;
      options.server.engine.memoize_results = false;
    } else if (arg == "--wire") {
      wire_flag_given = true;
      if ((v = value()) == nullptr) return usage();
      const std::string wire = v;
      if (wire == "auto") {
        client_options.wire = defa::client::ClientOptions::Wire::kAuto;
      } else if (wire == "v1") {
        client_options.wire = defa::client::ClientOptions::Wire::kV1;
      } else if (wire == "v2") {
        client_options.wire = defa::client::ClientOptions::Wire::kV2;
      } else {
        std::cerr << "unknown wire mode '" << wire << "' (auto|v1|v2)\n";
        return 2;
      }
    } else if (arg == "--pipeline") {
      wire_flag_given = true;
      if ((v = value()) == nullptr) return usage();
      client_options.max_inflight = defa::parse_flag<int>(arg, v, 0);
    } else if (arg == "--out") {
      if ((v = value()) == nullptr) return usage();
      out_path = v;
    } else if (arg == "--trace-sample") {
      if ((v = value()) == nullptr) return usage();
      options.trace_sample_every = defa::parse_flag<int>(arg, v, 1);
    } else if (arg == "--trace-out") {
      if ((v = value()) == nullptr) return usage();
      trace_out_path = v;
    } else if (arg == "--smoke") {
      options.mode = defa::serve::LoadGenOptions::Mode::kClosed;
      options.requests = 64;
      options.concurrency = 4;
      mix = "smoke";
      mix_flag_given = true;
      if (out_path.empty()) out_path = "BENCH_serve.json";
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return 2;
    }
  }
  if (have_scenario_file && mix_flag_given) {
    // The mix comes from exactly one place; silently ignoring one of the
    // two would benchmark something the user didn't ask for.
    std::cerr << "--mix/--smoke cannot be combined with --scenario "
                 "(the scenario file defines the mix)\n";
    return 2;
  }
  if (connect_endpoint.empty() && wire_flag_given) {
    // The wire flags shape the client connection; there is none in-process.
    std::cerr << "--wire/--pipeline configure the --connect client "
                 "connection and need --connect HOST:PORT\n";
    return 2;
  }
  if (!connect_endpoint.empty() && server_flag_given) {
    // Server flags configure the in-process server; silently ignoring
    // them would benchmark a configuration the user didn't ask for.
    std::cerr << "--connect drives a remote defa_serve: server flags "
                 "(--workers/--queue-capacity/--max-contexts/--max-memo/"
                 "--no-memo) configure "
                 "the in-process server and cannot be combined with it\n";
    return 2;
  }
  if (!have_scenario_file) {
    if (mix == "smoke") {
      scenario.base.scenarios = defa::serve::smoke_mix();
    } else if (mix == "default") {
      scenario.base.scenarios = defa::serve::default_mix();
    } else {
      std::cerr << "unknown mix '" << mix << "' (smoke|default)\n";
      return 2;
    }
  }

  if (!trace_out_path.empty() && scenario.base.trace_sample_every <= 0) {
    scenario.base.trace_sample_every = 1;  // a trace dump implies sampling
  }
  if (scenario.base.trace_sample_every > 0) {
    defa::obs::Tracer::instance().set_enabled(true);
  }

  if (sweep) {
    if (!trace_out_path.empty()) {
      std::cerr << "--trace-out applies to single runs, not --sweep\n";
      return 2;
    }
    if (!scenario.has_sweep) {
      std::cerr << "--sweep needs a --scenario file with a \"sweep\" block\n";
      return 2;
    }
    defa::serve::SweepReport report;
    if (!connect_endpoint.empty()) {
      // Remote sweep: each point reconfigures the connected server (cache
      // bounds + stats/cache reset) through the protocol instead of
      // constructing a fresh in-process Server.
      defa::client::Client client =
          defa::client::Client::connect(connect_endpoint, client_options);
      report = defa::client::run_remote_sweep(scenario, client);
    } else {
      report = defa::serve::run_sweep(scenario);
    }
    if (!quiet) print_sweep_summary(report, std::cout);
    if (!out_path.empty()) {
      defa::api::write_json_file(out_path, report.to_json());
      if (!quiet) std::cout << "wrote " << out_path << "\n";
      // Plot-ready sidecar: the curve rows as CSV next to the JSON report.
      const std::size_t dot = out_path.find_last_of("./");
      const std::string csv_path =
          (dot != std::string::npos && out_path[dot] == '.'
               ? out_path.substr(0, dot)
               : out_path) +
          ".csv";
      std::ofstream csv(csv_path);
      if (!csv.good()) {
        std::cerr << "error: cannot open '" << csv_path << "' for writing\n";
        return 1;
      }
      csv << report.to_csv();
      if (!quiet) std::cout << "wrote " << csv_path << "\n";
    }
    std::uint64_t ok = 0;
    for (const auto& pt : report.points) ok += pt.report.completed_ok;
    return ok > 0 ? 0 : 1;
  }

  defa::serve::LoadReport report;
  defa::api::Json server_trace;  // null unless fetched over the wire
  if (!connect_endpoint.empty()) {
    if (have_scenario_file && !quiet) {
      std::cerr << "note: --connect ignores the scenario file's \"server\" "
                   "block (the remote process owns its configuration)\n";
    }
    defa::client::Client client =
        defa::client::Client::connect(connect_endpoint, client_options);
    report = defa::client::run_remote_loadgen(scenario.base, client);
    if (!trace_out_path.empty()) server_trace = client.trace();
  } else {
    report = defa::serve::run_loadgen(scenario.base);
  }
  if (!quiet) print_summary(report, std::cout);
  if (!out_path.empty()) {
    defa::api::write_json_file(out_path, report.to_json());
    if (!quiet) std::cout << "wrote " << out_path << "\n";
  }
  if (!trace_out_path.empty()) {
    // One lane for this process; --connect adds the server's lane, spans
    // joined by trace_id on the shared monotonic timeline.
    std::vector<defa::obs::TraceProcess> lanes;
    defa::obs::TraceProcess own;
    own.pid = static_cast<int>(::getpid());
    own.name = connect_endpoint.empty() ? "defa_loadgen (inproc server)"
                                        : "defa_loadgen";
    own.events = defa::obs::trace_events_json(
        defa::obs::Tracer::instance().collect(), own.pid, own.name);
    lanes.push_back(std::move(own));
    if (!server_trace.is_null()) {
      defa::obs::TraceProcess srv;
      srv.pid = static_cast<int>(server_trace.at("pid").as_int());
      srv.name = server_trace.at("process").as_string();
      srv.events = server_trace.at("traceEvents");
      lanes.push_back(std::move(srv));
    }
    defa::obs::write_trace_file(trace_out_path,
                                defa::obs::merge_trace_processes(lanes));
    if (!quiet) std::cout << "wrote " << trace_out_path << "\n";
  }
  // Traffic that never completed anything signals a broken setup to CI.
  return report.completed_ok > 0 ? 0 : 1;
} catch (const defa::FlagError& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
