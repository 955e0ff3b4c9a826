// defa_fleet — sharded-fleet orchestrator and benchmark driver.
//
//   defa_fleet --config FILE [--serve-bin PATH] [--out FILE] [--shards N]
//              [--no-chaos] [--no-verify] [--quiet]
//              [--trace-sample N] [--trace-out FILE]
//              [--wire auto|v1|v2] [--pipeline N]
//
// --wire picks the protocol flavor every pool->shard connection speaks
// (auto negotiates binary v2 with transparent v1 fallback, docs/
// PROTOCOL.md); --pipeline N caps each shard connection's in-flight
// requests.  Both apply uniformly across the fleet, reconnects included.
//
// --trace-out runs the main-run shards with tracing on and merges their
// span dumps plus this process's client-side spans into one Chrome
// trace-event file — every shard a lane on a single timeline, spans
// joined across processes by trace_id (docs/OBSERVABILITY.md).
// --trace-sample N sets the client-side sampling stride (default 1 with
// --trace-out).
//
// Reads a declarative fleet config (docs/FLEET.md), spawns N defa_serve
// shard processes on ephemeral ports, routes the configured load mix
// through defa::client::Pool (consistent-hash routing by workload key,
// failover on shard death), and writes the merged fleet report to
// BENCH_fleet.json plus a plot-ready CSV sidecar.  When the config asks
// for chaos the orchestrator kills or drains one shard mid-load and the
// run only passes if every request still got exactly one response; when
// it asks for verify, fleet results are spot-checked bit-identical
// against a local in-process Engine.
//
// Exit status is 0 only when every run completed requests, chaos lost
// nothing, and verification found no mismatches — so CI can gate on it.
//
// Example:
//   defa_fleet --config scenarios/fleet_smoke.json --out BENCH_fleet.json

#include <fstream>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "fleet/orchestrator.h"
#include "obs/trace.h"

namespace {

int usage() {
  std::cerr << "usage: defa_fleet --config FILE [--serve-bin PATH] [--out FILE]\n"
            << "                  [--shards N] [--no-chaos] [--no-verify]\n"
            << "                  [--quiet] [--trace-sample N] [--trace-out FILE]\n"
            << "                  [--wire auto|v1|v2] [--pipeline N]\n";
  return 2;
}

/// "BENCH_fleet.json" -> "BENCH_fleet.csv" (no extension: append ".csv").
std::string csv_path_for(const std::string& json_path) {
  const std::size_t dot = json_path.find_last_of("./");
  if (dot != std::string::npos && json_path[dot] == '.') {
    return json_path.substr(0, dot) + ".csv";
  }
  return json_path + ".csv";
}

}  // namespace

int main(int argc, char** argv) try {
  std::string config_path;
  std::string out_path = "BENCH_fleet.json";
  defa::fleet::OrchestratorOptions options;
  int shards_override = 0;
  int trace_sample = 0;
  // Default the shard binary to defa_serve next to this binary, so
  // "./build/defa_fleet ..." works from any cwd.
  {
    const std::string self = argv[0];
    const std::size_t slash = self.find_last_of('/');
    options.serve_bin = slash == std::string::npos
                            ? "./defa_serve"
                            : self.substr(0, slash + 1) + "defa_serve";
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--config") {
      const char* v = value();
      if (v == nullptr) return usage();
      config_path = v;
    } else if (arg == "--serve-bin") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.serve_bin = v;
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) return usage();
      out_path = v;
    } else if (arg == "--shards") {
      const char* v = value();
      if (v == nullptr) return usage();
      // One defa_serve process per shard: keep the count sane.
      shards_override = defa::parse_flag<int>(arg, v, 1, 64);
    } else if (arg == "--trace-sample") {
      const char* v = value();
      if (v == nullptr) return usage();
      trace_sample = defa::parse_flag<int>(arg, v, 1);
    } else if (arg == "--trace-out") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.trace_out = v;
    } else if (arg == "--wire") {
      const char* v = value();
      if (v == nullptr) return usage();
      const std::string wire = v;
      if (wire == "auto") {
        options.client.wire = defa::client::ClientOptions::Wire::kAuto;
      } else if (wire == "v1") {
        options.client.wire = defa::client::ClientOptions::Wire::kV1;
      } else if (wire == "v2") {
        options.client.wire = defa::client::ClientOptions::Wire::kV2;
      } else {
        std::cerr << "unknown wire mode '" << wire << "' (auto|v1|v2)\n";
        return 2;
      }
    } else if (arg == "--pipeline") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.client.max_inflight = defa::parse_flag<int>(arg, v, 0);
    } else if (arg == "--no-chaos") {
      options.chaos = false;
    } else if (arg == "--no-verify") {
      options.verify = false;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return 2;
    }
  }
  if (config_path.empty()) return usage();

  defa::fleet::FleetConfig config = defa::fleet::load_fleet_config(config_path);
  if (shards_override > 0) config.shards = shards_override;
  if (!options.trace_out.empty()) {
    // Client-side sampling drives the cross-process correlation: sampled
    // requests carry their id over the wire and the traced shards record
    // under it.
    config.load.trace_sample_every = trace_sample > 0 ? trace_sample : 1;
    defa::obs::Tracer::instance().set_enabled(true);
  }

  const defa::fleet::FleetReport report =
      defa::fleet::run_fleet(config, options);

  defa::api::write_json_file(out_path, report.to_json());
  const std::string csv_path = csv_path_for(out_path);
  {
    std::ofstream csv(csv_path);
    if (!csv.good()) {
      std::cerr << "error: cannot write '" << csv_path << "'\n";
      return 1;
    }
    csv << report.to_csv();
  }

  bool ok = true;
  for (const defa::fleet::FleetRunReport& run : report.runs) {
    if (run.load.completed_ok == 0) ok = false;
    if (run.chaos.enabled && run.chaos.lost != 0) ok = false;
    if (run.verify.enabled && run.verify.mismatches != 0) ok = false;
  }
  std::cerr << "defa_fleet: " << report.runs.size() << " run(s) -> " << out_path
            << " and " << csv_path << (ok ? "" : " (FAILED)") << "\n";
  return ok ? 0 : 1;
} catch (const defa::FlagError& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
