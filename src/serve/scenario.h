#pragma once

/// \file scenario.h
/// Scenario files: a JSON description of a whole load-generation
/// experiment — the weighted traffic mix, the arrival process, the server
/// configuration, and an optional arrival-rate sweep — so a benchmark run
/// is a checked-in artifact instead of a pile of command-line flags.
/// `defa_loadgen --scenario FILE` consumes this format (worked example in
/// docs/SERVING.md; the emitted sweep report is documented in
/// docs/BENCH_SCHEMA.md).
///
/// File shape (strict: unknown keys throw):
///   {
///     "name": "mixed_key",               // optional experiment label
///     "requests": 128,                   // total requests per run
///     "seed": 1,                         // schedule + arrival jitter seed
///     "timeout_ms": 0,                   // per-request deadline, 0 = none
///     "arrival": {                       // closed or open loop
///       "process": "poisson",            // "closed" | "fixed" | "poisson"
///       "rate_qps": 400,                 //   open loop only
///       "concurrency": 4                 //   closed loop only
///     },
///     "server": {                        // all optional
///       "workers": 0, "queue_capacity": 1024,
///       "max_contexts": 2, "max_memo": 64, "memoize_results": false
///     },
///     "sweep": {                         // optional: --sweep runs these
///       "rates_qps": [100, 200, 400],    //   open-loop points
///       "concurrency": [1, 4, 16]        //   closed-loop points
///     },                                 // >= 1 of rates_qps/concurrency
///     "scenarios": [                     // >= 1 weighted mix entries
///       {"name": "tiny_defa", "weight": 4, "priority": "normal",
///        "request": {"preset": "tiny", "outputs": ["functional"]}}
///     ]
///   }

#include <functional>
#include <string>
#include <vector>

#include "serve/loadgen.h"

namespace defa::serve {

/// Load-sweep description.  Every configured open-loop rate and every
/// configured closed-loop concurrency is driven once, producing one
/// latency-vs-load curve over identical request schedules.  At least one
/// of the two axes must be non-empty.
struct SweepSpec {
  std::vector<double> rates_qps;   ///< open-loop points
  std::vector<int> concurrencies;  ///< closed-loop points ("concurrency" key)
};

/// A parsed scenario file: the base LoadGenOptions (single-run settings)
/// plus the optional sweep block.
struct ScenarioFile {
  std::string name;
  LoadGenOptions base;
  bool has_sweep = false;
  SweepSpec sweep;
};

/// Strict parse of the scenario-file format above.  Throws
/// defa::CheckError on unknown keys, an empty mix, non-positive or
/// non-finite weights, duplicate scenario names, unknown priority/process
/// names, or malformed embedded requests.
[[nodiscard]] ScenarioFile scenario_file_from_json(const api::Json& j);

/// Read + parse a scenario file from disk.
[[nodiscard]] ScenarioFile load_scenario_file(const std::string& path);

/// One sweep measurement: a load run at an open-loop rate or a
/// closed-loop concurrency point.
struct SweepPoint {
  std::string mode = "open";  ///< "open" | "closed"
  double rate_qps = 0;        ///< open points; 0 for closed points
  int concurrency = 0;        ///< closed points; 0 for open points
  LoadReport report;
};

/// A full latency-vs-load sweep (the BENCH_serve_sweep.json artifact).
struct SweepReport {
  std::string name;
  int requests = 0;
  /// Open-loop rate points first, then closed-loop concurrency points.
  std::vector<SweepPoint> points;

  /// {"bench": "serve_sweep", "curve": [per-point summary rows with
  ///  p50/p95/p99, achieved qps and context-cache hit rate], "points":
  ///  [full LoadReport objects]} — see docs/BENCH_SCHEMA.md.
  [[nodiscard]] api::Json to_json() const;

  /// The curve as CSV (header + one row per point, same
  /// columns as the JSON "curve" rows) — the plot-ready sidecar
  /// `defa_loadgen --sweep --out` writes next to the JSON report.
  [[nodiscard]] std::string to_csv() const;
};

/// How one sweep point runs: its LoadGenOptions in, its report out.
using SweepPointRunner = std::function<LoadReport(const LoadGenOptions&)>;

/// Run the sweep: every configured arrival rate, then every configured
/// concurrency, each point on the file's identical request schedule.
/// `run_point` defaults to `run_loadgen`, a fresh in-process Server per
/// point; `client::run_remote_sweep` passes a runner that resets a remote
/// server instead.  Requires `file.has_sweep`.
[[nodiscard]] SweepReport run_sweep(const ScenarioFile& file,
                                    const SweepPointRunner& run_point = run_loadgen);

}  // namespace defa::serve
