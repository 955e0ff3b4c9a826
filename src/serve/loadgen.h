#pragma once

/// \file loadgen.h
/// Traffic generator for `serve::Server`: weighted scenario mixes (model
/// presets x scenes x prune configs), closed-loop (fixed concurrency) or
/// open-loop (fixed arrival rate, fixed or Poisson interarrivals) driving,
/// and a latency/throughput report (`BENCH_serve.json`).  `defa_loadgen`
/// is a thin main() over `run_loadgen`; the scenario schedule is drawn
/// from an explicit seed so a given (options, machine) pair replays the
/// same request sequence.

#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "serve/scheduler.h"

namespace defa::serve {

/// One weighted entry of the traffic mix.
struct Scenario {
  std::string name;
  api::EvalRequest request;
  Priority priority = Priority::kNormal;
  double weight = 1.0;
};

struct LoadGenOptions {
  enum class Mode { kClosed, kOpen };
  Mode mode = Mode::kClosed;

  int requests = 64;
  /// Closed loop: in-flight request count (each completion submits next).
  int concurrency = 4;
  /// Open loop: offered arrival rate (requests/s)...
  double rate_qps = 200.0;
  /// ... with exponential (Poisson) interarrivals, else fixed spacing.
  bool poisson = true;

  /// Per-request deadline forwarded to the scheduler; <= 0 = none.
  double timeout_ms = 0;
  std::uint64_t seed = 1;

  /// > 0 stamps every Nth generated request with a fresh trace id
  /// (docs/OBSERVABILITY.md): in-process targets record server-side spans
  /// under it, `--connect` targets additionally propagate it over the
  /// wire and record the client rpc span, so the two sides correlate.
  /// Requires the process tracer to be enabled to have any effect.
  int trace_sample_every = 0;

  ServerOptions server;
  /// Traffic mix; empty selects `smoke_mix()`.
  std::vector<Scenario> scenarios;
};

/// Cheap mixed-key mix on the "tiny" preset: cache-hot default config,
/// pruning/quantization variants, a second scene and a latency-simulating
/// entry, across all three priority classes.
[[nodiscard]] std::vector<Scenario> smoke_mix();

/// Heavier mix that also exercises the "small" preset and hardware sims.
[[nodiscard]] std::vector<Scenario> default_mix();

struct LoadReport {
  std::string mode;  ///< "closed" | "open"
  /// How requests reached the scheduler: "inproc" (same-process Server),
  /// or the client transport ("tcp" | "stdio") for `--connect` runs.
  std::string transport = "inproc";
  int requests = 0;
  int concurrency = 0;
  double offered_qps = 0;  ///< open loop only (0 for closed)
  std::uint64_t completed_ok = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t errors = 0;
  double elapsed_ms = 0;
  double achieved_qps = 0;  ///< ok completions / elapsed
  LatencyHistogram latency_ms;  ///< client-observed total latency (ok only)
  LatencyHistogram queue_ms;
  LatencyHistogram run_ms;
  /// (scenario name, ok-count, per-scenario latency) in mix order.
  struct PerScenario {
    std::string name;
    std::uint64_t completed_ok = 0;
    LatencyHistogram latency_ms;
  };
  std::vector<PerScenario> per_scenario;
  MetricsSnapshot server_metrics;

  /// Negotiated wire version of the client connection for `--connect`
  /// runs; 0 for in-process targets (no wire, serialization stays zero).
  int wire_version = 0;
  /// Serialization time/bytes spent on this run's traffic, client side
  /// (this process) and server side (from the server's metrics export),
  /// diffed around the run by `run_remote_loadgen`.  The report derives
  /// ms-per-request and the share of p50 latency from these —
  /// docs/BENCH_SCHEMA.md#serialization.
  wire::SerSnapshot ser_client;
  wire::SerSnapshot ser_server;

  [[nodiscard]] api::Json to_json() const;
};

/// Drive a fresh Server with the configured traffic and collect the
/// report.  Blocks until every request resolved.
[[nodiscard]] LoadReport run_loadgen(const LoadGenOptions& options);

/// Where the generated traffic goes.  `run_loadgen` wraps an in-process
/// Server in one of these; `defa::client::run_remote_loadgen` wraps a
/// `client::Client`, so one driver measures both sides of the
/// in-process-vs-cross-process comparison with identical schedules.
struct LoadTarget {
  /// Submit one request; the future must always resolve.
  std::function<std::future<ServeResponse>(ServeRequest)> submit;
  /// Final server metrics for the report, sampled after every request
  /// resolved (the in-process wrapper drains first).
  std::function<MetricsSnapshot()> metrics;
  std::string transport = "inproc";  ///< stamped into LoadReport::transport
};

/// Drive an arbitrary target with the configured traffic.  Ignores
/// `options.server` (the target owns its server configuration).
[[nodiscard]] LoadReport run_loadgen_against(const LoadGenOptions& options,
                                             const LoadTarget& target);

}  // namespace defa::serve
