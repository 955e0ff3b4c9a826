#pragma once

/// \file remote_loadgen.h
/// Drive a *separate* `defa_serve` process with the serve-layer load
/// generator: the same schedules, mixes and report schema as in-process
/// `serve::run_loadgen`, but every request travels the wire through a
/// `client::Client` — `defa_loadgen --connect HOST:PORT` uses this, so
/// BENCH_serve.json gains an apples-to-apples in-process vs cross-process
/// comparison (the report's `transport` field tells them apart).

#include "client/client.h"
#include "serve/loadgen.h"
#include "serve/scenario.h"

namespace defa::client {

/// Run the configured traffic against `client`'s server.  Ignores
/// `options.server` (the remote process owns its configuration; the
/// report's `server_metrics` are fetched over the wire via `metrics`).
/// Latencies are client-observed round trips.
[[nodiscard]] serve::LoadReport run_remote_loadgen(
    const serve::LoadGenOptions& options, Client& client);

/// Remote flavor of `serve::run_sweep` (`defa_loadgen --connect --sweep`):
/// the same points and report schema, but each point is applied to the
/// *remote* server via the protocol `reconfigure` method (cache bounds +
/// `reset_stats`, which clears the engine caches and metrics) instead of
/// constructing a fresh in-process Server — so the per-point cold-cache
/// semantics match.  Requires `file.has_sweep`; throws RpcError when the
/// server refuses a point's configuration.
[[nodiscard]] serve::SweepReport run_remote_sweep(const serve::ScenarioFile& file,
                                                  Client& client);

}  // namespace defa::client
