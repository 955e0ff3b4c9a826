#include "client/remote_loadgen.h"

#include <chrono>
#include <thread>
#include <utility>

#include "serve/wire/stats.h"

namespace defa::client {

serve::LoadReport run_remote_loadgen(const serve::LoadGenOptions& options,
                                     Client& client) {
  serve::LoadTarget target;
  target.submit = [&client](serve::ServeRequest req) {
    return client.submit(std::move(req));
  };
  target.metrics = [&client] {
    // The in-process wrapper drains before sampling so the in-flight
    // gauge is settled.  Remotely, the last response frame can arrive a
    // beat before the server's own bookkeeping decrements the gauge —
    // poll it quiet (bounded) instead of snapshotting a transient.
    serve::MetricsSnapshot m = client.metrics();
    for (int i = 0; i < 50 && (m.in_flight > 0 || m.queue_depth > 0); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      m = client.metrics();
    }
    return m;
  };
  target.transport = client.transport_name();
  // Serialization accounting (docs/BENCH_SCHEMA.md#serialization): diff
  // the client-side SerStats and the server's exported wire counters
  // around the run, so the report attributes only this run's traffic.
  // Both are process-wide, so concurrent clients would cross-pollute —
  // the loadgen is the only traffic source in the benchmark flow.
  const int wire_version = client.wire_version();
  const serve::wire::SerSnapshot client_before =
      serve::wire::SerStats::instance().snapshot(wire_version);
  const serve::MetricsSnapshot server_before = client.metrics();
  serve::LoadReport report = serve::run_loadgen_against(options, target);
  report.wire_version = wire_version;
  report.ser_client =
      serve::wire::SerStats::instance().snapshot(wire_version).minus(client_before);
  const serve::wire::SerSnapshot& server_after =
      wire_version >= 2 ? report.server_metrics.wire_v2
                        : report.server_metrics.wire_v1;
  report.ser_server = server_after.minus(
      wire_version >= 2 ? server_before.wire_v2 : server_before.wire_v1);
  return report;
}

serve::SweepReport run_remote_sweep(const serve::ScenarioFile& file,
                                    Client& client) {
  // One reconfigure per point: the reconfigurable subset of the file's
  // server block (cache bounds, memoization), then reset stats + caches —
  // which is what the in-process sweep gets from constructing a fresh
  // Server per point.  Workers and queue capacity are process-construction
  // settings and stay whatever the remote server was launched with.
  return serve::run_sweep(file, [&](const serve::LoadGenOptions& options) {
    serve::ServerReconfig rc;
    rc.max_contexts = file.base.server.engine.max_contexts;
    rc.max_memo = file.base.server.engine.max_memo;
    rc.memoize_results = file.base.server.engine.memoize_results;
    rc.reset_stats = true;
    (void)client.reconfigure(rc);
    return run_remote_loadgen(options, client);
  });
}

}  // namespace defa::client
