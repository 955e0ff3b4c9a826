#include "serve/loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <utility>

#include "api/run_meta.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "obs/trace.h"

namespace defa::serve {

namespace {

using Clock = std::chrono::steady_clock;

Scenario make_scenario(std::string name, std::string preset, Priority pri,
                       double weight, api::OutputMask outputs) {
  Scenario s;
  s.name = std::move(name);
  s.request.preset = std::move(preset);
  s.request.outputs = outputs;
  s.priority = pri;
  s.weight = weight;
  return s;
}

/// Deterministic scenario schedule: weighted draws from `seed`.
std::vector<std::size_t> make_schedule(const std::vector<Scenario>& mix, int requests,
                                       std::uint64_t seed) {
  double total = 0;
  for (const Scenario& s : mix) {
    DEFA_CHECK(s.weight > 0, "loadgen: scenario '" + s.name + "' needs weight > 0");
    total += s.weight;
  }
  Rng rng(seed);
  std::vector<std::size_t> schedule;
  schedule.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    double draw = rng.uniform(0.0, total);
    std::size_t pick = mix.size() - 1;
    for (std::size_t s = 0; s < mix.size(); ++s) {
      draw -= mix[s].weight;
      if (draw < 0) {
        pick = s;
        break;
      }
    }
    schedule.push_back(pick);
  }
  return schedule;
}

}  // namespace

std::vector<Scenario> smoke_mix() {
  std::vector<Scenario> mix;
  // Cache-hot default config: repeated hits on one context + memo entry.
  mix.push_back(make_scenario("tiny_defa", "tiny", Priority::kNormal, 4.0,
                              api::kFunctional));
  // Distinct prune configs -> distinct memo keys on the same context.
  {
    Scenario s = make_scenario("tiny_pap_sweep", "tiny", Priority::kNormal, 2.0,
                               api::kFunctional);
    core::PruneConfig cfg;
    cfg.label = "pap-only";
    cfg.pap = true;
    cfg.pap_tau = 0.05;
    s.request.prune = cfg;
    mix.push_back(std::move(s));
  }
  {
    Scenario s =
        make_scenario("tiny_quant8", "tiny", Priority::kLow, 1.0, api::kFunctional);
    s.request.prune = core::PruneConfig::only_quant(8);
    mix.push_back(std::move(s));
  }
  // A second scene: a distinct (model, scene) context under the same model.
  {
    Scenario s = make_scenario("tiny_scene2", "tiny", Priority::kNormal, 2.0,
                               api::kFunctional);
    workload::SceneParams scene;
    scene.seed = 20077;
    s.request.scene = scene;
    mix.push_back(std::move(s));
  }
  // The accelerator simulator path, high priority.
  mix.push_back(make_scenario("tiny_latency", "tiny", Priority::kHigh, 2.0,
                              api::kFunctional | api::kLatency));
  return mix;
}

std::vector<Scenario> default_mix() {
  std::vector<Scenario> mix = smoke_mix();
  mix.push_back(make_scenario("small_defa", "small", Priority::kNormal, 1.0,
                              api::kFunctional));
  mix.push_back(make_scenario("small_full", "small", Priority::kLow, 0.5,
                              api::kFunctional | api::kLatency | api::kEnergy));
  return mix;
}

api::Json LoadReport::to_json() const {
  api::Json j = api::Json::object();
  j["bench"] = "serve";
  api::Json meta = api::run_metadata();
  meta["transport"] = transport;
  j["meta"] = std::move(meta);
  j["mode"] = mode;
  j["transport"] = transport;
  j["requests"] = requests;
  j["concurrency"] = concurrency;
  j["offered_qps"] = offered_qps;
  j["completed_ok"] = static_cast<double>(completed_ok);
  j["rejected_overload"] = static_cast<double>(rejected_overload);
  j["rejected_deadline"] = static_cast<double>(rejected_deadline);
  j["rejected_shutdown"] = static_cast<double>(rejected_shutdown);
  j["errors"] = static_cast<double>(errors);
  j["elapsed_ms"] = elapsed_ms;
  j["achieved_qps"] = achieved_qps;
  j["latency_ms"] = latency_ms.to_json();
  j["queue_ms"] = queue_ms.to_json();
  j["run_ms"] = run_ms.to_json();
  api::Json per = api::Json::object();
  for (const PerScenario& s : per_scenario) {
    api::Json sj = api::Json::object();
    sj["completed_ok"] = static_cast<double>(s.completed_ok);
    sj["latency_ms"] = s.latency_ms.to_json();
    per[s.name] = std::move(sj);
  }
  j["per_scenario"] = std::move(per);
  j["server_metrics"] = server_metrics.to_json();
  const auto ser_block = [](const wire::SerSnapshot& s) {
    api::Json b = api::Json::object();
    b["encode_ms"] = s.encode_ms;
    b["decode_ms"] = s.decode_ms;
    b["encode_frames"] = static_cast<double>(s.encode_frames);
    b["decode_frames"] = static_cast<double>(s.decode_frames);
    b["encode_bytes"] = static_cast<double>(s.encode_bytes);
    b["decode_bytes"] = static_cast<double>(s.decode_bytes);
    return b;
  };
  api::Json ser = api::Json::object();
  ser["wire_version"] = wire_version;
  ser["client"] = ser_block(ser_client);
  ser["server"] = ser_block(ser_server);
  const double total = ser_client.total_ms() + ser_server.total_ms();
  const double per_request =
      completed_ok > 0 ? total / static_cast<double>(completed_ok) : 0.0;
  ser["total_ms"] = total;
  ser["ms_per_request"] = per_request;
  // The share of the end-to-end p50 a request spends in serialization —
  // the headline number the v1 vs v2 comparison is judged on.
  const double p50 = latency_ms.percentile(50);
  ser["share_of_p50"] = p50 > 0 ? per_request / p50 : 0.0;
  j["serialization"] = std::move(ser);
  return j;
}

LoadReport run_loadgen(const LoadGenOptions& options) {
  // One scope owns the Server: the target wrapper drains it before the
  // final metrics sample, exactly as the pre-LoadTarget code did.
  Server server(options.server);
  LoadTarget target;
  target.submit = [&server](ServeRequest req) { return server.submit(std::move(req)); };
  target.metrics = [&server] {
    server.drain();  // settle the in-flight gauge before reading it
    return server.metrics();
  };
  target.transport = "inproc";
  return run_loadgen_against(options, target);
}

LoadReport run_loadgen_against(const LoadGenOptions& options,
                               const LoadTarget& target) {
  DEFA_CHECK(options.requests > 0, "loadgen: requests must be positive");
  DEFA_CHECK(target.submit != nullptr && target.metrics != nullptr,
             "loadgen: target needs submit and metrics functions");
  const std::vector<Scenario> mix =
      options.scenarios.empty() ? smoke_mix() : options.scenarios;
  const std::vector<std::size_t> schedule =
      make_schedule(mix, options.requests, options.seed);

  LoadReport report;
  report.mode = options.mode == LoadGenOptions::Mode::kClosed ? "closed" : "open";
  report.transport = target.transport;
  report.requests = options.requests;
  report.concurrency =
      options.mode == LoadGenOptions::Mode::kClosed ? options.concurrency : 0;
  report.offered_qps =
      options.mode == LoadGenOptions::Mode::kOpen ? options.rate_qps : 0.0;
  report.per_scenario.reserve(mix.size());
  for (const Scenario& s : mix) {
    LoadReport::PerScenario per;
    per.name = s.name;
    report.per_scenario.push_back(std::move(per));
  }

  const auto make_request = [&](int k) {
    const Scenario& s = mix[schedule[static_cast<std::size_t>(k)]];
    ServeRequest req;
    req.id = s.name + "#" + std::to_string(k);
    req.request = s.request;
    req.priority = s.priority;
    req.timeout_ms = options.timeout_ms;
#if DEFA_TRACE
    if (options.trace_sample_every > 0 &&
        k % options.trace_sample_every == 0) {
      req.trace_id = obs::new_trace_id();
    }
#endif
    return req;
  };

  std::mutex report_mu;
  const auto record = [&](int k, const ServeResponse& resp) {
    const std::lock_guard<std::mutex> lock(report_mu);
    switch (resp.status) {
      case ResponseStatus::kOk: {
        ++report.completed_ok;
        report.latency_ms.record(resp.total_ms);
        report.queue_ms.record(resp.queue_ms);
        report.run_ms.record(resp.run_ms);
        LoadReport::PerScenario& per =
            report.per_scenario[schedule[static_cast<std::size_t>(k)]];
        ++per.completed_ok;
        per.latency_ms.record(resp.total_ms);
        break;
      }
      case ResponseStatus::kRejectedOverload: ++report.rejected_overload; break;
      case ResponseStatus::kRejectedDeadline: ++report.rejected_deadline; break;
      case ResponseStatus::kRejectedShutdown: ++report.rejected_shutdown; break;
      case ResponseStatus::kError:
      case ResponseStatus::kBadRequest: ++report.errors; break;
    }
  };

  const Clock::time_point start = Clock::now();

  if (options.mode == LoadGenOptions::Mode::kClosed) {
    DEFA_CHECK(options.concurrency > 0, "loadgen: concurrency must be positive");
    // `concurrency` client threads, each a classic closed loop: submit,
    // wait for the response, submit the next scheduled request.
    std::atomic<int> next{0};
    std::vector<std::thread> clients;
    const int n_clients = std::min(options.concurrency, options.requests);
    clients.reserve(static_cast<std::size_t>(n_clients));
    for (int c = 0; c < n_clients; ++c) {
      clients.emplace_back([&] {
        while (true) {
          const int k = next.fetch_add(1);
          if (k >= options.requests) return;
          record(k, target.submit(make_request(k)).get());
        }
      });
    }
    for (std::thread& t : clients) t.join();
  } else {
    // Open loop: submit on the arrival schedule regardless of completions,
    // then harvest every future.
    DEFA_CHECK(options.rate_qps > 0, "loadgen: rate_qps must be positive");
    Rng rng(options.seed + 0x9e3779b9ULL);
    std::vector<std::future<ServeResponse>> futures;
    futures.reserve(static_cast<std::size_t>(options.requests));
    double next_arrival_ms = 0;
    const double mean_gap_ms = 1e3 / options.rate_qps;
    for (int k = 0; k < options.requests; ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(next_arrival_ms)));
      futures.push_back(target.submit(make_request(k)));
      const double gap =
          options.poisson ? -mean_gap_ms * std::log(1.0 - rng.uniform()) : mean_gap_ms;
      next_arrival_ms += gap;
    }
    for (int k = 0; k < options.requests; ++k) record(k, futures[static_cast<std::size_t>(k)].get());
  }

  report.elapsed_ms = std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                          Clock::now() - start)
                          .count();
  report.achieved_qps = report.elapsed_ms > 0
                            ? static_cast<double>(report.completed_ok) /
                                  (report.elapsed_ms / 1e3)
                            : 0.0;
  report.server_metrics = target.metrics();
  return report;
}

}  // namespace defa::serve
