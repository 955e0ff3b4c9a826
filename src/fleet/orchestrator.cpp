#include "fleet/orchestrator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include "api/engine.h"
#include "api/run_meta.h"
#include "client/pool.h"
#include "common/check.h"
#include "fleet/hash_ring.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/scenario.h"

namespace defa::fleet {

namespace {

void check_keys(const api::Json& j, const std::set<std::string>& allowed,
                const std::string& where) {
  for (const auto& [key, value] : j.members()) {
    DEFA_CHECK(allowed.count(key) > 0,
               "fleet config: unknown key '" + key + "' in " + where);
  }
}

ChaosSpec parse_chaos(const api::Json& j) {
  DEFA_CHECK(j.is_object(), "fleet config: 'chaos' must be an object");
  check_keys(j, {"mode", "shard", "after_fraction"}, "'chaos'");
  ChaosSpec chaos;
  chaos.enabled = true;
  if (const api::Json* v = j.find("mode")) {
    chaos.mode = v->as_string();
    DEFA_CHECK(chaos.mode == "kill" || chaos.mode == "drain",
               "fleet config: chaos mode '" + chaos.mode + "' (kill|drain)");
  }
  if (const api::Json* v = j.find("shard")) {
    chaos.shard = v->as_int32();
    DEFA_CHECK(chaos.shard >= -1, "fleet config: chaos 'shard' must be >= -1");
  }
  if (const api::Json* v = j.find("after_fraction")) {
    chaos.after_fraction = v->as_number();
    DEFA_CHECK(chaos.after_fraction > 0 && chaos.after_fraction < 1,
               "fleet config: chaos 'after_fraction' must be in (0, 1)");
  }
  return chaos;
}

// ------------------------------------------------------------ shard processes

struct ShardProc {
  int id = 0;
  pid_t pid = -1;
  int port = 0;
  std::string name;
  std::string endpoint;
  std::string port_file;
  std::string trace_file;  ///< set (and passed as --trace-out) when tracing
};

/// argv for one shard: every server option crosses as a defa_serve flag so
/// a fleet shard is exactly a hand-started server (debuggable in
/// isolation).
std::vector<std::string> shard_argv(const std::string& serve_bin,
                                    const FleetConfig& config, int shard_id,
                                    int shard_count,
                                    const std::string& port_file,
                                    const std::string& trace_file) {
  const serve::ServerOptions& so = config.load.server;
  std::vector<std::string> argv = {
      serve_bin,
      "--listen", "0",
      "--port-file", port_file,
      "--shard-id", std::to_string(shard_id),
      "--shard-count", std::to_string(shard_count),
      "--shard-name", "shard" + std::to_string(shard_id),
      "--virtual-nodes", std::to_string(config.virtual_nodes),
      "--queue-capacity", std::to_string(so.queue_capacity),
      "--max-contexts", std::to_string(so.engine.max_contexts),
      "--max-memo", std::to_string(so.engine.max_memo),
  };
  if (so.max_concurrency > 0) {
    argv.emplace_back("--workers");
    argv.emplace_back(std::to_string(so.max_concurrency));
  }
  if (!so.engine.memoize_results) argv.emplace_back("--no-memo");
  if (!trace_file.empty()) {
    argv.emplace_back("--trace-out");  // implies --trace on the shard
    argv.emplace_back(trace_file);
  }
  return argv;
}

pid_t spawn_process(const std::vector<std::string>& argv, bool quiet) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  DEFA_CHECK(pid >= 0, "fleet: fork() failed");
  if (pid == 0) {
    if (quiet) {
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0) {
        ::dup2(null_fd, STDERR_FILENO);
        ::close(null_fd);
      }
    }
    ::execv(cargv[0], cargv.data());
    std::perror("defa_fleet: execv");
    ::_exit(127);
  }
  return pid;
}

/// Poll `port_file` until the shard has written its ephemeral port.
/// Detects a shard that died before binding (waitpid WNOHANG), so a bad
/// flag fails the run in milliseconds instead of eating the full timeout.
int await_port(ShardProc& shard, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream pf(shard.port_file);
    int port = 0;
    if (pf.good() && (pf >> port) && port > 0) return port;
    int status = 0;
    if (::waitpid(shard.pid, &status, WNOHANG) == shard.pid) {
      shard.pid = -1;  // already reaped
      DEFA_CHECK(false, "fleet: shard " + std::to_string(shard.id) +
                            " exited before binding its port");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  DEFA_CHECK(false, "fleet: shard " + std::to_string(shard.id) +
                        " did not write its port within " +
                        std::to_string(timeout_ms) + " ms");
  return 0;  // unreachable
}

void kill_and_reap(std::vector<ShardProc>& shards) {
  for (ShardProc& s : shards) {
    if (s.pid > 0) ::kill(s.pid, SIGKILL);
  }
  for (ShardProc& s : shards) {
    if (s.pid > 0) {
      ::waitpid(s.pid, nullptr, 0);
      s.pid = -1;
    }
  }
}

/// Wait for voluntary exits after a drain; SIGKILL whatever remains.
void reap_gracefully(std::vector<ShardProc>& shards, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  bool all_done = false;
  while (!all_done && std::chrono::steady_clock::now() < deadline) {
    all_done = true;
    for (ShardProc& s : shards) {
      if (s.pid <= 0) continue;
      if (::waitpid(s.pid, nullptr, WNOHANG) == s.pid) {
        s.pid = -1;
      } else {
        all_done = false;
      }
    }
    if (!all_done) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill_and_reap(shards);
}

void cleanup_dir(const std::vector<ShardProc>& shards, const std::string& dir) {
  for (const ShardProc& s : shards) {
    std::remove(s.port_file.c_str());
    if (!s.trace_file.empty()) std::remove(s.trace_file.c_str());
  }
  ::rmdir(dir.c_str());
}

/// Merge the shards' trace dumps (written at their exit) with this
/// process's own client-side spans into one timeline: shard lanes get
/// shard-qualified pids, the orchestrator lane is pid 0.
void merge_fleet_trace(const std::vector<ShardProc>& shards,
                       const std::string& trace_out, bool quiet) {
  std::vector<obs::TraceProcess> lanes;
  obs::TraceProcess own;
  own.pid = 0;
  own.name = "defa_fleet client";
  own.events =
      obs::trace_events_json(obs::Tracer::instance().collect(), 0, own.name);
  lanes.push_back(std::move(own));
  for (const ShardProc& s : shards) {
    try {
      obs::TraceProcess lane;
      lane.pid = s.id + 1;
      lane.name = "defa_serve " + s.name;
      lane.events = api::read_json_file(s.trace_file);
      lanes.push_back(std::move(lane));
    } catch (const std::exception&) {
      // A chaos-killed shard never wrote its dump; its lane is absent.
      if (!quiet) {
        std::cerr << "defa_fleet: no trace dump from " << s.name
                  << " (killed?)\n";
      }
    }
  }
  obs::write_trace_file(trace_out, obs::merge_trace_processes(lanes));
  if (!quiet) {
    std::cerr << "defa_fleet: wrote merged trace (" << lanes.size()
              << " process lane(s)) to " << trace_out << "\n";
  }
}

// ------------------------------------------------------------------- one run

FleetRunReport run_one(const FleetConfig& config, int shard_count,
                       bool chaos_enabled, bool verify_enabled,
                       const OrchestratorOptions& options,
                       const std::string& trace_out) {
  DEFA_CHECK(shard_count >= 1, "fleet: shard count must be >= 1");
  const int total_requests = config.load.requests;
  ChaosSpec chaos = config.chaos;
  chaos.enabled = chaos.enabled && chaos_enabled;
  if (chaos.enabled) {
    DEFA_CHECK(shard_count >= 2, "fleet: chaos needs at least 2 shards");
    DEFA_CHECK(chaos.shard < shard_count,
               "fleet: chaos shard " + std::to_string(chaos.shard) +
                   " out of range for " + std::to_string(shard_count) +
                   " shards");
  }

  // --- spawn ---------------------------------------------------------------
  char dir_template[] = "/tmp/defa_fleetXXXXXX";
  DEFA_CHECK(::mkdtemp(dir_template) != nullptr, "fleet: mkdtemp failed");
  const std::string dir = dir_template;

  std::vector<ShardProc> shards(static_cast<std::size_t>(shard_count));
  try {
    for (int i = 0; i < shard_count; ++i) {
      ShardProc& s = shards[static_cast<std::size_t>(i)];
      s.id = i;
      s.name = "shard" + std::to_string(i);
      s.port_file = dir + "/port" + std::to_string(i);
      if (!trace_out.empty()) {
        s.trace_file = dir + "/trace" + std::to_string(i) + ".json";
      }
      s.pid = spawn_process(shard_argv(options.serve_bin, config, i,
                                       shard_count, s.port_file, s.trace_file),
                            options.quiet);
    }
    for (ShardProc& s : shards) {
      s.port = await_port(s, options.spawn_timeout_ms);
      s.endpoint = "127.0.0.1:" + std::to_string(s.port);
    }
  } catch (...) {
    kill_and_reap(shards);
    cleanup_dir(shards, dir);
    throw;
  }

  FleetRunReport run;
  run.shard_count = shard_count;
  try {
    // --- connect + health check -------------------------------------------
    std::vector<std::string> endpoints;
    endpoints.reserve(shards.size());
    for (const ShardProc& s : shards) endpoints.push_back(s.endpoint);
    client::PoolOptions pool_options;
    pool_options.virtual_nodes = config.virtual_nodes;
    pool_options.client = options.client;
    client::Pool pool(endpoints, pool_options);
    DEFA_CHECK(pool.wait_connected(options.spawn_timeout_ms),
               "fleet: not every shard became reachable");
    for (const ShardProc& s : shards) {
      const api::Json info =
          pool.call_shard(static_cast<std::size_t>(s.id), "shard_info");
      DEFA_CHECK(info.at("shard").at("id").as_int() == s.id,
                 "fleet: shard " + std::to_string(s.id) +
                     " reports the wrong identity");
    }
    if (!options.quiet) {
      std::cerr << "defa_fleet: " << shard_count << " shard(s) up\n";
    }

    // --- drive load through the pool --------------------------------------
    const std::uint64_t trigger_at =
        chaos.enabled
            ? std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(chaos.after_fraction *
                                                total_requests))
            : 0;
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> responses{0};
    std::atomic<std::uint64_t> transport_errors{0};
    std::atomic<std::uint64_t> shutdown_rejects{0};
    std::atomic<bool> chaos_fired{false};
    std::thread chaos_thread;
    std::optional<serve::MetricsSnapshot> drained_metrics;
    // A configured shard id is taken as-is; -1 ("auto") resolves at trigger
    // time to the shard that has routed the most traffic so far — killing
    // an idle shard would prove nothing about failover.
    std::atomic<int> chaos_victim{chaos.shard};

    serve::LoadTarget target;
    target.transport = "fleet";
    target.submit = [&](serve::ServeRequest req) {
      const std::uint64_t n = submitted.fetch_add(1) + 1;
      if (chaos.enabled && n == trigger_at && !chaos_fired.exchange(true)) {
        chaos_thread = std::thread([&] {
          int v = chaos_victim.load();
          if (v < 0) {
            const std::vector<client::PoolShardStats> s = pool.stats();
            std::uint64_t best = 0;
            v = 0;
            for (std::size_t i = 0; i < s.size(); ++i) {
              if (s[i].routed > best) {
                best = s[i].routed;
                v = static_cast<int>(i);
              }
            }
            chaos_victim.store(v);
          }
          const ShardProc& victim = shards[static_cast<std::size_t>(v)];
          if (chaos.mode == "kill") {
            ::kill(victim.pid, SIGKILL);
          } else {
            try {
              client::Client c = client::Client::connect(victim.endpoint);
              const api::Json r = c.drain();
              drained_metrics =
                  serve::MetricsSnapshot::from_json(r.at("metrics"));
            } catch (const std::exception&) {
              // The drain response can be lost to the closing socket; the
              // shard still drains and the run still proves failover.
            }
          }
        });
      }
      auto promise = std::make_shared<std::promise<serve::ServeResponse>>();
      std::future<serve::ServeResponse> future = promise->get_future();
      pool.submit_async(std::move(req),
                        [&, promise](const serve::ServeResponse& resp) {
                          responses.fetch_add(1);
                          if (resp.error_code == "transport") {
                            transport_errors.fetch_add(1);
                          }
                          if (resp.status ==
                              serve::ResponseStatus::kRejectedShutdown) {
                            shutdown_rejects.fetch_add(1);
                          }
                          promise->set_value(resp);
                        });
      return future;
    };
    // Called once, after every submitted future resolved — safe to join the
    // chaos thread and take the final per-shard snapshots here.
    std::vector<std::optional<serve::MetricsSnapshot>> shard_metrics;
    target.metrics = [&]() {
      if (chaos_thread.joinable()) chaos_thread.join();
      shard_metrics = pool.metrics_all();
      const int drained_shard = chaos_victim.load();
      if (chaos.enabled && drained_shard >= 0 && drained_metrics.has_value()) {
        shard_metrics[static_cast<std::size_t>(drained_shard)] = drained_metrics;
      }
      std::vector<serve::MetricsSnapshot> parts;
      for (const auto& m : shard_metrics) {
        if (m.has_value()) parts.push_back(*m);
      }
      return serve::merge_snapshots(parts);
    };

    run.load = serve::run_loadgen_against(config.load, target);
    if (chaos_thread.joinable()) chaos_thread.join();
    run.failovers = pool.failovers();

    run.chaos.enabled = chaos.enabled;
    run.chaos.triggered = chaos_fired.load();
    run.chaos.mode = chaos.enabled ? chaos.mode : "";
    run.chaos.shard = chaos.enabled ? chaos_victim.load() : -1;
    run.chaos.at_request = static_cast<int>(trigger_at);
    run.chaos.submitted = submitted.load();
    run.chaos.responses = responses.load();
    run.chaos.lost = static_cast<std::int64_t>(submitted.load()) -
                     static_cast<std::int64_t>(responses.load());
    run.chaos.transport_errors = transport_errors.load();
    run.chaos.shutdown_rejects = shutdown_rejects.load();

    // --- bit-identity spot check vs an in-process Engine -------------------
    run.verify.enabled = verify_enabled;
    if (verify_enabled) {
      api::Engine engine(config.load.server.engine);
      const std::vector<serve::Scenario> mix = config.load.scenarios.empty()
                                                   ? serve::smoke_mix()
                                                   : config.load.scenarios;
      for (const serve::Scenario& s : mix) {
        const api::EvalResult local = engine.run(s.request);
        try {
          const api::EvalResult remote = pool.eval(s.request);
          ++run.verify.checked;
          if (!(remote == local)) ++run.verify.mismatches;
        } catch (const std::exception& e) {
          ++run.verify.checked;
          ++run.verify.mismatches;
          if (!options.quiet) {
            std::cerr << "defa_fleet: verify '" << s.name
                      << "' failed: " << e.what() << "\n";
          }
        }
      }
    }

    // --- per-shard breakdowns ----------------------------------------------
    const std::vector<client::PoolShardStats> stats = pool.stats();
    const int chaos_shard = chaos_victim.load();
    for (const ShardProc& s : shards) {
      ShardReport sr;
      sr.id = s.id;
      sr.name = s.name;
      sr.endpoint = s.endpoint;
      sr.killed = chaos.enabled && chaos.mode == "kill" &&
                  s.id == chaos_shard && run.chaos.triggered;
      sr.drained = chaos.enabled && chaos.mode == "drain" &&
                   s.id == chaos_shard && run.chaos.triggered;
      sr.routed = stats[static_cast<std::size_t>(s.id)].routed;
      sr.reconnects = stats[static_cast<std::size_t>(s.id)].reconnects;
      if (static_cast<std::size_t>(s.id) < shard_metrics.size()) {
        sr.metrics = shard_metrics[static_cast<std::size_t>(s.id)];
      }
      run.shards.push_back(std::move(sr));
    }

    // --- graceful teardown -------------------------------------------------
    pool.drain_all();
  } catch (...) {
    kill_and_reap(shards);
    cleanup_dir(shards, dir);
    throw;
  }
  // Pool destroyed; shards saw their drain (or died under chaos) — give
  // them a moment to exit on their own before forcing it.  A shard's
  // trace dump is written as it exits, so the merge must come after.
  reap_gracefully(shards, 5000);
  if (!trace_out.empty()) {
    try {
      merge_fleet_trace(shards, trace_out, options.quiet);
    } catch (const std::exception& e) {
      std::cerr << "defa_fleet: trace merge failed: " << e.what() << "\n";
    }
  }
  cleanup_dir(shards, dir);
  return run;
}

}  // namespace

// ------------------------------------------------------------------- parsing

FleetConfig fleet_config_from_json(const api::Json& j) {
  DEFA_CHECK(j.is_object(), "fleet config: root must be an object");
  check_keys(j,
             {"name", "shards", "virtual_nodes", "server", "load",
              "shard_sweep", "chaos", "verify"},
             "the fleet config");
  FleetConfig config;
  if (const api::Json* v = j.find("name")) config.name = v->as_string();
  if (const api::Json* v = j.find("shards")) {
    config.shards = v->as_int32();
    DEFA_CHECK(config.shards >= 1, "fleet config: 'shards' must be >= 1");
  }
  if (const api::Json* v = j.find("virtual_nodes")) {
    config.virtual_nodes = v->as_int32();
    DEFA_CHECK(config.virtual_nodes >= 1,
               "fleet config: 'virtual_nodes' must be >= 1");
  }

  // The load + server blocks reuse the scenario-file parser: reassemble a
  // scenario file from the fleet keys so validation (and any future keys)
  // stays in one place.
  const api::Json* load = j.find("load");
  DEFA_CHECK(load != nullptr && load->is_object(),
             "fleet config: 'load' object is required");
  check_keys(*load, {"requests", "seed", "timeout_ms", "arrival", "scenarios"},
             "'load'");
  api::Json scenario_json = *load;
  if (const api::Json* server = j.find("server")) {
    scenario_json["server"] = *server;
  }
  config.load = serve::scenario_file_from_json(scenario_json).base;

  if (const api::Json* v = j.find("shard_sweep")) {
    DEFA_CHECK(v->is_array(), "fleet config: 'shard_sweep' must be an array");
    for (const api::Json& n : v->items()) {
      const int count = n.as_int32();
      DEFA_CHECK(count >= 1, "fleet config: shard_sweep entries must be >= 1");
      config.shard_sweep.push_back(count);
    }
  }
  if (const api::Json* v = j.find("chaos")) config.chaos = parse_chaos(*v);
  if (const api::Json* v = j.find("verify")) config.verify = v->as_bool();
  return config;
}

FleetConfig load_fleet_config(const std::string& path) {
  return fleet_config_from_json(api::read_json_file(path));
}

// ------------------------------------------------------------------- reports

api::Json FleetReport::to_json() const {
  api::Json j = api::Json::object();
  j["bench"] = "fleet";
  api::Json meta = api::run_metadata();
  meta["shards"] = runs.empty() ? 0 : runs.front().shard_count;
  j["meta"] = std::move(meta);
  j["name"] = name;
  j["requests"] = requests;
  api::Json run_array = api::Json::array();
  for (const FleetRunReport& run : runs) {
    api::Json rj = api::Json::object();
    rj["shard_count"] = run.shard_count;
    rj["failovers"] = run.failovers;
    rj["load"] = run.load.to_json();
    api::Json shard_array = api::Json::array();
    for (const ShardReport& s : run.shards) {
      api::Json sj = api::Json::object();
      sj["id"] = s.id;
      sj["name"] = s.name;
      sj["endpoint"] = s.endpoint;
      sj["killed"] = s.killed;
      sj["drained"] = s.drained;
      sj["routed"] = s.routed;
      sj["reconnects"] = s.reconnects;
      if (s.metrics.has_value()) sj["metrics"] = s.metrics->to_json();
      shard_array.push_back(std::move(sj));
    }
    rj["shards"] = std::move(shard_array);
    api::Json cj = api::Json::object();
    cj["enabled"] = run.chaos.enabled;
    if (run.chaos.enabled) {
      cj["triggered"] = run.chaos.triggered;
      cj["mode"] = run.chaos.mode;
      cj["shard"] = run.chaos.shard;
      cj["at_request"] = run.chaos.at_request;
      cj["submitted"] = run.chaos.submitted;
      cj["responses"] = run.chaos.responses;
      cj["lost"] = run.chaos.lost;
      cj["transport_errors"] = run.chaos.transport_errors;
      cj["shutdown_rejects"] = run.chaos.shutdown_rejects;
    }
    rj["chaos"] = std::move(cj);
    api::Json vj = api::Json::object();
    vj["enabled"] = run.verify.enabled;
    if (run.verify.enabled) {
      vj["checked"] = run.verify.checked;
      vj["mismatches"] = run.verify.mismatches;
    }
    rj["verify"] = std::move(vj);
    run_array.push_back(std::move(rj));
  }
  j["runs"] = std::move(run_array);
  return j;
}

std::string FleetReport::to_csv() const {
  std::ostringstream csv;
  csv << "shard_count,requests,completed_ok,errors,failovers,"
         "achieved_qps,p50_ms,p95_ms,p99_ms,p999_ms,context_hit_rate,"
         "memo_hit_rate,chaos_mode,chaos_lost\n";
  for (const FleetRunReport& run : runs) {
    const serve::MetricsSnapshot& m = run.load.server_metrics;
    const std::uint64_t memo_total = m.memo_hits + m.memo_misses;
    const double memo_hit_rate =
        memo_total == 0
            ? 0.0
            : static_cast<double>(m.memo_hits) / static_cast<double>(memo_total);
    csv << run.shard_count << ',' << run.load.requests << ',' << run.load.completed_ok << ','
        << run.load.errors << ',' << run.failovers << ','
        << run.load.achieved_qps << ',' << run.load.latency_ms.percentile(50)
        << ',' << run.load.latency_ms.percentile(95) << ','
        << run.load.latency_ms.percentile(99) << ','
        << run.load.latency_ms.percentile(99.9) << ',' << m.context_hit_rate()
        << ',' << memo_hit_rate << ','
        << (run.chaos.enabled ? run.chaos.mode : std::string("none")) << ','
        << run.chaos.lost << '\n';
  }
  return csv.str();
}

// ------------------------------------------------------------------ top level

FleetReport run_fleet(const FleetConfig& config,
                      const OrchestratorOptions& options) {
  FleetReport report;
  report.name = config.name.empty() ? "fleet" : config.name;
  report.requests = config.load.requests;
  if (!options.quiet) {
    std::cerr << "defa_fleet: main run with " << config.shards << " shard(s)\n";
  }
  report.runs.push_back(run_one(config, config.shards,
                                options.chaos && config.chaos.enabled,
                                options.verify && config.verify, options,
                                options.trace_out));
  for (const int count : config.shard_sweep) {
    if (!options.quiet) {
      std::cerr << "defa_fleet: sweep run with " << count << " shard(s)\n";
    }
    report.runs.push_back(
        run_one(config, count, /*chaos_enabled=*/false,
                /*verify_enabled=*/false, options, /*trace_out=*/""));
  }
  return report;
}

}  // namespace defa::fleet
