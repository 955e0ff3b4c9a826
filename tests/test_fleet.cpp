// Tests for the fleet layer: the consistent-hash ring (determinism,
// ~1/N key movement on membership change, uniformity), fleet metrics
// merging, fleet-config parsing, live Engine/Server reconfiguration, and
// client::Pool routing — same-key affinity, bit-identity vs in-process
// Engine::run regardless of which shard answers, and failover when a
// shard dies mid-traffic.

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "client/pool.h"
#include "common/check.h"
#include "fleet/hash_ring.h"
#include "fleet/orchestrator.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/transport.h"

namespace defa::fleet {
namespace {

using api::Json;

// ------------------------------------------------------------------ hash ring

TEST(Fnv1a64, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(HashRing, DeterministicAcrossInstances) {
  const std::vector<std::string> nodes = {"shard0", "shard1", "shard2"};
  HashRing a(nodes), b(nodes);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "workload#" + std::to_string(i);
    EXPECT_EQ(a.node_index_for(key), b.node_index_for(key));
    EXPECT_EQ(a.preference_order(key), b.preference_order(key));
  }
  // Node order in the membership list does not change ownership (points
  // hash names, not indices).
  HashRing shuffled({"shard2", "shard0", "shard1"});
  for (int i = 0; i < 200; ++i) {
    const std::string key = "workload#" + std::to_string(i);
    EXPECT_EQ(shuffled.node_for(key), a.node_for(key));
  }
}

TEST(HashRing, AddNodeMovesAboutOneOverNKeysOnlyToTheNewNode) {
  HashRing ring({"shard0", "shard1", "shard2"});
  const int keys = 10000;
  std::vector<std::string> before(keys);
  for (int i = 0; i < keys; ++i) {
    before[static_cast<std::size_t>(i)] =
        ring.node_for("key#" + std::to_string(i));
  }
  ring.add_node("shard3");
  int moved = 0;
  for (int i = 0; i < keys; ++i) {
    const std::string& now = ring.node_for("key#" + std::to_string(i));
    if (now != before[static_cast<std::size_t>(i)]) {
      ++moved;
      // Consistent hashing: a membership add only moves keys *to* the new
      // node, never between old nodes.
      EXPECT_EQ(now, "shard3");
    }
  }
  // Ideal movement is 1/4 of the keys; allow generous virtual-node noise.
  EXPECT_GT(moved, keys / 10);
  EXPECT_LT(moved, keys * 45 / 100);
}

TEST(HashRing, RemoveNodeOnlyReassignsItsOwnKeys) {
  HashRing ring({"shard0", "shard1", "shard2"});
  const int keys = 10000;
  std::vector<std::string> before(keys);
  for (int i = 0; i < keys; ++i) {
    before[static_cast<std::size_t>(i)] =
        ring.node_for("key#" + std::to_string(i));
  }
  ring.remove_node("shard1");
  for (int i = 0; i < keys; ++i) {
    const std::string& now = ring.node_for("key#" + std::to_string(i));
    if (before[static_cast<std::size_t>(i)] != "shard1") {
      EXPECT_EQ(now, before[static_cast<std::size_t>(i)]);
    } else {
      EXPECT_NE(now, "shard1");
    }
  }
}

TEST(HashRing, SpreadsKeysReasonablyUniformly) {
  HashRing ring({"shard0", "shard1", "shard2"});
  std::map<std::string, int> counts;
  const int keys = 10000;
  for (int i = 0; i < keys; ++i) {
    ++counts[ring.node_for("key#" + std::to_string(i))];
  }
  ASSERT_EQ(counts.size(), 3u);
  for (const auto& [node, count] : counts) {
    const double share = static_cast<double>(count) / keys;
    EXPECT_GT(share, 0.15) << node;
    EXPECT_LT(share, 0.55) << node;
  }
}

TEST(HashRing, PreferenceOrderStartsAtOwnerAndCoversAllNodes) {
  HashRing ring({"shard0", "shard1", "shard2", "shard3"});
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key#" + std::to_string(i);
    const std::vector<std::size_t> order = ring.preference_order(key);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], ring.node_index_for(key));
    const std::set<std::size_t> distinct(order.begin(), order.end());
    EXPECT_EQ(distinct.size(), 4u);
  }
}

TEST(HashRing, ValidatesInput) {
  // An empty ring is a legal value (membership can drain); lookups on it
  // are not.
  HashRing empty_ring{std::vector<std::string>{}};
  EXPECT_TRUE(empty_ring.empty());
  EXPECT_THROW(empty_ring.node_index_for("k"), CheckError);
  EXPECT_THROW(HashRing({"a", "a"}), CheckError);
  EXPECT_THROW(HashRing({""}), CheckError);
  EXPECT_THROW(HashRing({"a"}, 0), CheckError);
  HashRing ring({"a", "b"});
  EXPECT_THROW(ring.add_node("a"), CheckError);
  EXPECT_THROW(ring.remove_node("zzz"), CheckError);
}

// -------------------------------------------------------------- merged metrics

TEST(MergeSnapshots, SumsCountersAndMergesRawBuckets) {
  serve::MetricsSnapshot a;
  a.submitted = 10;
  a.completed_ok = 8;
  a.errors = 2;
  a.uptime_ms = 1000;
  a.context_hits = 5;
  a.memo_misses = 3;
  a.total_ms.record(1.0);
  a.total_ms.record(2.0);
  a.per_benchmark.emplace_back("tiny", 8);

  serve::MetricsSnapshot b;
  b.submitted = 4;
  b.completed_ok = 4;
  b.uptime_ms = 2000;
  b.context_hits = 1;
  b.total_ms.record(100.0);
  b.per_benchmark.emplace_back("tiny", 3);
  b.per_benchmark.emplace_back("small", 1);

  const serve::MetricsSnapshot m = serve::merge_snapshots({a, b});
  EXPECT_EQ(m.submitted, 14u);
  EXPECT_EQ(m.completed_ok, 12u);
  EXPECT_EQ(m.errors, 2u);
  EXPECT_EQ(m.context_hits, 6u);
  EXPECT_EQ(m.memo_misses, 3u);
  EXPECT_EQ(m.total_ms.count(), 3u);
  EXPECT_DOUBLE_EQ(m.total_ms.max(), 100.0);
  // Shards run in parallel: fleet uptime is the max, and qps is the
  // merged completion count over that shared wall clock.
  EXPECT_DOUBLE_EQ(m.uptime_ms, 2000.0);
  EXPECT_DOUBLE_EQ(m.qps, 12.0 / 2.0);
  ASSERT_EQ(m.per_benchmark.size(), 2u);
  EXPECT_EQ(m.per_benchmark[0].first, "tiny");
  EXPECT_EQ(m.per_benchmark[0].second, 11u);
  EXPECT_EQ(m.per_benchmark[1].first, "small");
  EXPECT_EQ(m.per_benchmark[1].second, 1u);

  EXPECT_EQ(serve::merge_snapshots({}).submitted, 0u);
}

// ----------------------------------------------------------------- config file

Json smoke_config_json() {
  return Json::parse(R"({
    "name": "t",
    "shards": 3,
    "virtual_nodes": 16,
    "server": {"max_contexts": 1, "memoize_results": false},
    "load": {
      "requests": 12, "seed": 3,
      "arrival": {"process": "closed", "concurrency": 2},
      "scenarios": [
        {"name": "a", "request": {"preset": "tiny", "outputs": ["functional"]}}
      ]
    },
    "shard_sweep": [1],
    "chaos": {"mode": "drain", "shard": -1, "after_fraction": 0.25},
    "verify": true
  })");
}

TEST(FleetConfig, ParsesTheFullShape) {
  const FleetConfig config = fleet_config_from_json(smoke_config_json());
  EXPECT_EQ(config.name, "t");
  EXPECT_EQ(config.shards, 3);
  EXPECT_EQ(config.virtual_nodes, 16);
  EXPECT_EQ(config.load.requests, 12);
  EXPECT_EQ(config.load.seed, 3u);
  EXPECT_EQ(config.load.concurrency, 2);
  EXPECT_EQ(config.load.server.engine.max_contexts, 1u);
  EXPECT_FALSE(config.load.server.engine.memoize_results);
  ASSERT_EQ(config.load.scenarios.size(), 1u);
  ASSERT_EQ(config.shard_sweep.size(), 1u);
  EXPECT_EQ(config.shard_sweep[0], 1);
  EXPECT_TRUE(config.chaos.enabled);
  EXPECT_EQ(config.chaos.mode, "drain");
  EXPECT_EQ(config.chaos.shard, -1);
  EXPECT_DOUBLE_EQ(config.chaos.after_fraction, 0.25);
  EXPECT_TRUE(config.verify);
}

TEST(FleetConfig, RejectsUnknownAndInvalidKeys) {
  Json unknown = smoke_config_json();
  unknown["replicas"] = 2;
  EXPECT_THROW((void)fleet_config_from_json(unknown), CheckError);

  Json bad_chaos = smoke_config_json();
  bad_chaos["chaos"] = Json::object();
  bad_chaos["chaos"]["mode"] = "reboot";
  EXPECT_THROW((void)fleet_config_from_json(bad_chaos), CheckError);

  Json bad_fraction = smoke_config_json();
  bad_fraction["chaos"] = Json::object();
  bad_fraction["chaos"]["after_fraction"] = 1.5;
  EXPECT_THROW((void)fleet_config_from_json(bad_fraction), CheckError);

  // The load block is scenario-file validated (e.g. server keys belong at
  // the fleet root, not inside load).
  Json server_in_load = smoke_config_json();
  server_in_load["load"]["server"] = Json::object();
  EXPECT_THROW((void)fleet_config_from_json(server_in_load), CheckError);

  Json no_load = Json::object();
  no_load["shards"] = 2;
  EXPECT_THROW((void)fleet_config_from_json(no_load), CheckError);

  // The retired dispatch-policy keys are unknown server keys, named in the
  // error (shards run the one locality rule).
  for (const char* retired : {"policy", "locality_window"}) {
    Json config = smoke_config_json();
    config["server"][retired] = 1;
    try {
      (void)fleet_config_from_json(config);
      ADD_FAILURE() << retired << " was accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + std::string(retired) + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

// --------------------------------------------------------- live reconfiguration

TEST(EngineReconfigure, ShrinkingCacheBoundsEvictsAndResetStatsZeroes) {
  api::Engine engine;
  api::EvalRequest req;
  req.preset = "tiny";
  for (const int seed : {0, 101, 202}) {
    api::EvalRequest r = req;
    if (seed != 0) {
      workload::SceneParams scene;
      scene.seed = static_cast<unsigned>(seed);
      r.scene = scene;
    }
    (void)engine.run(r);
  }
  EXPECT_EQ(engine.cached_contexts(), 3u);

  api::Engine::Reconfig rc;
  rc.max_contexts = 1;
  engine.reconfigure(rc);
  EXPECT_EQ(engine.cached_contexts(), 1u);
  EXPECT_GE(engine.cache_stats().context.evictions, 2u);

  engine.reset_stats();
  EXPECT_EQ(engine.cache_stats().context.hits, 0u);
  EXPECT_EQ(engine.cache_stats().context.evictions, 0u);
  EXPECT_EQ(engine.cache_stats().memo_misses, 0u);
}

TEST(ServerReconfigure, AppliesCacheBoundsAndResetsMetricsBetweenDispatches) {
  serve::Server server{serve::ServerOptions{}};
  serve::ServeRequest r;
  r.request.preset = "tiny";
  (void)server.submit(r).get();
  EXPECT_GT(server.metrics().submitted, 0u);

  serve::ServerReconfig rc;
  rc.max_contexts = 1;
  rc.memoize_results = false;
  rc.reset_stats = true;
  server.reconfigure(rc);
  const serve::ServerOptions after = server.options_snapshot();
  EXPECT_EQ(after.engine.max_contexts, 1u);
  EXPECT_FALSE(after.engine.memoize_results);
  EXPECT_EQ(server.metrics().submitted, 0u);
  EXPECT_EQ(server.engine().cached_contexts(), 0u);

  const auto resp = server.submit(r).get();
  EXPECT_EQ(resp.status, serve::ResponseStatus::kOk);
}

// ------------------------------------------------------------------- the pool

/// A live `defa_serve --listen`-shaped server on an ephemeral loopback
/// port (same fixture as test_protocol.cpp).
class LoopbackServer {
 public:
  /// `port` 0 picks an ephemeral port; a concrete port lets restart tests
  /// bring a replacement up on the address a pool already routes to.
  explicit LoopbackServer(serve::ServerOptions options = {}, int port = 0)
      : server_(options), listener_(port) {
    accept_thread_ = std::thread([this] {
      while (auto conn = listener_.accept()) {
        std::shared_ptr<serve::Connection> shared = std::move(conn);
        const std::lock_guard<std::mutex> lock(mu_);
        conns_.push_back(shared);
        sessions_.emplace_back([this, shared] {
          serve::ProtocolOptions options;
          options.on_drain = [this] { listener_.close(); };
          serve::run_serve_connection(*shared, server_, options);
        });
      }
    });
  }

  ~LoopbackServer() {
    listener_.close();
    accept_thread_.join();
    server_.drain();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (auto& c : conns_) c->shutdown();
    }
    for (std::thread& t : sessions_) t.join();
  }

  [[nodiscard]] int port() const { return listener_.port(); }
  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(listener_.port());
  }
  [[nodiscard]] serve::Server& server() { return server_; }

 private:
  serve::Server server_;
  serve::TcpListener listener_;
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<std::shared_ptr<serve::Connection>> conns_;
  std::vector<std::thread> sessions_;
};

std::vector<api::EvalRequest> three_key_requests() {
  std::vector<api::EvalRequest> requests;
  for (const int seed : {0, 101, 202}) {
    api::EvalRequest r;
    r.preset = "tiny";
    if (seed != 0) {
      workload::SceneParams scene;
      scene.seed = static_cast<unsigned>(seed);
      r.scene = scene;
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

TEST(Pool, RoutesByWorkloadKeyBitIdenticallyToInProcessEngine) {
  LoopbackServer s0, s1, s2;
  client::Pool pool({s0.endpoint(), s1.endpoint(), s2.endpoint()});
  ASSERT_TRUE(pool.wait_connected(10000));
  EXPECT_EQ(pool.shard_count(), 3u);

  api::Engine reference;
  const std::vector<api::EvalRequest> requests = three_key_requests();
  // Every request twice: bit-identity and stable routing.
  std::map<std::string, std::size_t> routed_to;
  for (int round = 0; round < 2; ++round) {
    for (const api::EvalRequest& req : requests) {
      const api::EvalResult expected = reference.run(req);
      const api::EvalResult got = pool.eval(req);
      EXPECT_EQ(got, expected);
      const std::string key = req.workload_key();
      const std::size_t shard = pool.shard_for(key);
      const auto [it, inserted] = routed_to.emplace(key, shard);
      EXPECT_EQ(it->second, shard) << "routing changed for " << key;
    }
  }
  EXPECT_EQ(pool.failovers(), 0u);
  // The routed counters account for every request (6 evals).
  std::uint64_t total_routed = 0;
  for (const client::PoolShardStats& s : pool.stats()) total_routed += s.routed;
  EXPECT_EQ(total_routed, 6u);
}

TEST(Pool, FailsOverInFlightRequestsWhenAShardDies) {
  std::vector<std::unique_ptr<LoopbackServer>> servers;
  std::vector<std::string> endpoints;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<LoopbackServer>());
    endpoints.push_back(servers.back()->endpoint());
  }
  client::PoolOptions options;
  options.reconnect = false;  // keep the dead shard dead (no race)
  client::Pool pool(endpoints, options);
  ASSERT_TRUE(pool.wait_connected(10000));

  const std::vector<api::EvalRequest> requests = three_key_requests();
  api::Engine reference;
  std::vector<api::EvalResult> expected;
  expected.reserve(requests.size());
  for (const api::EvalRequest& r : requests) expected.push_back(reference.run(r));

  // Kill the shard owning the first request's key, so at least that key's
  // traffic deterministically hits the dead connection and must re-route.
  const std::size_t victim = pool.shard_for(requests[0].workload_key());
  servers[victim].reset();

  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const api::EvalResult got = pool.eval(requests[i]);  // never throws here
      EXPECT_EQ(got, expected[i]);
    }
  }
  EXPECT_GT(pool.failovers(), 0u);
  const std::vector<client::PoolShardStats> stats = pool.stats();
  for (std::size_t i = 0; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].connected, i != victim) << "shard " << i;
  }

  // All shards down: a typed transport error, not a hang.
  for (auto& server : servers) server.reset();
  try {
    (void)pool.eval(requests[0]);
    FAIL() << "expected RpcError";
  } catch (const client::RpcError& e) {
    EXPECT_EQ(e.code(), serve::ErrorCode::kTransport);
  }
}

TEST(Pool, ReconnectsAfterShardRestart) {
  // One shard, killed and replaced on the *same* port: the pool's backoff
  // loop must find the replacement without outside help.
  auto server = std::make_unique<LoopbackServer>();
  const int port = server->port();
  const std::string endpoint = server->endpoint();
  client::PoolOptions options;
  options.backoff_initial_ms = 5;
  client::Pool pool({endpoint}, options);
  ASSERT_TRUE(pool.wait_connected(10000));

  api::EvalRequest req;
  req.preset = "tiny";
  api::Engine reference;
  EXPECT_EQ(pool.eval(req), reference.run(req));

  server.reset();
  // Force the pool to notice the loss (the next dispatch hits the dead
  // connection, has nowhere to fail over, reports transport, marks the
  // shard down — which wakes the reconnector).
  try {
    (void)pool.eval(req);
    FAIL() << "expected RpcError while the shard is down";
  } catch (const client::RpcError& e) {
    EXPECT_EQ(e.code(), serve::ErrorCode::kTransport);
  }

  // Replacement on the same port (free since the old listener closed).
  LoopbackServer replacement(serve::ServerOptions{}, port);
  ASSERT_TRUE(pool.wait_connected(10000));
  EXPECT_EQ(pool.eval(req), reference.run(req));
  EXPECT_EQ(pool.stats()[0].reconnects, 1u);
}

}  // namespace
}  // namespace defa::fleet
