// perfbench_driver: one benchmark run of one workload against a spawned
// `defa_serve --listen 0`, driven over protocol v2 through client::Client.
//
//   perfbench_driver --serve PATH --work-dir DIR --digests FILE
//                    --workload NAME --seed N --seconds S --trace 0|1
//   perfbench_driver --workload NAME --emit-digests 1
//
// Prints one JSON object of raw measurements on stdout (run.py turns it
// into the reported metrics).  Untraced runs (--trace 0):
//   1. evaluate every distinct request in-process (api::Engine), keep its
//      binary EvalResult encoding as the expected answer, and compare the
//      encoding's digest with the committed one in FILE;
//   2. `setups` times: spawn the server, connect, answer a warm-up request
//      (setup time = spawn .. warm-up answer, cold builds included);
//      every server but the last is stopped again;
//   3. timed phase on the last server: one call at a time for S seconds;
//      the driver times every call itself, checks every answer
//      byte-for-byte against step 1, and reads the server's CPU and peak
//      RSS from /proc around the phase.
// Traced runs (--trace 1) time the public calls in-process, then run an
// untraced and a traced phase against `defa_serve --trace` and read the
// server's spans through the `trace` method.  --emit-digests evaluates
// every request the workload's generator can produce and prints the
// digests FILE holds for it.

#include <sys/types.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/request.h"
#include "api/result_io.h"
#include "arch/accelerator.h"
#include "client/client.h"
#include "core/experiments.h"
#include "energy/chip_model.h"
#include "kernels/backend.h"
#include "obs/trace.h"
#include "serve/metrics.h"
#include "serve/wire/codec.h"
#include "serve/wire/format.h"
#include "serve/wire/stats.h"

namespace {

using defa::api::EvalRequest;
using defa::api::EvalResult;
using defa::api::Json;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void fail(const std::string& msg) { throw std::runtime_error(msg); }

// ------------------------------------------------------------------ options

struct Args {
  std::string serve_path;
  std::string work_dir;
  std::string digests;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool emit_digests = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) fail("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--serve") a.serve_path = val;
    else if (key == "--work-dir") a.work_dir = val;
    else if (key == "--digests") a.digests = val;
    else if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--emit-digests") a.emit_digests = val == "1";
    else fail("unknown argument " + key);
  }
  if (a.workload.empty()) fail("--workload is required");
  if (!a.emit_digests &&
      (a.serve_path.empty() || a.work_dir.empty() || a.digests.empty())) {
    fail("--serve, --work-dir and --digests are required");
  }
  if (a.seconds <= 0) fail("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------- workloads

/// A generated request and the key of its committed digest.
struct Keyed {
  std::string key;
  EvalRequest request;
};

/// One benchmark workload: the distinct requests it cycles through, in
/// the seeded order, and how many servers a run spawns.
struct Workload {
  std::string name;
  std::vector<Keyed> requests;
  /// Server spawns per untraced run; setup time is their median.
  int setups = 7;
};

/// Seeded Fisher-Yates over `grid`, keeping the first `n` (mt19937_64 is
/// fully specified, so a seed names the same requests everywhere).
template <class T>
std::vector<T> seeded_pick(std::vector<T> grid, std::size_t n, std::mt19937_64& rng) {
  for (std::size_t i = grid.size(); i > 1; --i) {
    std::swap(grid[i - 1], grid[rng() % i]);
  }
  grid.resize(std::min(n, grid.size()));
  return grid;
}

/// The 17.4 MB-value-memory scene of scenarios/large_scene.json.
defa::ModelConfig large_scene_model() {
  defa::ModelConfig m;
  m.name = "large_scene";
  m.n_layers = 2;
  m.levels = {{100, 134}, {50, 67}, {25, 34}, {13, 17}};
  m.seed = 20240009;
  return m;
}

/// Full DEFA (PAP + FWP + range narrowing + INTn) at thresholds drawn from
/// a seeded grid; labels are never the default, so the engine evaluates
/// every request instead of reusing the context's cached DEFA result.
/// τ sets how many points the gather visits, so every seed takes each τ
/// twice and draws k and the bit width: the cost mix is the same for
/// every seed, the thresholds are not.  `all` gives every request any
/// seed can draw.
std::vector<Keyed> encoder_requests(const EvalRequest& base, std::mt19937_64& rng,
                                    bool all) {
  struct Knobs {
    double k;
    int bits;
  };
  std::vector<Knobs> grid;
  for (double k : {0.5, 0.66, 0.8}) {
    for (int bits : {12, 10}) grid.push_back({k, bits});
  }
  const defa::ModelConfig m = base.resolve_model();
  std::vector<Keyed> out;
  for (double tau : {0.02, 0.03, 0.04, 0.05}) {
    for (const Knobs& kn : all ? grid : seeded_pick(grid, 2, rng)) {
      EvalRequest r = base;
      defa::core::PruneConfig c = defa::core::PruneConfig::defa_default(m);
      std::ostringstream label;
      label << "bench-tau" << tau << "-k" << kn.k << "-int" << kn.bits;
      c.label = label.str();
      c.pap_tau = tau;
      c.fwp_k = kn.k;
      c.bits = kn.bits;
      r.prune = c;
      r.outputs = defa::api::kFunctional;
      out.push_back({label.str(), std::move(r)});
    }
  }
  return all ? out : seeded_pick(out, out.size(), rng);
}

/// Hardware design points of the paper's Fig. 7-9 exploration: every
/// run visits the whole 24-point structural grid (bank count, MSGS
/// parallelism, PE lanes, fmap reuse), which sets the simulator's host
/// time, in seeded order.  The seed also draws each point's DRAM
/// bandwidth, which changes the simulated answers but not their cost;
/// `all` gives every point at every bandwidth.
std::vector<Keyed> accel_requests(std::mt19937_64& rng, bool all) {
  EvalRequest base;
  base.preset = "deformable_detr";
  base.outputs = defa::api::kLatency | defa::api::kEnergy;
  const defa::ModelConfig m = base.resolve_model();
  const std::vector<double> dram_gbps = {128.0, 192.0, 256.0, 384.0, 512.0};
  std::vector<Keyed> out;
  for (int banks : {16, 32}) {
    for (auto par : {defa::MsgsParallelism::kInterLevel, defa::MsgsParallelism::kIntraLevel}) {
      for (int lanes : {8, 16, 32}) {
        for (bool reuse : {true, false}) {
          const std::vector<double> drams =
              all ? dram_gbps : std::vector<double>{dram_gbps[rng() % dram_gbps.size()]};
          for (double dram : drams) {
            defa::HwConfig hw = defa::HwConfig::make_default(m);
            hw.sram_banks = banks;
            hw.parallelism = par;
            hw.pe_lanes = lanes;
            hw.enable_fmap_reuse = reuse;
            hw.dram_gbps = dram;
            std::ostringstream key;
            key << "banks" << banks << "-"
                << (par == defa::MsgsParallelism::kInterLevel ? "inter" : "intra")
                << "-lanes" << lanes << "-reuse" << reuse << "-dram" << dram;
            EvalRequest r = base;
            r.hw = hw;
            out.push_back({key.str(), std::move(r)});
          }
        }
      }
    }
  }
  return all ? out : seeded_pick(out, out.size(), rng);
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool all) {
  std::mt19937_64 rng(seed);
  Workload w;
  w.name = name;
  if (name == "encoder_small") {
    EvalRequest base;
    base.preset = "small";
    w.requests = encoder_requests(base, rng, all);
  } else if (name == "encoder_large") {
    EvalRequest base;
    base.model = large_scene_model();
    w.requests = encoder_requests(base, rng, all);
    w.setups = 3;
  } else if (name == "accel_sim") {
    w.requests = accel_requests(rng, all);
    w.setups = 3;
  } else {
    fail("unknown workload '" + name + "'");
  }
  for (const Keyed& r : w.requests) r.request.validate();
  return w;
}

// ------------------------------------------------------- correctness gate

/// The binary wire layout of a result: raw IEEE bit patterns for every
/// double, so byte equality is bit identity (NaN and -0.0 included).
std::string result_bytes(const EvalResult& r) {
  namespace wire = defa::serve::wire;
  wire::Writer w;
  w.begin_frame(wire::FrameType::kResponse);
  w.begin_section(wire::SectionType::kEvalResult);
  wire::encode_eval_result(w, r);
  w.end_section();
  w.end_frame();
  return w.take();
}

/// FNV-1a 64 of a result's bytes, as 16 hex digits.
std::string digest(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// Keys of the distinct requests whose in-process answer differs from the
/// committed digest (or has none).  The committed file is the reference a
/// change to the program cannot move along with its own answers.
Json digest_mismatches(const std::string& path, const Workload& w,
                       const std::vector<std::string>& expected) {
  const Json committed = defa::api::read_json_file(path);
  const Json* mine = committed.find(w.name);
  Json bad = Json::array();
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    const Json* d = mine != nullptr ? mine->find(w.requests[i].key) : nullptr;
    if (d == nullptr || d->as_string() != digest(expected[i])) {
      bad.push_back(w.requests[i].key);
    }
  }
  return bad;
}

/// The digest of every request the workload's generator can produce.
Json emit_digests(const Workload& all) {
  defa::api::Engine::Options opt;
  opt.memoize_results = false;
  defa::api::Engine engine(opt);
  Json out = Json::object();
  for (const Keyed& r : all.requests) out[r.key] = digest(result_bytes(engine.run(r.request)));
  return out;
}

// ------------------------------------------------------------ server child

/// CPU time and peak RSS of a process, from /proc.
struct ProcStats {
  double cpu_ms = 0;
  double vm_hwm_kb = 0;
};

ProcStats read_proc(pid_t pid) {
  ProcStats s;
  {
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(f, line);
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) fail("cannot read /proc/<pid>/stat");
    std::istringstream rest(line.substr(close + 2));
    std::vector<std::string> fields;
    for (std::string tok; rest >> tok;) fields.push_back(tok);
    // fields[0] is stat field 3 (state); utime/stime are fields 14/15.
    if (fields.size() < 13) fail("short /proc/<pid>/stat");
    const double ticks = std::stod(fields[11]) + std::stod(fields[12]);
    s.cpu_ms = ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  std::ifstream st("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(st, line);) {
    if (line.rfind("VmHWM:", 0) == 0) s.vm_hwm_kb = std::stod(line.substr(6));
  }
  return s;
}

/// Host CPU time taken from this machine (steal) and all CPU time, in
/// clock ticks since boot, from the first line of /proc/stat.
struct HostTicks {
  double steal = 0;
  double total = 0;
};

HostTicks read_host_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  HostTicks t;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    if (!(f >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// A `defa_serve --listen 0` child; stopped (SIGTERM, then SIGKILL after
/// 30 s) and reaped by `stop()` or the destructor.
class ServerProcess {
 public:
  ServerProcess(const Args& args, const Workload& w, bool traced, int ordinal) {
    const std::string port_file =
        args.work_dir + "/port-" + std::to_string(::getpid()) + "-" +
        std::to_string(ordinal) + ".txt";
    const std::string log_file = args.work_dir + "/serve-" + w.name + ".log";
    std::remove(port_file.c_str());
    std::vector<std::string> argv = {args.serve_path, "--listen", "0",
                                     "--port-file", port_file, "--no-memo"};
    if (traced) argv.push_back("--trace");
    // Everything the child needs is built before fork: other threads may
    // hold the allocator's lock, so the child only makes system calls.
    std::vector<char*> cargv;
    for (std::string& s : argv) cargv.push_back(s.data());
    cargv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) fail("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
    while (port_ == 0) {
      std::ifstream pf(port_file);
      std::string text((std::istreambuf_iterator<char>(pf)), {});
      if (!text.empty() && text.back() == '\n') {
        port_ = std::stoi(text);
        break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        fail("defa_serve exited during start-up (see " + log_file + ")");
      }
      if (Clock::now() > give_up) {
        stop();
        fail("defa_serve did not publish its port");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::remove(port_file.c_str());
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > give_up) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

defa::client::Client connect_v2(const ServerProcess& server) {
  defa::client::ClientOptions opt;
  opt.wire = defa::client::ClientOptions::Wire::kV2;
  return defa::client::Client::connect_tcp("127.0.0.1", server.port(), opt);
}

// --------------------------------------------------------- closed-loop phase

/// Outcome counts and raw client-side latencies of one phase.
struct Phase {
  std::vector<double> samples_ms;  ///< every answered call, in order
  std::vector<double> done_s;      ///< its completion, seconds after the first send
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;            ///< answered ok and bit-identical
  std::uint64_t typed_errors = 0;
  std::uint64_t rejected = 0;
  std::uint64_t mismatches = 0;
  double window_s = 0;             ///< first send .. last answer
};

/// Closed loop on one connection, one call at a time, cycling through the
/// workload's requests, until `count` calls were answered (count > 0) or
/// `seconds` elapsed.  Trace ids, when `trace_base` is set, are
/// trace_base + call ordinal.
Phase run_phase(defa::client::Client& client, const Workload& w,
                const std::vector<std::string>& expected, std::uint64_t count,
                double seconds, std::uint64_t trace_base) {
  Phase p;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (std::uint64_t i = 0; count > 0 ? i < count : Clock::now() < deadline; ++i) {
    const std::size_t idx = i % w.requests.size();
    defa::serve::ServeRequest sr;
    sr.id = std::to_string(i);
    sr.request = w.requests[idx].request;
    sr.trace_id = trace_base == 0 ? 0 : trace_base + i;
    const Clock::time_point sent = Clock::now();
    const defa::serve::ServeResponse r = client.submit(std::move(sr)).get();
    const Clock::time_point done = Clock::now();
    ++p.attempted;
    p.samples_ms.push_back(ms_between(sent, done));
    p.done_s.push_back(std::chrono::duration<double>(done - t0).count());
    switch (r.status) {
      case defa::serve::ResponseStatus::kOk:
        ++(r.result.has_value() && result_bytes(*r.result) == expected[idx] ? p.ok
                                                                              : p.mismatches);
        break;
      case defa::serve::ResponseStatus::kRejectedOverload:
      case defa::serve::ResponseStatus::kRejectedDeadline:
      case defa::serve::ResponseStatus::kRejectedShutdown:
        ++p.rejected;
        break;
      default:
        ++p.typed_errors;
    }
    // A lost connection fails every further call at once; stop sending.
    if (r.error_code == "transport") break;
  }
  p.window_s = p.done_s.empty() ? 0.0 : p.done_s.back();
  return p;
}

Json phase_json(const Phase& p) {
  Json j = Json::object();
  Json samples = Json::array();
  for (double s : p.samples_ms) samples.push_back(s);
  j["samples_ms"] = std::move(samples);
  Json done = Json::array();
  for (double s : p.done_s) done.push_back(s);
  j["done_s"] = std::move(done);
  j["attempted"] = p.attempted;
  j["ok"] = p.ok;
  j["typed_errors"] = p.typed_errors;
  j["rejected"] = p.rejected;
  j["mismatches"] = p.mismatches;
  j["window_s"] = p.window_s;
  return j;
}

/// A started server, its connection and the set-up time.
struct Warm {
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<defa::client::Client> client;
  double setup_s = 0;
};

/// Spawn, connect and answer the warm-up request (the first request: all
/// of a workload's requests share one context, which it builds).
Warm spawn_warm(const Args& args, const Workload& w,
                const std::vector<std::string>& expected, bool traced, int ordinal,
                std::uint64_t trace_base) {
  Warm out;
  const Clock::time_point t0 = Clock::now();
  out.server = std::make_unique<ServerProcess>(args, w, traced, ordinal);
  out.client = std::make_unique<defa::client::Client>(connect_v2(*out.server));
  const Phase warm = run_phase(*out.client, w, expected, 1, 0, trace_base);
  out.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (warm.ok != 1) fail("the warm-up answer was not ok and bit-identical");
  return out;
}

/// Server-side counters read through the `metrics` method.
struct ServerCounters {
  double queue_sum_ms = 0, run_sum_ms = 0;
  double queue_count = 0, run_count = 0;
  double rejected = 0;
  double context_misses = 0;
  defa::serve::wire::SerSnapshot wire;
};

ServerCounters server_counters(defa::client::Client& c) {
  const defa::serve::MetricsSnapshot m = c.metrics();
  ServerCounters s;
  s.queue_count = static_cast<double>(m.queue_ms.count());
  s.queue_sum_ms = m.queue_ms.mean() * s.queue_count;
  s.run_count = static_cast<double>(m.run_ms.count());
  s.run_sum_ms = m.run_ms.mean() * s.run_count;
  s.rejected = static_cast<double>(m.rejected_overload + m.rejected_deadline +
                                   m.rejected_shutdown);
  s.context_misses = static_cast<double>(m.context_misses);
  s.wire = m.wire_v2;
  return s;
}

double frac(double num, double den) { return den > 0 ? num / den : 0.0; }

// ----------------------------------------------------------- untraced run

Json run_untraced(const Args& args, const Workload& w,
                  const std::vector<std::string>& expected) {
  Json setups = Json::array();
  Warm timed;
  for (int k = 0; k < w.setups; ++k) {
    Warm warm = spawn_warm(args, w, expected, false, k, 0);
    setups.push_back(warm.setup_s);
    if (k + 1 < w.setups) {
      warm.client.reset();
      warm.server->stop();
    } else {
      timed = std::move(warm);
    }
  }
  const ServerCounters before = server_counters(*timed.client);
  const ProcStats p0 = read_proc(timed.server->pid());
  const HostTicks h0 = read_host_ticks();
  const Phase phase = run_phase(*timed.client, w, expected, 0, args.seconds, 0);
  const HostTicks h1 = read_host_ticks();
  const ProcStats p1 = read_proc(timed.server->pid());
  const ServerCounters after = server_counters(*timed.client);
  timed.client.reset();
  timed.server->stop();

  Json out = phase_json(phase);
  out["setup_s"] = std::move(setups);
  out["server_cpu_ms"] = p1.cpu_ms - p0.cpu_ms;
  out["server_vm_hwm_kb"] = p1.vm_hwm_kb;
  out["context_miss_timed"] = after.context_misses - before.context_misses;
  out["host_steal_frac"] = frac(h1.steal - h0.steal, h1.total - h0.total);
  return out;
}

// ------------------------------------------------------------- traced run

/// Per-span-name duration sums (ms) of the spans in one trace-id range.
struct SpanTotals {
  std::map<std::string, double> ms;
  std::uint64_t dropped = 0;
};

void collect_spans(defa::client::Client& c, std::uint64_t lo, std::uint64_t hi,
                   SpanTotals& into) {
  const Json doc = c.trace(true);
  if (const Json* d = doc.find("dropped")) {
    into.dropped += static_cast<std::uint64_t>(d->as_number());
  }
  const Json* events = doc.find("traceEvents");
  if (events == nullptr) return;
  for (const Json& e : events->items()) {
    const Json* ph = e.find("ph");
    if (ph == nullptr || ph->as_string() != "X") continue;
    const Json* args = e.find("args");
    const Json* tid = args != nullptr ? args->find("trace_id") : nullptr;
    if (tid == nullptr) continue;
    const std::uint64_t id = std::stoull(tid->as_string(), nullptr, 16);
    if (id < lo || id >= hi) continue;
    const std::string& name = e.at("name").as_string();
    into.ms[name] += e.at("dur").as_number() / 1000.0;
  }
}

double mean_of(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

template <class F>
double time_ms(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return ms_between(t0, Clock::now());
}

/// In-process timings of the public calls behind one workload.
struct InProcess {
  std::vector<std::string> expected;
  EvalResult first_result;       ///< answer to the first request (modeled shares)
  double engine_run_ms = 0;      ///< warm Engine::run, mean
  double context_build_ms = 0;   ///< cold first Engine::run minus its warm rerun
  double encoder_ms = 0;         ///< EncoderPipeline::run, mean
  /// Kernel-phase span totals of one traced EncoderPipeline::run, for
  /// workloads whose served requests reuse a cached encoder result.
  std::map<std::string, double> kernel_ms;
  double traces_ms = 0;          ///< defa_traces / traces_for, mean
  double simulate_ms = 0;        ///< DefaAccelerator::simulate_run, mean
  double energy_ms = 0;          ///< energy::summarize + breakdowns, mean
  double sim_cycles = 0;         ///< simulated wall cycles of the timed runs, mean
  /// Simulated statistics of the answers (requests with a latency
  /// section); the committed digests cover them.
  std::size_t simulated = 0;
  double result_cycles = 0, msgs_groups = 0, msgs_conflicts = 0;
  double point_keep = 0, pixel_keep = 0, flop_keep = 0;
};

/// Times the simulator path of one request: traces, cycle-accurate run,
/// energy model; accumulates into `ip`.
template <class TracesFn>
void time_simulator(InProcess& ip, const defa::core::BenchmarkContext& ctx,
                    const defa::ModelConfig& m, const defa::HwConfig& hw,
                    TracesFn&& traces_fn) {
  std::vector<defa::arch::LayerTrace> traces;
  ip.traces_ms += time_ms([&] { traces = traces_fn(); });
  const defa::arch::DefaAccelerator acc(m, hw);
  defa::arch::RunPerf run;
  ip.simulate_ms += time_ms([&] { run = acc.simulate_run(traces); });
  ip.energy_ms += time_ms([&] {
    (void)defa::energy::summarize(m, hw, run, ctx.dense_encoder_flops());
    (void)defa::energy::energy_breakdown(m, hw, run);
    (void)defa::energy::area_breakdown(m, hw);
    (void)defa::energy::build_sram_plan(m, hw);
  });
  ip.sim_cycles += static_cast<double>(run.wall_cycles());
}

InProcess in_process(const Workload& w, bool timings) {
  InProcess ip;
  defa::api::Engine::Options opt;
  opt.memoize_results = false;
  defa::api::Engine engine(opt);
  std::vector<double> run_ms;
  double cold_ms = 0;
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    EvalResult r;
    const double ms = time_ms([&] { r = engine.run(w.requests[i].request); });
    if (i == 0) cold_ms = ms;
    else run_ms.push_back(ms);
    ip.expected.push_back(result_bytes(r));
    if (r.latency) {
      ++ip.simulated;
      ip.result_cycles += r.latency->wall_cycles;
      ip.msgs_groups += r.latency->msgs_groups;
      ip.msgs_conflicts += r.latency->msgs_conflict_groups;
    }
    if (i == 0) ip.first_result = std::move(r);
  }
  if (!timings) return ip;

  const EvalRequest& first = w.requests.front().request;
  const double rerun_ms = time_ms([&] { (void)engine.run(first); });
  run_ms.push_back(rerun_ms);
  ip.engine_run_ms = mean_of(run_ms);
  ip.context_build_ms = std::max(0.0, cold_ms - rerun_ms);

  // Every layer is timed on the workload's own scene.  A layer the served
  // requests do not reach is probed once: the simulator with the first
  // request's masks and the default hardware on the encoder workloads,
  // the encoder's full-DEFA run (the result accel_sim's requests reuse,
  // built during set-up) on accel_sim.
  const defa::ModelConfig m = first.resolve_model();
  const auto ctx = engine.context(m, first.resolve_scene(m));
  const defa::kernels::Backend& backend =
      defa::kernels::backend(first.resolve_backend());
  const bool simulated = (first.outputs & defa::api::kLatency) != 0;
  defa::core::EncoderResult enc;
  if (!simulated) {
    std::vector<double> enc_ms;
    for (std::size_t i = 0; i < std::min<std::size_t>(2, w.requests.size()); ++i) {
      const defa::core::PruneConfig cfg = w.requests[i].request.resolve_prune(m);
      enc_ms.push_back(time_ms([&] { enc = ctx->pipeline().run(cfg, &backend); }));
    }
    ip.encoder_ms = mean_of(enc_ms);
    time_simulator(ip, *ctx, m, defa::HwConfig::make_default(m),
                   [&] { return ctx->traces_for(enc); });
  } else {
    defa::obs::Tracer& tracer = defa::obs::Tracer::instance();
    tracer.set_enabled(true);
    {
      const defa::obs::TraceScope scope(defa::obs::new_trace_id());
      ip.encoder_ms = time_ms([&] {
        enc = ctx->pipeline().run(defa::core::PruneConfig::defa_default(m), &backend);
      });
    }
    tracer.set_enabled(false);
    for (const defa::obs::Span& span : tracer.collect(true)) {
      if (!span.is_instant()) ip.kernel_ms[span.name] += span.dur_us / 1000.0;
    }
    for (const Keyed& req : w.requests) {
      time_simulator(ip, *ctx, m, req.request.resolve_hw(m), [&] { return ctx->defa_traces(); });
    }
    const double n = static_cast<double>(w.requests.size());
    ip.traces_ms /= n;
    ip.simulate_ms /= n;
    ip.energy_ms /= n;
    ip.sim_cycles /= n;
  }
  ip.point_keep = 1.0 - enc.point_reduction();
  ip.pixel_keep = 1.0 - enc.pixel_reduction();
  ip.flop_keep = 1.0 - enc.flop_reduction();
  return ip;
}

constexpr std::uint64_t kWarmTraceBase = 0x1000000000ull;
constexpr std::uint64_t kTimedTraceBase = 0x2000000000ull;

/// Kernel phases recorded inside the engine's `encoder` span.
const std::vector<std::pair<std::string, std::string>>& kernel_spans() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"value_projection", "kernels.value_projection_ms"},
      {"gather_aggregate", "kernels.gather_aggregate_ms"},
      {"pap_prune", "prune.pap_ms"},
      {"fwp_prune", "prune.fwp_ms"},
      {"quantize_narrow", "quant.quantize_narrow_ms"},
  };
  return k;
}

Json run_traced(const Args& args, const Workload& w, const InProcess& ip) {
  Warm warm = spawn_warm(args, w, ip.expected, true, 0, kWarmTraceBase);
  defa::client::Client& c = *warm.client;
  SpanTotals warm_spans;
  collect_spans(c, kWarmTraceBase, kTimedTraceBase, warm_spans);

  // Untraced then traced phase of equal length on the same warm server.
  const double half = args.seconds / 2;
  const Phase plain = run_phase(c, w, ip.expected, 0, half, 0);
  // The server's wire counters around the traced phase also hold its
  // encode of the `before` reply and its decode of the `after` request;
  // two back-to-back `metrics` calls measure that pair, which is taken off.
  const ServerCounters idle = server_counters(c);
  const ServerCounters before = server_counters(c);
  const defa::serve::wire::SerSnapshot client0 =
      defa::serve::wire::SerStats::instance().snapshot(2);
  const Phase traced = run_phase(c, w, ip.expected, 0, half, kTimedTraceBase);
  const defa::serve::wire::SerSnapshot client1 =
      defa::serve::wire::SerStats::instance().snapshot(2);
  const ServerCounters after = server_counters(c);
  SpanTotals spans;
  collect_spans(c, kTimedTraceBase, kTimedTraceBase + (1ull << 32), spans);
  warm.client.reset();
  warm.server->stop();

  const double n = static_cast<double>(traced.attempted);
  const defa::serve::wire::SerSnapshot client = client1.minus(client0);
  const auto server = [&](auto defa::serve::wire::SerSnapshot::*field) {
    const auto at = [&](const ServerCounters& s) { return static_cast<double>(s.wire.*field); };
    return (at(after) - at(before)) - (at(before) - at(idle));
  };
  const auto span_ms = [&](const std::string& name) {
    const auto it = spans.ms.find(name);
    return it == spans.ms.end() ? 0.0 : it->second;
  };

  Json L = Json::object();
  using defa::serve::wire::SerSnapshot;
  L["wire.encode_ms_per_req"] = (client.encode_ms + server(&SerSnapshot::encode_ms)) / n;
  L["wire.decode_ms_per_req"] = (client.decode_ms + server(&SerSnapshot::decode_ms)) / n;
  L["wire.bytes_per_req"] =
      (static_cast<double>(client.encode_bytes) + server(&SerSnapshot::encode_bytes)) / n;
  L["serve.queue_wait_ms"] =
      frac(after.queue_sum_ms - before.queue_sum_ms, after.queue_count - before.queue_count);
  L["serve.run_ms"] =
      frac(after.run_sum_ms - before.run_sum_ms, after.run_count - before.run_count);
  L["serve.rejected"] = after.rejected - before.rejected;
  L["api.engine_run_ms"] = ip.engine_run_ms;
  L["core.context_build_ms"] = ip.context_build_ms;
  L["core.reference_build_ms"] = warm_spans.ms["reference_build"];
  L["core.context_miss_timed"] = after.context_misses - before.context_misses;
  L["core.encoder_ms"] = ip.encoder_ms;
  // Kernel phases: the served requests' spans inside the server's
  // `encoder` span, or the in-process probe where requests reuse a cached
  // encoder result (their `encoder` span is a lookup without phases).
  const bool probed = !ip.kernel_ms.empty();
  const double encoder_ms = probed ? ip.encoder_ms : span_ms("encoder");
  const auto kernel = [&](const std::string& span) {
    if (!probed) return span_ms(span);
    const auto it = ip.kernel_ms.find(span);
    return it == ip.kernel_ms.end() ? 0.0 : it->second;
  };
  double kernel_sum = 0;
  Json shares = Json::object();
  for (const auto& [span, metric] : kernel_spans()) {
    L[metric] = probed ? kernel(span) : kernel(span) / n;
    kernel_sum += kernel(span);
    shares[span] = frac(kernel(span), encoder_ms);
  }
  L["core.encoder_unattributed_frac"] = encoder_ms > 0 ? 1.0 - kernel_sum / encoder_ms : 0.0;
  L["core.traces_ms"] = ip.traces_ms;
  L["arch.simulate_ms"] = ip.simulate_ms;
  L["energy.model_ms"] = ip.energy_ms;
  L["arch.host_ns_per_sim_cycle"] = frac(ip.simulate_ms * 1e6, ip.sim_cycles);
  L["kernels.flop_keep_frac"] = ip.flop_keep;
  L["prune.point_keep_frac"] = ip.point_keep;
  L["prune.pixel_keep_frac"] = ip.pixel_keep;
  const double plain_rps = frac(static_cast<double>(plain.ok), plain.window_s);
  const double traced_rps = frac(static_cast<double>(traced.ok), traced.window_s);
  L["obs.trace_overhead_frac"] = plain_rps > 0 ? 1.0 - traced_rps / plain_rps : 0.0;

  Json out = phase_json(traced);
  out["untraced"] = phase_json(plain);
  out["layers"] = std::move(L);
  out["encoder_span_shares"] = std::move(shares);
  out["encoder_span_ms_per_req"] = probed ? encoder_ms : encoder_ms / n;
  out["spans_dropped"] = spans.dropped + warm_spans.dropped;

  // Modeled breakdowns to print beside the host shares: the analytical
  // GPU phase split of Fig. 1(b) and, for simulated requests, the
  // accelerator's cycle and energy split (Fig. 8).
  Json modeled = Json::object();
  const std::vector<defa::core::Fig1bRow> fig1b = defa::core::run_fig1b();
  const defa::core::Fig1bRow& gpu = fig1b.front();
  const double gpu_total = gpu.layer.total();
  modeled["fig1b_benchmark"] = gpu.benchmark;
  modeled["fig1b_mm"] = gpu.layer.mm_s / gpu_total;
  modeled["fig1b_softmax"] = gpu.layer.softmax_s / gpu_total;
  modeled["fig1b_msgs_ag"] = gpu.layer.msgs_ag_s / gpu_total;
  modeled["fig1b_other"] = gpu.layer.elementwise_s / gpu_total;
  const EvalResult& r0 = ip.first_result;
  if (r0.latency) {
    double total = 0;
    for (const auto& p : r0.latency->total_phases) total += p.cycles;
    for (const auto& p : r0.latency->total_phases) {
      modeled["cycles_" + p.name] = frac(p.cycles, total);
    }
  }
  if (r0.energy) {
    const double total = r0.energy->total_pj();
    modeled["energy_pe"] = frac(r0.energy->pe_pj, total);
    modeled["energy_softmax"] = frac(r0.energy->softmax_pj, total);
    modeled["energy_sram"] = frac(r0.energy->sram_pj, total);
    modeled["energy_other_logic"] = frac(r0.energy->other_logic_pj, total);
    modeled["energy_dram"] = frac(r0.energy->dram_pj, total);
  }
  out["modeled_shares"] = std::move(modeled);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.emit_digests) {
      Json out = Json::object();
      out["workload"] = args.workload;
      out["digests"] = emit_digests(make_workload(args.workload, 0, true));
      std::cout << out.dump() << "\n";
      return 0;
    }
    const Workload w = make_workload(args.workload, args.seed, false);
    Json out = Json::object();
    {
      const InProcess ip = in_process(w, args.trace);
      Json bad = digest_mismatches(args.digests, w, ip.expected);
      out = args.trace ? run_traced(args, w, ip) : run_untraced(args, w, ip.expected);
      out["digest_mismatches"] = std::move(bad);
      if (ip.simulated > 0) {
        Json sim = Json::object();
        sim["wall_cycles_per_req"] = ip.result_cycles / static_cast<double>(ip.simulated);
        sim["msgs_conflict_frac"] = frac(ip.msgs_conflicts, ip.msgs_groups);
        out["simulated"] = std::move(sim);
      }
    }
    out["workload"] = w.name;
    out["seed"] = args.seed;
    out["distinct_requests"] = static_cast<double>(w.requests.size());
    std::cout << out.dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
