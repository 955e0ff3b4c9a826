#include "serve/scenario.h"

#include <cmath>
#include <set>
#include <sstream>
#include <utility>

#include "api/request.h"
#include "api/run_meta.h"
#include "common/check.h"

namespace defa::serve {

namespace {

void check_keys(const api::Json& j, const std::set<std::string>& allowed,
                const std::string& where) {
  for (const auto& [key, value] : j.members()) {
    DEFA_CHECK(allowed.count(key) > 0,
               "scenario: unknown key '" + key + "' in " + where);
  }
}

void parse_arrival(const api::Json& j, LoadGenOptions& out) {
  DEFA_CHECK(j.is_object(), "scenario: 'arrival' must be an object");
  check_keys(j, {"process", "rate_qps", "concurrency"}, "'arrival'");
  const std::string process = j.at("process").as_string();
  if (process == "closed") {
    out.mode = LoadGenOptions::Mode::kClosed;
    DEFA_CHECK(!j.contains("rate_qps"),
               "scenario: 'rate_qps' is an open-loop setting (process is 'closed')");
    if (const api::Json* c = j.find("concurrency")) {
      out.concurrency = c->as_int32();
      DEFA_CHECK(out.concurrency > 0, "scenario: 'concurrency' must be positive");
    }
    return;
  }
  DEFA_CHECK(process == "fixed" || process == "poisson",
             "scenario: unknown arrival process '" + process +
                 "' (closed|fixed|poisson)");
  out.mode = LoadGenOptions::Mode::kOpen;
  out.poisson = process == "poisson";
  DEFA_CHECK(!j.contains("concurrency"),
             "scenario: 'concurrency' is a closed-loop setting (process is '" +
                 process + "')");
  if (const api::Json* r = j.find("rate_qps")) {
    out.rate_qps = r->as_number();
    DEFA_CHECK(std::isfinite(out.rate_qps) && out.rate_qps > 0,
               "scenario: 'rate_qps' must be positive and finite");
  }
}

void parse_server(const api::Json& j, ServerOptions& out) {
  DEFA_CHECK(j.is_object(), "scenario: 'server' must be an object");
  check_keys(j,
             {"workers", "queue_capacity", "max_contexts", "max_memo",
              "memoize_results", "max_parallel_requests"},
             "'server'");
  if (const api::Json* v = j.find("workers")) {
    out.max_concurrency = v->as_int32();
  }
  if (const api::Json* v = j.find("queue_capacity")) {
    const std::int64_t cap = v->as_int();
    DEFA_CHECK(cap > 0, "scenario: 'queue_capacity' must be positive");
    out.queue_capacity = static_cast<std::size_t>(cap);
  }
  if (const api::Json* v = j.find("max_contexts")) {
    const std::int64_t n = v->as_int();
    DEFA_CHECK(n >= 0, "scenario: 'max_contexts' must be >= 0");
    out.engine.max_contexts = static_cast<std::size_t>(n);
  }
  if (const api::Json* v = j.find("max_memo")) {
    const std::int64_t n = v->as_int();
    DEFA_CHECK(n >= 0, "scenario: 'max_memo' must be >= 0");
    out.engine.max_memo = static_cast<std::size_t>(n);
  }
  if (const api::Json* v = j.find("memoize_results")) {
    out.engine.memoize_results = v->as_bool();
  }
  if (const api::Json* v = j.find("max_parallel_requests")) {
    out.engine.max_parallel_requests = v->as_int32();
  }
}

std::vector<Scenario> parse_mix(const api::Json& j) {
  DEFA_CHECK(j.is_array(), "scenario: 'scenarios' must be an array");
  DEFA_CHECK(j.size() > 0, "scenario: 'scenarios' must not be empty");
  std::vector<Scenario> mix;
  std::set<std::string> names;
  mix.reserve(j.size());
  for (const api::Json& sj : j.items()) {
    DEFA_CHECK(sj.is_object(), "scenario: each mix entry must be an object");
    check_keys(sj, {"name", "weight", "priority", "request"}, "a mix entry");
    Scenario s;
    s.name = sj.at("name").as_string();
    DEFA_CHECK(!s.name.empty(), "scenario: mix entry 'name' must not be empty");
    DEFA_CHECK(names.insert(s.name).second,
               "scenario: duplicate mix entry name '" + s.name + "'");
    if (const api::Json* w = sj.find("weight")) {
      s.weight = w->as_number();
      DEFA_CHECK(std::isfinite(s.weight) && s.weight > 0,
                 "scenario: '" + s.name + "' weight must be positive and finite");
    }
    if (const api::Json* p = sj.find("priority")) {
      const std::optional<Priority> pri = priority_from_name(p->as_string());
      DEFA_CHECK(pri.has_value(), "scenario: '" + s.name + "' has unknown priority '" +
                                      p->as_string() + "' (high|normal|low)");
      s.priority = *pri;
    }
    s.request = api::eval_request_from_json(sj.at("request"));
    s.request.validate();  // fail at parse time, not mid-benchmark
    mix.push_back(std::move(s));
  }
  return mix;
}

SweepSpec parse_sweep(const api::Json& j) {
  DEFA_CHECK(j.is_object(), "scenario: 'sweep' must be an object");
  check_keys(j, {"rates_qps", "concurrency"}, "'sweep'");
  SweepSpec sweep;
  if (const api::Json* rates = j.find("rates_qps")) {
    DEFA_CHECK(rates->is_array() && rates->size() > 0,
               "scenario: 'sweep.rates_qps' must be a non-empty array");
    for (const api::Json& r : rates->items()) {
      const double qps = r.as_number();
      DEFA_CHECK(std::isfinite(qps) && qps > 0,
                 "scenario: sweep rates must be positive and finite");
      sweep.rates_qps.push_back(qps);
    }
  }
  if (const api::Json* concs = j.find("concurrency")) {
    DEFA_CHECK(concs->is_array() && concs->size() > 0,
               "scenario: 'sweep.concurrency' must be a non-empty array");
    for (const api::Json& c : concs->items()) {
      const int n = c.as_int32();
      DEFA_CHECK(n > 0, "scenario: sweep concurrencies must be positive");
      sweep.concurrencies.push_back(n);
    }
  }
  DEFA_CHECK(!sweep.rates_qps.empty() || !sweep.concurrencies.empty(),
             "scenario: 'sweep' needs 'rates_qps' (open loop) and/or "
             "'concurrency' (closed loop)");
  return sweep;
}

}  // namespace

ScenarioFile scenario_file_from_json(const api::Json& j) {
  DEFA_CHECK(j.is_object(), "scenario: file root must be a JSON object");
  check_keys(j,
             {"name", "requests", "seed", "timeout_ms", "arrival", "server",
              "sweep", "scenarios"},
             "the scenario file");
  ScenarioFile file;
  if (const api::Json* n = j.find("name")) file.name = n->as_string();
  if (const api::Json* r = j.find("requests")) {
    file.base.requests = r->as_int32();
    DEFA_CHECK(file.base.requests > 0, "scenario: 'requests' must be positive");
  }
  if (const api::Json* s = j.find("seed")) {
    file.base.seed = static_cast<std::uint64_t>(s->as_int());
  }
  if (const api::Json* t = j.find("timeout_ms")) {
    file.base.timeout_ms = t->as_number();
    DEFA_CHECK(std::isfinite(file.base.timeout_ms),
               "scenario: 'timeout_ms' must be finite");
  }
  const api::Json* arrival = j.find("arrival");
  if (arrival != nullptr) parse_arrival(*arrival, file.base);
  if (const api::Json* s = j.find("server")) parse_server(*s, file.base.server);
  file.base.scenarios = parse_mix(j.at("scenarios"));
  if (const api::Json* s = j.find("sweep")) {
    file.has_sweep = true;
    file.sweep = parse_sweep(*s);
    // Rate points drive rates_qps open-loop, so an explicitly closed-loop
    // arrival spec would be silently discarded — reject it instead.  A
    // concurrency-only sweep is closed-loop by nature and accepts either.
    DEFA_CHECK(file.sweep.rates_qps.empty() || arrival == nullptr ||
                   file.base.mode == LoadGenOptions::Mode::kOpen,
               "scenario: a 'sweep.rates_qps' axis requires an open-loop "
               "'arrival' (process 'fixed' or 'poisson', not 'closed')");
  }
  return file;
}

ScenarioFile load_scenario_file(const std::string& path) {
  return scenario_file_from_json(api::read_json_file(path));
}

api::Json SweepReport::to_json() const {
  api::Json j = api::Json::object();
  j["bench"] = "serve_sweep";
  j["meta"] = api::run_metadata();
  j["name"] = name;
  j["requests"] = requests;
  // Compact curve rows first: one per point, everything a plot
  // needs without digging through the full reports.
  api::Json curve = api::Json::array();
  for (const SweepPoint& pt : points) {
    const MetricsSnapshot& m = pt.report.server_metrics;
    api::Json row = api::Json::object();
    row["rate_qps"] = pt.rate_qps;
    row["mode"] = pt.mode;
    row["concurrency"] = pt.concurrency;
    row["achieved_qps"] = pt.report.achieved_qps;
    row["completed_ok"] = static_cast<double>(pt.report.completed_ok);
    row["rejected_overload"] = static_cast<double>(pt.report.rejected_overload);
    row["rejected_deadline"] = static_cast<double>(pt.report.rejected_deadline);
    row["errors"] = static_cast<double>(pt.report.errors);
    row["p50_ms"] = pt.report.latency_ms.percentile(50);
    row["p95_ms"] = pt.report.latency_ms.percentile(95);
    row["p99_ms"] = pt.report.latency_ms.percentile(99);
    row["p999_ms"] = pt.report.latency_ms.percentile(99.9);
    row["queue_p50_ms"] = pt.report.queue_ms.percentile(50);
    row["context_hit_rate"] = m.context_hit_rate();
    row["context_hits"] = static_cast<double>(m.context_hits);
    row["context_misses"] = static_cast<double>(m.context_misses);
    row["context_evictions"] = static_cast<double>(m.context_evictions);
    curve.push_back(std::move(row));
  }
  j["curve"] = std::move(curve);
  api::Json full = api::Json::array();
  for (const SweepPoint& pt : points) full.push_back(pt.report.to_json());
  j["points"] = std::move(full);
  return j;
}

std::string SweepReport::to_csv() const {
  std::ostringstream csv;
  csv << "rate_qps,mode,concurrency,achieved_qps,completed_ok,"
         "rejected_overload,rejected_deadline,errors,p50_ms,p95_ms,p99_ms,"
         "p999_ms,queue_p50_ms,context_hit_rate,context_hits,context_misses,"
         "context_evictions\n";
  for (const SweepPoint& pt : points) {
    const MetricsSnapshot& m = pt.report.server_metrics;
    csv << pt.rate_qps << ',' << pt.mode << ',' << pt.concurrency << ','
        << pt.report.achieved_qps << ',' << pt.report.completed_ok << ','
        << pt.report.rejected_overload << ',' << pt.report.rejected_deadline << ','
        << pt.report.errors << ',' << pt.report.latency_ms.percentile(50) << ','
        << pt.report.latency_ms.percentile(95) << ','
        << pt.report.latency_ms.percentile(99) << ','
        << pt.report.latency_ms.percentile(99.9) << ','
        << pt.report.queue_ms.percentile(50) << ',' << m.context_hit_rate() << ','
        << m.context_hits << ',' << m.context_misses << ','
        << m.context_evictions << '\n';
  }
  return csv.str();
}

SweepReport run_sweep(const ScenarioFile& file, const SweepPointRunner& run_point) {
  DEFA_CHECK(file.has_sweep, "scenario: file has no 'sweep' block");
  SweepReport report;
  report.name = file.name;
  report.requests = file.base.requests;
  for (const double rate : file.sweep.rates_qps) {
    LoadGenOptions options = file.base;  // same mix, schedule and seed
    // Open loop per rate point (a closed-loop arrival spec was rejected
    // at parse time); the file's fixed/poisson choice is preserved.
    options.mode = LoadGenOptions::Mode::kOpen;
    options.rate_qps = rate;
    SweepPoint pt;
    pt.mode = "open";
    pt.rate_qps = rate;
    pt.report = run_point(options);
    report.points.push_back(std::move(pt));
  }
  for (const int concurrency : file.sweep.concurrencies) {
    LoadGenOptions options = file.base;
    options.mode = LoadGenOptions::Mode::kClosed;
    options.concurrency = concurrency;
    SweepPoint pt;
    pt.mode = "closed";
    pt.concurrency = concurrency;
    pt.report = run_point(options);
    report.points.push_back(std::move(pt));
  }
  return report;
}

}  // namespace defa::serve
