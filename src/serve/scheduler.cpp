#include "serve/scheduler.h"

#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace defa::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(b - a)
      .count();
}

#if DEFA_TRACE
std::int64_t us_of(Clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             tp.time_since_epoch())
      .count();
}
#endif

}  // namespace

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "normal";
}

std::optional<Priority> priority_from_name(const std::string& name) {
  if (name == "high") return Priority::kHigh;
  if (name == "normal") return Priority::kNormal;
  if (name == "low") return Priority::kLow;
  return std::nullopt;
}

const char* status_name(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kRejectedOverload: return "rejected_overload";
    case ResponseStatus::kRejectedDeadline: return "rejected_deadline";
    case ResponseStatus::kRejectedShutdown: return "rejected_shutdown";
    case ResponseStatus::kError: return "error";
    case ResponseStatus::kBadRequest: return "bad_request";
  }
  return "error";
}

Priority Server::dispatch_slot(std::uint64_t slot) {
  static constexpr std::array<Priority, kDispatchPatternLen> kPattern = {
      Priority::kHigh, Priority::kHigh, Priority::kNormal, Priority::kHigh,
      Priority::kHigh, Priority::kNormal, Priority::kLow,
  };
  return kPattern[static_cast<std::size_t>(slot % kDispatchPatternLen)];
}

Server::Server(ServerOptions options)
    : options_(options), engine_(options.engine), paused_(options.start_paused) {
  DEFA_CHECK(options_.queue_capacity > 0, "Server: queue_capacity must be positive");
  if (options_.max_concurrency <= 0) {
    options_.max_concurrency = ThreadPool::global().size();
  }
}

Server::~Server() { drain(); }

std::future<ServeResponse> Server::submit(ServeRequest req) {
  return submit_impl(std::move(req), nullptr);
}

void Server::submit_async(ServeRequest req, ResponseCallback done) {
  DEFA_CHECK(done != nullptr, "Server::submit_async: callback must be set");
  (void)submit_impl(std::move(req), std::move(done));
}

void Server::deliver(std::promise<ServeResponse>& promise,
                     const ResponseCallback& callback, ServeResponse resp) {
  if (callback) {
    try {
      callback(resp);
    } catch (...) {
      // A throwing sink must not take the scheduler down; the promise
      // below still resolves, so nothing is lost silently.
    }
  }
  promise.set_value(std::move(resp));
}

std::future<ServeResponse> Server::submit_impl(ServeRequest req,
                                               ResponseCallback done) {
  const Clock::time_point now = Clock::now();
  if (!req.deadline.has_value() && req.timeout_ms > 0) {
    req.deadline = now + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(req.timeout_ms));
  }
  metrics_.on_submitted();
#if DEFA_TRACE
  // Server-side sampling: stamp every Nth untraced admission with a fresh
  // trace id (client-provided ids always win, so cross-process sampling
  // decisions stay with the client).
  if (req.trace_id == 0 && options_.trace_sample_every > 0 &&
      obs::Tracer::instance().enabled()) {
    const std::uint64_t n = trace_seq_.fetch_add(1, std::memory_order_relaxed);
    if (n % static_cast<std::uint64_t>(options_.trace_sample_every) == 0) {
      req.trace_id = obs::new_trace_id();
    }
  }
#endif

  std::promise<ServeResponse> promise;
  std::future<ServeResponse> future = promise.get_future();

  ServeResponse rejection;
  rejection.id = req.id;
  if (req.deadline.has_value() && *req.deadline <= now) {
    rejection.status = ResponseStatus::kRejectedDeadline;
    rejection.error = "deadline expired before admission";
    metrics_.on_rejected_deadline(0.0);
    deliver(promise, done, std::move(rejection));
    return future;
  }

  // The affinity identity is the Engine's context-cache key, resolved
  // outside mu_.  A request malformed enough that its key cannot be
  // resolved still gets queued (the error surfaces from Engine::run with a
  // proper response); it just joins the empty-key affinity class.
  std::string key;
  try {
    key = req.request.workload_key();
  } catch (const std::exception&) {
    // Leaves `key` empty.
  }

  bool spawn = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      rejection.status = ResponseStatus::kRejectedShutdown;
      rejection.error = "server is draining (no longer admitting)";
    } else if (queued_total_ >= options_.queue_capacity) {
      rejection.status = ResponseStatus::kRejectedOverload;
      rejection.error = "admission queue full (" +
                        std::to_string(options_.queue_capacity) + " waiting)";
    } else {
      auto& q = queues_[static_cast<std::size_t>(req.priority)];
      q.push_back(Entry{std::move(req), std::move(key), std::move(promise),
                        std::move(done), now, -1});
      ++queued_total_;
      ++outstanding_;
      if (!paused_ && active_loops_ < options_.max_concurrency) {
        ++active_loops_;
        spawn = true;
      }
    }
  }
  // Rejections are delivered outside mu_: the callback may call back into
  // the Server (metrics(), queued()) without deadlocking.
  if (rejection.status == ResponseStatus::kRejectedShutdown) {
    metrics_.on_rejected_shutdown();
    deliver(promise, done, std::move(rejection));
    return future;
  }
  if (rejection.status == ResponseStatus::kRejectedOverload) {
    metrics_.on_rejected_overload();
    deliver(promise, done, std::move(rejection));
    return future;
  }
  if (spawn) ThreadPool::global().submit([this] { drain_loop(); });
  return future;
}

void Server::resume() {
  int spawn = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!paused_) return;
    paused_ = false;
    const auto want = static_cast<std::int64_t>(queued_total_);
    while (active_loops_ < options_.max_concurrency && active_loops_ < want) {
      ++active_loops_;
      ++spawn;
    }
  }
  for (int i = 0; i < spawn; ++i) ThreadPool::global().submit([this] { drain_loop(); });
}

bool Server::pop_best_locked(Entry& out) {
  if (queued_total_ == 0) return false;
  const Priority preferred = dispatch_slot(dispatch_seq_++);
  // The preferred class first, then the remaining classes best-first.
  std::array<std::size_t, kPriorityClasses> order{};
  std::size_t k = 0;
  order[k++] = static_cast<std::size_t>(preferred);
  for (std::size_t p = 0; p < kPriorityClasses; ++p) {
    if (p != static_cast<std::size_t>(preferred)) order[k++] = p;
  }
  for (const std::size_t p : order) {
    std::deque<Entry>& q = queues_[p];
    if (q.empty()) continue;

    // Keep the active workload key's window going while its fairness
    // budget lasts; once the budget is spent, the oldest *different*-key
    // request runs (so a same-key flood cannot starve minority keys).
    // With no match either way the oldest entry runs: it opens a fresh
    // window, or continues the only key queued.  Affinity only reorders
    // within the class the priority pattern already selected.
    const bool same_key = affinity_run_ < kLocalityWindow;
    std::size_t pick = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if ((q[i].key == affinity_key_) == same_key) {
        pick = i;
        break;
      }
    }

    out = std::move(q[pick]);
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
    --queued_total_;
    out.dispatch_index = popped_seq_++;
    if (out.key == affinity_key_) {
      ++affinity_run_;
    } else {
      affinity_key_ = out.key;
      affinity_run_ = 1;
    }
    return true;
  }
  return false;
}

void Server::drain_loop() {
  while (true) {
    Entry entry;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!pop_best_locked(entry)) {
        --active_loops_;
        // Notify while still holding mu_: once drain()'s predicate can
        // become true the Server may be destroyed, so `this` must not be
        // touched after the lock is released.
        if (active_loops_ == 0 && outstanding_ == 0) idle_cv_.notify_all();
        return;
      }
    }
    process(std::move(entry));
  }
}

void Server::process(Entry entry) {
  const Clock::time_point dispatched = Clock::now();
#if DEFA_TRACE
  // Opens the thread-local trace context: every DEFA_TRACE_SPAN below
  // this frame (engine lookup, kernel phases...) records with this id.
  const obs::TraceScope trace_scope(entry.req.trace_id);
  // Emitted once the outcome is known: the request's server-side root
  // span plus the cross-thread queue-wait span (admission -> dispatch).
  const auto trace_lifecycle = [&](const ServeResponse& r) {
    if (!obs::trace_active()) return;
    obs::record_span("queue", "serve", us_of(entry.admitted),
                     static_cast<std::int64_t>(r.queue_ms * 1000.0),
                     entry.req.trace_id);
    obs::record_span("request", "serve", us_of(entry.admitted),
                     static_cast<std::int64_t>(r.total_ms * 1000.0),
                     entry.req.trace_id,
                     {{"id", entry.req.id},
                      {"priority", priority_name(entry.req.priority)},
                      {"status", status_name(r.status)}});
  };
#endif
  ServeResponse resp;
  resp.id = entry.req.id;
  resp.dispatch_index = entry.dispatch_index;
  resp.queue_ms = ms_between(entry.admitted, dispatched);

  if (entry.req.deadline.has_value() && *entry.req.deadline <= dispatched) {
    resp.status = ResponseStatus::kRejectedDeadline;
    resp.error = "deadline expired after " + std::to_string(resp.queue_ms) +
                 " ms in queue";
    resp.total_ms = resp.queue_ms;
    metrics_.on_rejected_deadline(resp.queue_ms);
#if DEFA_TRACE
    trace_lifecycle(resp);
#endif
    deliver(entry.promise, entry.callback, std::move(resp));
    finish_one();
    return;
  }

  try {
    api::EvalResult result;
    {
      DEFA_TRACE_SPAN("run", "serve");
      result = engine_.run(entry.req.request);
    }
    const Clock::time_point done = Clock::now();
    resp.run_ms = ms_between(dispatched, done);
    resp.total_ms = ms_between(entry.admitted, done);
    metrics_.on_completed(result.benchmark, resp.queue_ms, resp.run_ms, resp.total_ms);
    resp.result = std::move(result);
  } catch (const std::exception& e) {
    const Clock::time_point done = Clock::now();
    resp.status = ResponseStatus::kError;
    resp.error = e.what();
    resp.run_ms = ms_between(dispatched, done);
    resp.total_ms = ms_between(entry.admitted, done);
    metrics_.on_error(resp.queue_ms, resp.run_ms, resp.total_ms);
  }
#if DEFA_TRACE
  trace_lifecycle(resp);
#endif
  deliver(entry.promise, entry.callback, std::move(resp));
  finish_one();
}

void Server::finish_one() {
  // Notify under mu_ — see drain_loop for the lifetime reasoning.
  const std::lock_guard<std::mutex> lock(mu_);
  --outstanding_;
  if (outstanding_ == 0 && active_loops_ == 0) idle_cv_.notify_all();
}

void Server::drain() {
  {
    // Stop admitting before waiting: submits racing with drain either made
    // it into the queue (and are finished below) or complete with
    // kRejectedShutdown — nothing is silently dropped either way.
    const std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  resume();  // a paused server would otherwise never become idle
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return outstanding_ == 0 && active_loops_ == 0; });
}

bool Server::draining() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

void Server::reconfigure(const ServerReconfig& rc) {
  // The Engine applies its own fields under its locks (evicting caches
  // down to new bounds as needed).
  api::Engine::Reconfig er;
  er.max_contexts = rc.max_contexts;
  er.max_memo = rc.max_memo;
  er.memoize_results = rc.memoize_results;
  engine_.reconfigure(er);
  {
    // Mirror the engine fields so options()/ping stay truthful.
    const std::lock_guard<std::mutex> lock(mu_);
    if (rc.max_contexts.has_value()) options_.engine.max_contexts = *rc.max_contexts;
    if (rc.max_memo.has_value()) options_.engine.max_memo = *rc.max_memo;
    if (rc.memoize_results.has_value()) {
      options_.engine.memoize_results = *rc.memoize_results;
    }
  }
  if (rc.reset_stats) {
    engine_.clear_caches();
    engine_.reset_stats();
    metrics_.reset();
    wire::SerStats::instance().reset();
  }
}

ServerOptions Server::options_snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

MetricsSnapshot Server::metrics() const {
  std::size_t depth;
  std::int64_t in_flight;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    depth = queued_total_;
    in_flight = outstanding_;
  }
  MetricsSnapshot snap = metrics_.snapshot(depth, in_flight);
  const api::Engine::CacheStats cache = engine_.cache_stats();
  snap.context_hits = cache.context.hits;
  snap.context_misses = cache.context.misses;
  snap.context_evictions = cache.context.evictions;
  snap.memo_hits = cache.memo_hits;
  snap.memo_misses = cache.memo_misses;
  snap.memo_evictions = cache.memo_evictions;
  snap.wire_v1 = wire::SerStats::instance().snapshot(1);
  snap.wire_v2 = wire::SerStats::instance().snapshot(2);
  return snap;
}

std::size_t Server::queued() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queued_total_;
}

}  // namespace defa::serve
