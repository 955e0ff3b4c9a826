#include "kernels/plan.h"

#include <atomic>
#include <limits>

#include "common/parallel.h"
#include "nn/bilinear.h"

namespace defa::kernels {

namespace {

// Process-wide totals (see PlanCache::GlobalStats): plan caches live
// per-pipeline inside pooled contexts, so the engine's monotonic metrics
// aggregate here instead of walking instances.
std::atomic<std::uint64_t> g_plan_hits{0};
std::atomic<std::uint64_t> g_plan_misses{0};
std::atomic<std::int64_t> g_plan_entries{0};

}  // namespace

SamplingPlan SamplingPlan::build(const ModelConfig& m, const Tensor& locs) {
  DEFA_CHECK(locs.rank() == 5 && locs.dim(0) == m.n_in() && locs.dim(1) == m.n_heads &&
                 locs.dim(2) == m.n_levels && locs.dim(3) == m.n_points &&
                 locs.dim(4) == 2,
             "SamplingPlan: locs must be (N, H, L, P, 2)");
  // Resolved offsets are int32: token * d_model + head * d_head < N_in * D.
  DEFA_CHECK(m.n_in() * m.d_model <= std::numeric_limits<std::int32_t>::max(),
             "SamplingPlan: value buffer too large for int32 offsets");

  SamplingPlan plan;
  plan.n_in_ = m.n_in();
  plan.n_heads_ = m.n_heads;
  plan.n_levels_ = m.n_levels;
  plan.n_points_ = m.n_points;
  plan.d_model_ = m.d_model;
  const std::int64_t slots =
      plan.n_in_ * m.n_heads * m.n_levels * m.n_points;
  plan.offsets_.assign(static_cast<std::size_t>(slots) * 4, kOutOfBounds);
  plan.t0_.resize(static_cast<std::size_t>(slots));
  plan.t1_.resize(static_cast<std::size_t>(slots));

  const int dh = m.d_head();
  parallel_for(0, m.n_in(), [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t q = begin; q < end; ++q) {
      for (int h = 0; h < m.n_heads; ++h) {
        const std::int64_t col = static_cast<std::int64_t>(h) * dh;
        for (int l = 0; l < m.n_levels; ++l) {
          for (int p = 0; p < m.n_points; ++p) {
            const nn::BiPoint bp =
                nn::bi_locate(locs(q, h, l, p, 0), locs(q, h, l, p, 1));
            const std::int64_t s = plan.slot(l, q, h, p);
            plan.t0_[static_cast<std::size_t>(s)] = bp.t0;
            plan.t1_[static_cast<std::size_t>(s)] = bp.t1;
            nn::for_each_neighbor(m, l, bp, [&](int which, std::int64_t token) {
              plan.offsets_[static_cast<std::size_t>(s * 4 + which)] =
                  static_cast<std::int32_t>(token * m.d_model + col);
            });
          }
        }
      }
    }
  });
  return plan;
}

PlanCache::~PlanCache() {
  const std::lock_guard<std::mutex> lock(mu_);
  g_plan_entries.fetch_sub(
      static_cast<std::int64_t>(plans_.size()),
      std::memory_order_relaxed);
}

std::shared_ptr<const SamplingPlan> PlanCache::get(const std::string& key,
                                                   const ModelConfig& m,
                                                   const Tensor& locs) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = plans_.find(key);
  if (it != plans_.end()) {
    ++stats_.hits;
    g_plan_hits.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  ++stats_.misses;
  g_plan_misses.fetch_add(1, std::memory_order_relaxed);
  auto plan = std::make_shared<SamplingPlan>(SamplingPlan::build(m, locs));
  plans_.emplace(key, plan);
  g_plan_entries.fetch_add(1, std::memory_order_relaxed);
  return plan;
}

std::size_t PlanCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

PlanCache::Stats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  g_plan_entries.fetch_sub(
      static_cast<std::int64_t>(plans_.size()),
      std::memory_order_relaxed);
  plans_.clear();
}

PlanCache::GlobalStats PlanCache::global_stats() noexcept {
  GlobalStats g;
  g.hits = g_plan_hits.load(std::memory_order_relaxed);
  g.misses = g_plan_misses.load(std::memory_order_relaxed);
  const std::int64_t entries = g_plan_entries.load(std::memory_order_relaxed);
  g.entries = entries > 0 ? static_cast<std::uint64_t>(entries) : 0;
  return g;
}

void PlanCache::reset_global_counters() noexcept {
  g_plan_hits.store(0, std::memory_order_relaxed);
  g_plan_misses.store(0, std::memory_order_relaxed);
}

}  // namespace defa::kernels
