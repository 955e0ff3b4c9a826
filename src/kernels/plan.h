#pragma once

/// \file plan.h
/// Sampling plans: the precomputed, layout-optimized form of one layer's
/// grid-sampling geometry.
///
/// The MSGS hot loop spends most of its non-arithmetic time rediscovering
/// the same facts per sampling point: flooring the fractional location,
/// deriving the 2x2 neighborhood, bounds-checking all four neighbors
/// against the level shape and flattening them to value-row indices.  None
/// of that depends on the values, the probabilities, or the PruneConfig —
/// only on (model, locations).  A `SamplingPlan` does this work once,
/// storing the result in level-major structure-of-arrays form so the fused
/// backend's aggregation loop is a branchless gather.  The dense per-layer
/// geometry is shared by every PruneConfig that does not move the sampling
/// locations (PAP/FWP-only runs, the dense reference trajectory), so
/// `EncoderPipeline` keeps one plan per layer in a `PlanCache` and reuses
/// it across runs — the same reuse pattern the dense reference trajectory
/// already follows.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "config/model_config.h"
#include "tensor/tensor.h"

namespace defa::kernels {

/// Precomputed bilinear sampling geometry of one (model, locations) pair.
///
/// Storage is level-major SoA: all points that sample level 0 come first,
/// then level 1, and so on — the multi-scale-parallel layout of the paper,
/// which keeps each level's gathers inside one contiguous token range.
/// Slot `s` of point (l, q, h, p) holds:
///  * `offsets()[4*s + k]` — the fully resolved element offset of bilinear
///    neighbor k (N0..N3 of nn::BiPoint) into the flat (N_in x D) value
///    buffer, i.e. `token * d_model + head * d_head` — the aggregation
///    loop adds it to the value base pointer and reads `d_head`
///    contiguous channels; `kOutOfBounds` marks a neighbor in the
///    zero-padding region outside the level;
///  * `t0()[s]` / `t1()[s]` — the vertical/horizontal fractions, exactly
///    the floats `nn::bi_locate` produces (bit-identical downstream math).
class SamplingPlan {
 public:
  /// Offset marking an out-of-bounds (zero padded) neighbor.
  static constexpr std::int32_t kOutOfBounds = -1;

  /// Build the plan for `locs` (N, H, L, P, 2).  Deterministic; parallel
  /// over queries.
  [[nodiscard]] static SamplingPlan build(const ModelConfig& m, const Tensor& locs);

  /// Level-major slot of point (l, q, h, p).
  [[nodiscard]] std::int64_t slot(int l, std::int64_t q, int h, int p) const noexcept {
    return ((static_cast<std::int64_t>(l) * n_in_ + q) * n_heads_ + h) * n_points_ + p;
  }
  [[nodiscard]] std::int64_t n_slots() const noexcept {
    return static_cast<std::int64_t>(t0_.size());
  }

  [[nodiscard]] const std::vector<std::int32_t>& offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] const std::vector<float>& t0() const noexcept { return t0_; }
  [[nodiscard]] const std::vector<float>& t1() const noexcept { return t1_; }

  /// Does this plan describe the given model's geometry shape?  (Cheap
  /// consistency check; plans are matched to locations by construction.)
  [[nodiscard]] bool matches(const ModelConfig& m) const noexcept {
    return n_in_ == m.n_in() && n_heads_ == m.n_heads && n_levels_ == m.n_levels &&
           n_points_ == m.n_points && d_model_ == m.d_model;
  }

 private:
  std::int64_t n_in_ = 0;
  int n_heads_ = 0, n_levels_ = 0, n_points_ = 0, d_model_ = 0;
  std::vector<std::int32_t> offsets_;  ///< 4 per slot, kOutOfBounds for padding
  std::vector<float> t0_, t1_;
};

/// Thread-safe keyed cache of shared SamplingPlans with hit/miss counters, mirroring core::ContextPool's role one level down:
/// one plan per (workload, layer), built once, reused by every PruneConfig
/// whose locations are the dense cached geometry.
class PlanCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;    ///< get() found the key resident
    std::uint64_t misses = 0;  ///< get() built a fresh plan
  };

  /// Process-wide totals across every PlanCache instance (plan caches live
  /// per-pipeline inside pooled contexts, so instance counters alone can't
  /// feed the engine's monotonic metrics).  `entries` is a live gauge of
  /// resident plans; hits/misses are monotonic counters.
  struct GlobalStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
  };

  PlanCache() = default;
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Return the plan cached under `key`, building it from (m, locs) on
  /// first use.  Construction runs under the cache lock (plans are built
  /// once per layer; contention is not a concern).
  [[nodiscard]] std::shared_ptr<const SamplingPlan> get(const std::string& key,
                                                        const ModelConfig& m,
                                                        const Tensor& locs);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Stats stats() const;
  void clear();

  [[nodiscard]] static GlobalStats global_stats() noexcept;
  /// Reset the process-wide hit/miss counters (the `entries` gauge tracks
  /// live plans and is not reset).  Engine::reset_stats() calls this.
  static void reset_global_counters() noexcept;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const SamplingPlan>> plans_;
  Stats stats_;
};

}  // namespace defa::kernels
