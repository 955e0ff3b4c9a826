#pragma once

/// \file simd_kernels.h
/// Internal interface between the `fused` backend and its per-ISA tiers.
/// Not part of the public kernels API.
///
/// Each ISA tier implements the fused MSGS + aggregation loops against the
/// flat argument views below.  The sampling geometry is never stored for a
/// whole layer: `for_each_tile` walks the call in tiles of
/// `TileGeometry::kQueries` queries, resolves one tile's bilinear corners
/// into per-chunk scratch, and hands the tile to the tier's aggregation
/// loop while the geometry is still in L1/L2.  The AVX2 tier lives in its
/// own TU (simd_avx2.cpp) so it can be compiled with `-mavx2` without
/// raising the ISA floor of the rest of the binary; whether that TU
/// contains real kernels or stubs is reported by `*_compiled()` and
/// decided by the `DEFA_KERNELS_SIMD` CMake knob.
///  * fp32: one register-tile loop (fused_fp32.h), built at the portable
///    ISA floor in fused_backend.cpp and with -mavx2 in simd_avx2.cpp.  On
///    AArch64 the portable build is already NEON-vectorized.
///  * INTn: hand-written AVX2 / NEON intrinsics plus the portable scalar
///    tier (fused_backend.cpp), the semantic model the vector tiers must
///    match bit-for-bit.
///
/// Bit-exactness rule for implementers: every lane must execute exactly
/// the scalar operation chain — `nn::bi_horner` for fp32,
/// `quant::bi_horner_int` / `quant::ag_weight_int` for INTn — on the same
/// operands in the same order.  Vectorizing across *channels* is safe;
/// reassociating across *points* is not.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/simd.h"
#include "config/model_config.h"
#include "prune/masks.h"
#include "tensor/tensor.h"

namespace defa::kernels::simd_detail {

/// Bilinear sampling geometry of one tile of at most `kQueries` queries,
/// built right before the tile is aggregated and overwritten by the next.
///
/// Slot order follows the aggregation loop: query, head, level, point.
/// Slot `s` holds
///  * `offsets()[4*s + k]` — the resolved element offset of bilinear
///    neighbor k (N0..N3 of nn::BiPoint) into the flat (N_in x D) value
///    buffer, `token * d_model + head * d_head`, or `kOutOfBounds` for a
///    neighbor in the zero-padding region outside the level;
///  * `t0()[s]` / `t1()[s]` — exactly the fractions `nn::bi_locate`
///    produces, so the downstream math is bit-identical to `reference`.
/// Points the PAP mask prunes are never resolved: the aggregation loops
/// test the mask first and never read their slots.
class TileGeometry {
 public:
  /// Queries per tile: 32 keeps the tile at 96 KiB on De DETR shapes
  /// (8 heads x 4 levels x 4 points, 24 bytes per point).
  static constexpr std::int64_t kQueries = 32;
  /// Offset marking an out-of-bounds (zero padded) neighbor.
  static constexpr std::int32_t kOutOfBounds = -1;

  explicit TileGeometry(const ModelConfig& m);

  /// Resolve queries [q_begin, q_end) (at most kQueries) of `locs`
  /// (N, H, L, P, 2), skipping points `mask` prunes (nullable).
  void build(const Tensor& locs, const prune::PointMask* mask, std::int64_t q_begin,
             std::int64_t q_end);

  /// Slot of point (q, h, l, p = 0); q is absolute and inside the tile.
  [[nodiscard]] std::int64_t slot(std::int64_t q, int h, int l) const noexcept {
    return (((q - q_begin_) * m_->n_heads + h) * m_->n_levels + l) * m_->n_points;
  }
  [[nodiscard]] const std::int32_t* offsets() const noexcept { return offsets_.data(); }
  [[nodiscard]] const float* t0() const noexcept { return t0_.data(); }
  [[nodiscard]] const float* t1() const noexcept { return t1_.data(); }

 private:
  struct Level {
    std::int64_t base = 0;  ///< first token of the level
    int w = 0, h = 0;
  };
  const ModelConfig* m_;
  std::vector<Level> levels_;
  std::int64_t q_begin_ = 0;
  std::vector<std::int32_t> offsets_;  ///< 4 per slot
  std::vector<float> t0_, t1_;
};

/// Aggregation loop of one tile: queries [q_begin, q_end) with their
/// geometry.
using TileFn =
    std::function<void(const TileGeometry&, std::int64_t q_begin, std::int64_t q_end)>;

/// Run `body` over every query tile of one call.  Query chunks run in
/// parallel (grain `min_parallel_queries`); each chunk reuses one
/// TileGeometry for all of its tiles.  Chunks and tiles are query-disjoint,
/// so results do not depend on scheduling.  Checks the locs shape and that
/// every value offset fits int32.
void for_each_tile(const ModelConfig& m, const Tensor& locs,
                   const prune::PointMask* mask, const TileFn& body);

/// Flat argument view of one fp32 fused MSGS + aggregation call.
struct Fp32Args {
  const ModelConfig* m = nullptr;
  const float* values = nullptr;        ///< (N_in x D) row-major
  const float* probs = nullptr;         ///< (N, H, L*P) row-major
  const Tensor* locs = nullptr;         ///< (N, H, L, P, 2)
  const prune::PointMask* mask = nullptr;  ///< nullable
  const float* zero = nullptr;          ///< d_head zeros (padding row)
  float* out = nullptr;                 ///< (N, D), zero-initialized
};

/// Flat argument view of one INTn fused MSGS + aggregation call.  The
/// caller quantizes values once (QTensor) and passes the code buffer.
struct QuantArgs {
  const ModelConfig* m = nullptr;
  const std::int16_t* codes = nullptr;  ///< INTn value codes, (N_in x D)
  const float* probs = nullptr;         ///< (N, H, L*P) row-major
  const Tensor* locs = nullptr;         ///< (N, H, L, P, 2)
  const prune::PointMask* mask = nullptr;  ///< nullable
  float* out = nullptr;                 ///< (N, D)
  float out_scale = 1.0f;               ///< value-code scale for the output
  int frac_bits = 12;                   ///< t0/t1 and probability width
};

// ---- portable tier (fused_backend.cpp; always compiled) -------------------
void run_fp32_portable(const Fp32Args& a);
void run_quant_scalar(const QuantArgs& a);

// ---- AVX2 tier (simd_avx2.cpp; real iff avx2_compiled()) ------------------
[[nodiscard]] bool avx2_compiled() noexcept;
void run_fp32_avx2(const Fp32Args& a);
void run_quant_avx2(const QuantArgs& a);

// ---- NEON tier (simd_neon.cpp; real iff neon_compiled()) ------------------
[[nodiscard]] bool neon_compiled() noexcept;
void run_quant_neon(const QuantArgs& a);

/// Outcome of the three-layer tier dispatch (DEFA_SIMD request x build x
/// CPU) of the `fused` backend.
struct TierResolution {
  simd::Isa isa = simd::Isa::kScalar;
  std::string reason;  ///< nonempty => the fused backend is unavailable
};

[[nodiscard]] TierResolution resolve_tier();

/// parallel_for grain of the fused loops, in queries: a call is split
/// across the pool once it carries ~2^18 channel operations, so one
/// mid-size request (a few thousand queries of the default model) uses
/// every core instead of running inline below the generic 4096-query
/// threshold.  Chunks stay query-disjoint, so results are unchanged.
[[nodiscard]] inline std::int64_t min_parallel_queries(const ModelConfig& m) noexcept {
  const std::int64_t per_query =
      std::max<std::int64_t>(1, std::int64_t{m.d_model} * m.points_per_head());
  return std::max<std::int64_t>(1, (std::int64_t{1} << 18) / per_query);
}

/// Largest `act_bits + frac_bits` for which the vectorized INTn path's
/// int32 intermediates provably cannot overflow (|bi| <= 9*2^(act_bits-1),
/// times a Q0.frac probability plus the rounding half must stay under
/// 2^31).  Wider configurations fall back to the scalar tier, which does
/// its fraction multiplies in int64 like the reference backend.
inline constexpr int kMaxVectorQuantBits = 28;

}  // namespace defa::kernels::simd_detail
