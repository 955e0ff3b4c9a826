// The `fused` backend: the optimized CPU implementation of the fused
// MSGS + aggregation kernel.
//
// The one MSGS kernel production code runs (`reference` is the test
// oracle).  Four ideas, in execution order:
//  1. **Tile-local geometry.**  Bilinear corner discovery — floor, 2x2
//     neighborhood, per-neighbor bounds checks, token flattening — is
//     hoisted out of the channel loop into a `TileGeometry`: SoA value
//     offsets + fractions for one tile of 32 queries, built into per-chunk
//     scratch right before the tile is aggregated.  No geometry outlives
//     its tile, so the kernel's footprint is a few tiles of scratch, not
//     24 bytes per sampling point of the layer; PAP-pruned points are
//     never resolved at all.
//  2. **Skip-don't-gather PAP handling, branchless channels.**  A masked
//     point costs one predictable branch and zero arithmetic (pruning
//     removes iterations), and out-of-bounds corners resolve to a shared
//     zero row, so the per-channel loop carries no padding branches at
//     all — unlike the reference path, whose four nullptr selects sit
//     inside the gather.  (Compacting survivors into dense per-query
//     point lists first was tried and measured *slower* — the list
//     build/indirection cost more than the branch it removed.)
//  3. **fp32: d_head-contiguous register tile.**  Per point the
//     aggregation is one straight-line loop over the head's contiguous
//     channel slice with all row pointers and scalars hoisted; for the
//     common head widths the accumulator lives in registers and the
//     compiler vectorizes the loop.  The loop (fused_fp32.h) is built
//     twice: here at the portable ISA floor, and with -mavx2 in
//     simd_avx2.cpp.
//  4. **INTn: explicit SIMD tiers.**  The integer Horner chain does not
//     auto-vectorize, so the quantized loop runs as AVX2 (x86-64) or NEON
//     (aarch64) intrinsics chosen by *runtime* dispatch — one portable
//     binary, CPUID-probed at the call site (src/common/simd.h) — with
//     this file's scalar tier as the always-available fallback and
//     semantic model (simd_avx2.cpp, simd_neon.cpp).
//
// Tier dispatch policy, for both datapaths (see docs/KERNELS.md):
//  * DEFA_SIMD unset/"auto": best tier that is both compiled into the
//    binary (DEFA_KERNELS_SIMD cmake knob) and supported by this CPU.
//  * DEFA_SIMD=scalar: force the portable builds (how CI proves the
//    tiers bit-identical without special hardware).
//  * DEFA_SIMD=avx2|neon: *require* the tier.  If the build or the CPU
//    cannot honor it the backend reports itself unavailable — loudly —
//    instead of silently degrading and skewing a measurement.
//
// Bit-exactness: per output channel the accumulation chain visits the
// same surviving points in the same (l, p) order and performs the same
// Horner-form operations on the same operands as the reference backend,
// so fp32 results are bit-identical and INTn results are exactly equal.
// Vector lanes run across *channels*, whose accumulator chains are
// independent, never across points.  The INTn vector tiers keep their
// fraction multiplies in int32 only where the intermediates provably fit
// (act_bits + frac_bits <= kMaxVectorQuantBits); wider configs take the
// scalar tier's int64 path.  tests/test_kernels.cpp and
// tests/test_backend_differential.cpp enforce both.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "kernels/backend.h"
#include "kernels/fused_fp32.h"
#include "kernels/simd_kernels.h"
#include "nn/bilinear.h"
#include "quant/fixed_point.h"
#include "quant/qmsgs.h"

namespace defa::kernels {
namespace simd_detail {

// --------------------------------------------------------- tile geometry

TileGeometry::TileGeometry(const ModelConfig& m) : m_(&m) {
  const std::size_t slots =
      static_cast<std::size_t>(kQueries * m.n_heads * m.points_per_head());
  offsets_.resize(slots * 4);
  t0_.resize(slots);
  t1_.resize(slots);
  std::int64_t base = 0;
  for (const LevelShape& lv : m.levels) {
    levels_.push_back({base, lv.w, lv.h});
    base += lv.numel();
  }
}

void TileGeometry::build(const Tensor& locs, const prune::PointMask* mask,
                         std::int64_t q_begin, std::int64_t q_end) {
  const ModelConfig& m = *m_;
  const std::int64_t points_per_query = m.n_heads * m.points_per_head();
  const float* loc = locs.data().data() + q_begin * points_per_query * 2;
  q_begin_ = q_begin;
  std::size_t s = 0;
  for (std::int64_t q = q_begin; q < q_end; ++q) {
    for (int h = 0; h < m.n_heads; ++h) {
      const std::int64_t col = static_cast<std::int64_t>(h) * m.d_head();
      for (int l = 0; l < m.n_levels; ++l) {
        const Level& lv = levels_[static_cast<std::size_t>(l)];
        for (int p = 0; p < m.n_points; ++p, ++s, loc += 2) {
          if (mask != nullptr && !mask->keep(q, h, l, p)) continue;
          const nn::BiPoint bp = nn::bi_locate(loc[0], loc[1]);
          t0_[s] = bp.t0;
          t1_[s] = bp.t1;
          // nn::for_each_neighbor's N0..N3 mapping — (x0, y0), (x0+1, y0),
          // (x0, y0+1), (x0+1, y0+1) — with the level base hoisted and the
          // bounds tests branch-free.
          const bool x0_in = static_cast<unsigned>(bp.x0) < static_cast<unsigned>(lv.w);
          const bool x1_in = static_cast<unsigned>(bp.x0 + 1) < static_cast<unsigned>(lv.w);
          const bool y0_in = static_cast<unsigned>(bp.y0) < static_cast<unsigned>(lv.h);
          const bool y1_in = static_cast<unsigned>(bp.y0 + 1) < static_cast<unsigned>(lv.h);
          const std::int64_t n0 =
              (lv.base + static_cast<std::int64_t>(bp.y0) * lv.w + bp.x0) * m.d_model + col;
          const std::int64_t row = static_cast<std::int64_t>(lv.w) * m.d_model;
          std::int32_t* offs = offsets_.data() + s * 4;
          offs[0] = x0_in && y0_in ? static_cast<std::int32_t>(n0) : kOutOfBounds;
          offs[1] = x1_in && y0_in ? static_cast<std::int32_t>(n0 + m.d_model) : kOutOfBounds;
          offs[2] = x0_in && y1_in ? static_cast<std::int32_t>(n0 + row) : kOutOfBounds;
          offs[3] = x1_in && y1_in ? static_cast<std::int32_t>(n0 + row + m.d_model)
                                   : kOutOfBounds;
        }
      }
    }
  }
}

void for_each_tile(const ModelConfig& m, const Tensor& locs,
                   const prune::PointMask* mask, const TileFn& body) {
  DEFA_CHECK(locs.rank() == 5 && locs.dim(0) == m.n_in() && locs.dim(1) == m.n_heads &&
                 locs.dim(2) == m.n_levels && locs.dim(3) == m.n_points &&
                 locs.dim(4) == 2,
             "fused backend: locs must be (N, H, L, P, 2)");
  // Resolved offsets are int32: token * d_model + head * d_head < N_in * D.
  // api::EvalRequest::validate() rejects such models before admission.
  DEFA_CHECK(m.n_in() * m.d_model <= std::numeric_limits<std::int32_t>::max(),
             "fused backend: value buffer too large for int32 offsets");
  parallel_for(0, m.n_in(), [&](std::int64_t begin, std::int64_t end) {
    TileGeometry g(m);
    for (std::int64_t q = begin; q < end; q += TileGeometry::kQueries) {
      const std::int64_t q_end = std::min(end, q + TileGeometry::kQueries);
      g.build(locs, mask, q, q_end);
      body(g, q, q_end);
    }
  }, min_parallel_queries(m));
}

// ---------------------------------------------------------- portable tier

void run_fp32_portable(const Fp32Args& a) { run_fp32_tiles(a); }

// The INTn scalar tier: same structure as the vector tiers (tile-driven
// gather, zero-row padding, per-(query, head) accumulator) with the
// channel loop in scalar form.  This is the code the AVX2/NEON tiers must
// reproduce lane-for-lane.

void run_quant_scalar(const QuantArgs& a) {
  const ModelConfig& m = *a.m;
  const int dh = m.d_head();
  const int lp = m.points_per_head();
  const std::vector<std::int16_t> zero_row(static_cast<std::size_t>(dh), 0);
  const std::int16_t* zero = zero_row.data();

  for_each_tile(m, *a.locs, a.mask, [&](const TileGeometry& g, std::int64_t begin,
                                        std::int64_t end) {
    const std::int32_t* offs = g.offsets();
    const float* t0s = g.t0();
    const float* t1s = g.t1();
    std::vector<std::int32_t> acc(static_cast<std::size_t>(dh));
    for (std::int64_t q = begin; q < end; ++q) {
      for (int h = 0; h < m.n_heads; ++h) {
        const float* prow = a.probs + static_cast<std::size_t>((q * m.n_heads + h) * lp);
        std::fill(acc.begin(), acc.end(), 0);
        for (int l = 0; l < m.n_levels; ++l) {
          const std::int64_t base = g.slot(q, h, l);
          for (int p = 0; p < m.n_points; ++p) {
            if (a.mask != nullptr && !a.mask->keep(q, h, l, p)) continue;
            const std::int32_t prob_q =
                quant::to_fraction_code(prow[l * m.n_points + p], a.frac_bits);
            if (prob_q == 0) continue;
            const std::int64_t s = (base + p) * 4;
            const std::int16_t* r0 = offs[s + 0] >= 0 ? a.codes + offs[s + 0] : zero;
            const std::int16_t* r1 = offs[s + 1] >= 0 ? a.codes + offs[s + 1] : zero;
            const std::int16_t* r2 = offs[s + 2] >= 0 ? a.codes + offs[s + 2] : zero;
            const std::int16_t* r3 = offs[s + 3] >= 0 ? a.codes + offs[s + 3] : zero;
            const std::int32_t t0_q = quant::to_fraction_code(t0s[base + p], a.frac_bits);
            const std::int32_t t1_q = quant::to_fraction_code(t1s[base + p], a.frac_bits);
            for (int c = 0; c < dh; ++c) {
              const std::int32_t bi = quant::bi_horner_int(r0[c], r1[c], r2[c], r3[c],
                                                           t0_q, t1_q, a.frac_bits);
              acc[static_cast<std::size_t>(c)] +=
                  quant::ag_weight_int(bi, prob_q, a.frac_bits);
            }
          }
        }
        float* head_out = a.out + static_cast<std::size_t>(q * m.d_model + h * dh);
        for (int c = 0; c < dh; ++c) {
          head_out[c] = static_cast<float>(acc[static_cast<std::size_t>(c)]) * a.out_scale;
        }
      }
    }
  });
}

namespace {

using simd::Isa;

bool tier_compiled(Isa isa) noexcept {
  switch (isa) {
    case Isa::kAvx2: return avx2_compiled();
    case Isa::kNeon: return neon_compiled();
    case Isa::kScalar: break;
  }
  return true;
}

}  // namespace

TierResolution resolve_tier() {
  const simd::IsaRequest req = simd::requested_isa();
  TierResolution r;
  if (!req.valid) {
    r.reason = "unknown DEFA_SIMD value '" + req.raw +
               "' (known: auto, scalar, avx2, neon)";
    return r;
  }
  if (req.forced) {
    if (!tier_compiled(req.isa)) {
      r.reason = std::string("DEFA_SIMD=") + simd::isa_name(req.isa) + " but the " +
                 simd::isa_name(req.isa) +
                 " kernels are not compiled into this binary (DEFA_KERNELS_SIMD "
                 "cmake knob off, or wrong target architecture)";
    } else if (!simd::cpu_supports(req.isa)) {
      r.reason = std::string("DEFA_SIMD=") + simd::isa_name(req.isa) +
                 " but this CPU does not support " + simd::isa_name(req.isa);
    } else {
      r.isa = req.isa;
    }
    return r;
  }
  for (const Isa candidate : {Isa::kAvx2, Isa::kNeon}) {
    if (tier_compiled(candidate) && simd::cpu_supports(candidate)) {
      r.isa = candidate;
      return r;
    }
  }
  r.isa = Isa::kScalar;
  return r;
}

}  // namespace simd_detail

namespace {

using simd::Isa;

class FusedBackend final : public Backend {
 public:
  [[nodiscard]] const std::string& name() const noexcept override {
    static const std::string kName = "fused";
    return kName;
  }

  [[nodiscard]] std::string unavailable_reason() const override {
    return simd_detail::resolve_tier().reason;
  }

  [[nodiscard]] Tensor run_msgs(const ModelConfig& m, const Tensor& values,
                                const Tensor& probs, const Tensor& locs,
                                const MsgsSpec& spec) const override {
    // Resolved per call: getenv cost is noise next to the kernel, and
    // tests can flip tiers without rebuilding process state.
    const simd_detail::TierResolution res = simd_detail::resolve_tier();
    DEFA_CHECK(res.reason.empty(), "fused backend unavailable: " + res.reason);

    Tensor out({m.n_in(), m.d_model});
    if (spec.quantized) {
      const quant::QTensor qvalues(values, spec.act_bits);
      simd_detail::QuantArgs qa;
      qa.m = &m;
      qa.codes = qvalues.codes().data();
      qa.probs = probs.data().data();
      qa.locs = &locs;
      qa.mask = spec.point_mask;
      qa.out = out.data().data();
      qa.out_scale = qvalues.spec().scale;
      qa.frac_bits = spec.frac_bits;
      // Wide configs would overflow the vector tiers' int32 intermediates;
      // the scalar tier multiplies in int64 like the reference backend.
      const bool vector_safe =
          spec.act_bits + spec.frac_bits <= simd_detail::kMaxVectorQuantBits;
      switch (vector_safe ? res.isa : Isa::kScalar) {
        case Isa::kAvx2: simd_detail::run_quant_avx2(qa); break;
        case Isa::kNeon: simd_detail::run_quant_neon(qa); break;
        case Isa::kScalar: simd_detail::run_quant_scalar(qa); break;
      }
    } else {
      const std::vector<float> zero_row(static_cast<std::size_t>(m.d_head()), 0.0f);
      simd_detail::Fp32Args fa;
      fa.m = &m;
      fa.values = values.data().data();
      fa.probs = probs.data().data();
      fa.locs = &locs;
      fa.mask = spec.point_mask;
      fa.zero = zero_row.data();
      fa.out = out.data().data();
      // NEON needs no separate fp32 build: the portable one already
      // vectorizes with it on AArch64.
      if (res.isa == Isa::kAvx2) {
        simd_detail::run_fp32_avx2(fa);
      } else {
        simd_detail::run_fp32_portable(fa);
      }
    }
    return out;
  }
};

}  // namespace

namespace detail {
std::unique_ptr<Backend> make_fused_backend() { return std::make_unique<FusedBackend>(); }
}  // namespace detail

}  // namespace defa::kernels
