#pragma once

/// \file fused_fp32.h
/// The `fused` backend's fp32 register-tile loop, kept in a header so each
/// ISA tier compiles the same source with its own flags: fused_backend.cpp
/// builds it at the portable ISA floor, simd_avx2.cpp with -mavx2.  The
/// unnamed namespace gives every including translation unit its own copy,
/// so the two builds never merge at link time.  Internal to src/kernels/.
///
/// Bit-exactness: the compiler vectorizes only the channel loop, whose
/// accumulator chains are independent, and the build forbids FMA
/// contraction (-ffp-contract=off), so both builds run exactly the scalar
/// chain of nn::bi_horner per channel.

#include <cstdint>

#include "kernels/simd_kernels.h"
#include "nn/bilinear.h"

namespace defa::kernels::simd_detail {
namespace {

/// fp32 aggregation loop body.  DH > 0 is a compile-time head width (the
/// common 8/16/32/64 cases): the channel loops fully unroll with no
/// prologue, and the per-(query, head) accumulator tile lives in
/// registers across the whole point loop, so a point costs four gathers
/// and arithmetic — no output load/store per point.  DH == 0 handles any
/// runtime width by accumulating straight into the (zero-initialized)
/// output row — same per-channel operation chain, one load/store more
/// per point.
template <int DH>
void run_fp32_impl(const Fp32Args& a) {
  const ModelConfig& m = *a.m;
  const int dh = DH > 0 ? DH : m.d_head();
  const int lp = m.points_per_head();
  const float* zero = a.zero;

  for_each_tile(m, *a.locs, a.mask, [&](const TileGeometry& g, std::int64_t begin,
                                        std::int64_t end) {
    const std::int32_t* offs = g.offsets();
    const float* t0s = g.t0();
    const float* t1s = g.t1();
    for (std::int64_t q = begin; q < end; ++q) {
      for (int h = 0; h < m.n_heads; ++h) {
        const float* prow = a.probs + static_cast<std::size_t>((q * m.n_heads + h) * lp);
        float* head_out = a.out + static_cast<std::size_t>(q * m.d_model + h * dh);
        float acc[DH > 0 ? DH : 1] = {};
        for (int l = 0; l < m.n_levels; ++l) {
          const std::int64_t base = g.slot(q, h, l);
          for (int p = 0; p < m.n_points; ++p) {
            if (a.mask != nullptr && !a.mask->keep(q, h, l, p)) continue;
            const std::int64_t s = (base + p) * 4;
            const float* r0 = offs[s + 0] >= 0 ? a.values + offs[s + 0] : zero;
            const float* r1 = offs[s + 1] >= 0 ? a.values + offs[s + 1] : zero;
            const float* r2 = offs[s + 2] >= 0 ? a.values + offs[s + 2] : zero;
            const float* r3 = offs[s + 3] >= 0 ? a.values + offs[s + 3] : zero;
            const float t0 = t0s[base + p];
            const float t1 = t1s[base + p];
            const float w = prow[l * m.n_points + p];
            if constexpr (DH > 0) {
              for (int c = 0; c < DH; ++c) {
                acc[c] += w * nn::bi_horner(r0[c], r1[c], r2[c], r3[c], t0, t1);
              }
            } else {
              for (int c = 0; c < dh; ++c) {
                head_out[c] += w * nn::bi_horner(r0[c], r1[c], r2[c], r3[c], t0, t1);
              }
            }
          }
        }
        if constexpr (DH > 0) {
          for (int c = 0; c < DH; ++c) head_out[c] = acc[c];
        }
      }
    }
  });
}

/// Dispatch on the head width to the matching register-tile instance.
inline void run_fp32_tiles(const Fp32Args& a) {
  switch (a.m->d_head()) {
    case 8:  run_fp32_impl<8>(a); break;
    case 16: run_fp32_impl<16>(a); break;
    case 32: run_fp32_impl<32>(a); break;
    case 64: run_fp32_impl<64>(a); break;
    default: run_fp32_impl<0>(a); break;
  }
}

}  // namespace
}  // namespace defa::kernels::simd_detail
