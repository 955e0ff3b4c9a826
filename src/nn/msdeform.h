#pragma once

/// \file msdeform.h
/// Reference fp32 Multi-Scale Deformable Attention (Eq. 1 of the paper).
///
/// The encoder variant is modeled: every multi-scale token is a query, its
/// reference point is its own (normalized) pixel center, and each
/// (query, head) samples N_l x N_p points across all pyramid levels.
///
/// Two entry paths exist:
///  * `fields_from_weights` — textbook path: logits = Q W_A, offsets = Q W_S
///    (used by unit tests and the quickstart example);
///  * externally-supplied fields (the scene-driven workload generator) — the
///    path the experiments use, see DESIGN.md §4 substitution #1.
/// Both converge on `msgs_aggregate_ref`, the dense fp32 golden aggregate.

#include "config/model_config.h"
#include "kernels/backend.h"
#include "tensor/tensor.h"

namespace defa::nn {

/// Learnable parameters of one MSDeformAttn block (Eq. 1).
struct MsdaWeights {
  Tensor w_attn;   ///< (D, H*L*P)  attention logits projection W_A
  Tensor b_attn;   ///< (H*L*P)
  Tensor w_samp;   ///< (D, H*L*P*2) sampling offset projection W_S
  Tensor b_samp;   ///< (H*L*P*2)
  Tensor w_value;  ///< (D, D)      value projection W_V
  Tensor b_value;  ///< (D)

  /// Random initialization with Deformable-DETR-style ring bias on the
  /// offset projection (points start on a ring around the reference).
  [[nodiscard]] static MsdaWeights random(const ModelConfig& m, Rng& rng);
};

/// Intermediate fields consumed by grid-sampling + aggregation.
struct MsdaFields {
  Tensor logits;  ///< (N, H, L*P) pre-softmax attention logits
  Tensor locs;    ///< (N, H, L, P, 2) sampling locations, (x, y) in pixels
                  ///< of each point's own target level
};

/// Normalized reference points of the encoder queries: token q at level l,
/// pixel (y,x) has ref ((x+0.5)/W_l, (y+0.5)/H_l).  Shape (N, 2), (x, y).
[[nodiscard]] Tensor reference_points(const ModelConfig& m);

/// Convert normalized reference + per-level pixel offsets into absolute
/// per-level pixel sampling locations:
///   loc = ref_norm * (W_l, H_l) - 0.5 + offset_px.
[[nodiscard]] Tensor locs_from_offsets(const ModelConfig& m, const Tensor& ref_norm,
                                       const Tensor& offsets_px);

/// Textbook field computation from weights: logits = X W_A + b, offsets =
/// X W_S + b (offsets interpreted as pixels of each target level).
[[nodiscard]] MsdaFields fields_from_weights(const ModelConfig& m, const Tensor& x,
                                             const Tensor& ref_norm,
                                             const MsdaWeights& weights);

/// Dense fp32 MSGS + aggregation (golden reference, no pruning):
///   out(q, h*Dh + c) = sum_{l,p} prob(q,h,lp) * BI(values, loc(q,h,l,p))_c
[[nodiscard]] Tensor msgs_aggregate_ref(const ModelConfig& m, const Tensor& values,
                                        const Tensor& probs, const Tensor& locs);

/// Full Eq. 1 forward (softmax + value projection + MSGS + concat) from
/// weights.  Returns the (N, D) attention output.  The linear/softmax/MSGS
/// work runs on `backend` (nullptr selects kernels::production()); every
/// registered backend produces bit-identical fp32 results.
[[nodiscard]] Tensor msdeform_forward_ref(const ModelConfig& m, const Tensor& x,
                                          const Tensor& ref_norm,
                                          const MsdaWeights& weights,
                                          const kernels::Backend* backend = nullptr);

}  // namespace defa::nn
