#pragma once

/// \file msgs.h
/// Production MSGS + aggregation entry point of the functional model: one
/// code path that supports point masks (PAP), pruned value rows (FWP pixels
/// are zeroed before projection) and the INTn hardware datapath (Horner BI
/// on integer codes, Sec. 4.3).
///
/// The numeric work itself lives in a `kernels::Backend`
/// (src/kernels/backend.h): `run_msgs` validates shapes and dispatches to
/// the production kernel (`fused`), or to the backend the options name —
/// how tests run the `reference` oracle.  The unmasked fp32 configuration
/// reproduces nn::msgs_aggregate_ref bit-for-bit in fp32 on every backend
/// (covered by tests/test_kernels.cpp).

#include "config/model_config.h"
#include "kernels/backend.h"
#include "prune/masks.h"
#include "tensor/tensor.h"

namespace defa::core {

struct MsgsOptions {
  /// Points pruned by PAP are skipped entirely (no BI, no aggregation).
  const prune::PointMask* point_mask = nullptr;
  /// Run the integer datapath: values/probs/fractions quantized to the
  /// given widths, BI in Horner form on codes, aggregation in fixed point.
  bool quantized = false;
  int act_bits = 12;   ///< value-code width
  int frac_bits = 12;  ///< t0/t1 and probability fraction width
  /// Compute backend; nullptr selects kernels::production().
  const kernels::Backend* backend = nullptr;
};

/// Grid-sample `values` (N_in x D) at `locs` (N, H, L, P, 2) and aggregate
/// with `probs` (N, H, L*P).  Returns the (N, D) head-concatenated output.
[[nodiscard]] Tensor run_msgs(const ModelConfig& m, const Tensor& values,
                              const Tensor& probs, const Tensor& locs,
                              const MsgsOptions& options);

}  // namespace defa::core
