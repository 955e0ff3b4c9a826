#pragma once

/// \file backend.h
/// `defa::kernels::Backend` — the pluggable compute-backend seam of the
/// functional model.
///
/// A backend implements one operator: the fused mask-aware MSGS +
/// aggregation kernel (multi-scale grid-sampling), the hot loop the paper
/// accelerates.  Dense GEMM and softmax live in nn/ (nn::matmul,
/// nn::linear, nn::softmax_lastdim).
///
/// Two backends ship built in, in a fixed registry:
///  * `fused` — the one kernel production code runs (`production()`):
///    per query tile it resolves the bilinear corners into SoA scratch
///    (value offsets + fractions) and aggregates the tile right away,
///    skipping PAP-pruned points with one predictable branch and zero
///    arithmetic.  fp32 keeps a compile-time-`d_head` register
///    accumulator tile so the per-point channel loop is a branchless,
///    vectorizable gather; the INTn datapath runs explicit AVX2 / NEON /
///    scalar tiers chosen by runtime ISA dispatch (src/common/simd.h, the
///    `DEFA_SIMD` knob).
///  * `reference` — bit-identical to the historical scalar code paths
///    (the pre-refactor core/msgs loops).  The test oracle: tests reach it
///    through `backend("reference")` and pass it to the layers below
///    (core::run_msgs, core::EncoderPipeline::run,
///    nn::msdeform_forward_ref), whose `const Backend*` parameter
///    defaults to `production()` when null.
/// Both are bit-identical in fp32 and exactly equal on the INTn datapath
/// (enforced by tests/test_kernels.cpp and the differential harness in
/// tests/test_backend_differential.cpp).
///
/// The contract every backend must honor (docs/KERNELS.md):
///  * deterministic — results are a pure function of the inputs;
///  * thread-compatible — `const` methods may run concurrently;
///  * masking semantics — a PAP-masked point contributes nothing (no BI,
///    no aggregation), exactly like the reference `continue`.

#include <memory>
#include <string>
#include <vector>

#include "config/model_config.h"
#include "prune/masks.h"
#include "tensor/tensor.h"

namespace defa::kernels {

/// Per-call configuration of the fused MSGS + aggregation kernel.
struct MsgsSpec {
  /// Points pruned by PAP are skipped entirely (no BI, no aggregation).
  const prune::PointMask* point_mask = nullptr;
  /// Run the integer datapath: values/probs/fractions quantized to the
  /// given widths, BI in Horner form on codes, aggregation in fixed point.
  bool quantized = false;
  int act_bits = 12;   ///< value-code width
  int frac_bits = 12;  ///< t0/t1 and probability fraction width
};

/// One implementation of the fused MSGS + aggregation kernel.
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// Empty when the backend can run on this host right now; otherwise a
  /// human-readable reason it cannot (e.g. "DEFA_SIMD=avx2 but the CPU
  /// lacks AVX2").  The registry lists what the binary *contains*
  /// regardless, so measurement tools (the microbench backend matrix) skip
  /// unavailable backends with the reason instead of erroring, and
  /// `run_msgs` rejects them with the same message.
  [[nodiscard]] virtual std::string unavailable_reason() const { return {}; }

  /// Fused mask-aware MSGS + aggregation: grid-sample `values` (N_in x D)
  /// at `locs` (N, H, L, P, 2), weight by `probs` (N, H, L*P), return the
  /// (N, D) head-concatenated output.  Shapes are validated by the caller
  /// (core::run_msgs).
  [[nodiscard]] virtual Tensor run_msgs(const ModelConfig& m, const Tensor& values,
                                        const Tensor& probs, const Tensor& locs,
                                        const MsgsSpec& spec) const = 0;
};

// ------------------------------------------------------------------ registry

/// Look up a backend; throws defa::CheckError listing the known names on
/// an unknown one.
[[nodiscard]] const Backend& backend(const std::string& name);

/// All backend names, sorted.
[[nodiscard]] std::vector<std::string> backend_names();

/// The kernel production code runs: `fused`.
[[nodiscard]] const Backend& production();

namespace detail {
/// Factories implemented by the built-in backend translation units.
[[nodiscard]] std::unique_ptr<Backend> make_reference_backend();
[[nodiscard]] std::unique_ptr<Backend> make_fused_backend();
}  // namespace detail

}  // namespace defa::kernels
