#pragma once

/// \file backend.h
/// `defa::kernels::Backend` — the pluggable compute-backend seam of the
/// functional model.
///
/// A backend implements one operator: the fused mask-aware MSGS +
/// aggregation kernel (multi-scale grid-sampling), the hot loop the paper
/// accelerates.  Dense GEMM and softmax are shared by every backend and
/// live in nn/ (nn::matmul, nn::linear, nn::softmax_lastdim).  Every layer
/// above (nn::msdeform_forward_ref, core::run_msgs, core::EncoderPipeline,
/// api::Engine and the serve/tools surfaces on top) selects a backend *by
/// name* through the fixed registry below, so swapping implementations
/// never touches the callers.
///
/// Two backends ship built in:
///  * `reference` — bit-identical to the historical scalar code paths
///    (the pre-refactor core/msgs loops).  The correctness anchor and the
///    process default.
///  * `fused` — the optimized CPU path: consumes a precomputed
///    `SamplingPlan` (level-major SoA bilinear corners + resolved
///    value-buffer offsets) and skips PAP-pruned points with one
///    predictable branch and zero arithmetic.  fp32 keeps a
///    compile-time-`d_head` register accumulator tile so the per-point
///    channel loop is a branchless, vectorizable gather; the INTn datapath
///    runs explicit AVX2 / NEON / scalar tiers chosen by runtime ISA
///    dispatch (src/common/simd.h, the `DEFA_SIMD` knob).
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

class SamplingPlan;

/// Per-call configuration of the fused MSGS + aggregation kernel.
struct MsgsSpec {
  /// Points pruned by PAP are skipped entirely (no BI, no aggregation).
  const prune::PointMask* point_mask = nullptr;
  /// Run the integer datapath: values/probs/fractions quantized to the
  /// given widths, BI in Horner form on codes, aggregation in fixed point.
  bool quantized = false;
  int act_bits = 12;   ///< value-code width
  int frac_bits = 12;  ///< t0/t1 and probability fraction width
  /// Optional precomputed sampling geometry for `locs`.  Backends that
  /// consume plans (fused) use it instead of re-deriving the bilinear
  /// corners; backends that don't (reference) ignore it.  Must have been
  /// built from exactly the `locs` tensor passed alongside.
  const SamplingPlan* plan = nullptr;
};

/// One implementation of the fused MSGS + aggregation kernel.
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// Does run_msgs consume `MsgsSpec::plan`?  Callers that cache plans
  /// (EncoderPipeline) skip building them for backends that don't.
  [[nodiscard]] virtual bool wants_plan() const noexcept { return false; }

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

/// Look up a backend; nullptr on an unknown name.
[[nodiscard]] const Backend* find_backend(const std::string& name) noexcept;

/// Look up a backend; throws defa::CheckError listing the known names on
/// an unknown one.
[[nodiscard]] const Backend& backend(const std::string& name);

/// All backend names, sorted.
[[nodiscard]] std::vector<std::string> backend_names();

/// The backend names as one comma-joined string, for error messages
/// ("fused, reference").
[[nodiscard]] std::string known_backends();

/// Name of the process-wide default backend: the `DEFA_BACKEND`
/// environment variable when set (and known), else "reference".
[[nodiscard]] std::string default_backend_name();

/// The process-wide default backend (see default_backend_name()).
[[nodiscard]] const Backend& default_backend();

/// `*backend` when non-null, else the process default — the one place
/// the "null means default" resolution idiom lives.
[[nodiscard]] const Backend& backend_or_default(const Backend* backend);

namespace detail {
/// Factories implemented by the built-in backend translation units.
[[nodiscard]] std::unique_ptr<Backend> make_reference_backend();
[[nodiscard]] std::unique_ptr<Backend> make_fused_backend();
}  // namespace detail

}  // namespace defa::kernels
