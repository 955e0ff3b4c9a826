#include "core/msgs.h"

namespace defa::core {

Tensor run_msgs(const ModelConfig& m, const Tensor& values, const Tensor& probs,
                const Tensor& locs, const MsgsOptions& options) {
  DEFA_CHECK(values.rank() == 2 && values.dim(0) == m.n_in() && values.dim(1) == m.d_model,
             "values must be (N_in, D)");
  DEFA_CHECK(probs.rank() == 3 && probs.dim(0) == m.n_in(), "probs must be (N, H, L*P)");
  DEFA_CHECK(locs.rank() == 5 && locs.dim(0) == m.n_in(), "locs must be (N, H, L, P, 2)");

  const kernels::Backend& backend =
      options.backend != nullptr ? *options.backend : kernels::production();
  kernels::MsgsSpec spec;
  spec.point_mask = options.point_mask;
  spec.quantized = options.quantized;
  spec.act_bits = options.act_bits;
  spec.frac_bits = options.frac_bits;
  return backend.run_msgs(m, values, probs, locs, spec);
}

}  // namespace defa::core
