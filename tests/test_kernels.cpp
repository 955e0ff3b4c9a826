// Tests for the compute-backend layer (src/kernels/): registry behavior,
// the backend-equivalence suite (the production `fused` kernel vs the
// `reference` oracle must be bit-identical in fp32 and exactly equal on
// the INTn datapath, under every PruneConfig shape), and the fused
// kernel's input checks.

#include <gtest/gtest.h>

#include "api/request.h"
#include "core/msgs.h"
#include "core/pipeline.h"
#include "kernels/backend.h"
#include "nn/msdeform.h"
#include "nn/softmax.h"
#include "prune/pap.h"
#include "workload/scene.h"

namespace defa {
namespace {

using core::EncoderPipeline;
using core::EncoderResult;
using core::MsgsOptions;
using core::PruneConfig;

struct Fixture {
  ModelConfig m = ModelConfig::tiny();
  workload::SceneWorkload wl;
  Tensor values;
  Tensor probs;
  Tensor locs;

  Fixture() : wl(make_wl()) {
    Rng rng(17);
    values = Tensor::randn({m.n_in(), m.d_model}, rng);
    const nn::MsdaFields f = wl.layer_fields(0);
    probs = nn::softmax_lastdim(f.logits);
    locs = f.locs;
  }

  workload::SceneWorkload make_wl() {
    workload::SceneParams p;
    p.seed = m.seed;
    return workload::SceneWorkload(m, p);
  }
};

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a.at_flat(i), b.at_flat(i)) << what << " diverges at flat index " << i;
  }
}

// ----------------------------------------------------------------- registry

TEST(KernelRegistry, BuiltinBackendsRegistered) {
  const std::vector<std::string> names = kernels::backend_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "reference"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "fused"), names.end());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// The registry is a fixed table of exactly two backends: the production
// kernel and the reference oracle.  Names of removed backends fail the
// lookup, listing the two.
TEST(KernelRegistry, ExactlyReferenceAndFused) {
  EXPECT_EQ(kernels::backend_names(), (std::vector<std::string>{"fused", "reference"}));
  for (const char* removed : {"simd", "tiled", "quill"}) {
    try {
      (void)kernels::backend(removed);
      ADD_FAILURE() << "lookup of '" << removed << "' succeeded";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("(known: fused, reference)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(KernelRegistry, LookupAndProductionKernel) {
  EXPECT_EQ(kernels::backend("fused").name(), "fused");
  EXPECT_EQ(kernels::backend("reference").name(), "reference");
  EXPECT_EQ(&kernels::production(), &kernels::backend("fused"));
  EXPECT_EQ(api::EvalRequest{}.resolve_backend(), "fused");
  EXPECT_THROW((void)kernels::backend("no_such_backend"), CheckError);
}

// ------------------------------------------------------- kernel equivalence

TEST(BackendEquivalence, DenseFp32BitIdentical) {
  Fixture fx;
  const kernels::Backend& ref = kernels::backend("reference");
  const kernels::Backend& fused = kernels::backend("fused");
  const kernels::MsgsSpec spec;
  expect_bitwise_equal(ref.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                       fused.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                       "dense fp32");
}

TEST(BackendEquivalence, PapMaskedFp32BitIdentical) {
  Fixture fx;
  prune::PapStats stats;
  const prune::PointMask mask = prune::pap_prune(fx.m, fx.probs, 0.03, &stats);
  ASSERT_GT(stats.fraction_pruned(), 0.0);  // the mask must actually prune
  kernels::MsgsSpec spec;
  spec.point_mask = &mask;
  const kernels::Backend& ref = kernels::backend("reference");
  const kernels::Backend& fused = kernels::backend("fused");
  expect_bitwise_equal(ref.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                       fused.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                       "PAP-masked fp32");
}

TEST(BackendEquivalence, QuantizedExactlyEqualAcrossWidths) {
  Fixture fx;
  const kernels::Backend& ref = kernels::backend("reference");
  const kernels::Backend& fused = kernels::backend("fused");
  for (const int bits : {8, 10, 12, 14}) {
    kernels::MsgsSpec spec;
    spec.quantized = true;
    spec.act_bits = bits;
    spec.frac_bits = bits;
    expect_bitwise_equal(ref.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                         fused.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                         ("INT" + std::to_string(bits)).c_str());
  }
}

TEST(BackendEquivalence, MaskedQuantizedExactlyEqual) {
  Fixture fx;
  prune::PapStats stats;
  const prune::PointMask mask = prune::pap_prune(fx.m, fx.probs, 0.03, &stats);
  kernels::MsgsSpec spec;
  spec.point_mask = &mask;
  spec.quantized = true;
  const kernels::Backend& ref = kernels::backend("reference");
  const kernels::Backend& fused = kernels::backend("fused");
  expect_bitwise_equal(ref.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                       fused.run_msgs(fx.m, fx.values, fx.probs, fx.locs, spec),
                       "PAP-masked INT12");
}

TEST(BackendEquivalence, MsdeformForwardBitIdentical) {
  const ModelConfig m = ModelConfig::tiny();
  Rng rng(23);
  const nn::MsdaWeights w = nn::MsdaWeights::random(m, rng);
  const Tensor x = Tensor::randn({m.n_in(), m.d_model}, rng);
  const Tensor ref_norm = nn::reference_points(m);
  expect_bitwise_equal(
      nn::msdeform_forward_ref(m, x, ref_norm, w, &kernels::backend("reference")),
      nn::msdeform_forward_ref(m, x, ref_norm, w, &kernels::backend("fused")),
      "msdeform forward");
}

// ---------------------------------------------------- pipeline equivalence

/// Every PruneConfig shape the experiments use, on the tiny model.
std::vector<PruneConfig> all_prune_configs(const ModelConfig& m) {
  return {PruneConfig::baseline(),    PruneConfig::defa_default(m),
          PruneConfig::only_fwp(),    PruneConfig::only_pap(),
          PruneConfig::only_narrow(m), PruneConfig::only_quant(12),
          PruneConfig::only_quant(8)};
}

TEST(BackendEquivalence, PipelineRunsIdenticalUnderEveryPruneConfig) {
  const ModelConfig m = ModelConfig::tiny();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const EncoderPipeline pipe(wl);
  const kernels::Backend& ref = kernels::backend("reference");
  const kernels::Backend& fused = kernels::backend("fused");
  for (const PruneConfig& cfg : all_prune_configs(m)) {
    const EncoderResult a = pipe.run(cfg, &ref);
    const EncoderResult b = pipe.run(cfg, &fused);
    ASSERT_EQ(a.layers.size(), b.layers.size()) << cfg.label;
    EXPECT_EQ(a.final_nrmse, b.final_nrmse) << cfg.label;
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
      EXPECT_EQ(a.layers[i].out_nrmse, b.layers[i].out_nrmse)
          << cfg.label << " layer " << i;
      EXPECT_EQ(a.layers[i].kept_points, b.layers[i].kept_points)
          << cfg.label << " layer " << i;
      EXPECT_EQ(a.layers[i].kept_pixels, b.layers[i].kept_pixels)
          << cfg.label << " layer " << i;
    }
  }
}

// ------------------------------------------------------------ input checks

TEST(FusedKernel, RejectsWrongLocsShape) {
  Fixture fx;
  const Tensor bad_locs({fx.m.n_in(), fx.m.n_heads, fx.m.n_levels, fx.m.n_points, 3});
  EXPECT_THROW((void)kernels::backend("fused").run_msgs(fx.m, fx.values, fx.probs,
                                                        bad_locs, kernels::MsgsSpec{}),
               CheckError);
}

}  // namespace
}  // namespace defa
