// Cross-backend differential tests: the production `fused` kernel must be
// bit-identical to the `reference` oracle in fp32 and exactly equal on
// the INTn datapath — at the kernel level (run_msgs over the adversarial
// model x input x spec matrix of backend_differential.h), at the pipeline
// level (EncoderPipeline under every PruneConfig factory), and at the
// Engine level (served requests, batched execution, randomized fuzz
// requests, each against the oracle's run on a private pipeline).  Plus
// the satellites that ride on the harness: the >=512-channel register-tile
// cap regression and the fused kernel's INTn ISA dispatch/availability
// semantics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.h"
#include "api/request.h"
#include "backend_differential.h"
#include "common/simd.h"
#include "core/pipeline.h"
#include "kernels/backend.h"
#include "nn/msdeform.h"
#include "workload/scene.h"

namespace defa {
namespace {

using difftest::DiffInputs;
using difftest::DiffModel;
using difftest::ScopedEnv;

// ------------------------------------------------------ kernel-level matrix

TEST(KernelDifferential, Fused) {
  // Best tier this build and CPU offer (AVX2 / NEON / scalar).
  const ScopedEnv auto_tier("DEFA_SIMD", "auto");
  difftest::run_kernel_differential("fused");
}

TEST(KernelDifferential, FusedScalarTier) {
  // The portable INTn fallback must hold the same contract as the vector
  // tiers — this is what the CI scalar-fallback build (DEFA_KERNELS_SIMD
  // off) runs implicitly, proven here on every host.
  const ScopedEnv force("DEFA_SIMD", "scalar");
  difftest::run_kernel_differential("fused");
}

// ------------------------------------------------- fused INTn ISA dispatch

/// An ISA no current host supports alongside its own (x86 has no NEON,
/// ARM has no AVX2) — there is always one to force-fail with.
const char* unsupported_isa_name() {
  return simd::cpu_supports(simd::Isa::kAvx2) ? "neon" : "avx2";
}

TEST(SimdDispatch, ForcedUnsupportedIsaReportsUnavailable) {
  const ScopedEnv force("DEFA_SIMD", unsupported_isa_name());
  const kernels::Backend& bk = kernels::backend("fused");
  const std::string reason = bk.unavailable_reason();
  EXPECT_FALSE(reason.empty());
  EXPECT_NE(reason.find(unsupported_isa_name()), std::string::npos)
      << "reason should name the ISA: " << reason;
  // run_msgs must reject loudly, not silently degrade to another tier.
  const ModelConfig m = ModelConfig::tiny();
  const DiffInputs in = difftest::make_inputs(m, 5);
  EXPECT_THROW(
      (void)bk.run_msgs(m, in.values, in.probs, in.locs, kernels::MsgsSpec{}),
      CheckError);
}

TEST(SimdDispatch, UnknownValueReportsUnavailable) {
  const ScopedEnv force("DEFA_SIMD", "avx512-of-the-future");
  const kernels::Backend& bk = kernels::backend("fused");
  const std::string reason = bk.unavailable_reason();
  EXPECT_NE(reason.find("unknown DEFA_SIMD"), std::string::npos) << reason;
}

TEST(SimdDispatch, ScalarForceAlwaysAvailable) {
  const ScopedEnv force("DEFA_SIMD", "scalar");
  EXPECT_TRUE(kernels::backend("fused").unavailable_reason().empty());
}

TEST(SimdDispatch, AutoAlwaysAvailable) {
  const ScopedEnv force("DEFA_SIMD", nullptr);
  EXPECT_TRUE(kernels::backend("fused").unavailable_reason().empty());
  const ScopedEnv force2("DEFA_SIMD", "auto");
  EXPECT_TRUE(kernels::backend("fused").unavailable_reason().empty());
}

TEST(SimdDispatch, ReferenceIgnoresForcedIsa) {
  const ScopedEnv force("DEFA_SIMD", unsupported_isa_name());
  EXPECT_TRUE(kernels::backend("reference").unavailable_reason().empty());
}

// ------------------------------------------- d_head register-tile cap (512)

// The fused backend specializes register tiles for d_head 8/16/32/64 and
// the generic path handles the rest; heads at and just above 512 channels
// must run correctly on every backend — not silently corrupt past a tile
// cap.  The dense fp32 case is additionally pinned to the independent
// nn::msgs_aggregate_ref golden model, so this test cannot be fooled by a
// shared bug in the planned backends.
TEST(WideHeadRegression, AtAndAboveRegisterTileCap) {
  for (const DiffModel& dm : difftest::wide_head_models()) {
    const DiffInputs in = difftest::make_inputs(dm.m, 11);
    const Tensor golden = nn::msgs_aggregate_ref(dm.m, in.values, in.probs, in.locs);
    kernels::MsgsSpec dense;
    kernels::MsgsSpec quant;
    quant.quantized = true;
    for (const std::string& name : kernels::backend_names()) {
      const kernels::Backend& bk = kernels::backend(name);
      if (!bk.unavailable_reason().empty()) continue;
      ASSERT_TRUE(difftest::expect_bits_equal(
          golden, bk.run_msgs(dm.m, in.values, in.probs, in.locs, dense),
          "[wide-head dense model=" + dm.label + " backend=" + name + "]"));
    }
    const Tensor qref = kernels::backend("reference")
                            .run_msgs(dm.m, in.values, in.probs, in.locs, quant);
    for (const std::string& name : kernels::backend_names()) {
      const kernels::Backend& bk = kernels::backend(name);
      if (!bk.unavailable_reason().empty()) continue;
      ASSERT_TRUE(difftest::expect_bits_equal(
          qref, bk.run_msgs(dm.m, in.values, in.probs, in.locs, quant),
          "[wide-head int12 model=" + dm.label + " backend=" + name + "]"));
    }
  }
}

// --------------------------------------------------- pipeline-level matrix

void expect_results_equal(const core::EncoderResult& ref,
                          const core::EncoderResult& got, const std::string& what) {
  EXPECT_EQ(ref.final_nrmse, got.final_nrmse) << what;
  EXPECT_EQ(ref.point_reduction(), got.point_reduction()) << what;
  EXPECT_EQ(ref.pixel_reduction(), got.pixel_reduction()) << what;
  EXPECT_EQ(ref.total_actual.total(), got.total_actual.total()) << what;
  ASSERT_EQ(ref.layers.size(), got.layers.size()) << what;
  for (std::size_t i = 0; i < ref.layers.size(); ++i) {
    EXPECT_EQ(ref.layers[i].out_nrmse, got.layers[i].out_nrmse)
        << what << " layer " << i;
    EXPECT_EQ(ref.layers[i].kept_points, got.layers[i].kept_points)
        << what << " layer " << i;
  }
}

TEST(PipelineDifferential, AllConfigsAllBackends) {
  const ModelConfig m = ModelConfig::tiny();
  workload::SceneParams sp;
  sp.seed = m.seed;
  const workload::SceneWorkload wl(m, sp);
  const core::EncoderPipeline pipeline(wl);
  const std::vector<core::PruneConfig> configs = {
      core::PruneConfig::baseline(),      core::PruneConfig::defa_default(m),
      core::PruneConfig::only_fwp(),      core::PruneConfig::only_pap(),
      core::PruneConfig::only_narrow(m),  core::PruneConfig::only_quant(12),
      core::PruneConfig::only_quant(8),
  };
  const kernels::Backend& ref = kernels::backend("reference");
  for (const core::PruneConfig& cfg : configs) {
    const core::EncoderResult expect = pipeline.run(cfg, &ref);
    for (const std::string& name : kernels::backend_names()) {
      const kernels::Backend& bk = kernels::backend(name);
      if (!bk.unavailable_reason().empty()) continue;
      expect_results_equal(expect, pipeline.run(cfg, &bk),
                           "[pipeline config=" + cfg.label + " backend=" + name + "]");
    }
  }
}

// ----------------------------------------------------- engine-level matrix

/// The reference oracle's answer to `req`: a private pipeline whose dense
/// reference trajectory is built by `reference` too, so nothing the
/// Engine cached on the production kernel leaks into the expectation.
core::EncoderResult oracle_run(const api::EvalRequest& req) {
  const ModelConfig m = req.resolve_model();
  const workload::SceneWorkload wl(m, req.resolve_scene(m));
  const core::EncoderPipeline pipeline(wl);
  return pipeline.run(req.resolve_prune(m), &kernels::backend("reference"));
}

/// Does the Engine's functional answer equal the oracle's run?
bool matches_oracle(const api::FunctionalStats& got, const core::EncoderResult& ref) {
  if (got.final_nrmse != ref.final_nrmse ||
      got.point_reduction != ref.point_reduction() ||
      got.pixel_reduction != ref.pixel_reduction() ||
      got.layers.size() != ref.layers.size()) {
    return false;
  }
  for (std::size_t i = 0; i < ref.layers.size(); ++i) {
    if (got.layers[i].out_nrmse != ref.layers[i].out_nrmse ||
        got.layers[i].kept_points != static_cast<double>(ref.layers[i].kept_points)) {
      return false;
    }
  }
  return true;
}

TEST(EngineDifferential, ServedRequestMatchesOracle) {
  api::Engine engine;
  api::EvalRequest req;
  req.preset = "tiny";
  req.outputs = api::kFunctional;
  const api::EvalResult got = engine.run(req);
  ASSERT_TRUE(got.functional.has_value());
  EXPECT_TRUE(matches_oracle(*got.functional, oracle_run(req)))
      << "[engine] functional stats diverge from the reference oracle";
}

// -------------------------------------------------------------- fuzz sweep

core::PruneConfig random_prune(const ModelConfig& m, Rng& rng) {
  // Start from defa_default when narrowing (it carries valid RangeSpecs),
  // else from baseline, then randomize each technique independently.
  const bool narrow = rng.bernoulli(0.4);
  core::PruneConfig cfg =
      narrow ? core::PruneConfig::defa_default(m) : core::PruneConfig::baseline();
  cfg.narrow = narrow;
  cfg.pap = rng.bernoulli(0.6);
  cfg.pap_tau = rng.uniform(0.01, 0.12);
  cfg.fwp = rng.bernoulli(0.5);
  cfg.fwp_k = rng.uniform(0.4, 0.9);
  cfg.quantize = rng.bernoulli(0.6);
  cfg.bits = rng.bernoulli(0.5) ? 12 : 8;
  cfg.label = "fuzz";
  return cfg;
}

api::EvalRequest random_request(Rng& rng) {
  api::EvalRequest req;
  ModelConfig m;
  if (rng.bernoulli(0.5)) {
    req.preset = "tiny";
    m = ModelConfig::tiny();
  } else {
    const int dh = 4 << rng.randint(0, 2);  // 4 / 8 / 16
    const int heads = static_cast<int>(rng.randint(1, 2));
    const int points = static_cast<int>(rng.randint(1, 3));
    const int w0 = static_cast<int>(rng.randint(4, 8));
    std::vector<LevelShape> levels = {{w0, w0 + 1}, {(w0 + 1) / 2, w0 / 2 + 1}};
    if (rng.bernoulli(0.5)) levels.push_back({2, 2});
    m = difftest::make_model("fuzz", dh * heads, heads, points, std::move(levels));
    m.n_layers = 2;
    req.model = m;
  }
  workload::SceneParams sp;
  sp.seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 20));
  sp.n_objects = static_cast<int>(rng.randint(2, 18));
  req.scene = sp;
  req.prune = random_prune(m, rng);
  req.outputs = api::kFunctional;
  return req;
}

// Seeded randomized EvalRequests: randomized model/scene/prune pulled
// through the full Engine stack must produce exactly the oracle's
// functional results.  A failure prints a reproducer (master seed + case
// index + request JSON) sufficient to replay the case by hand through
// defa_cli or a unit test.
TEST(FuzzDifferential, RandomRequestsMatchOracle) {
  constexpr std::uint64_t kMasterSeed = 20240817;
  constexpr int kCases = 10;
  Rng rng(kMasterSeed);
  api::Engine engine;
  for (int i = 0; i < kCases; ++i) {
    const api::EvalRequest req = random_request(rng);
    const api::EvalResult got = engine.run(req);
    ASSERT_TRUE(got.functional.has_value());
    if (!matches_oracle(*got.functional, oracle_run(req))) {
      ADD_FAILURE() << "[fuzz seed=" << kMasterSeed << " case=" << i
                    << "] functional stats diverge from reference; request: "
                    << api::to_json(req).dump();
      return;
    }
  }
}

// ----------------------------------------------------- loaded-pool batch

// run_batch evaluates concurrently on the same pool the fused kernel's
// query loops execute on — nested parallelism plus cross-request
// contention.  Batched results must equal the sequential oracle exactly.
TEST(EngineDifferential, LoadedPoolBatchMatchesSequentialReference) {
  api::Engine engine(api::Engine::Options{.memoize_results = false});
  std::vector<api::EvalRequest> batch;
  for (int i = 0; i < 6; ++i) {
    api::EvalRequest req;
    req.preset = "tiny";
    workload::SceneParams sp;
    sp.seed = static_cast<std::uint64_t>(1 + i % 3);  // repeated keys contend
    req.scene = sp;
    req.outputs = api::kFunctional;
    batch.push_back(req);
  }
  const std::vector<api::EvalResult> got = engine.run_batch(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(got[i].functional.has_value());
    EXPECT_TRUE(matches_oracle(*got[i].functional, oracle_run(batch[i])))
        << "[fused batch request " << i << "] diverges from sequential reference";
  }
}

}  // namespace
}  // namespace defa
