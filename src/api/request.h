#pragma once

/// \file request.h
/// The Engine's request/response contract.
///
/// Callers describe *what* to evaluate (a model preset or a custom
/// ModelConfig, the synthetic scene, the algorithm configuration, optional
/// hardware overrides) and *which* outputs they want via an OutputMask;
/// they get back an `EvalResult` whose sections mirror the mask.  Both
/// sides serialize to JSON (result_io.h), and all value types compare with
/// `==` so batched and sequential evaluations can be checked for
/// bit-identical equality.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/result_io.h"
#include "config/hw_config.h"
#include "config/model_config.h"
#include "core/pipeline.h"
#include "workload/scene.h"

namespace defa::api {

// ---------------------------------------------------------------- OutputMask

/// Bitmask of result sections a request asks for.
enum Output : unsigned {
  kFunctional = 1u << 0,  ///< pipeline run: reductions, NRMSE, per-layer stats
  kLatency = 1u << 1,     ///< cycle-accurate simulation of the accelerator
  kEnergy = 1u << 2,      ///< energy/area breakdown + Table-1-style summary
  kAccuracy = 1u << 3,    ///< calibrated AP proxy for the enabled techniques
};
using OutputMask = unsigned;

inline constexpr OutputMask kAllOutputs = kFunctional | kLatency | kEnergy | kAccuracy;

/// Registry key for every known output bit, in bit order.
[[nodiscard]] const std::vector<std::pair<std::string, Output>>& output_names();

// ---------------------------------------------------------------- EvalRequest

/// One unit of work for the Engine.
struct EvalRequest {
  /// Model preset name ("deformable_detr", "dn_detr", "dino", "small",
  /// "tiny") — or empty when `model` supplies a custom configuration.
  /// Exactly one of {preset, model} must be set.
  std::string preset;
  std::optional<ModelConfig> model;

  /// Scene-generator knobs; default: SceneParams with the model's seed
  /// (the same scene every seed experiment uses).
  std::optional<workload::SceneParams> scene;

  /// Algorithm configuration; default: PruneConfig::defa_default(model).
  std::optional<core::PruneConfig> prune;

  /// Hardware configuration for kLatency/kEnergy; default:
  /// HwConfig::make_default(model).
  std::optional<HwConfig> hw;

  OutputMask outputs = kFunctional;

  /// Known preset names, in declaration order.
  [[nodiscard]] static const std::vector<std::string>& presets();

  /// The request's effective model.  Throws defa::CheckError on an unknown
  /// preset or an inconsistent preset/model combination.
  [[nodiscard]] ModelConfig resolve_model() const;
  /// The request's effective scene parameters.
  [[nodiscard]] workload::SceneParams resolve_scene(const ModelConfig& m) const;
  /// The request's effective algorithm configuration.
  [[nodiscard]] core::PruneConfig resolve_prune(const ModelConfig& m) const;
  /// The request's effective hardware configuration.
  [[nodiscard]] HwConfig resolve_hw(const ModelConfig& m) const;
  /// Name of the MSGS kernel that evaluates every request: always the
  /// production kernel, "fused".
  [[nodiscard]] std::string resolve_backend() const;

  /// Full validation; throws defa::CheckError with a reason on any
  /// malformed field.  Called by Engine::run before any work starts, and
  /// allocates nothing: a model whose value buffer (n_in x d_model) the
  /// `fused` kernel cannot index with int32 offsets is rejected here.
  void validate() const;

  /// Stable identity of the workload this request evaluates (model +
  /// scene), used as the Engine's context-cache key.
  [[nodiscard]] std::string workload_key() const;
  /// Stable identity of the whole request (workload + prune + hw +
  /// outputs), used for result memoization.
  [[nodiscard]] std::string request_key() const;
};

// ----------------------------------------------------------------- EvalResult

/// Per-block functional statistics (mirrors core::LayerRunStats).
struct LayerFunctionalRow {
  int layer = 0;
  double pap_pruned_frac = 0;
  double fwp_mask_out_frac = 0;
  double pixels_pruned_frac = 0;
  double clamped_frac = 0;
  double flops_saved_frac = 0;
  double out_nrmse = 0;
  double total_points = 0, kept_points = 0;
  double total_pixels = 0, kept_pixels = 0;
  friend bool operator==(const LayerFunctionalRow&, const LayerFunctionalRow&) = default;
};

struct FunctionalStats {
  std::string config_label;
  double point_reduction = 0;
  double pixel_reduction = 0;
  double flop_reduction = 0;
  double final_nrmse = 0;
  double dense_gflops = 0;
  double actual_gflops = 0;
  std::vector<LayerFunctionalRow> layers;
  friend bool operator==(const FunctionalStats&, const FunctionalStats&) = default;
};

/// One dataflow phase's activity (mirrors arch::PhaseStats).
struct PhaseRow {
  std::string name;
  double cycles = 0, stall_cycles = 0, macs = 0;
  double sram_read_bytes = 0, sram_write_bytes = 0;
  double dram_read_bytes = 0, dram_write_bytes = 0;
  friend bool operator==(const PhaseRow&, const PhaseRow&) = default;
};

struct LatencyStats {
  double wall_cycles = 0;
  double time_ms = 0;
  double effective_gops = 0;
  double msgs_groups = 0;
  double msgs_conflict_groups = 0;
  double msgs_points_per_cycle = 0;
  /// Per-phase rows of a representative steady-state block (block 1 when
  /// the encoder has more than one block, else block 0).
  int steady_state_layer = 0;
  std::vector<PhaseRow> steady_phases;
  /// Per-phase totals across all blocks.
  std::vector<PhaseRow> total_phases;
  friend bool operator==(const LatencyStats&, const LatencyStats&) = default;
};

struct SramMacroRow {
  std::string name;
  double capacity_bytes = 0;
  double count = 0;
  double word_bytes = 0;
  friend bool operator==(const SramMacroRow&, const SramMacroRow&) = default;
};

struct EnergyStats {
  double pe_pj = 0, softmax_pj = 0, sram_pj = 0, other_logic_pj = 0, dram_pj = 0;
  double area_sram_mm2 = 0, area_pe_softmax_mm2 = 0, area_others_mm2 = 0;
  double chip_power_mw = 0, system_power_mw = 0, gops_per_w = 0;
  std::vector<SramMacroRow> sram_macros;
  [[nodiscard]] double logic_pj() const noexcept {
    return pe_pj + softmax_pj + other_logic_pj;
  }
  [[nodiscard]] double total_pj() const noexcept {
    return logic_pj() + sram_pj + dram_pj;
  }
  [[nodiscard]] double area_mm2() const noexcept {
    return area_sram_mm2 + area_pe_softmax_mm2 + area_others_mm2;
  }
  friend bool operator==(const EnergyStats&, const EnergyStats&) = default;
};

struct TechniqueDrop {
  std::string technique;     ///< "fwp" | "pap" | "narrow" | "quant"
  double measured_error = 0; ///< isolated end-to-end NRMSE
  double ap_drop = 0;        ///< proxy AP cost
  friend bool operator==(const TechniqueDrop&, const TechniqueDrop&) = default;
};

struct AccuracyStats {
  double baseline_ap = 0;
  double proxy_ap = 0;  ///< baseline minus the summed per-technique drops
  std::vector<TechniqueDrop> drops;
  friend bool operator==(const AccuracyStats&, const AccuracyStats&) = default;
};

/// Structured response of one Engine evaluation.  Sections are present iff
/// the request's OutputMask asked for them.
struct EvalResult {
  std::string benchmark;     ///< model name
  std::string workload_key;  ///< Engine context-cache key that served this
  OutputMask outputs = 0;

  std::optional<FunctionalStats> functional;
  std::optional<LatencyStats> latency;
  std::optional<EnergyStats> energy;
  std::optional<AccuracyStats> accuracy;

  friend bool operator==(const EvalResult&, const EvalResult&) = default;
};

// ----------------------------------------------------------- JSON conversion

[[nodiscard]] Json to_json(const EvalResult& r);
[[nodiscard]] EvalResult eval_result_from_json(const Json& j);

/// Request serialization (the wire format of `defa_serve`).  Writes only
/// the fields the request sets: a "preset" or full "model" object, then
/// optional "scene"/"prune"/"hw" objects and "outputs" as an array of
/// section names.
[[nodiscard]] Json to_json(const EvalRequest& r);

/// Strict parse of the request wire format: unknown keys throw, partial
/// "scene"/"prune" objects overlay their defaults, a partial "hw" object
/// overlays `HwConfig::make_default` for the request's model, and
/// "outputs" accepts either an array of names or an integer mask.  The
/// returned request is NOT yet validated (call `validate()`).
[[nodiscard]] EvalRequest eval_request_from_json(const Json& j);

}  // namespace defa::api
