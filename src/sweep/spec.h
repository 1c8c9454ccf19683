// Declarative campaign specs for massive parameter sweeps (DESIGN.md §15,
// docs/sweep-spec.md is the operator-facing reference).
//
// A CampaignSpec is a small grid description: one value list per scenario
// axis (mesh side, topology, MC placement, workload config, application
// shape, injection scale, seeds) plus the mapper set and the shared mapper /
// netsim budgets. expand_spec() unrolls the cross-product into a
// deterministic, densely-numbered scenario list — the same spec always
// expands to the same list on every platform — which is what makes campaign
// logs resumable: scenario id k in the log *is* scenario k of the
// expansion, forever.
//
// Per-scenario state reuses check::ScenarioSpec (the fuzzer's scenario
// description): a sweep scenario is exactly a fuzz scenario with the axis
// values substituted for the seed-derived draws, so build_problem() and the
// repro tooling work unchanged on sweep scenarios.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/scenario.h"
#include "core/mapper.h"
#include "obs/json.h"

namespace nocmap::sweep {

inline constexpr const char* kSweepSpecSchema = "nocmap.sweep_spec/1";

/// Search budgets shared by every scenario of a campaign (the per-scenario
/// problem varies; the algorithm configuration is a campaign constant so
/// results are comparable across the grid).
struct SweepMapperOptions {
  std::uint64_t algorithm_seed = 7;
  std::uint64_t mc_trials = 2000;
  std::uint64_t sa_iterations = 20000;

  friend bool operator==(const SweepMapperOptions&,
                         const SweepMapperOptions&) = default;
};

/// Cycle-accurate stage settings. Disabled by default: analytic metrics are
/// cheap and every scenario gets them; simulation multiplies campaign cost
/// by orders of magnitude and is opt-in per spec. Scenarios the simulator
/// does not support (check::simulator_supported — torus wraparound) always
/// skip the netsim stage.
struct SweepNetsimOptions {
  bool enabled = false;
  std::uint64_t warmup_cycles = 1000;
  std::uint64_t measure_cycles = 20000;
  std::uint64_t max_drain_cycles = 100000;

  friend bool operator==(const SweepNetsimOptions&,
                         const SweepNetsimOptions&) = default;
};

/// The seed axis: `count` consecutive workload seeds starting at `base`.
struct SeedAxis {
  std::uint64_t base = 1;
  std::uint32_t count = 1;

  friend bool operator==(const SeedAxis&, const SeedAxis&) = default;
};

/// One parsed campaign spec. Field order below is the canonical expansion
/// order (outermost axis first; the mapper axis is innermost, so the
/// records of one base scenario are consecutive in the log).
struct CampaignSpec {
  std::string name;
  std::vector<std::uint32_t> mesh_side = {8};
  /// Stacked dies per chip; 1 is the classic planar mesh.
  std::vector<std::uint32_t> mesh_layers = {1};
  /// Vertical-hop cost in planar-hop units (only meaningful with layers>1).
  std::vector<double> tsv_hop_cost = {1.0};
  std::vector<bool> torus = {false};  ///< "topology" axis: mesh / torus
  std::vector<McPlacement> mc_placement = {McPlacement::kCorners};
  /// MC-set size used by grid points whose placement is "random" (a scalar,
  /// not an axis; the per-scenario MC set is then drawn from the scenario
  /// seed). Points where it exceeds the tile count are invalid combos.
  std::uint32_t mc_count = 4;
  /// Memory-traffic mode axis (proximity / interleaved / multicast).
  std::vector<MemoryTrafficMode> traffic_mode = {
      MemoryTrafficMode::kProximity};
  std::vector<std::string> config = {"C1"};
  std::vector<std::uint32_t> num_applications = {4};
  /// 0 means "fill": tiles / num_applications threads per application.
  std::vector<std::uint32_t> threads_per_app = {0};
  std::vector<double> injection_scale = {0.5};
  std::vector<bool> bursty = {false};
  SeedAxis seed;
  std::vector<std::string> mappers = {"SSS"};
  SweepMapperOptions mapper_options;
  SweepNetsimOptions netsim;
  /// Skip structurally invalid grid points (torus with non-corner MCs or
  /// with stacked layers, more threads than tiles, a random MC set larger
  /// than the chip) instead of failing the whole expansion.
  bool skip_invalid = true;
};

/// One expanded scenario: a dense id, the odometer index it came from (for
/// provenance when invalid combinations were skipped), the fuzzer-format
/// scenario and the mapper to run on it.
struct SweepScenario {
  std::uint64_t id = 0;
  std::uint64_t index = 0;
  check::ScenarioSpec spec;
  std::string mapper;
};

/// expand_spec output: the scenario list plus grid accounting.
struct Expansion {
  std::vector<SweepScenario> scenarios;
  std::uint64_t combinations = 0;  ///< full odometer size
  std::uint64_t skipped = 0;       ///< invalid combinations dropped
};

/// Parses a spec document. Unknown keys anywhere are errors (typo safety:
/// a misspelled axis must not silently collapse to its default), as are
/// empty axes, out-of-range values and unknown mapper / config / placement
/// names. The document's "schema" field must be nocmap.sweep_spec/1.
CampaignSpec parse_spec(const obs::JsonValue& doc);
CampaignSpec parse_spec(const std::string& json_text);
CampaignSpec load_spec(const std::string& path);

/// The canonical JSON form of a spec: every axis explicit (defaults
/// filled in), fixed member order. Two specs with equal canonical forms
/// expand identically.
obs::JsonValue spec_to_json(const CampaignSpec& spec);

/// FNV-1a/64 of the canonical form, as "0x..." hex. Stored in the campaign
/// log header so a resume against a different spec is refused instead of
/// silently mixing scenario numberings.
std::string spec_digest(const CampaignSpec& spec);

/// Unrolls the cross-product in canonical axis order. Deterministic:
/// depends only on the spec. Throws when skip_invalid is false and the
/// grid contains an invalid combination.
Expansion expand_spec(const CampaignSpec& spec);

/// The sweep's mapper roster: a fresh mapper named "Global", "MC", "SA",
/// "SSS" or "Random", built from the spec's budgets and seed with the
/// mapper's default (one-worker) execution; throws on any other name. The
/// spec parser checks mapper names with it and the runner builds each
/// scenario's mapper with it.
std::unique_ptr<Mapper> make_mapper(const std::string& name,
                                    const SweepMapperOptions& options);

}  // namespace nocmap::sweep
