// Seeded scenario synthesis for the differential-fuzzing subsystem
// (DESIGN.md §10).
//
// A ScenarioSpec is a small, fully explicit description of one randomized
// OBM instance: chip geometry (mesh side, stacked layers, MC placement,
// optional torus links), workload shape (Table-3 configuration, application
// count, threads per application), the memory-traffic mode, and traffic
// knobs for the cycle-level oracles. Every field is derived
// deterministically from a single 64-bit seed by generate_scenario(), and
// the textual repro format round-trips the spec exactly, so any failure
// found by the fuzzer is reproducible from either the seed alone or the
// self-contained repro file.
#pragma once

#include <cstdint>
#include <string>

#include "core/problem.h"
#include "latency/model.h"
#include "topology/mesh.h"

namespace nocmap::check {

/// One synthesized fuzzing scenario. All fields are plain values so a spec
/// can be serialized, mutated by the shrinker, and rebuilt into an
/// ObmProblem at will.
struct ScenarioSpec {
  /// The seed the spec was generated from (kept for provenance; also seeds
  /// workload synthesis and the traffic engine so the whole scenario is one
  /// number).
  std::uint64_t seed = 0;
  std::uint32_t mesh_side = 4;
  /// Stacked dies of mesh_side × mesh_side tiles each; 1 means a planar 2D
  /// mesh (the classic scenario space — repro files from before this axis
  /// existed parse with this default).
  std::uint32_t mesh_layers = 1;
  /// Cost of one vertical (TSV) hop in planar-hop units; only meaningful
  /// when mesh_layers > 1.
  double tsv_hop_cost = 1.0;
  McPlacement mc_placement = McPlacement::kCorners;
  /// Size of the seed-drawn MC set; nonzero exactly when mc_placement is
  /// kRandom (the named schemes fix their own MC count).
  std::uint32_t mc_count = 0;
  bool torus = false;
  /// How memory requests pick their MC destination (latency/model.h).
  MemoryTrafficMode traffic_mode = MemoryTrafficMode::kProximity;
  /// Table-3 workload configuration name ("C1".."C8").
  std::string config = "C1";
  std::uint32_t num_applications = 2;
  std::uint32_t threads_per_app = 4;
  /// Netsim traffic knobs (only read by the cycle-level oracles).
  double injection_scale = 0.5;
  bool bursty = false;

  std::uint32_t num_tiles() const {
    return mesh_side * mesh_side * mesh_layers;
  }
  /// In 64 bits: the product of two uint32 fields from a repro file must
  /// not wrap past the "more threads than tiles" check.
  std::uint64_t num_threads() const {
    return std::uint64_t{num_applications} * threads_per_app;
  }

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Derives a complete, valid spec from one 64-bit seed. Pure function:
/// identical seeds give identical specs on every platform and run.
ScenarioSpec generate_scenario(std::uint64_t seed);

/// Throws nocmap::Error when the spec violates a structural constraint
/// (zero sizes, more threads than tiles, unknown config, ...).
void validate_scenario(const ScenarioSpec& spec);

/// Builds the mesh the spec describes: square torus, planar square, or
/// stacked mesh, with the named MC placement — or, for kRandom, an MC set
/// of mc_count distinct tiles drawn from the seed on a dedicated Rng
/// stream (so the set depends only on seed, mc_count, and geometry, never
/// on other scenario draws). Shared by build_problem, the oracles, and the
/// sweep runner so every consumer sees the identical chip.
Mesh build_mesh(const ScenarioSpec& spec);

/// True when the cycle-level simulator models this spec's topology. The
/// simulator handles planar and stacked meshes but not torus wraparound
/// (Network's neighbor map has no wrap links); callers — the netsim
/// oracles' applicability gates and the sweep runner's netsim stage — must
/// classify unsupported combos as skips instead of reaching the
/// simulator's NOCMAP_REQUIRE.
bool simulator_supported(const ScenarioSpec& spec);

/// Builds the OBM instance the spec describes: build_mesh()'s chip, a
/// latency model in the spec's traffic mode, and a synthesized Table-3
/// workload padded with idle threads up to the tile count as the paper
/// prescribes.
ObmProblem build_problem(const ScenarioSpec& spec);

/// Self-contained textual repro ("# nocmap_fuzz repro v1" + key=value
/// lines). `oracle` optionally records which oracle failed so --replay can
/// re-run exactly that check first; empty means "run all applicable".
std::string to_repro(const ScenarioSpec& spec, const std::string& oracle = "");

/// Parses a repro produced by to_repro (unknown keys rejected; the classic
/// 2D keys are required, while keys added later — mesh_layers,
/// tsv_hop_cost, mc_count, traffic_mode — are optional with their 2D
/// defaults so pre-existing corpus files keep parsing). On success
/// `oracle_out`, when non-null, receives the
/// recorded oracle name ("" if absent). Throws nocmap::Error on malformed
/// input; the parsed spec is validated before being returned.
ScenarioSpec from_repro(const std::string& text,
                        std::string* oracle_out = nullptr);

/// File-level conveniences over to_repro/from_repro.
void save_repro(const std::string& path, const ScenarioSpec& spec,
                const std::string& oracle = "");
ScenarioSpec load_repro(const std::string& path,
                        std::string* oracle_out = nullptr);

}  // namespace nocmap::check
