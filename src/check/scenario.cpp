#include "check/scenario.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>

#include "latency/model.h"
#include "util/error.h"
#include "util/parse.h"
#include "util/rng.h"
#include "workload/synthesis.h"

namespace nocmap::check {

namespace {

constexpr std::uint32_t kMinSide = 3;
constexpr std::uint32_t kMaxSide = 8;
constexpr std::uint32_t kMaxLayers = 8;
constexpr std::uint32_t kMaxApps = 4;

}  // namespace

ScenarioSpec generate_scenario(std::uint64_t seed) {
  // A fixed stream constant keeps scenario generation independent of every
  // other Rng consumer seeded with the same value.
  Rng rng(splitmix64(seed), 0x6e6f636d61702121ULL);

  ScenarioSpec spec;
  spec.seed = seed;
  spec.mesh_side = kMinSide + rng.uniform_u32(kMaxSide - kMinSide + 1);
  spec.torus = rng.bernoulli(0.1);
  if (spec.torus) {
    // The torus constructor pins corner MCs; keep the spec consistent.
    spec.mc_placement = McPlacement::kCorners;
  } else {
    const double p = rng.uniform();
    spec.mc_placement = p < 0.6   ? McPlacement::kCorners
                        : p < 0.8 ? McPlacement::kEdgeMiddles
                                  : McPlacement::kDiamond;
  }
  spec.config = std::string{'C', static_cast<char>('1' + rng.uniform_u32(8))};

  const std::uint32_t tiles = spec.mesh_side * spec.mesh_side;
  spec.num_applications =
      1 + rng.uniform_u32(std::min(kMaxApps, tiles));
  spec.threads_per_app = 1 + rng.uniform_u32(tiles / spec.num_applications);
  spec.injection_scale = rng.uniform(0.3, 0.9);
  spec.bursty = rng.bernoulli(0.2);

  // Generalized axes (3D stacking, arbitrary MC sets, traffic modes) are
  // drawn after all classic fields so the classic draw sequence — and with
  // it every pre-existing corpus scenario's 2D shape — is unchanged per
  // seed. Stacking only grows the tile count, so the thread budget drawn
  // above stays feasible.
  if (!spec.torus && rng.bernoulli(0.25)) {
    spec.mesh_layers = 2 + rng.uniform_u32(3);  // 2..4 dies
    if (rng.bernoulli(0.5)) {
      // TSVs are short: vertical hops at a fraction of a planar hop.
      spec.tsv_hop_cost = rng.uniform(0.25, 1.0);
    }
  }
  if (!spec.torus && rng.bernoulli(0.15)) {
    spec.mc_placement = McPlacement::kRandom;
    spec.mc_count =
        1 + rng.uniform_u32(std::min(8u, spec.num_tiles() / 2));
  }
  const double pm = rng.uniform();
  spec.traffic_mode = pm < 0.6    ? MemoryTrafficMode::kProximity
                      : pm < 0.85 ? MemoryTrafficMode::kInterleaved
                                  : MemoryTrafficMode::kMulticast;

  validate_scenario(spec);
  return spec;
}

void validate_scenario(const ScenarioSpec& spec) {
  NOCMAP_REQUIRE(spec.mesh_side >= 2 && spec.mesh_side <= kMaxMeshSide,
                 "mesh_side out of range");
  NOCMAP_REQUIRE(spec.mesh_layers >= 1 && spec.mesh_layers <= kMaxLayers,
                 "mesh_layers out of range");
  NOCMAP_REQUIRE(spec.tsv_hop_cost > 0.0 && spec.tsv_hop_cost <= 16.0,
                 "tsv_hop_cost out of range");
  NOCMAP_REQUIRE(spec.num_applications >= 1, "need at least one application");
  NOCMAP_REQUIRE(spec.threads_per_app >= 1, "need at least one thread/app");
  NOCMAP_REQUIRE(spec.num_threads() <= spec.num_tiles(),
                 "more threads than tiles");
  NOCMAP_REQUIRE(!spec.torus || spec.mesh_layers == 1,
                 "torus wraparound is 2D-only");
  NOCMAP_REQUIRE(!spec.torus || spec.mc_placement == McPlacement::kCorners,
                 "torus meshes pin corner MCs");
  NOCMAP_REQUIRE(
      (spec.mc_placement == McPlacement::kRandom) == (spec.mc_count > 0),
      "mc_count is the kRandom MC-set size and must be zero otherwise");
  NOCMAP_REQUIRE(spec.mc_count <= spec.num_tiles(), "more MCs than tiles");
  NOCMAP_REQUIRE(spec.injection_scale > 0.0 && spec.injection_scale <= 2.0,
                 "injection_scale out of range");
  parsec_config(spec.config);  // throws on unknown name
}

Mesh build_mesh(const ScenarioSpec& spec) {
  validate_scenario(spec);
  if (spec.torus) return Mesh::square_torus(spec.mesh_side);
  if (spec.mc_placement == McPlacement::kRandom) {
    // Partial Fisher-Yates over the tile ids on a dedicated stream; the
    // sorted prefix is the MC set. Depends only on (seed, mc_count,
    // geometry) so the fuzzer, shrinker, and sweep all rebuild the same
    // chip for a given spec.
    Rng rng(splitmix64(spec.seed), 0x6d632d736574212dULL);
    std::vector<TileId> pool(spec.num_tiles());
    std::iota(pool.begin(), pool.end(), TileId{0});
    for (std::uint32_t i = 0; i < spec.mc_count; ++i) {
      const std::uint32_t j =
          i + rng.uniform_u32(static_cast<std::uint32_t>(pool.size()) - i);
      std::swap(pool[i], pool[j]);
    }
    std::vector<TileId> mcs(pool.begin(), pool.begin() + spec.mc_count);
    std::sort(mcs.begin(), mcs.end());
    if (spec.mesh_layers > 1) {
      return Mesh(spec.mesh_layers, spec.mesh_side, spec.mesh_side,
                  std::move(mcs), spec.tsv_hop_cost);
    }
    return Mesh(spec.mesh_side, spec.mesh_side, std::move(mcs));
  }
  if (spec.mesh_layers > 1) {
    return Mesh::stacked_with_placement(spec.mesh_layers, spec.mesh_side,
                                        spec.mc_placement,
                                        spec.tsv_hop_cost);
  }
  return Mesh::square_with_placement(spec.mesh_side, spec.mc_placement);
}

bool simulator_supported(const ScenarioSpec& spec) {
  // Network's neighbor map covers planar and vertical links but no torus
  // wraparound (network.cpp rejects torus meshes outright).
  return !spec.torus;
}

ObmProblem build_problem(const ScenarioSpec& spec) {
  const Mesh mesh = build_mesh(spec);
  SynthesisOptions opt;
  opt.num_applications = spec.num_applications;
  opt.threads_per_app = spec.threads_per_app;
  Workload workload =
      synthesize_workload(parsec_config(spec.config), spec.seed, opt);
  if (workload.num_threads() < mesh.num_tiles()) {
    workload = workload.padded_to(mesh.num_tiles());
  }
  return ObmProblem(
      TileLatencyModel(mesh, LatencyParams{}, spec.traffic_mode),
      std::move(workload));
}

std::string to_repro(const ScenarioSpec& spec, const std::string& oracle) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10)
     << "# nocmap_fuzz repro v1\n"
     << "seed=" << spec.seed << "\n"
     << "mesh_side=" << spec.mesh_side << "\n"
     << "mesh_layers=" << spec.mesh_layers << "\n"
     << "tsv_hop_cost=" << spec.tsv_hop_cost << "\n"
     << "mc_placement=" << mc_placement_name(spec.mc_placement) << "\n"
     << "mc_count=" << spec.mc_count << "\n"
     << "torus=" << (spec.torus ? 1 : 0) << "\n"
     << "traffic_mode=" << memory_traffic_mode_name(spec.traffic_mode)
     << "\n"
     << "config=" << spec.config << "\n"
     << "num_applications=" << spec.num_applications << "\n"
     << "threads_per_app=" << spec.threads_per_app << "\n"
     << "injection_scale=" << spec.injection_scale << "\n"
     << "bursty=" << (spec.bursty ? 1 : 0) << "\n";
  if (!oracle.empty()) os << "oracle=" << oracle << "\n";
  return os.str();
}

ScenarioSpec from_repro(const std::string& text, std::string* oracle_out) {
  ScenarioSpec spec;
  std::string oracle;
  std::map<std::string, bool> seen;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    NOCMAP_REQUIRE(eq != std::string::npos,
                   "malformed repro line '" + line + "'");
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    NOCMAP_REQUIRE(!seen[key], "duplicate repro key '" + key + "'");
    seen[key] = true;
    const std::string what = "repro key '" + key + "'";
    if (key == "seed") {
      spec.seed = parse_number<std::uint64_t>(value, what);
    } else if (key == "mesh_side") {
      spec.mesh_side = parse_number<std::uint32_t>(value, what);
    } else if (key == "mesh_layers") {
      spec.mesh_layers = parse_number<std::uint32_t>(value, what);
    } else if (key == "tsv_hop_cost") {
      spec.tsv_hop_cost = parse_number<double>(value, what);
    } else if (key == "mc_placement") {
      NOCMAP_REQUIRE(mc_placement_from_name(value, spec.mc_placement),
                     "unknown mc_placement '" + value + "'");
    } else if (key == "mc_count") {
      spec.mc_count = parse_number<std::uint32_t>(value, what);
    } else if (key == "torus") {
      spec.torus = parse_number<bool>(value, what);
    } else if (key == "traffic_mode") {
      NOCMAP_REQUIRE(memory_traffic_mode_from_name(value, spec.traffic_mode),
                     "unknown traffic_mode '" + value + "'");
    } else if (key == "config") {
      spec.config = value;
    } else if (key == "num_applications") {
      spec.num_applications = parse_number<std::uint32_t>(value, what);
    } else if (key == "threads_per_app") {
      spec.threads_per_app = parse_number<std::uint32_t>(value, what);
    } else if (key == "injection_scale") {
      spec.injection_scale = parse_number<double>(value, what);
    } else if (key == "bursty") {
      spec.bursty = parse_number<bool>(value, what);
    } else if (key == "oracle") {
      oracle = value;
    } else {
      NOCMAP_REQUIRE(false, "unknown repro key '" + key + "'");
    }
  }
  // Keys that postdate the v1 corpus (mesh_layers, tsv_hop_cost, mc_count,
  // traffic_mode) stay optional with their 2D/proximity defaults so old
  // repro files keep parsing; the classic keys remain mandatory.
  for (const char* required :
       {"seed", "mesh_side", "mc_placement", "torus", "config",
        "num_applications", "threads_per_app", "injection_scale", "bursty"}) {
    NOCMAP_REQUIRE(seen[required],
                   std::string("repro missing key '") + required + "'");
  }
  validate_scenario(spec);
  if (oracle_out != nullptr) *oracle_out = oracle;
  return spec;
}

void save_repro(const std::string& path, const ScenarioSpec& spec,
                const std::string& oracle) {
  std::ofstream os(path);
  NOCMAP_REQUIRE(os.good(), "cannot create repro file " + path);
  os << to_repro(spec, oracle);
}

ScenarioSpec load_repro(const std::string& path, std::string* oracle_out) {
  std::ifstream is(path);
  NOCMAP_REQUIRE(is.good(), "cannot open repro file " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return from_repro(buffer.str(), oracle_out);
}

}  // namespace nocmap::check
