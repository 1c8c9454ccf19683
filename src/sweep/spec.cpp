#include "sweep/spec.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/annealing_mapper.h"
#include "core/global_mapper.h"
#include "core/monte_carlo_mapper.h"
#include "core/random_mapper.h"
#include "core/sss_mapper.h"
#include "util/error.h"
#include "workload/synthesis.h"

namespace nocmap::sweep {

namespace {

/// Expansion size cap: expand_spec materializes the scenario list, so a
/// runaway spec (seed count 10^9, say) must fail fast instead of OOMing.
constexpr std::uint64_t kMaxCombinations = 10'000'000;

/// Cap on the per-scenario counts (MC trials, SA iterations, netsim cycle
/// windows): far above any committed value (at most 200 000), and low enough
/// that no sum or rounding of them wraps 64 bits.
constexpr std::uint64_t kMaxCount = 1'000'000'000;

std::uint64_t read_count(const obs::JsonValue& v, const std::string& what,
                         std::uint64_t lo) {
  const std::uint64_t value = v.as_uint();
  NOCMAP_REQUIRE(value >= lo && value <= kMaxCount,
                 "'" + what + "' must be in [" + std::to_string(lo) + ", " +
                     std::to_string(kMaxCount) + "]");
  return value;
}

const obs::JsonValue& require_array(const obs::JsonValue& v,
                                    const std::string& what) {
  NOCMAP_REQUIRE(v.is_array(), "spec axis '" + what + "' must be an array");
  NOCMAP_REQUIRE(v.size() > 0, "spec axis '" + what + "' is empty");
  return v;
}

std::vector<std::uint32_t> read_u32_axis(const obs::JsonValue& v,
                                         const std::string& what,
                                         std::uint32_t lo, std::uint32_t hi) {
  std::vector<std::uint32_t> out;
  for (const obs::JsonValue& item : require_array(v, what).items()) {
    const std::uint64_t value = item.as_uint();
    NOCMAP_REQUIRE(value >= lo && value <= hi,
                   "spec axis '" + what + "' value out of range");
    out.push_back(static_cast<std::uint32_t>(value));
  }
  return out;
}

std::vector<double> read_double_axis(const obs::JsonValue& v,
                                     const std::string& what, double lo,
                                     double hi) {
  std::vector<double> out;
  for (const obs::JsonValue& item : require_array(v, what).items()) {
    const double value = item.as_double();
    NOCMAP_REQUIRE(value > lo && value <= hi,
                   "spec axis '" + what + "' value out of range");
    out.push_back(value);
  }
  return out;
}

std::vector<bool> read_bool_axis(const obs::JsonValue& v,
                                 const std::string& what) {
  std::vector<bool> out;
  for (const obs::JsonValue& item : require_array(v, what).items()) {
    out.push_back(item.as_bool());
  }
  return out;
}

void parse_axes(const obs::JsonValue& axes, CampaignSpec& spec) {
  for (const auto& [key, value] : axes.members()) {
    if (key == "mesh_side") {
      spec.mesh_side = read_u32_axis(value, key, 2, kMaxMeshSide);
    } else if (key == "mesh_layers") {
      spec.mesh_layers = read_u32_axis(value, key, 1, 8);
    } else if (key == "tsv_hop_cost") {
      spec.tsv_hop_cost = read_double_axis(value, key, 0.0, 16.0);
    } else if (key == "mc_count") {
      const std::uint64_t count = value.as_uint();
      NOCMAP_REQUIRE(count >= 1 && count <= kMaxMeshSide * kMaxMeshSide,
                     "mc_count out of range");
      spec.mc_count = static_cast<std::uint32_t>(count);
    } else if (key == "traffic_mode") {
      spec.traffic_mode.clear();
      for (const obs::JsonValue& item : require_array(value, key).items()) {
        MemoryTrafficMode mode;
        NOCMAP_REQUIRE(
            memory_traffic_mode_from_name(item.as_string(), mode),
            "unknown traffic_mode '" + item.as_string() + "'");
        spec.traffic_mode.push_back(mode);
      }
    } else if (key == "topology") {
      spec.torus.clear();
      for (const obs::JsonValue& item : require_array(value, key).items()) {
        const std::string& name = item.as_string();
        if (name == "mesh") {
          spec.torus.push_back(false);
        } else if (name == "torus") {
          spec.torus.push_back(true);
        } else {
          NOCMAP_REQUIRE(false, "unknown topology '" + name + "'");
        }
      }
    } else if (key == "mc_placement") {
      spec.mc_placement.clear();
      for (const obs::JsonValue& item : require_array(value, key).items()) {
        McPlacement placement;
        NOCMAP_REQUIRE(
            mc_placement_from_name(item.as_string(), placement),
            "unknown mc_placement '" + item.as_string() + "'");
        spec.mc_placement.push_back(placement);
      }
    } else if (key == "config") {
      spec.config.clear();
      for (const obs::JsonValue& item : require_array(value, key).items()) {
        parsec_config(item.as_string());  // throws on unknown name
        spec.config.push_back(item.as_string());
      }
    } else if (key == "num_applications") {
      spec.num_applications = read_u32_axis(value, key, 1, 64 * 64);
    } else if (key == "threads_per_app") {
      // 0 is the "fill" sentinel, so the lower bound is 0 here.
      spec.threads_per_app = read_u32_axis(value, key, 0, 64 * 64);
    } else if (key == "injection_scale") {
      spec.injection_scale = read_double_axis(value, key, 0.0, 2.0);
    } else if (key == "bursty") {
      spec.bursty = read_bool_axis(value, key);
    } else if (key == "seed") {
      NOCMAP_REQUIRE(value.is_object(), "spec axis 'seed' must be an object");
      for (const auto& [skey, svalue] : value.members()) {
        if (skey == "base") {
          spec.seed.base = svalue.as_uint();
        } else if (skey == "count") {
          const std::uint64_t count = svalue.as_uint();
          NOCMAP_REQUIRE(count >= 1 && count <= kMaxCombinations,
                         "seed count out of range");
          spec.seed.count = static_cast<std::uint32_t>(count);
        } else {
          NOCMAP_REQUIRE(false, "unknown seed axis key '" + skey + "'");
        }
      }
    } else {
      NOCMAP_REQUIRE(false, "unknown spec axis '" + key + "'");
    }
  }
}

void parse_mapper_options(const obs::JsonValue& node,
                          SweepMapperOptions& options) {
  NOCMAP_REQUIRE(node.is_object(), "'mapper_options' must be an object");
  for (const auto& [key, value] : node.members()) {
    if (key == "algorithm_seed") {
      options.algorithm_seed = value.as_uint();
    } else if (key == "mc_trials") {
      options.mc_trials = read_count(value, key, 1);
    } else if (key == "sa_iterations") {
      options.sa_iterations = read_count(value, key, 1);
    } else {
      NOCMAP_REQUIRE(false, "unknown mapper_options key '" + key + "'");
    }
  }
}

void parse_netsim(const obs::JsonValue& node, SweepNetsimOptions& options) {
  NOCMAP_REQUIRE(node.is_object(), "'netsim' must be an object");
  for (const auto& [key, value] : node.members()) {
    if (key == "enabled") {
      options.enabled = value.as_bool();
    } else if (key == "warmup_cycles") {
      options.warmup_cycles = read_count(value, key, 0);
    } else if (key == "measure_cycles") {
      options.measure_cycles = read_count(value, key, 1);
    } else if (key == "max_drain_cycles") {
      options.max_drain_cycles = read_count(value, key, 0);
    } else {
      NOCMAP_REQUIRE(false, "unknown netsim key '" + key + "'");
    }
  }
}

}  // namespace

std::unique_ptr<Mapper> make_mapper(const std::string& name,
                                    const SweepMapperOptions& options) {
  if (name == "Global") return std::make_unique<GlobalMapper>();
  if (name == "MC") {
    return std::make_unique<MonteCarloMapper>(options.mc_trials,
                                              options.algorithm_seed);
  }
  if (name == "SA") {
    return std::make_unique<AnnealingMapper>(AnnealingParams{
        .iterations = options.sa_iterations, .seed = options.algorithm_seed});
  }
  if (name == "SSS") return std::make_unique<SortSelectSwapMapper>();
  if (name == "Random") {
    return std::make_unique<RandomMapper>(options.algorithm_seed);
  }
  throw Error("unknown mapper '" + name +
              "' (expected Global, MC, SA, SSS or Random)");
}

CampaignSpec parse_spec(const obs::JsonValue& doc) {
  NOCMAP_REQUIRE(doc.is_object(), "spec document must be a JSON object");
  CampaignSpec spec;
  bool saw_schema = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "schema") {
      NOCMAP_REQUIRE(value.as_string() == kSweepSpecSchema,
                     "unsupported spec schema '" + value.as_string() + "'");
      saw_schema = true;
    } else if (key == "name") {
      spec.name = value.as_string();
      NOCMAP_REQUIRE(!spec.name.empty(), "spec name is empty");
    } else if (key == "axes") {
      NOCMAP_REQUIRE(value.is_object(), "'axes' must be an object");
      parse_axes(value, spec);
    } else if (key == "mappers") {
      spec.mappers.clear();
      for (const obs::JsonValue& item : require_array(value, key).items()) {
        (void)make_mapper(item.as_string(), spec.mapper_options);
        NOCMAP_REQUIRE(std::find(spec.mappers.begin(), spec.mappers.end(),
                                 item.as_string()) == spec.mappers.end(),
                       "duplicate mapper '" + item.as_string() + "'");
        spec.mappers.push_back(item.as_string());
      }
    } else if (key == "mapper_options") {
      parse_mapper_options(value, spec.mapper_options);
    } else if (key == "netsim") {
      parse_netsim(value, spec.netsim);
    } else if (key == "expansion") {
      NOCMAP_REQUIRE(value.is_object(), "'expansion' must be an object");
      for (const auto& [ekey, evalue] : value.members()) {
        if (ekey == "skip_invalid") {
          spec.skip_invalid = evalue.as_bool();
        } else {
          NOCMAP_REQUIRE(false, "unknown expansion key '" + ekey + "'");
        }
      }
    } else {
      NOCMAP_REQUIRE(false, "unknown spec key '" + key + "'");
    }
  }
  NOCMAP_REQUIRE(saw_schema, "spec is missing the 'schema' field");
  NOCMAP_REQUIRE(!spec.name.empty(), "spec is missing the 'name' field");
  return spec;
}

CampaignSpec parse_spec(const std::string& json_text) {
  return parse_spec(obs::JsonValue::parse(json_text));
}

CampaignSpec load_spec(const std::string& path) {
  std::ifstream is(path);
  NOCMAP_REQUIRE(is.good(), "cannot open spec file " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  try {
    return parse_spec(buffer.str());
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

obs::JsonValue spec_to_json(const CampaignSpec& spec) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = kSweepSpecSchema;
  doc["name"] = spec.name;

  obs::JsonValue axes = obs::JsonValue::object();
  obs::JsonValue mesh = obs::JsonValue::array();
  for (const std::uint32_t side : spec.mesh_side) {
    mesh.push_back(std::uint64_t{side});
  }
  axes["mesh_side"] = std::move(mesh);
  obs::JsonValue layers = obs::JsonValue::array();
  for (const std::uint32_t l : spec.mesh_layers) {
    layers.push_back(std::uint64_t{l});
  }
  axes["mesh_layers"] = std::move(layers);
  obs::JsonValue tsv = obs::JsonValue::array();
  for (const double t : spec.tsv_hop_cost) tsv.push_back(t);
  axes["tsv_hop_cost"] = std::move(tsv);
  obs::JsonValue topology = obs::JsonValue::array();
  for (const bool torus : spec.torus) {
    topology.push_back(torus ? "torus" : "mesh");
  }
  axes["topology"] = std::move(topology);
  obs::JsonValue placements = obs::JsonValue::array();
  for (const McPlacement p : spec.mc_placement) {
    placements.push_back(mc_placement_name(p));
  }
  axes["mc_placement"] = std::move(placements);
  axes["mc_count"] = std::uint64_t{spec.mc_count};
  obs::JsonValue modes = obs::JsonValue::array();
  for (const MemoryTrafficMode m : spec.traffic_mode) {
    modes.push_back(memory_traffic_mode_name(m));
  }
  axes["traffic_mode"] = std::move(modes);
  obs::JsonValue configs = obs::JsonValue::array();
  for (const std::string& c : spec.config) configs.push_back(c);
  axes["config"] = std::move(configs);
  obs::JsonValue apps = obs::JsonValue::array();
  for (const std::uint32_t a : spec.num_applications) {
    apps.push_back(std::uint64_t{a});
  }
  axes["num_applications"] = std::move(apps);
  obs::JsonValue tpa = obs::JsonValue::array();
  for (const std::uint32_t t : spec.threads_per_app) {
    tpa.push_back(std::uint64_t{t});
  }
  axes["threads_per_app"] = std::move(tpa);
  obs::JsonValue injection = obs::JsonValue::array();
  for (const double s : spec.injection_scale) injection.push_back(s);
  axes["injection_scale"] = std::move(injection);
  obs::JsonValue bursty = obs::JsonValue::array();
  for (const bool b : spec.bursty) bursty.push_back(b);
  axes["bursty"] = std::move(bursty);
  obs::JsonValue seed = obs::JsonValue::object();
  seed["base"] = std::uint64_t{spec.seed.base};
  seed["count"] = std::uint64_t{spec.seed.count};
  axes["seed"] = std::move(seed);
  doc["axes"] = std::move(axes);

  obs::JsonValue mappers = obs::JsonValue::array();
  for (const std::string& m : spec.mappers) mappers.push_back(m);
  doc["mappers"] = std::move(mappers);

  obs::JsonValue mapper_options = obs::JsonValue::object();
  mapper_options["algorithm_seed"] =
      std::uint64_t{spec.mapper_options.algorithm_seed};
  mapper_options["mc_trials"] = std::uint64_t{spec.mapper_options.mc_trials};
  mapper_options["sa_iterations"] =
      std::uint64_t{spec.mapper_options.sa_iterations};
  doc["mapper_options"] = std::move(mapper_options);

  obs::JsonValue netsim = obs::JsonValue::object();
  netsim["enabled"] = spec.netsim.enabled;
  netsim["warmup_cycles"] = std::uint64_t{spec.netsim.warmup_cycles};
  netsim["measure_cycles"] = std::uint64_t{spec.netsim.measure_cycles};
  netsim["max_drain_cycles"] = std::uint64_t{spec.netsim.max_drain_cycles};
  doc["netsim"] = std::move(netsim);

  obs::JsonValue expansion = obs::JsonValue::object();
  expansion["skip_invalid"] = spec.skip_invalid;
  doc["expansion"] = std::move(expansion);
  return doc;
}

std::string spec_digest(const CampaignSpec& spec) {
  const std::string canonical = spec_to_json(spec).dump(0);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a/64
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Expansion expand_spec(const CampaignSpec& spec) {
  NOCMAP_REQUIRE(!spec.mappers.empty(), "spec has no mappers");
  const std::uint64_t sizes[] = {
      spec.mesh_side.size(),      spec.mesh_layers.size(),
      spec.tsv_hop_cost.size(),   spec.torus.size(),
      spec.mc_placement.size(),   spec.traffic_mode.size(),
      spec.config.size(),
      spec.num_applications.size(), spec.threads_per_app.size(),
      spec.injection_scale.size(), spec.bursty.size(),
      spec.seed.count,            spec.mappers.size()};
  std::uint64_t combinations = 1;
  for (const std::uint64_t n : sizes) {
    NOCMAP_REQUIRE(n >= 1, "empty spec axis");
    NOCMAP_REQUIRE(combinations <= kMaxCombinations / n,
                   "spec expands to more than 10M scenarios");
    combinations *= n;
  }

  Expansion out;
  out.combinations = combinations;
  out.scenarios.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(combinations, 1 << 20)));

  std::uint64_t index = 0;
  for (const std::uint32_t mesh_side : spec.mesh_side) {
   for (const std::uint32_t mesh_layers : spec.mesh_layers) {
    for (const double tsv : spec.tsv_hop_cost) {
     for (const bool torus : spec.torus) {
      for (const McPlacement placement : spec.mc_placement) {
       for (const MemoryTrafficMode mode : spec.traffic_mode) {
        for (const std::string& config : spec.config) {
          for (const std::uint32_t apps : spec.num_applications) {
            for (const std::uint32_t tpa_raw : spec.threads_per_app) {
              for (const double injection : spec.injection_scale) {
                for (const bool bursty : spec.bursty) {
                  for (std::uint32_t s = 0; s < spec.seed.count; ++s) {
                    const std::uint32_t tiles =
                        mesh_side * mesh_side * mesh_layers;
                    const bool random_mc = placement == McPlacement::kRandom;
                    check::ScenarioSpec scenario_spec;
                    scenario_spec.seed = spec.seed.base + s;
                    scenario_spec.mesh_side = mesh_side;
                    scenario_spec.mesh_layers = mesh_layers;
                    scenario_spec.tsv_hop_cost = tsv;
                    scenario_spec.mc_placement = placement;
                    scenario_spec.mc_count = random_mc ? spec.mc_count : 0;
                    scenario_spec.torus = torus;
                    scenario_spec.traffic_mode = mode;
                    scenario_spec.config = config;
                    scenario_spec.num_applications = apps;
                    scenario_spec.threads_per_app =
                        tpa_raw == 0 ? tiles / apps : tpa_raw;
                    scenario_spec.injection_scale = injection;
                    scenario_spec.bursty = bursty;
                    // The fuzzer's validity rule decides skips: torus
                    // wraparound is 2D-only and pins corner MCs, a random
                    // MC set must fit the chip, and so must the threads.
                    bool valid = true;
                    try {
                      check::validate_scenario(scenario_spec);
                    } catch (const Error&) {
                      valid = false;
                    }
                    for (const std::string& mapper : spec.mappers) {
                      const std::uint64_t my_index = index++;
                      if (!valid) {
                        NOCMAP_REQUIRE(
                            spec.skip_invalid,
                            "invalid grid point (odometer index " +
                                std::to_string(my_index) +
                                ") and skip_invalid is false");
                        ++out.skipped;
                        continue;
                      }
                      SweepScenario scenario;
                      scenario.id = out.scenarios.size();
                      scenario.index = my_index;
                      scenario.spec = scenario_spec;
                      scenario.mapper = mapper;
                      out.scenarios.push_back(std::move(scenario));
                    }
                  }
                }
              }
            }
          }
        }
       }
      }
     }
    }
   }
  }
  return out;
}

}  // namespace nocmap::sweep
