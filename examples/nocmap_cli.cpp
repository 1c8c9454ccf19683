// Command-line mapper: read a workload CSV, solve OBM, print the mapping —
// the tool a scheduler/operator would wire into a job-placement pipeline.
//
// Usage:
//   nocmap_cli --sample workload.csv          # write an example CSV
//   nocmap_cli workload.csv [options]
//   nocmap_cli --help
//
// Options:
//   --mesh N           mesh side, 2-64 (default: smallest square fitting
//                      the threads)
//   --algorithm NAME   sss | global | mc | sa | ga   (default sss)
//   --seed S           algorithm seed (default 1)
//   --td_q Q --td_s S  latency-model overrides
//   --output FILE      save the computed mapping as CSV (thread,tile)
//   --mapping FILE     skip solving; evaluate an existing mapping CSV
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "core/annealing_mapper.h"
#include "core/genetic_mapper.h"
#include "core/global_mapper.h"
#include "core/metrics.h"
#include "core/mapping_io.h"
#include "core/monte_carlo_mapper.h"
#include "core/sss_mapper.h"
#include "topology/mesh.h"
#include "util/parse.h"
#include "workload/io.h"
#include "workload/synthesis.h"

namespace {

using namespace nocmap;

void usage(std::ostream& os, const char* argv0) {
  os << "usage: " << argv0 << " <workload.csv> [--mesh N]"
     << " [--algorithm sss|global|mc|sa|ga] [--seed S]"
     << " [--td_q Q] [--td_s S] [--output map.csv]"
     << " [--mapping map.csv]\n"
     << "       " << argv0 << " --sample <workload.csv>\n"
     << "  --mesh N is the mesh side, 2-" << kMaxMeshSide
     << " (default: the smallest square that fits the threads)\n";
}

int bad_usage(const char* argv0) {
  usage(std::cerr, argv0);
  return 2;
}

std::unique_ptr<Mapper> make_mapper(const std::string& name,
                                    std::uint64_t seed) {
  if (name == "sss") return std::make_unique<SortSelectSwapMapper>();
  if (name == "global") return std::make_unique<GlobalMapper>();
  if (name == "mc") return std::make_unique<MonteCarloMapper>(10000, seed);
  if (name == "sa") {
    return std::make_unique<AnnealingMapper>(
        AnnealingParams{.iterations = 50000, .seed = seed});
  }
  if (name == "ga") {
    return std::make_unique<GeneticMapper>(GeneticParams{.seed = seed});
  }
  throw Error("unknown algorithm: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return bad_usage(argv[0]);
    if (std::strcmp(argv[1], "--help") == 0) {
      usage(std::cout, argv[0]);
      return 0;
    }
    if (std::strcmp(argv[1], "--sample") == 0) {
      if (argc != 3) return bad_usage(argv[0]);
      const Workload sample =
          synthesize_workload(parsec_config("C1"), 1);
      save_workload_csv(sample, argv[2]);
      std::cout << "wrote sample 4-application workload to " << argv[2]
                << "\n";
      return 0;
    }

    std::string path = argv[1];
    std::uint32_t mesh_side = 0;
    std::string algorithm = "sss";
    std::string output_path;
    std::string mapping_path;
    std::uint64_t seed = 1;
    LatencyParams params;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--mesh") {
        mesh_side = parse_mesh_side(next(), arg);
      } else if (arg == "--algorithm") {
        algorithm = next();
      } else if (arg == "--seed") {
        seed = parse_number<std::uint64_t>(next(), arg);
      } else if (arg == "--td_q") {
        params.td_q = parse_number<double>(next(), arg);
      } else if (arg == "--td_s") {
        params.td_s = parse_number<double>(next(), arg);
      } else if (arg == "--output") {
        output_path = next();
      } else if (arg == "--mapping") {
        mapping_path = next();
      } else {
        return bad_usage(argv[0]);
      }
    }

    Workload workload = load_workload_csv(path);
    if (mesh_side == 0) {
      const double side =
          std::ceil(std::sqrt(static_cast<double>(workload.num_threads())));
      NOCMAP_REQUIRE(side <= kMaxMeshSide,
                     "workload has " +
                         std::to_string(workload.num_threads()) +
                         " threads, more than the tiles of the largest "
                         "--mesh (" + std::to_string(kMaxMeshSide) + ")");
      mesh_side = std::max(static_cast<std::uint32_t>(side), 2u);
    }
    const Mesh mesh = Mesh::square(mesh_side);
    NOCMAP_REQUIRE(workload.num_threads() <= mesh.num_tiles(),
                   "workload has more threads than tiles; pass a larger "
                   "--mesh");
    workload = workload.padded_to(mesh.num_tiles());

    const ObmProblem problem(TileLatencyModel(mesh, params), workload);
    Mapping mapping;
    std::string algorithm_label;
    if (!mapping_path.empty()) {
      mapping = load_mapping_csv(mapping_path);
      NOCMAP_REQUIRE(mapping.is_valid_permutation(problem.num_threads()),
                     "mapping size does not match workload/mesh");
      algorithm_label = "(loaded from " + mapping_path + ")";
    } else {
      auto mapper = make_mapper(algorithm, seed);
      mapping = mapper->map(problem);
      algorithm_label = mapper->name();
    }
    if (!output_path.empty()) {
      save_mapping_csv(mapping, output_path);
      std::cout << "mapping written to " << output_path << "\n";
    }
    const LatencyReport report = evaluate(problem, mapping);

    std::cout << "algorithm: " << algorithm_label << " on " << mesh_side
              << "x" << mesh_side << " mesh\n\nthread placements:\n";
    for (std::size_t a = 0; a < workload.num_applications(); ++a) {
      const Application& app = workload.application(a);
      if (app.name == "idle") continue;
      std::cout << "  " << app.name << " (APL " << report.apl[a]
                << " cycles): tiles";
      for (std::size_t j = workload.first_thread(a);
           j < workload.last_thread(a); ++j) {
        std::cout << ' ' << mesh.paper_number(mapping.tile_of(j));
      }
      std::cout << "\n";
    }
    std::cout << "\nmax-APL " << report.max_apl << ", dev-APL "
              << report.dev_apl << ", g-APL " << report.g_apl << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
