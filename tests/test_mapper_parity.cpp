// Parity pins: FNV-1a/64 digests of thread_to_tile for fixed mapper runs on
// C1 8x8 (seed 21). Any change to the max-APL annealing chain's arithmetic
// or draw order, to the restart merge, to the cluster annealer's scoring, or
// to the SSS window sweep at any worker count moves a digest; a refactor
// that must keep mappings bit-identical has to leave them all passing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/annealing_mapper.h"
#include "core/cluster_sa_mapper.h"
#include "core/sss_mapper.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem c1_problem() {
  const Mesh mesh = Mesh::square(8);
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), 21));
}

std::string digest(const Mapping& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a/64 over the tile ids
  for (const TileId t : m.thread_to_tile) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (t >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(MapperParity, SaMaxAplSingleChain) {
  const ObmProblem p = c1_problem();
  AnnealingMapper sa(AnnealingParams{.seed = 21});
  EXPECT_EQ(digest(sa.map(p)), "0x54de20c4098ecdb5");
}

TEST(MapperParity, SaMaxAplFourRestarts) {
  const ObmProblem p = c1_problem();
  AnnealingMapper sa(AnnealingParams{
      .seed = 21, .restarts = 4, .parallel = ParallelConfig{2}});
  EXPECT_EQ(digest(sa.map(p)), "0x2a9901b1339faf35");
}

TEST(MapperParity, ClusterSa) {
  const ObmProblem p = c1_problem();
  ClusterSaMapper csa(ClusterSaParams{.seed = 21});
  EXPECT_EQ(digest(csa.map(p)), "0x54e0f172595d6235");
}

TEST(MapperParity, SssSerialAndParallel) {
  const ObmProblem p = c1_problem();
  for (const std::size_t workers : {1u, 4u}) {
    SortSelectSwapMapper sss(SssOptions{.parallel = ParallelConfig{workers}});
    EXPECT_EQ(digest(sss.map(p)), "0x945b94ceec431e25") << workers;
  }
}

}  // namespace
}  // namespace nocmap
