#include "netsim/router.h"

#include <gtest/gtest.h>

namespace nocmap {
namespace {

// Every router test drives a one-router engine for tile 5, (1,1) of a 4x4
// mesh, whose only router index is 0. Flits become eligible kRouterCycles
// (3) after they enter a buffer, so most tests tick at cycle 3.
NetworkConfig small_config() {
  NetworkConfig c;
  c.vcs_per_port = 2;
  return c;
}

Flit make_flit(PacketId id, std::uint32_t index, std::uint32_t total,
               TileId dst) {
  Flit f;
  f.packet = id;
  f.is_head = (index == 0);
  f.is_tail = (index + 1 == total);
  f.dst = dst;
  return f;
}

TEST(PortDir, OppositeIsInvolution) {
  for (auto d : {PortDir::kNorth, PortDir::kEast, PortDir::kSouth,
                 PortDir::kWest, PortDir::kLocal}) {
    EXPECT_EQ(opposite(opposite(d)), d);
  }
  EXPECT_EQ(opposite(PortDir::kNorth), PortDir::kSouth);
  EXPECT_EQ(opposite(PortDir::kEast), PortDir::kWest);
}

TEST(Router, AcceptsUpToBufferDepth) {
  const Mesh mesh = Mesh::square(4);
  RouterEngine r(mesh, small_config(), 1, 5);
  const std::uint32_t flits = kBufferDepth + 1;
  for (std::uint32_t i = 0; i < kBufferDepth; ++i) {
    EXPECT_NO_THROW(
        r.receive_flit(0, PortDir::kWest, 0, make_flit(1, i, flits, 10), 0));
  }
  EXPECT_THROW(r.receive_flit(0, PortDir::kWest, 0,
                              make_flit(1, kBufferDepth, flits, 10), 0),
               Error);
}

TEST(Router, FlitNotEligibleBeforePipelineDelay) {
  const Mesh mesh = Mesh::square(4);
  RouterEngine r(mesh, small_config(), 1, 5);  // tile (1,1)
  r.receive_flit(0, PortDir::kLocal, 0, make_flit(1, 0, 1, 6), 0);  // to (1,2)

  std::vector<Departure> out;
  r.tick(0, 0, out);
  EXPECT_TRUE(out.empty());
  r.tick(0, 2, out);
  EXPECT_TRUE(out.empty());
  r.tick(0, kRouterCycles, out);  // enqueued 0 + the 3-cycle pipeline
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].out_port, PortDir::kEast);
  EXPECT_EQ(out[0].in_port, PortDir::kLocal);
}

TEST(Router, XyRoutingGoesXFirst) {
  const Mesh mesh = Mesh::square(4);
  RouterEngine r(mesh, small_config(), 1, 5);  // tile (1,1)
  // Destination (3,3): must go East first (X before Y).
  r.receive_flit(0, PortDir::kLocal, 0, make_flit(1, 0, 1, 15), 0);
  std::vector<Departure> out;
  r.tick(0, 3, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].out_port, PortDir::kEast);
}

TEST(Router, RoutesToLocalWhenAtDestination) {
  const Mesh mesh = Mesh::square(4);
  RouterEngine r(mesh, small_config(), 1, 5);
  r.receive_flit(0, PortDir::kWest, 0, make_flit(1, 0, 1, 5), 0);  // dst == id
  std::vector<Departure> out;
  r.tick(0, 3, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].out_port, PortDir::kLocal);
}

TEST(Router, WormholeKeepsPacketContiguousInVc) {
  const Mesh mesh = Mesh::square(4);
  RouterEngine r(mesh, small_config(), 1, 5);
  // Three flits of one packet.
  for (std::uint32_t i = 0; i < 3; ++i) {
    r.receive_flit(0, PortDir::kWest, 0, make_flit(1, i, 3, 6), 0);
  }
  std::vector<Departure> out;
  for (Cycle now = 3; now <= 5; ++now) r.tick(0, now, out);
  ASSERT_EQ(out.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].flit.is_head, i == 0);  // in order: head, body, tail
    EXPECT_EQ(out[i].flit.is_tail, i == 2);
    EXPECT_EQ(out[i].out_vc, out[0].out_vc);  // same VC throughout
  }
}

TEST(Router, StallsWhenNoCredits) {
  const Mesh mesh = Mesh::square(4);
  RouterEngine r(mesh, small_config(), 1, 5);
  // A packet one flit longer than a buffer: its first kBufferDepth flits
  // leave one per cycle and use up every credit of the East output VC.
  const std::uint32_t flits = kBufferDepth + 1;
  for (std::uint32_t i = 0; i < kBufferDepth; ++i) {
    r.receive_flit(0, PortDir::kWest, 0, make_flit(1, i, flits, 6), 0);
  }
  std::vector<Departure> out;
  Cycle now = kRouterCycles;
  for (; now < kRouterCycles + kBufferDepth; ++now) r.tick(0, now, out);
  ASSERT_EQ(out.size(), kBufferDepth);
  out.clear();
  r.receive_flit(0, PortDir::kWest, 0, make_flit(1, kBufferDepth, flits, 6),
                 now);
  now += kRouterCycles;
  r.tick(0, now, out);
  EXPECT_TRUE(out.empty());  // tail blocked: no credit
  // Return a credit to VC 0 of the East output (the one used).
  r.receive_credit(0, PortDir::kEast, 0);
  r.tick(0, now + 1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].flit.is_tail);
}

TEST(Router, TailReleasesOutputVc) {
  const Mesh mesh = Mesh::square(4);
  NetworkConfig cfg = small_config();
  cfg.vcs_per_port = 1;  // single VC: second packet must reuse it
  RouterEngine r(mesh, cfg, 1, 5);
  r.receive_flit(0, PortDir::kWest, 0, make_flit(1, 0, 1, 6), 0);
  std::vector<Departure> out;
  r.tick(0, 3, out);
  ASSERT_EQ(out.size(), 1u);
  out.clear();
  // Second packet in the same input VC gets the output VC after the tail.
  r.receive_flit(0, PortDir::kWest, 0, make_flit(2, 0, 1, 6), 4);
  r.tick(0, 7, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].flit.packet, 2u);
}

TEST(Router, OneGrantPerOutputPortPerCycle) {
  const Mesh mesh = Mesh::square(4);
  RouterEngine r(mesh, small_config(), 1, 5);
  // Two packets from different input ports, both heading East.
  r.receive_flit(0, PortDir::kWest, 0, make_flit(1, 0, 1, 6), 0);
  r.receive_flit(0, PortDir::kNorth, 0, make_flit(2, 0, 1, 6), 0);
  std::vector<Departure> out;
  r.tick(0, 3, out);
  EXPECT_EQ(out.size(), 1u);
  r.tick(0, 4, out);
  EXPECT_EQ(out.size(), 2u);  // the other one follows next cycle
}

TEST(Router, DistinctOutputsServedSameCycle) {
  const Mesh mesh = Mesh::square(4);
  RouterEngine r(mesh, small_config(), 1, 5);
  r.receive_flit(0, PortDir::kWest, 0, make_flit(1, 0, 1, 6), 0);   // East
  r.receive_flit(0, PortDir::kNorth, 0, make_flit(2, 0, 1, 9), 0);  // South
  std::vector<Departure> out;
  r.tick(0, 3, out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Router, ActivityCountersTrackEvents) {
  const Mesh mesh = Mesh::square(4);
  RouterEngine r(mesh, small_config(), 1, 5);
  for (std::uint32_t i = 0; i < 2; ++i) {
    r.receive_flit(0, PortDir::kWest, 0, make_flit(1, i, 2, 6), 0);
  }
  std::vector<Departure> out;
  for (Cycle now = 3; now <= 4; ++now) r.tick(0, now, out);
  const ActivityCounters& a = r.activity(0);
  EXPECT_EQ(a.buffer_writes, 2u);
  EXPECT_EQ(a.buffer_reads, 2u);
  EXPECT_EQ(a.crossbar_traversals, 2u);
  EXPECT_EQ(a.sw_arbitrations, 2u);
  EXPECT_EQ(a.vc_allocations, 1u);  // one per packet
  r.reset_activity();
  EXPECT_EQ(r.activity(0).buffer_writes, 0u);
}

TEST(Router, MeshDiameterFitsTheHopCount) {
  // A flit counts its hops in 16 bits; dimension-order routing bounds them
  // by the mesh diameter (65535 on a 1x65536 mesh).
  EXPECT_NO_THROW(RouterEngine(Mesh(1, 65536, {0}), small_config(), 1, 0));
  EXPECT_THROW(RouterEngine(Mesh(1, 65537, {0}), small_config(), 1, 0),
               Error);
}

TEST(Router, CreditOverflowDetected) {
  const Mesh mesh = Mesh::square(4);
  RouterEngine r(mesh, small_config(), 1, 5);
  // Buffers start at full credit; an extra credit is a protocol violation.
  EXPECT_THROW(r.receive_credit(0, PortDir::kEast, 0), Error);
}

}  // namespace
}  // namespace nocmap
