#include "power/dsent_lite.h"

#include "util/error.h"

namespace nocmap {

PowerReport power_report(const ActivityCounters& activity, Cycle cycles,
                         const Mesh& mesh) {
  NOCMAP_REQUIRE(cycles > 0, "power report needs a non-empty window");
  // pJ / (cycles / f) = pJ·GHz/cycles gives milliwatts directly:
  // 1 pJ · 1 GHz = 1 mW.
  const double to_mw = kClockGhz / static_cast<double>(cycles);

  PowerReport r;
  r.buffer_mw =
      (static_cast<double>(activity.buffer_writes) * kBufferWritePj +
       static_cast<double>(activity.buffer_reads) * kBufferReadPj) *
      to_mw;
  r.crossbar_mw =
      static_cast<double>(activity.crossbar_traversals) * kCrossbarPj * to_mw;
  r.arbiter_mw =
      (static_cast<double>(activity.sw_arbitrations) * kSwArbiterPj +
       static_cast<double>(activity.vc_allocations) * kVcArbiterPj) *
      to_mw;
  r.link_mw =
      static_cast<double>(activity.link_traversals) * kLinkPj * to_mw;
  r.dynamic_mw = r.buffer_mw + r.crossbar_mw + r.arbiter_mw + r.link_mw;
  r.static_mw =
      static_cast<double>(mesh.num_tiles()) * kRouterLeakageMw +
      static_cast<double>(mesh.num_directed_links()) * kLinkLeakageMw;
  r.total_mw = r.dynamic_mw + r.static_mw;
  return r;
}

}  // namespace nocmap
