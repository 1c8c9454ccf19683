#include "power/dsent_lite.h"

#include "util/error.h"

namespace nocmap {

double DsentLitePowerModel::dynamic_energy_pj(
    const ActivityCounters& activity) const {
  const auto bw = static_cast<double>(activity.buffer_writes);
  const auto br = static_cast<double>(activity.buffer_reads);
  const auto xb = static_cast<double>(activity.crossbar_traversals);
  const auto sa = static_cast<double>(activity.sw_arbitrations);
  const auto va = static_cast<double>(activity.vc_allocations);
  const auto lk = static_cast<double>(activity.link_traversals);
  return bw * params_.buffer_write_pj + br * params_.buffer_read_pj +
         xb * params_.crossbar_pj + sa * params_.sw_arbiter_pj +
         va * params_.vc_arbiter_pj + lk * params_.link_pj;
}

PowerReport DsentLitePowerModel::report(const ActivityCounters& activity,
                                        Cycle cycles,
                                        std::size_t num_routers,
                                        std::size_t num_links) const {
  NOCMAP_REQUIRE(cycles > 0, "power report needs a non-empty window");
  // pJ / (cycles / f) = pJ·GHz/cycles gives milliwatts directly:
  // 1 pJ · 1 GHz = 1 mW.
  const double to_mw = params_.clock_ghz / static_cast<double>(cycles);

  PowerReport r;
  r.buffer_mw = (static_cast<double>(activity.buffer_writes) *
                     params_.buffer_write_pj +
                 static_cast<double>(activity.buffer_reads) *
                     params_.buffer_read_pj) *
                to_mw;
  r.crossbar_mw = static_cast<double>(activity.crossbar_traversals) *
                  params_.crossbar_pj * to_mw;
  r.arbiter_mw = (static_cast<double>(activity.sw_arbitrations) *
                      params_.sw_arbiter_pj +
                  static_cast<double>(activity.vc_allocations) *
                      params_.vc_arbiter_pj) *
                 to_mw;
  r.link_mw =
      static_cast<double>(activity.link_traversals) * params_.link_pj * to_mw;
  r.dynamic_mw = r.buffer_mw + r.crossbar_mw + r.arbiter_mw + r.link_mw;
  r.static_mw = static_cast<double>(num_routers) * params_.router_leakage_mw +
                static_cast<double>(num_links) * params_.link_leakage_mw;
  r.total_mw = r.dynamic_mw + r.static_mw;
  return r;
}

}  // namespace nocmap
