// DSENT-lite: an event-energy NoC power model (substitution for DSENT,
// paper reference [24]; DESIGN.md §5.3).
//
// Dynamic power = Σ (event count × per-event energy) / elapsed time.
// Per-event energies are representative 45 nm / 1.0 V / 128-bit-flit
// magnitudes (order-of-magnitude faithful to DSENT's electrical models for
// a 3-stage VC router with 1 mm links). The paper's Figure-11 claim is
// purely *relative* — SSS dynamic power within ~2.7% of Global — and
// relative dynamic power depends only on activity ratios, so absolute
// calibration is not load-bearing; the constants are still documented and
// overridable.
//
// Static power is modelled as a constant per router + per link, reported
// separately (the paper notes static power is approximately equal across
// mapping schemes).
#pragma once

#include "netsim/types.h"

namespace nocmap {

/// Per-event energies in picojoules and leakage in milliwatts.
struct PowerParams {
  // 45 nm, 1.0 V, 128-bit flit defaults.
  double buffer_write_pj = 1.25;   ///< flit write into an input VC buffer
  double buffer_read_pj = 0.95;    ///< flit read out of an input VC buffer
  double crossbar_pj = 1.65;       ///< 5x5 crossbar traversal per flit
  double sw_arbiter_pj = 0.12;     ///< switch-allocator grant
  double vc_arbiter_pj = 0.18;     ///< output-VC allocation (head flits)
  double link_pj = 2.10;           ///< 1 mm 128-bit link traversal per flit

  double router_leakage_mw = 4.8;  ///< per router
  double link_leakage_mw = 1.1;    ///< per unidirectional inter-router link

  double clock_ghz = 2.0;          ///< paper Table 2
};

/// Power breakdown in milliwatts.
struct PowerReport {
  double buffer_mw = 0.0;
  double crossbar_mw = 0.0;
  double arbiter_mw = 0.0;
  double link_mw = 0.0;
  double dynamic_mw = 0.0;  ///< sum of the above
  double static_mw = 0.0;
  double total_mw = 0.0;
};

class DsentLitePowerModel {
 public:
  explicit DsentLitePowerModel(PowerParams params = {}) : params_(params) {}

  const PowerParams& params() const { return params_; }

  /// Converts measured activity over `cycles` into a power report for a
  /// network with `num_routers` routers and `num_links` unidirectional
  /// inter-router links.
  PowerReport report(const ActivityCounters& activity, Cycle cycles,
                     std::size_t num_routers, std::size_t num_links) const;

  /// Energy of a single event set (picojoules); exposed for unit tests.
  double dynamic_energy_pj(const ActivityCounters& activity) const;

 private:
  PowerParams params_;
};

}  // namespace nocmap
