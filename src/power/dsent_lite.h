// DSENT-lite: an event-energy NoC power model (substitution for DSENT,
// paper reference [24]; DESIGN.md §5.3).
//
// Dynamic power = Σ (event count × per-event energy) / elapsed time.
// Per-event energies are representative 45 nm / 1.0 V / 128-bit-flit
// magnitudes (order-of-magnitude faithful to DSENT's electrical models for
// a 3-stage VC router with 1 mm links). The paper's Figure-11 claim is
// purely *relative* — SSS dynamic power within ~2.7% of Global — and
// relative dynamic power depends only on activity ratios, so absolute
// calibration is not load-bearing; the model evaluates this one
// technology point, and its constants are documented below.
//
// Static power is modelled as a constant per router + per link, reported
// separately (the paper notes static power is approximately equal across
// mapping schemes).
#pragma once

#include "netsim/types.h"

namespace nocmap {

// Per-event energies in picojoules (45 nm, 1.0 V, 128-bit flits).
inline constexpr double kBufferWritePj = 1.25;  ///< flit into a VC buffer
inline constexpr double kBufferReadPj = 0.95;   ///< flit out of a VC buffer
inline constexpr double kCrossbarPj = 1.65;     ///< 5x5 crossbar traversal
inline constexpr double kSwArbiterPj = 0.12;    ///< switch-allocator grant
inline constexpr double kVcArbiterPj = 0.18;    ///< output-VC allocation
inline constexpr double kLinkPj = 2.10;         ///< 1 mm link traversal

// Leakage in milliwatts, and the clock (paper Table 2).
inline constexpr double kRouterLeakageMw = 4.8;  ///< per router
inline constexpr double kLinkLeakageMw = 1.1;    ///< per directed link
inline constexpr double kClockGhz = 2.0;

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

/// Converts measured activity over `cycles` into a power report for
/// `mesh`: one leaking router per tile and one per directed inter-router
/// link. Throws nocmap::Error on an empty window.
PowerReport power_report(const ActivityCounters& activity, Cycle cycles,
                         const Mesh& mesh);

}  // namespace nocmap
