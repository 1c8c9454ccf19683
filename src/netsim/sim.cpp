#include "netsim/sim.h"

#include <algorithm>

#include "obs/metrics.h"

namespace nocmap {

namespace {

// Simulation metrics (docs/metrics-schema.md): totals published once per
// run_simulation call, gauges keeping the worst load seen by any run in the
// process. Nothing is touched inside the cycle loop.
const obs::Timer t_run("netsim.run_simulation");
const obs::Counter c_runs("netsim.runs");
const obs::Counter c_cycles("netsim.cycles");
const obs::Counter c_packets("netsim.packets_measured");
const obs::Counter c_flits_injected("netsim.flits_injected");
const obs::Counter c_flits_ejected("netsim.flits_ejected");
const obs::Counter c_link_traversals("netsim.link_traversals");
const obs::Counter c_queue_wait("netsim.queue_wait_cycles");
const obs::Gauge g_link_util("netsim.max_link_utilization");
const obs::Gauge g_crossbar("netsim.max_crossbar_per_cycle");
const obs::Gauge g_queue_wait("netsim.max_avg_queue_wait");
const obs::Gauge g_occupancy("netsim.max_queue_occupancy");
// Spatial-partition metrics (DESIGN.md §16): runs that used more than one
// domain, the domains they summed to, and the halo-exchange volume.
const obs::Counter c_parallel_runs("netsim.parallel.runs");
const obs::Counter c_parallel_domains("netsim.parallel.domains");
const obs::Counter c_parallel_boundary("netsim.parallel.boundary_flits");

RouterLoadSummary summarize_load(const ActivityRecord& window,
                                 const Mesh& mesh, Cycle measured) {
  RouterLoadSummary load;
  if (measured == 0) return load;
  const double cycles = static_cast<double>(measured);
  const std::size_t tiles = mesh.num_tiles();
  double crossbar_sum = 0.0;
  for (std::size_t t = 0; t < tiles; ++t) {
    const ActivityCounters& a = window.routers[t];
    const double per_cycle = static_cast<double>(a.crossbar_traversals) /
                             cycles;
    crossbar_sum += per_cycle;
    load.max_crossbar_per_cycle =
        std::max(load.max_crossbar_per_cycle, per_cycle);
    load.max_avg_queue_wait =
        std::max(load.max_avg_queue_wait, a.avg_queue_wait());
    load.max_queue_occupancy =
        std::max(load.max_queue_occupancy,
                 static_cast<double>(a.queue_wait_cycles) / cycles);
  }
  load.mean_crossbar_per_cycle =
      crossbar_sum / static_cast<double>(tiles);
  load.link_utilization =
      static_cast<double>(window.total.link_traversals) /
      (static_cast<double>(mesh.num_directed_links()) * cycles);
  return load;
}

}  // namespace

SimResult run_simulation(const ObmProblem& problem, const Mapping& mapping,
                         const SimConfig& config) {
  const obs::ScopedTimer run_scope(t_run);
  Network net(problem.mesh(), config.network, config.sim_workers);
  // The problem's latency model owns the memory-traffic mode; the cycle
  // engine always simulates what the analytic model assumed.
  TrafficConfig traffic_config = config.traffic;
  traffic_config.memory_mode = problem.model().mode();
  TrafficEngine traffic(problem, mapping, traffic_config);

  const std::size_t num_apps = problem.num_applications();
  SimResult result;
  result.per_app.resize(num_apps);
  result.per_class.resize(kNumPacketClasses);
  result.per_app_histogram.resize(num_apps);

  const Cycle measure_start = config.warmup_cycles;
  const Cycle measure_end = config.warmup_cycles + config.measure_cycles;

  std::vector<LocalAccess> locals;
  auto record = [&](std::size_t app, PacketClass cls, Cycle latency,
                    Cycle created) {
    if (created < measure_start || created >= measure_end) return;
    const auto cycles = static_cast<double>(latency);
    result.per_app[app].add(cycles);
    result.per_app_histogram[app].add(latency);
    result.overall.add(cycles);
    result.per_class[static_cast<std::size_t>(cls)].add(cycles);
    ++result.packets_measured;
  };

  // One cycle: issue the traffic due at `issue`, advance the network, and
  // hand every ejection to the traffic layer and the latency record. Only
  // the measurement window records its local accesses.
  auto step = [&](Cycle issue, bool record_locals) {
    locals.clear();
    traffic.generate(net, issue, locals);
    if (record_locals) {
      for (const LocalAccess& la : locals) {
        record(la.app, la.cls, 0, issue);
        ++result.local_accesses;
      }
    }
    net.step();
    for (const Ejection& e : net.take_ejections()) {
      traffic.on_ejection(net, e, net.now());
      record(e.info.app, e.info.cls, e.latency(), e.info.created);
    }
  };

  // --- Warmup: latency samples and activity are discarded (record() drops
  // anything created before measure_start).
  Cycle cycle = 0;
  for (; cycle < measure_start; ++cycle) step(cycle, false);
  // Resetting between the loops (not on a cycle == measure_start test
  // inside a combined loop) also covers measure_cycles == 0, which
  // previously never reset and leaked warmup activity into the result.
  net.reset_activity();

  // --- Measurement window.
  for (; cycle < measure_end; ++cycle) step(cycle, true);
  // The window's record is taken before the drain below keeps moving
  // flits, so drain activity cannot inflate the load summary. It is freed
  // before the drain, so at most one record is alive at a time.
  result.measured_cycles = measure_end - measure_start;
  {
    const ActivityRecord window = net.snapshot_activity();
    result.activity = window.total;
    result.load =
        summarize_load(window, problem.mesh(), result.measured_cycles);
  }

  // --- Drain: stop creating requests, let replies and in-flight packets
  // finish so no measured packet is censored.
  traffic.stop_generation();
  Cycle drained = 0;
  while ((net.packets_in_flight() > 0 || !traffic.idle()) &&
         drained < config.max_drain_cycles) {
    step(net.now(), false);  // issues due replies only
    ++drained;
  }
  result.drain_incomplete =
      net.packets_in_flight() > 0 || !traffic.idle();
  result.activity_with_drain = net.snapshot_activity().total;

  // --- Aggregate metrics.
  result.apl.resize(num_apps, 0.0);
  std::vector<double> active;
  for (std::size_t a = 0; a < num_apps; ++a) {
    if (result.per_app[a].count() > 0) {
      result.apl[a] = result.per_app[a].mean();
      active.push_back(result.apl[a]);
    }
  }
  if (!active.empty()) {
    result.max_apl = max_value(active);
    result.dev_apl = stddev_population(active);
  }
  result.g_apl = result.overall.mean();
  result.flits_injected = net.flits_injected();
  result.flits_ejected = net.flits_ejected();

  c_runs.add();
  c_cycles.add(measure_end + drained);
  c_packets.add(result.packets_measured);
  c_flits_injected.add(result.flits_injected);
  c_flits_ejected.add(result.flits_ejected);
  c_link_traversals.add(result.activity.link_traversals);
  c_queue_wait.add(result.activity.queue_wait_cycles);
  g_link_util.set_max(result.load.link_utilization);
  g_crossbar.set_max(result.load.max_crossbar_per_cycle);
  g_queue_wait.set_max(result.load.max_avg_queue_wait);
  g_occupancy.set_max(result.load.max_queue_occupancy);
  if (net.num_domains() > 1) {
    c_parallel_runs.add();
    c_parallel_domains.add(net.num_domains());
    c_parallel_boundary.add(net.boundary_flits());
  }
  return result;
}

}  // namespace nocmap
