// Benchmark binary: runs one workload in this process and prints one JSON
// document with its raw measurements.
//
//   nocmap_bench --workload <name> [--seed <s>] [--seconds <t>]
//                [--trace <path>]
//
// A run sets the workload up, makes one untimed warm-up pass that records
// reference outputs, then repeats timed passes until --seconds have passed,
// timing the set-up again at intervals. Every pass does the same fixed
// work, so two commits compare pass by pass. The document holds the set-up
// times, every operation's host time with the pass it belongs to, the
// output quality, the failed operations and a machine fingerprint;
// benchmark/run.py turns it into the reported statistics.
//
// With --trace the passes alternate traced and untraced (their difference
// is the tracing overhead), the per-layer metrics are added, and the chrome
// trace of the last traced pass plus the layer probes is written to <path>.
#include <sched.h>

#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <string_view>
#include <thread>

#include "harness.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace {

using namespace nocmap;
using namespace nocmap::bench;

constexpr std::size_t kSetupRepeats = 5;
constexpr std::size_t kMinPasses = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  std::string trace_path;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "nocmap_bench: " << problem << "\n"
            << "usage: nocmap_bench --workload <name> [--seed <s>] "
               "[--seconds <t>] [--trace <path>]\nworkloads:";
  for (const std::string& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace_path = value;
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Peak resident set of this program, from the kernel's VmHWM. Not
/// getrusage's ru_maxrss, which keeps the parent's peak across fork and
/// exec: started from run.py it read the Python interpreter's 15 MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kib;
      break;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return kib / 1024.0;
}

std::string utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

obs::JsonValue fingerprint(std::size_t nproc) {
  obs::JsonValue f = obs::JsonValue::object();
  f["nproc"] = static_cast<std::uint64_t>(nproc);
  f["hardware_concurrency"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
#if defined(__clang__)
  f["compiler"] = "clang " __clang_version__;
#elif defined(__GNUC__)
  f["compiler"] = "gcc " __VERSION__;
#else
  f["compiler"] = "unknown";
#endif
  f["build_type"] = NOCMAP_BENCH_BUILD_TYPE;
  f["obs"] = obs::compiled_in();
  f["utc"] = utc_now();
  return f;
}

/// Registry counters and stage timers over the timed passes, as per-pass
/// counts, ratios and shares of the operation time.
void add_registry_layers(double op_ns_total, std::size_t passes,
                         Layers& layers) {
  std::map<std::string, obs::MetricRow> rows;
  for (obs::MetricRow& row : obs::snapshot()) rows[row.name] = row;
  auto count = [&](const char* name) {
    const auto it = rows.find(name);
    return it == rows.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double n = static_cast<double>(passes);
  layers["core.mc.trials"] = count("mc.trials") / n;
  layers["core.sa.iterations"] = count("sa.iterations") / n;
  layers["core.sa.accept_rate"] =
      ratio(count("sa.accepts"), count("sa.iterations"));
  layers["core.ga.evaluations"] = count("ga.evaluations") / n;
  layers["core.sss.windows_evaluated"] = count("sss.windows_evaluated") / n;
  layers["core.sss.commit_ratio"] =
      ratio(count("sss.windows_committed"), count("sss.windows_evaluated"));
  for (const char* stage : {"sort", "select", "swap", "final_sam"}) {
    const auto it = rows.find(std::string("sss.") + stage);
    const double ns =
        it == rows.end() ? 0.0 : static_cast<double>(it->second.total_ns);
    layers[std::string("core.sss.") + stage + "_pct"] =
        100.0 * ns / op_ns_total;
  }
  layers["assign.cold_solves"] = count("assign.cold_solves") / n;
  layers["assign.warm_solves"] = count("assign.warm_solves") / n;
  layers["assign.warm_hit_rate"] =
      ratio(count("assign.warm_hits"), count("assign.warm_solves"));
  layers["assign.path_steps_per_row"] =
      ratio(count("assign.path_steps"), count("assign.rows_inserted"));
}

/// Keeps this core busy for half a second. A core that has sat idle runs
/// the first tens of milliseconds of work up to twice as slowly, which would
/// otherwise land in the set-up time and the first passes.
void settle_cpu() {
  volatile std::uint64_t spins = 0;
  const std::uint64_t start = now_ns();
  while (now_ns() - start < 500'000'000) spins = spins + 1;
}

struct PassRecord {
  std::size_t ops = 0;  ///< entries of op_ns this pass appended
  bool traced = false;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::size_t nproc = online_cpus();
  std::unique_ptr<BenchWorkload> workload =
      make_workload(args.workload, args.seed);
  if (!workload) usage("unknown workload " + args.workload);
  const bool traced = !args.trace_path.empty();

  // Untraced runs time the set-up kSetupRepeats times, spread evenly
  // through the run, so the set-ups meet the same machine conditions as the
  // passes instead of one burst slowing all of them (they last milliseconds).
  // Traced runs set up once and keep the registry to the passes.
  const std::size_t setups = traced ? 1 : kSetupRepeats;
  obs::JsonValue setup_s = obs::JsonValue::array();
  auto time_setup = [&] {
    setup_s.push_back(
        static_cast<double>(timed_ns("setup", [&] { workload->setup(); })) /
        1e9);
  };
  settle_cpu();
  time_setup();
  Ledger ledger;
  workload->warm_up(ledger);
  // Read before the timed passes, whose count (and so the size of the
  // sample buffers below) depends on how fast they run.
  const double rss_mb = peak_rss_mb();

  obs::reset();  // registry counts cover the timed passes only
  std::vector<PassRecord> passes;
  std::vector<std::uint64_t> op_ns;
  const auto budget_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  const std::uint64_t start = now_ns();
  while (passes.size() < kMinPasses || now_ns() - start < budget_ns) {
    if (setup_s.size() < setups &&
        (now_ns() - start) * setups >= budget_ns * setup_s.size()) {
      time_setup();
    }
    PassRecord pass;
    pass.traced = traced && passes.size() % 2 == 0;
    if (pass.traced) {
      obs::clear_trace();
      obs::enable_tracing();
    }
    const std::size_t first = op_ns.size();
    workload->pass(ledger, op_ns);
    obs::disable_tracing();
    pass.ops = op_ns.size() - first;
    passes.push_back(pass);
  }
  while (setup_s.size() < setups) time_setup();

  double op_ns_total = 0.0;
  for (const std::uint64_t ns : op_ns) op_ns_total += static_cast<double>(ns);
  obs::JsonValue layers_json = obs::JsonValue::object();
  if (traced) {
    Layers layers;
    add_registry_layers(op_ns_total, passes.size(), layers);
    workload->add_layers(layers, op_ns_total);
    obs::enable_tracing();
    run_layer_probes(workload->probe_inputs(), args.seed, nproc, ledger,
                     layers);
    obs::disable_tracing();
    if (!obs::save_chrome_trace(args.trace_path)) {
      std::cerr << "nocmap_bench: cannot write " << args.trace_path << '\n';
      return 1;
    }
    for (const auto& [name, value] : layers) layers_json[name] = value;
  }

  obs::JsonValue failures = obs::JsonValue::array();
  for (const std::string& f : ledger.failures()) failures.push_back(f);
  obs::JsonValue pass_list = obs::JsonValue::array();
  for (const PassRecord& p : passes) {
    obs::JsonValue entry = obs::JsonValue::object();
    entry["ops"] = static_cast<std::uint64_t>(p.ops);
    entry["traced"] = p.traced;
    pass_list.push_back(std::move(entry));
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(workload->digest()));

  obs::JsonValue doc = obs::JsonValue::object();
  doc["workload"] = args.workload;
  doc["seed"] = args.seed;
  doc["fingerprint"] = fingerprint(nproc);
  doc["setup_s"] = std::move(setup_s);
  doc["peak_rss_mb"] = rss_mb;
  doc["max_apl"] = workload->max_apl();
  doc["attempted"] = ledger.attempted();
  doc["failed"] = ledger.failed();
  doc["failures"] = std::move(failures);
  doc["digest"] = std::string(digest);
  doc["passes"] = std::move(pass_list);
  if (traced) doc["layers"] = std::move(layers_json);

  // The per-operation samples (over half a million on the service) are
  // streamed as a plain integer array rather than built as JsonValues.
  std::string head = doc.dump(0);
  head.pop_back();  // the document's closing brace
  std::cout << head << ",\"op_ns\":[";
  for (std::size_t i = 0; i < op_ns.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << op_ns[i];
  }
  std::cout << "]}\n";
  return 0;
}
