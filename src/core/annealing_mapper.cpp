#include "core/annealing_mapper.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "core/batch_eval.h"
#include "core/cost_cache.h"
#include "obs/metrics.h"
#include "util/fastmath.h"
#include "util/rng.h"

namespace nocmap {

namespace {

// Iteration-throughput metrics (docs/metrics-schema.md). Accumulated locally
// per chain and published with one add each when the chain finishes, so the
// per-iteration hot loop carries plain integer increments only.
const obs::Timer t_map("sa.map");
const obs::Counter c_chains("sa.chains");
const obs::Counter c_iterations("sa.iterations");
const obs::Counter c_accepts("sa.accepts");

}  // namespace

const char* anneal_objective_name(AnnealObjective objective) {
  switch (objective) {
    case AnnealObjective::kMaxApl: return "max-APL";
    case AnnealObjective::kDevApl: return "dev-APL";
    case AnnealObjective::kMinToMax: return "min-to-max";
  }
  return "?";
}

std::string AnnealingMapper::name() const {
  if (params_.objective == AnnealObjective::kMaxApl) return "SA";
  return std::string("SA(") + anneal_objective_name(params_.objective) + ")";
}

namespace {

/// The rejected Section-III.A objectives over per-application APLs, with
/// applications a1 and a2 taking the candidate values v1 and v2 (a1 may
/// equal a2, then v1 == v2). Applications whose APL is 0 carry no traffic
/// and are skipped. O(A).
double balance_objective(AnnealObjective kind, std::span<const double> apl,
                         std::size_t a1, double v1, std::size_t a2,
                         double v2) {
  double sum = 0.0, sum_sq = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  std::size_t count = 0;
  for (std::size_t a = 0; a < apl.size(); ++a) {
    const double v = a == a1 ? v1 : a == a2 ? v2 : apl[a];
    if (v > 0.0) {
      sum += v;
      sum_sq += v * v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      ++count;
    }
  }
  if (count == 0) return 0.0;
  if (kind == AnnealObjective::kDevApl) {
    // Population stddev.
    const double mean = sum / static_cast<double>(count);
    return std::sqrt(
        std::max(0.0, sum_sq / static_cast<double>(count) - mean * mean));
  }
  return -lo / hi;  // maximize min-to-max => minimize its negation
}

}  // namespace

Mapping AnnealingMapper::map(const ObmProblem& problem) {
  NOCMAP_REQUIRE(params_.iterations > 0, "SA needs at least one iteration");
  NOCMAP_REQUIRE(params_.restarts > 0, "SA needs at least one restart");
  const obs::ScopedTimer map_scope(t_map);
  const std::size_t n = problem.num_threads();
  const AnnealObjective kind = params_.objective;
  const ThreadCostCache cache(problem.workload(), problem.model());
  const BatchEvaluator table(problem, cache);

  struct ChainResult {
    Mapping best;
    double obj = std::numeric_limits<double>::infinity();
  };

  // One annealing chain driven by its own RNG stream. Chains share only the
  // problem, the read-only cost cache and the per-application table, so any
  // number of them can run concurrently.
  //
  // The chain owns its whole state as flat arrays — permutation, per-app
  // numerators, per-app APL values — and fuses move scoring into the walk:
  // each proposal is scored against the *current* state by delta
  // substitution (4 cost-row lookups, the two affected numerators
  // re-derived, the objective reduced over applications in O(A)), so there
  // is never a stale prescore to discard, and an accepted move commits with
  // a handful of stores instead of a canonical O(N/A) recompute. Proposals
  // are pre-drawn in blocks of 64 (two bounded indices per raw PCG draw,
  // multiply-shift, bias < 1e-6 — irrelevant for a Metropolis walk) so the
  // generator's serial dependency chain is off the scoring path.
  //
  // Numerators evolve by delta arithmetic here — the annealer trades the
  // evaluator's purity invariant (which exists for the parallel SSS sweep's
  // exactness, not needed inside a sequential chain) for per-move cost;
  // every 8192 consumed iterations the numerators are re-derived from the
  // permutation to keep the accumulated rounding drift bounded, and the
  // returned best mapping is re-scored canonically (the table's objective()
  // fold for max-APL) so the cross-restart argmin merge sees exact
  // objectives.
  //
  // Uphill acceptance compares a single-draw uniform32() variate (2^-32
  // resolution) against fast_exp_neg — deterministic arithmetic, no libm.
  // For delta >= 23·temp the true probability e^-23 is below that
  // resolution: the chain accepts only the exact-zero draw (and only while
  // exp(-delta/temp) is still positive, i.e. delta < ~700·temp), the same
  // decision the comparison would make, without the polynomial.
  auto run_chain = [&](Rng rng) -> ChainResult {
    // Random initial state, shuffled directly in the mapping's own storage.
    Mapping state;
    std::vector<TileId>& perm = state.thread_to_tile;
    perm.resize(n);
    std::iota(perm.begin(), perm.end(), TileId{0});
    rng.shuffle(perm);

    // Frozen per-slot tables, held in chain locals like all the hot loop
    // reads, so their pointers stay in registers across the loop's calls.
    // scale turns a cost numerator into the value the objective reduces:
    // the weighted APL for max-APL, the plain APL for the balance
    // objectives. The spare slot of zero-volume applications gets factor 0,
    // so its threads' moves never touch a reduced value.
    const std::span<const BatchEvaluator::App> apps = table.apps();
    const std::span<const std::uint32_t> app_of = table.slots();
    const std::size_t num_apps = apps.size();
    std::vector<double> scale(num_apps + 1, 0.0);
    for (std::size_t a = 0; a < num_apps; ++a) {
      scale[a] = kind == AnnealObjective::kMaxApl
                     ? apps[a].weight / apps[a].volume
                     : 1.0 / apps[a].volume;
    }

    // Per-slot numerators and reduced values, spare slot included.
    std::vector<double> num(num_apps + 1, 0.0);
    std::vector<double> val(num_apps + 1, 0.0);
    // Objective with apps a1/a2 at the candidate values v1/v2 and every
    // other app at its current value.
    auto objective_with = [&](std::size_t a1, double v1, std::size_t a2,
                              double v2) -> double {
      if (kind != AnnealObjective::kMaxApl) {
        return balance_objective(kind, {val.data(), num_apps}, a1, v1, a2,
                                 v2);
      }
      double worst = v1 > v2 ? v1 : v2;
      for (std::size_t a = 0; a < num_apps; ++a) {
        if (a != a1 && a != a2 && val[a] > worst) worst = val[a];
      }
      return worst;
    };
    // (Re)derives numerators and values from the permutation in canonical
    // thread-ascending order; returns the current objective.
    auto renormalize = [&]() -> double {
      for (std::size_t a = 0; a < num_apps; ++a) {
        num[a] = table.numerator(a, perm.data());
        val[a] = num[a] * scale[a];
      }
      return objective_with(0, val[0], 0, val[0]);  // nothing substituted
    };
    double current = renormalize();
    ChainResult result{state, current};

    // Geometric cooling relative to the initial max-APL magnitude, so
    // acceptance probabilities stay meaningful for all objectives.
    const auto [t0, t_end] = cooling_schedule(table.max_apl(num));
    const double alpha =
        std::pow(t_end / t0, 1.0 / static_cast<double>(params_.iterations));

    constexpr std::size_t kBlock = 64;
    std::uint32_t j1s[kBlock];
    std::uint32_t j2s[kBlock];
    const auto un64 = static_cast<std::uint64_t>(n);

    double temp = t0;
    std::uint64_t accepts = 0;
    std::size_t done = 0;
    std::size_t since_renorm = 0;
    while (done < params_.iterations) {
      const std::size_t count = std::min(kBlock, params_.iterations - done);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t m1 = static_cast<std::uint64_t>(rng()) * un64;
        j1s[i] = static_cast<std::uint32_t>(m1 >> 32);
        const std::uint64_t m2 =
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(m1)) * un64;
        j2s[i] = static_cast<std::uint32_t>(m2 >> 32);
      }
      for (std::size_t i = 0; i < count; ++i, temp *= alpha) {
        const std::size_t j1 = j1s[i];
        const std::size_t j2 = j2s[i];
        if (j1 == j2) continue;
        const std::size_t a1 = app_of[j1];
        const std::size_t a2 = app_of[j2];
        const TileId t1 = perm[j1];
        const TileId t2 = perm[j2];
        const double c11 = cache.cost(j1, t1);
        const double c12 = cache.cost(j1, t2);
        const double c22 = cache.cost(j2, t2);
        const double c21 = cache.cost(j2, t1);
        double n1, n2;
        if (a1 == a2) {
          n1 = n2 = num[a1] - c11 - c22 + c12 + c21;
        } else {
          n1 = num[a1] - c11 + c12;
          n2 = num[a2] - c22 + c21;
        }
        const double v1 = n1 * scale[a1];
        const double v2 = n2 * scale[a2];
        const double candidate = objective_with(a1, v1, a2, v2);
        const double delta = candidate - current;
        bool take = delta <= 0.0;
        if (!take) {
          const double u = rng.uniform32();
          take = delta < 23.0 * temp
                     ? u < fast_exp_neg(delta / temp)
                     : u == 0.0 && delta < 700.0 * temp;
        }
        if (take) {
          ++accepts;
          perm[j1] = t2;
          perm[j2] = t1;
          num[a1] = n1;
          num[a2] = n2;
          val[a1] = v1;
          val[a2] = v2;
          current = candidate;
          if (current < result.obj) {
            result.obj = current;
            result.best = state;  // copy-on-improvement
          }
        }
      }
      done += count;
      since_renorm += count;
      if (since_renorm >= 8192) {
        current = renormalize();
        since_renorm = 0;
      }
    }
    // Canonical objective of the best mapping, so the restart merge (and
    // the reported quality) never carries delta-arithmetic drift.
    perm = result.best.thread_to_tile;
    result.obj = renormalize();
    if (kind == AnnealObjective::kMaxApl) result.obj = table.objective(num);
    c_chains.add();
    c_iterations.add(params_.iterations);
    c_accepts.add(accepts);
    return result;
  };

  // The single-restart path is the canonical chain, seeded directly.
  if (params_.restarts == 1) return run_chain(Rng(params_.seed)).best;

  const std::vector<Rng> streams =
      Rng(params_.seed).fork_streams(params_.restarts);
  std::vector<ChainResult> results(params_.restarts);
  ParallelTrialRunner runner(params_.parallel);
  runner.for_each(params_.restarts,
                  [&](std::size_t r) { results[r] = run_chain(streams[r]); });

  std::vector<double> objectives;
  objectives.reserve(results.size());
  for (const ChainResult& r : results) objectives.push_back(r.obj);
  return std::move(results[ParallelTrialRunner::argmin(objectives)].best);
}

}  // namespace nocmap
