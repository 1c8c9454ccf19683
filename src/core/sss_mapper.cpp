#include "core/sss_mapper.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "core/cost_cache.h"
#include "core/evaluator.h"
#include "core/sam.h"
#include "obs/metrics.h"

namespace nocmap {

namespace {

// Stage timings and fine-tuning statistics (docs/metrics-schema.md). The
// timers wrap whole stages and the counters are accumulated locally per
// sweep/round, so nothing lands on the per-permutation hot path — and
// nothing here feeds back into the mapping, preserving the parallel
// engine's bit-identity contract.
const obs::Timer t_sort("sss.sort");
const obs::Timer t_select("sss.select");
const obs::Timer t_swap("sss.swap");
const obs::Timer t_final_sam("sss.final_sam");
const obs::Counter c_maps("sss.maps");
const obs::Counter c_windows_evaluated("sss.windows_evaluated");
const obs::Counter c_windows_skipped("sss.windows_skipped");
const obs::Counter c_windows_committed("sss.windows_committed");
const obs::Counter c_rounds("sss.rounds");
const obs::Counter c_stale_discarded("sss.windows_discarded_stale");

}  // namespace

std::vector<TileId> SortSelectSwapMapper::sorted_tiles(
    const TileLatencyModel& model) {
  std::vector<TileId> tiles(model.mesh().num_tiles());
  std::iota(tiles.begin(), tiles.end(), TileId{0});
  std::stable_sort(tiles.begin(), tiles.end(), [&](TileId a, TileId b) {
    return model.tc(a) < model.tc(b);
  });
  return tiles;
}

namespace {

/// Largest enumerable window: the transposed candidate block holds
/// w·(w!-1) tile ids, ~1.3 MB at w = 8 but ~13 MB at 9 and ~23 GB at 12.
constexpr std::size_t kMaxWindowSize = 8;
static_assert(kMaxWindowSize <= MappingEvaluator::kMaxGroup);

/// One stage-3 window: tiles sorted[start + x*step] for x in [0, w).
struct Window {
  std::size_t start = 0;
  std::size_t step = 0;
};

/// The canonical stage-3 window order — step size ascending, start position
/// ascending — the order the greedy sweep commits in.
std::vector<Window> window_schedule(std::size_t n, std::size_t w,
                                    std::size_t max_step) {
  std::vector<Window> windows;
  for (std::size_t step = 1; step <= max_step; ++step) {
    if ((w - 1) * step >= n) break;  // window no longer fits
    const std::size_t last_start = n - (w - 1) * step;
    for (std::size_t start = 0; start < last_start; ++start) {
      windows.push_back({start, step});
    }
  }
  return windows;
}

/// Reusable buffers for evaluate_window. After a call, window_threads
/// describes the last evaluated window and, when the call returned true,
/// best_tiles its winning permutation. cand_tiles holds all w!-1
/// non-identity window permutations at once, transposed (position-major:
/// candidate k's tile for position x lives at x·K + k), the layout
/// score_group_candidates consumes with contiguous per-position rows.
struct WindowScratch {
  std::vector<std::size_t> perm_idx;
  std::vector<TileId> window_tiles;
  std::vector<std::size_t> window_threads;
  std::vector<TileId> best_tiles;
  std::vector<TileId> cand_tiles;
  std::vector<double> scores;
  std::size_t num_candidates;  // w! - 1
  std::uint64_t skipped = 0;   // windows can_improve() ruled out
  // The last round's slice scan: windows scored, and whether the last of
  // them improved (window_threads and best_tiles then describe it).
  std::size_t scored = 0;
  bool hit = false;

  explicit WindowScratch(std::size_t w)
      : perm_idx(w), window_tiles(w), window_threads(w), best_tiles(w) {
    NOCMAP_ASSERT(w <= kMaxWindowSize);
    std::size_t fact = 1;
    for (std::size_t i = 2; i <= w; ++i) fact *= i;
    num_candidates = fact - 1;
    cand_tiles.resize(w * num_candidates);
    scores.resize(num_candidates);
  }
};

/// Scores every non-identity permutation of the threads on one window's
/// tiles in a single batched pass and records the best strictly-improving
/// one in s.best_tiles. The evaluator is never mutated: all candidates are
/// enumerated into the scratch's transposed block and scored through
/// MappingEvaluator::score_group_candidates, whose values are bit-identical
/// to the objective() an apply/revert probe would have observed. Selection
/// walks the scores in the same next_permutation order with the same
/// strict-< test, so the chosen permutation — and therefore the whole SSS
/// mapping — is bit-identical to the old mutating probe loop, at a fraction
/// of the work (no per-candidate numerator rebuilds for apply and revert).
///
/// A window whose untouched applications already attain the objective
/// (MappingEvaluator::can_improve says no) is skipped before any candidate
/// is enumerated: every candidate would score >= the baseline, so the
/// strict-< test could not fire and the outcome is the same.
///
/// Because evaluation is read-only, the sweep's workers all score windows
/// through the one shared evaluator.
bool evaluate_window(const MappingEvaluator& eval,
                     std::span<const TileId> sorted, const Window& win,
                     WindowScratch& s) {
  const std::size_t w = s.window_tiles.size();
  const std::size_t K = s.num_candidates;
  for (std::size_t x = 0; x < w; ++x) {
    s.window_tiles[x] = sorted[win.start + x * win.step];
    s.window_threads[x] = eval.thread_on(s.window_tiles[x]);
  }
  if (!eval.can_improve(s.window_threads)) {
    ++s.skipped;
    return false;
  }

  // Baseline = identity permutation of the window.
  double best_obj = eval.objective();
  bool improved = false;

  std::iota(s.perm_idx.begin(), s.perm_idx.end(), std::size_t{0});
  std::size_t k = 0;
  while (std::next_permutation(s.perm_idx.begin(), s.perm_idx.end())) {
    for (std::size_t x = 0; x < w; ++x) {
      s.cand_tiles[x * K + k] = s.window_tiles[s.perm_idx[x]];
    }
    ++k;
  }
  NOCMAP_ASSERT(k == K);
  eval.score_group_candidates(s.window_threads, s.cand_tiles.data(), K,
                              s.scores);

  std::size_t best_k = K;
  for (k = 0; k < K; ++k) {
    if (s.scores[k] < best_obj) {
      best_obj = s.scores[k];
      best_k = k;
      improved = true;
    }
  }
  if (improved) {
    for (std::size_t x = 0; x < w; ++x) {
      s.best_tiles[x] = s.cand_tiles[x * K + best_k];
    }
  }
  return improved;
}

/// Stage 3's greedy sweep in slice-and-stop rounds. Each round splits the
/// next `round` windows into one contiguous slice per worker, and each
/// worker scores its slice in canonical order through the one shared,
/// frozen evaluator until its first improving window. Every window before
/// the lowest slice's hit saw the current state and found nothing, so that
/// hit is exactly the window a one-at-a-time greedy sweep commits next: its
/// permutation is committed verbatim and the next round starts right after
/// it. Hits in higher slices saw the pre-commit state and are discarded. By
/// induction the committed sequence, and so the mapping, is the same at any
/// worker count; one worker has one slice and scores every window once.
///
/// The round size adapts: it shrinks to a few windows per worker while
/// commits are frequent (early, step-1 windows) and doubles while rounds
/// come back dry (the long converged tail), bounding the work discarded
/// with higher slices.
void sweep_windows(MappingEvaluator& eval, std::span<const TileId> sorted,
                   std::span<const Window> windows, std::size_t w,
                   ParallelTrialRunner& runner) {
  const std::size_t workers = runner.num_threads();
  const std::size_t min_round = workers * 4;
  const std::size_t max_round = std::max<std::size_t>(min_round, 2048);
  // One result slot per slice, reused across rounds: after a round, a
  // slice whose scan hit holds that window's threads and permutation.
  std::vector<WindowScratch> slices(workers, WindowScratch(w));

  std::size_t pos = 0;
  std::size_t end = 0;
  std::size_t per_slice = 0;
  const std::function<void(std::size_t)> scan = [&](std::size_t t) {
    WindowScratch& s = slices[t];
    const std::size_t lo = std::min(pos + t * per_slice, end);
    const std::size_t hi = std::min(lo + per_slice, end);
    s.hit = false;
    s.scored = 0;
    for (std::size_t i = lo; i < hi && !s.hit; ++i) {
      s.hit = evaluate_window(eval, sorted, windows[i], s);
      ++s.scored;
    }
  };

  std::uint64_t rounds = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t committed = 0;
  std::uint64_t stale = 0;
  std::size_t round = min_round;
  while (pos < windows.size()) {
    end = std::min(pos + round, windows.size());
    per_slice = (end - pos + workers - 1) / workers;
    ++rounds;
    runner.for_each(workers, scan);

    // Canonical commit: the lowest slice's hit; higher slices are stale.
    const WindowScratch* hit = nullptr;
    std::size_t next = end;
    for (std::size_t t = 0; t < workers; ++t) {
      const WindowScratch& s = slices[t];
      evaluated += s.scored;
      if (hit != nullptr) {
        stale += s.scored;
      } else if (s.hit) {
        hit = &s;
        next = pos + t * per_slice + s.scored;
      }
    }
    if (hit != nullptr) {
      eval.apply_group(hit->window_threads, hit->best_tiles);
      ++committed;
    }
    pos = next;
    round = hit != nullptr ? min_round : std::min(round * 2, max_round);
  }

  std::uint64_t skipped = 0;
  for (const WindowScratch& s : slices) skipped += s.skipped;
  c_rounds.add(rounds);
  c_windows_evaluated.add(evaluated);
  c_windows_skipped.add(skipped);
  c_windows_committed.add(committed);
  c_stale_discarded.add(stale);
}

}  // namespace

Mapping SortSelectSwapMapper::map(const ObmProblem& problem) {
  NOCMAP_REQUIRE(options_.window_size >= 2, "window size must be >= 2");
  NOCMAP_REQUIRE(options_.window_size <= kMaxWindowSize,
                 "window size must be <= 8 (w! permutations per window)");
  c_maps.add();
  const Workload& wl = problem.workload();
  const std::size_t n = problem.num_threads();
  const std::size_t num_apps = wl.num_applications();

  // Shared eq.-13 table: every SAM assignment call and every evaluator query
  // below reads this one immutable matrix.
  const ThreadCostCache cache(wl, problem.model());
  ParallelTrialRunner runner(options_.parallel);

  // Scratch for the per-application SAM solves of stages 2 and 4, one
  // workspace per application so concurrent solves never share one. Every
  // solve is cold, so the result never depends on a workspace's history.
  std::vector<AssignmentWorkspace> sam_ws(num_apps);

  // ---- Stage 1: sort tiles by cache APL.
  std::vector<TileId> sorted;
  {
    const obs::ScopedTimer scope(t_sort);
    sorted = sorted_tiles(problem.model());
  }

  // ---- Stage 2: per application, select evenly spread tiles from the
  // remaining list (sequential by construction — each application picks
  // from what its predecessors left), then SAM-assign threads to the chosen
  // tiles; the per-application Hungarian solves are independent and fan out.
  Mapping mapping;
  mapping.thread_to_tile.resize(n);
  {
    const obs::ScopedTimer select_scope(t_select);
    std::vector<std::vector<TileId>> chosen(num_apps);
    std::vector<TileId> avail = sorted;
    for (std::size_t i = 0; i < num_apps; ++i) {
      const std::size_t dn = wl.last_thread(i) - wl.first_thread(i);
      NOCMAP_ASSERT(dn <= avail.size());

      // Middle of each of dn equal-length sections of the remaining list.
      // Indices are strictly increasing because |avail|/dn >= 1.
      std::vector<std::size_t> picks(dn);
      for (std::size_t s = 0; s < dn; ++s) {
        picks[s] = static_cast<std::size_t>(
            (static_cast<double>(s) + 0.5) *
            static_cast<double>(avail.size()) / static_cast<double>(dn));
      }
      chosen[i].resize(dn);
      for (std::size_t s = 0; s < dn; ++s) chosen[i][s] = avail[picks[s]];

      // Remove the chosen tiles (descending index order keeps picks valid).
      for (std::size_t s = dn; s-- > 0;) {
        avail.erase(avail.begin() + static_cast<std::ptrdiff_t>(picks[s]));
      }
    }
    runner.for_each(num_apps, [&](std::size_t i) {
      const std::size_t lo = wl.first_thread(i);
      const SamResult sam = solve_sam(cache, lo, chosen[i], sam_ws[i]);
      for (std::size_t t = 0; t < chosen[i].size(); ++t) {
        mapping.thread_to_tile[lo + t] = sam.tiles[t];
      }
    });
  }

  // ---- Stage 3: greedy sliding-window permutation swaps over the sorted
  // tile list.
  if (options_.window_swaps) {
    const obs::ScopedTimer swap_scope(t_swap);
    MappingEvaluator eval(problem, std::move(mapping), cache);
    const std::size_t w = options_.window_size;
    const std::size_t max_step =
        options_.max_step > 0 ? options_.max_step
                              : std::max<std::size_t>(n / 4, 1);
    sweep_windows(eval, sorted, window_schedule(n, w, max_step), w, runner);
    mapping = eval.mapping();
  }

  // ---- Stage 4: final SAM repair inside each application — independent
  // per-application solves over disjoint mapping ranges, so they fan out.
  // The solves run cold: stage 2's column potentials are indexed in its
  // select order while these columns are in thread order, so a warm start
  // saved only 319 of 4,193 path steps at 8×8 and 44 of 62,196 at 16×16
  // (C1–C8).
  if (options_.final_sam) {
    const obs::ScopedTimer sam_scope(t_final_sam);
    runner.for_each(num_apps, [&](std::size_t i) {
      const std::size_t lo = wl.first_thread(i);
      const std::size_t dn = wl.last_thread(i) - lo;
      std::vector<TileId> tiles(dn);
      for (std::size_t t = 0; t < dn; ++t) {
        tiles[t] = mapping.thread_to_tile[lo + t];
      }
      const SamResult sam = solve_sam(cache, lo, tiles, sam_ws[i]);
      for (std::size_t t = 0; t < dn; ++t) {
        mapping.thread_to_tile[lo + t] = sam.tiles[t];
      }
    });
  }

  return mapping;
}

}  // namespace nocmap
