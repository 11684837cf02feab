// Microbenchmark for the sorted-set intersection kernels behind the
// Eq. (2) con column build (src/common/intersect.h,
// rank::BuildConColumn): ns/op for every kernel — two-pointer merge,
// galloping, blocked branch-light merge, and the adaptive dispatcher —
// across a |small| x ratio grid from 1:1 to 1:10^4, with the Eq. (2)
// cap of 7.
//
// Writes BENCH_intersect.json. Headline metrics the perf gate consumes
// (scripts/check_bench_regression.py):
//  - headline.adaptive_skewed_ns / adaptive_balanced_ns: the adaptive
//    kernel's cost at the most skewed and the balanced corner —
//    baseline-relative gates (2x noise band).
//  - headline.adaptive_worst_ratio_vs_merge: max over the grid of
//    adaptive_ns / merge_ns. Dimensionless, so it gates ABSOLUTELY on
//    any machine: if dispatch ever picks a kernel that loses badly to
//    the plain merge somewhere, this is the number that moves.
//
// Scale knobs (env):
//   RPG_INTERSECT_TRIALS  timing repetitions per cell (default 7, keeps
//                         the min — classic min-of-N denoising)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/intersect.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/timer.h"

namespace {

using namespace rpg;

using List = std::vector<uint32_t>;

/// Eq. (2) cap (rank::kConCap).
constexpr size_t kCap = 7;

List RandomSortedList(Rng* rng, size_t len, uint32_t universe) {
  List v;
  v.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    v.push_back(static_cast<uint32_t>(rng->NextBounded(universe)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Times fn() over enough iterations to be clock-resolvable, returns
/// ns/op for the best of `trials` repetitions.
template <typename Fn>
double BestNsPerOp(int trials, size_t iters, Fn&& fn) {
  double best = 1e30;
  for (int t = 0; t < trials; ++t) {
    Timer timer;
    for (size_t i = 0; i < iters; ++i) fn();
    best = std::min(best, timer.ElapsedSeconds() * 1e9 /
                              static_cast<double>(iters));
  }
  return best;
}

struct Cell {
  size_t small_len = 0;
  size_t ratio = 0;
  size_t actual_small = 0;
  size_t actual_large = 0;
  double merge_ns = 0.0;
  double gallop_ns = 0.0;
  double blocked_ns = 0.0;
  double adaptive_ns = 0.0;
};

}  // namespace

int main() {
  int trials = 7;
  if (const char* v = std::getenv("RPG_INTERSECT_TRIALS")) {
    trials = std::max(1, std::atoi(v));
  }

  // Grid: small side 8 / 64, ratio up to 10^4 (a low-degree paper
  // probed against a survey-sized reference list). Universe scales with
  // the large side so overlap stays sparse and the cap rarely
  // short-circuits the measurement.
  const size_t small_lens[] = {8, 64};
  const size_t ratios[] = {1, 4, 16, 256, 10000};

  Rng rng(20260808);
  std::vector<Cell> grid;
  // Defeat dead-code elimination across all timed loops.
  volatile uint64_t sink = 0;

  for (size_t small_len : small_lens) {
    for (size_t ratio : ratios) {
      const size_t large_len = small_len * ratio;
      if (large_len > 2'000'000) continue;
      const uint32_t universe =
          static_cast<uint32_t>(std::max<size_t>(4 * large_len, 256));
      List a = RandomSortedList(&rng, small_len, universe);
      List b = RandomSortedList(&rng, large_len, universe);
      const size_t iters = std::max<size_t>(
          8, 4'000'000 / (a.size() + b.size() + 16));

      Cell cell;
      cell.small_len = small_len;
      cell.ratio = ratio;
      cell.actual_small = a.size();
      cell.actual_large = b.size();
      cell.merge_ns = BestNsPerOp(trials, iters, [&] {
        sink = sink + intersect::CountCommonMerge(a, b, kCap);
      });
      cell.gallop_ns = BestNsPerOp(trials, iters, [&] {
        sink = sink + intersect::CountCommonGallop(a, b, kCap);
      });
      cell.blocked_ns = BestNsPerOp(trials, iters, [&] {
        sink = sink + intersect::CountCommonBlocked(a, b, kCap);
      });
      cell.adaptive_ns = BestNsPerOp(trials, iters, [&] {
        sink = sink + intersect::CountCommon(a, b, kCap);
      });
      grid.push_back(cell);

      std::printf(
          "small=%5zu ratio=%6zu  merge=%8.1fns gallop=%8.1fns "
          "blocked=%8.1fns adaptive=%8.1fns\n",
          cell.actual_small, ratio, cell.merge_ns, cell.gallop_ns,
          cell.blocked_ns, cell.adaptive_ns);
    }
  }
  (void)sink;

  // Headline: balanced corner (first cell), most-skewed corner (largest
  // ratio present), and the worst adaptive-vs-merge ratio anywhere.
  const Cell* balanced = &grid.front();
  const Cell* skewed = &grid.front();
  double worst_ratio = 0.0;
  for (const Cell& c : grid) {
    if (c.ratio > skewed->ratio) skewed = &c;
    worst_ratio = std::max(worst_ratio, c.adaptive_ns / c.merge_ns);
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("cap").UInt(kCap);
  json.Key("trials").Int(trials);
  json.Key("grid").BeginArray();
  for (const Cell& c : grid) {
    json.BeginObject();
    json.Key("small").UInt(c.actual_small);
    json.Key("large").UInt(c.actual_large);
    json.Key("ratio").UInt(c.ratio);
    json.Key("merge_ns").Double(c.merge_ns);
    json.Key("gallop_ns").Double(c.gallop_ns);
    json.Key("blocked_ns").Double(c.blocked_ns);
    json.Key("adaptive_ns").Double(c.adaptive_ns);
    json.EndObject();
  }
  json.EndArray();
  json.Key("headline").BeginObject();
  json.Key("adaptive_balanced_ns").Double(balanced->adaptive_ns);
  json.Key("adaptive_skewed_ns").Double(skewed->adaptive_ns);
  json.Key("skewed_merge_over_adaptive")
      .Double(skewed->merge_ns / skewed->adaptive_ns);
  json.Key("adaptive_worst_ratio_vs_merge").Double(worst_ratio);
  json.EndObject();
  json.EndObject();

  std::ofstream out("BENCH_intersect.json");
  out << json.str() << "\n";
  std::printf(
      "\nheadline: balanced=%.1fns skewed=%.1fns "
      "(merge/adaptive at skew: %.1fx, worst adaptive/merge: %.2fx)\n"
      "wrote BENCH_intersect.json\n",
      balanced->adaptive_ns, skewed->adaptive_ns,
      skewed->merge_ns / skewed->adaptive_ns, worst_ratio);
  return 0;
}
