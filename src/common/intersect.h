#ifndef RPG_COMMON_INTERSECT_H_
#define RPG_COMMON_INTERSECT_H_

/// \file
/// Sorted-set intersection kernels for the Eq. (2) common-neighbor
/// counts (see docs/benchmarks.md "BENCH_intersect.json").
///
/// Contract shared by every kernel in this file:
///  - inputs are spans of uint32 ids, sorted ascending, duplicate-free
///    (the CSR adjacency invariant of graph::CitationGraph);
///  - the return value is exactly min(|a ∩ b|, cap) — the cap is a
///    *semantic clamp*, not just an optimization hint, so callers like
///    rank::WeightModel::Con can stop a two-phase count the moment the
///    budget is exhausted and still get order-independent results;
///  - cap == 0 returns 0 without touching the inputs.
/// Because every kernel computes the same min(|a ∩ b|, cap), they are
/// freely interchangeable; tests/common/intersect_test.cc holds each of
/// them to a std::set_intersection oracle across size ratios 1:1..1:1e4
/// and exhaustive boundary cases.
///
/// Kernel selection (CountCommon) is by size ratio: galloping wins when
/// one side is much shorter than the other (O(|small| log |large|)),
/// the branch-light blocked merge wins for comparable sizes
/// (O(|a| + |b|), cmov-friendly inner loop, cap checked once per
/// block). The counts are computed once per graph
/// (rank::BuildConColumn), not per query.

#include <cstddef>
#include <cstdint>
#include <span>

namespace rpg::intersect {

/// The blocked-merge kernel re-checks the cap only every kBlockSize
/// steps so its inner loop stays branch-light; exposed for the
/// boundary-case tests (lengths around every multiple ± 1).
inline constexpr size_t kBlockSize = 64;

/// CountCommon dispatches to galloping when the longer input is at
/// least this many times the shorter one. Measured crossover on the
/// capped Eq. (2) workload (bench/bench_intersect.cpp): galloping
/// already wins at 1:4 and is ~400x ahead by 1:10^4, while below 1:4
/// the blocked merge and gallop are within noise of each other.
inline constexpr size_t kGallopRatio = 4;

/// Textbook two-pointer merge — the readable baseline every other
/// kernel is differentially tested against (besides the std oracle).
size_t CountCommonMerge(std::span<const uint32_t> a,
                        std::span<const uint32_t> b, size_t cap);

/// Galloping (exponential-probe + binary-search) intersection for
/// skewed sizes: walks the smaller span element-by-element and gallops
/// through the larger one. O(|small| · log(|large| / |small|)).
/// Works for any sizes, but only pays off when |a| ≪ |b|.
size_t CountCommonGallop(std::span<const uint32_t> small,
                         std::span<const uint32_t> large, size_t cap);

/// Branch-light merge: the inner loop advances both cursors with
/// comparison masks instead of an unpredictable three-way branch
/// (compiles to cmov/setcc; no per-element cap branch), and the cap is
/// enforced between kBlockSize-step blocks.
size_t CountCommonBlocked(std::span<const uint32_t> a,
                          std::span<const uint32_t> b, size_t cap);

/// Adaptive dispatcher: picks galloping vs blocked merge from the size
/// ratio. This is the kernel WeightModel::Con uses.
size_t CountCommon(std::span<const uint32_t> a, std::span<const uint32_t> b,
                   size_t cap);

}  // namespace rpg::intersect

#endif  // RPG_COMMON_INTERSECT_H_
