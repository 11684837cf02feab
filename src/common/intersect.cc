#include "common/intersect.h"

#include <algorithm>

namespace rpg::intersect {

size_t CountCommonMerge(std::span<const uint32_t> a,
                        std::span<const uint32_t> b, size_t cap) {
  size_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size() && count < cap) {
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

namespace {

/// First index k in [lo, n) with v[k] >= x: exponential probe from lo,
/// then binary search inside the bracketed window. O(log(k - lo)).
size_t GallopLowerBound(std::span<const uint32_t> v, size_t lo, uint32_t x) {
  size_t n = v.size();
  size_t step = 1;
  size_t hi = lo;
  while (hi < n && v[hi] < x) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  hi = std::min(hi, n);
  // Invariant: v[lo - 1] < x (or lo == original lo), v[hi] >= x or hi == n.
  return static_cast<size_t>(
      std::lower_bound(v.begin() + lo, v.begin() + hi, x) - v.begin());
}

}  // namespace

size_t CountCommonGallop(std::span<const uint32_t> small,
                         std::span<const uint32_t> large, size_t cap) {
  size_t count = 0;
  size_t base = 0;  // monotone cursor into `large`
  for (size_t i = 0; i < small.size() && count < cap; ++i) {
    uint32_t x = small[i];
    base = GallopLowerBound(large, base, x);
    if (base == large.size()) break;
    if (large[base] == x) {
      ++count;
      ++base;
    }
  }
  return count;
}

size_t CountCommonBlocked(std::span<const uint32_t> a,
                          std::span<const uint32_t> b, size_t cap) {
  if (cap == 0) return 0;
  const size_t na = a.size(), nb = b.size();
  size_t count = 0;
  size_t i = 0, j = 0;
  // Each step advances each cursor by at most 1, so when both cursors
  // are >= kBlockSize from their ends a whole block runs with NO bounds
  // checks — the inner loop is just compare/add, cmov-friendly. The cap
  // is re-checked once per block; count can overshoot cap inside a
  // block and the clamps restore the exact min(|a∩b|, cap) contract.
  while (i + kBlockSize <= na && j + kBlockSize <= nb) {
    for (size_t step = 0; step < kBlockSize; ++step) {
      uint32_t x = a[i], y = b[j];
      count += (x == y);
      i += (x <= y);
      j += (y <= x);
    }
    if (count >= cap) return cap;
  }
  // Tail (and short inputs): plain capped merge over what remains.
  while (i < na && j < nb && count < cap) {
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return std::min(count, cap);
}

size_t CountCommon(std::span<const uint32_t> a, std::span<const uint32_t> b,
                   size_t cap) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty() || cap == 0) return 0;
  if (b.size() / a.size() >= kGallopRatio) {
    return CountCommonGallop(a, b, cap);
  }
  return CountCommonBlocked(a, b, cap);
}

}  // namespace rpg::intersect
