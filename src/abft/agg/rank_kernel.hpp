// Internal: branchless rank-count kernel shared by the coordinate-wise
// filters (CWTM, CWMed) and, through smallest_k_sum, the certified Krum
// scorer (krum.hpp).  For a contiguous column of n doubles it computes
//
//   lt[j] = #{ i : col[i] < col[j] }        for every j in [0, n)
//
// For duplicate-free columns lt is a permutation of 0..n-1, so rank
// classification reproduces positional trimming / median selection of the
// sorted column exactly without moving any data.  Callers detect duplicate
// columns via sum(lt) != n(n-1)/2 and fall back to exact selection.
//
// The kernel is the hot inner loop of the batched CWTM/CWMed path: one
// broadcast + compare + masked-add per (i, j-block), processing a full SIMD
// register of columns-entries per instruction on AVX-512/AVX2, with a
// portable auto-vectorizable fallback elsewhere.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace abft::agg::detail {

/// Hard ceiling on the rank-kernel n: sizes smallest_k_sum's stack count
/// array.  512 keeps it at 4 KiB.
constexpr int kRankKernelCapacity = 512;

/// The largest column length CWTM and CWMed send to the O(n^2) rank kernel;
/// longer columns take O(n log n) nth_element selection.  One constant for
/// every mode and host: CWTM's rank route adds kept entries in column
/// order while the selection route adds them in partition order (same
/// multiset, different rounding), so a host-dependent crossover would make
/// the output host-dependent too.
constexpr int kRankKernelCutoff = 256;
static_assert(kRankKernelCutoff <= kRankKernelCapacity);

inline void rank_counts(const double* col, int n, std::int64_t* lt) {
#if defined(__AVX512F__)
  const __m512i ones = _mm512_set1_epi64(1);
  for (int j0 = 0; j0 < n; j0 += 8) {
    const int rem = n - j0;
    const __mmask8 lane_mask =
        rem >= 8 ? static_cast<__mmask8>(0xFF) : static_cast<__mmask8>((1u << rem) - 1);
    const __m512d vx = _mm512_maskz_loadu_pd(lane_mask, col + j0);
    __m512i vcnt = _mm512_setzero_si512();
    for (int i = 0; i < n; ++i) {
      const __m512d vy = _mm512_set1_pd(col[i]);
      const __mmask8 is_lt = _mm512_cmp_pd_mask(vy, vx, _CMP_LT_OQ);
      vcnt = _mm512_mask_add_epi64(vcnt, is_lt, vcnt, ones);
    }
    _mm512_mask_storeu_epi64(lt + j0, lane_mask, vcnt);
  }
#elif defined(__AVX2__)
  int j0 = 0;
  for (; j0 + 4 <= n; j0 += 4) {
    const __m256d vx = _mm256_loadu_pd(col + j0);
    __m256i vcnt = _mm256_setzero_si256();
    for (int i = 0; i < n; ++i) {
      const __m256d vy = _mm256_set1_pd(col[i]);
      const __m256d is_lt = _mm256_cmp_pd(vy, vx, _CMP_LT_OQ);
      // The compare mask is all-ones (-1) per true lane; subtracting counts.
      vcnt = _mm256_sub_epi64(vcnt, _mm256_castpd_si256(is_lt));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lt + j0), vcnt);
  }
  for (; j0 < n; ++j0) {
    const double x = col[j0];
    std::int64_t c = 0;
    for (int i = 0; i < n; ++i) c += col[i] < x ? 1 : 0;
    lt[j0] = c;
  }
#else
  for (int j = 0; j < n; ++j) lt[j] = 0;
  for (int i = 0; i < n; ++i) {
    const double y = col[i];
    for (int j = 0; j < n; ++j) lt[j] += y < col[j] ? 1 : 0;
  }
#endif
}

/// Sum of the entries of x[0, m) that have fewer than k strictly smaller
/// entries, computed from the rank counts without a branch or a partition;
/// *kept receives how many entries were summed.  kept == k exactly when the
/// k-th and (k+1)-th smallest entries differ, and then the summed entries
/// are the k smallest (a multiset of values, so any selection of them sums
/// the same terms).  A NaN entry has no strictly smaller entries and is
/// always kept, so the sum is NaN.  m <= kRankKernelCapacity.
///
/// Entry j goes to lane j mod 8, lanes add in ascending j, and the eight
/// lanes reduce as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), so the sum is
/// the same on every ISA; it is not a sequential sum, so a caller comparing
/// it against one must allow for the rounding (see krum_select).
inline double smallest_k_sum(const double* x, int m, int k, int* kept) {
  constexpr int kLanes = 8;
  std::int64_t lt[kRankKernelCapacity];
  rank_counts(x, m, lt);
  // An all-ones/all-zeros bit mask selects x or +0.0 (x * keep would turn
  // an unkept +inf into NaN).
  double lanes[kLanes] = {0.0};
  std::int64_t count = 0;
  for (int j0 = 0; j0 < m; j0 += kLanes) {
    const int width = std::min(kLanes, m - j0);
    for (int t = 0; t < width; ++t) {
      const std::int64_t keep = lt[j0 + t] < k ? 1 : 0;
      const auto bits = std::bit_cast<std::uint64_t>(x[j0 + t]) &
                        (std::uint64_t{0} - static_cast<std::uint64_t>(keep));
      lanes[t] += std::bit_cast<double>(bits);
      count += keep;
    }
  }
  *kept = static_cast<int>(count);
  return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
         ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

}  // namespace abft::agg::detail
