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
//
// smallest_k_sum_lanes (AVX-512) gives smallest_k_sum's bits for eight rows
// at once from a sorting network instead of rank counts: the small-leaf
// Krum route's scorer.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "abft/agg/sort_network.hpp"

namespace abft::agg::detail {

/// Hard ceiling on the rank-kernel n: sizes the stack count array of
/// smallest_k_sum's portable loop (the AVX-512 one keeps its counts in
/// registers).  512 keeps it at 4 KiB.
constexpr int kRankKernelCapacity = 512;

/// The largest column length CWTM and CWMed send to the O(n^2) rank kernel;
/// longer columns take O(n log n) nth_element selection.  One constant for
/// every mode and host: CWTM's rank route adds kept entries in column
/// order while the selection route adds them in partition order (same
/// multiset, different rounding), so a host-dependent crossover would make
/// the output host-dependent too.
constexpr int kRankKernelCutoff = 256;
static_assert(kRankKernelCutoff <= kRankKernelCapacity);

#if defined(__AVX512F__)
/// Lanes [0, rem) of an 8-entry block that starts rem entries before the end.
inline __mmask8 block_lanes(int rem) {
  return rem >= 8 ? static_cast<__mmask8>(0xFF) : static_cast<__mmask8>((1u << rem) - 1);
}

/// Rank counts of the 8-entry block vx against col[0, n), in registers:
/// lane t counts the col[i] < vx[t].
inline __m512i block_rank_counts(const double* col, int n, __m512d vx) {
  const __m512i ones = _mm512_set1_epi64(1);
  __m512i vcnt = _mm512_setzero_si512();
  for (int i = 0; i < n; ++i) {
    const __m512d vy = _mm512_set1_pd(col[i]);
    const __mmask8 is_lt = _mm512_cmp_pd_mask(vy, vx, _CMP_LT_OQ);
    vcnt = _mm512_mask_add_epi64(vcnt, is_lt, vcnt, ones);
  }
  return vcnt;
}
#endif

inline void rank_counts(const double* col, int n, std::int64_t* lt) {
#if defined(__AVX512F__)
  for (int j0 = 0; j0 < n; j0 += 8) {
    const __mmask8 lane_mask = block_lanes(n - j0);
    const __m512d vx = _mm512_maskz_loadu_pd(lane_mask, col + j0);
    _mm512_mask_storeu_epi64(lt + j0, lane_mask, block_rank_counts(col, n, vx));
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
  alignas(64) double lanes[kLanes] = {0.0};
  std::int64_t count = 0;
#if defined(__AVX512F__)
  // Each block's rank counts and masked kept-sum stay in registers; an
  // unkept entry adds +0.0 to its lane, as in the portable loop below.
  const __m512i vk = _mm512_set1_epi64(k);
  __m512d acc = _mm512_setzero_pd();
  for (int j0 = 0; j0 < m; j0 += kLanes) {
    const __mmask8 lane_mask = block_lanes(m - j0);
    const __m512d vx = _mm512_maskz_loadu_pd(lane_mask, x + j0);
    const __mmask8 keep =
        _mm512_mask_cmplt_epi64_mask(lane_mask, block_rank_counts(x, m, vx), vk);
    acc = _mm512_add_pd(acc, _mm512_maskz_mov_pd(keep, vx));
    count += std::popcount(static_cast<unsigned>(keep));
  }
  _mm512_store_pd(lanes, acc);
#else
  std::int64_t lt[kRankKernelCapacity];
  rank_counts(x, m, lt);
  // An all-ones/all-zeros bit mask selects x or +0.0 (x * keep would turn
  // an unkept +inf into NaN).
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
#endif
  *kept = static_cast<int>(count);
  return ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
         ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
}

#if defined(__AVX512F__)
// GCC 12 flags the deliberately undefined register inside _mm512_min_pd and
// _mm512_max_pd once they are inlined (-Wuninitialized); the value never
// reaches the result.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// smallest_k_sum of eight rows at once, one row per lane, through Batcher's
/// network on P = 8, 16, 24 or 32 inputs: register x of `cand` (doubles
/// [8 x, 8 x + 8)) holds entry x of every row, x < m <= P, and the network
/// sees +inf in registers m .. P - 1.  With s the sorted copy and
/// t = s[k - 1], a row keeps exactly k entries iff k == m or s[k] != t, and
/// then the entries x <= t are the k smallest_k_sum keeps: they are summed
/// into lane x mod 8 in ascending x (an unkept entry adds +0.0) and reduced
/// with smallest_k_sum's tree, so the row's sum has its bits.  Rows with a
/// tie at the k-th entry or a NaN entry are set in *uncertified, and their
/// sums are unspecified.  1 <= k <= m.
template <int P>
inline __m512d smallest_k_sum_network(const double* cand, int m, int k, __mmask8* uncertified) {
  constexpr int kLanes = 8;
  const __m512d inf = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  __m512d s[P];
#pragma GCC unroll 32
  for (int x = 0; x < P; ++x) s[x] = x < m ? _mm512_loadu_pd(cand + x * kLanes) : inf;
  sort_network<P>(s, [](__m512d& lo, __m512d& hi) {
    const __m512d a = lo;
    lo = _mm512_min_pd(a, hi);
    hi = _mm512_max_pd(a, hi);
  });
  alignas(64) double sorted[P * kLanes];
#pragma GCC unroll 32
  for (int x = 0; x < P; ++x) _mm512_store_pd(sorted + x * kLanes, s[x]);
  const __m512d t = _mm512_load_pd(sorted + (k - 1) * kLanes);
  __mmask8 flagged =
      k < m ? _mm512_cmp_pd_mask(_mm512_load_pd(sorted + k * kLanes), t, _CMP_EQ_OQ) : 0;
  __m512d lanes[kLanes];
  for (int b = 0; b < kLanes; ++b) lanes[b] = _mm512_setzero_pd();
  for (int x0 = 0; x0 < m; x0 += kLanes) {
#pragma GCC unroll 8
    for (int b = 0; b < kLanes; ++b) {
      if (x0 + b == m) break;
      const __m512d c = _mm512_loadu_pd(cand + (x0 + b) * kLanes);
      flagged |= _mm512_cmp_pd_mask(c, c, _CMP_UNORD_Q);
      const __mmask8 keep = _mm512_cmp_pd_mask(c, t, _CMP_LE_OQ);
      lanes[b] = _mm512_add_pd(lanes[b], _mm512_maskz_mov_pd(keep, c));
    }
  }
  *uncertified = flagged;
  return _mm512_add_pd(
      _mm512_add_pd(_mm512_add_pd(lanes[0], lanes[4]), _mm512_add_pd(lanes[2], lanes[6])),
      _mm512_add_pd(_mm512_add_pd(lanes[1], lanes[5]), _mm512_add_pd(lanes[3], lanes[7])));
}

/// smallest_k_sum_network at the smallest P >= m.  m <= 32.
inline __m512d smallest_k_sum_lanes(const double* cand, int m, int k, __mmask8* uncertified) {
  switch ((m + 7) / 8) {
    case 1: return smallest_k_sum_network<8>(cand, m, k, uncertified);
    case 2: return smallest_k_sum_network<16>(cand, m, k, uncertified);
    case 3: return smallest_k_sum_network<24>(cand, m, k, uncertified);
    default: return smallest_k_sum_network<32>(cand, m, k, uncertified);
  }
}
#pragma GCC diagnostic pop
#endif

}  // namespace abft::agg::detail
