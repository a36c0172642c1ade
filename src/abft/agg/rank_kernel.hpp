// Internal: branchless rank-count kernel shared by the coordinate-wise
// filters (CWTM, CWMed) and, through smallest_k_sum, the Krum scorer
// (krum.hpp).  For a contiguous column of n doubles it computes
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
// Krum's score of a candidate row x[0, m) is defined here, once: the sum of
// its k smallest entries, ties at the k-th broken toward the lower index (so
// exactly k are kept), added into lane j mod 8 in ascending j and reduced
// with lane_tree.  Krum's candidates are squared distances, >= 0 or +inf
// (the candidate builders map a NaN distance to +inf with nan_as_inf), so
// the score is never NaN; it is the same on every ISA.  Three routes
// compute it with the same bits:
//   * smallest_k_sum: rank counts with an index tie-break (short rows);
//   * smallest_k_sum_select: nth_element finds the k-th value, then one
//     keep pass (long rows);
//   * smallest_k_sum_lanes (AVX-512, the small-leaf Krum route): eight rows
//     at once, one per lane; two Batcher half-sorts and a merge select find
//     the k-th value, and one keep pass sums the entries up to it, with the
//     index tie-break rerun only for a register whose ties pass the k-th.
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

/// Adds to lane t of vcnt the i in [begin, end) with col[i] `Cmp` vx[t].
template <int Cmp>
inline __m512i count_where(const double* col, int begin, int end, __m512d vx, __m512i vcnt) {
  const __m512i ones = _mm512_set1_epi64(1);
  for (int i = begin; i < end; ++i) {
    const __mmask8 hit = _mm512_cmp_pd_mask(_mm512_set1_pd(col[i]), vx, Cmp);
    vcnt = _mm512_mask_add_epi64(vcnt, hit, vcnt, ones);
  }
  return vcnt;
}

/// Rank counts of the 8-entry block vx against col[0, n), in registers:
/// lane t counts the col[i] < vx[t].
inline __m512i block_rank_counts(const double* col, int n, __m512d vx) {
  return count_where<_CMP_LT_OQ>(col, 0, n, vx, _mm512_setzero_si512());
}

/// block_rank_counts of the block col[j0, j0 + 8) with ties broken by
/// index: lane t also counts the i < j0 + t with col[i] == vx[t], so a
/// NaN-free column's counts are a permutation of 0..n-1.
inline __m512i block_stable_ranks(const double* col, int n, int j0, __m512d vx) {
  const __m512i ones = _mm512_set1_epi64(1);
  __m512i vcnt = count_where<_CMP_LE_OQ>(col, 0, j0, vx, _mm512_setzero_si512());
  const int end = std::min(j0 + 8, n);
  for (int i = j0; i < end; ++i) {
    const __m512d vy = _mm512_set1_pd(col[i]);
    const auto later = static_cast<__mmask8>(0xFFu << (i - j0 + 1));  // lanes past i's own
    const __mmask8 hit = _mm512_cmp_pd_mask(vy, vx, _CMP_LT_OQ) |
                         _mm512_mask_cmp_pd_mask(later, vy, vx, _CMP_EQ_OQ);
    vcnt = _mm512_mask_add_epi64(vcnt, hit, vcnt, ones);
  }
  return count_where<_CMP_LT_OQ>(col, end, n, vx, vcnt);
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

/// A candidate distance as Krum's score counts it: NaN (the direct
/// difference of two rows at +inf in one coordinate) is +inf.
inline double nan_as_inf(double v) {
  return v == v ? v : std::numeric_limits<double>::infinity();
}

/// ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)): the reduction of the
/// Krum score's eight lanes.
inline double lane_tree(const double* l) {
  return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
}

/// Krum's score of x[0, m) (see the top of this file) by rank counts:
/// entry j is kept when fewer than k entries precede it in (value, index)
/// order, with no branch or partition; an unkept entry adds +0.0 to its
/// lane.  No NaN entries; 1 <= k <= m <= kRankKernelCapacity.
inline double smallest_k_sum(const double* x, int m, int k) {
  constexpr int kLanes = 8;
  alignas(64) double lanes[kLanes] = {0.0};
#if defined(__AVX512F__)
  // Each block's rank counts and masked kept-sum stay in registers.
  const __m512i vk = _mm512_set1_epi64(k);
  __m512d acc = _mm512_setzero_pd();
  for (int j0 = 0; j0 < m; j0 += kLanes) {
    const __mmask8 lane_mask = block_lanes(m - j0);
    const __m512d vx = _mm512_maskz_loadu_pd(lane_mask, x + j0);
    const __mmask8 keep =
        _mm512_mask_cmplt_epi64_mask(lane_mask, block_stable_ranks(x, m, j0, vx), vk);
    acc = _mm512_add_pd(acc, _mm512_maskz_mov_pd(keep, vx));
  }
  _mm512_store_pd(lanes, acc);
#else
  // rank[j] = #{i < j : x[i] <= x[j]} + #{i > j : x[i] < x[j]}; the inner
  // loops vectorize.
  std::int64_t rank[kRankKernelCapacity];
  for (int j = 0; j < m; ++j) rank[j] = 0;
  for (int i = 0; i < m; ++i) {
    const double y = x[i];
    for (int j = 0; j < i; ++j) rank[j] += y < x[j] ? 1 : 0;
    for (int j = i + 1; j < m; ++j) rank[j] += y <= x[j] ? 1 : 0;
  }
  // An all-ones/all-zeros bit mask selects x or +0.0 (x * keep would turn
  // an unkept +inf into NaN).
  for (int j = 0; j < m; ++j) {
    const auto keep = static_cast<std::uint64_t>(rank[j] < k ? 1 : 0);
    lanes[j % kLanes] +=
        std::bit_cast<double>(std::bit_cast<std::uint64_t>(x[j]) & (std::uint64_t{0} - keep));
  }
#endif
  return lane_tree(lanes);
}

/// Krum's score of x[0, m), any m, in O(m): nth_element on a copy in
/// scratch[0, m) finds t, the k-th smallest entry, then one pass in
/// ascending j keeps the entries < t and the first k - #{< t} entries equal
/// to t.  smallest_k_sum's bits; no NaN entries, 1 <= k <= m.
inline double smallest_k_sum_select(const double* x, int m, int k, double* scratch) {
  std::copy(x, x + m, scratch);
  std::nth_element(scratch, scratch + (k - 1), scratch + m);
  const double t = scratch[k - 1];
  int ties = k;  // entries equal to t still to keep; every entry < t precedes the k-th
  for (int j = 0; j + 1 < k; ++j) ties -= scratch[j] < t ? 1 : 0;
  double lanes[8] = {0.0};
  for (int j = 0; j < m; ++j) {
    const bool tie = x[j] == t && ties > 0;
    ties -= tie ? 1 : 0;
    if (x[j] < t || tie) lanes[j % 8] += x[j];
  }
  return lane_tree(lanes);
}

#if defined(__AVX512F__)
// GCC 12 flags the deliberately undefined register inside _mm512_min_pd and
// _mm512_max_pd once they are inlined (-Wuninitialized); the value never
// reaches the result.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// Sums the entries of the eight rows (register x of `cand` holds entry x
/// of every row, x < m) that keep(c) selects into lane x mod 8, an unkept
/// entry adding +0.0, and reduces the lanes with lane_tree's tree.  keep
/// sees the registers in ascending x.
template <typename Keep>
inline __m512d lane_keep_sum(const double* cand, int m, Keep&& keep) {
  constexpr int kLanes = 8;
  __m512d lanes[kLanes];
  for (int b = 0; b < kLanes; ++b) lanes[b] = _mm512_setzero_pd();
  for (int x0 = 0; x0 < m; x0 += kLanes) {
#pragma GCC unroll 8
    for (int b = 0; b < kLanes; ++b) {
      if (x0 + b == m) break;
      const __m512d c = _mm512_loadu_pd(cand + (x0 + b) * kLanes);
      lanes[b] = _mm512_add_pd(lanes[b], _mm512_maskz_mov_pd(keep(c), c));
    }
  }
  return _mm512_add_pd(
      _mm512_add_pd(_mm512_add_pd(lanes[0], lanes[4]), _mm512_add_pd(lanes[2], lanes[6])),
      _mm512_add_pd(_mm512_add_pd(lanes[1], lanes[5]), _mm512_add_pd(lanes[3], lanes[7])));
}

/// Krum's score of eight rows at once, one row per lane, for P = 8, 16, 24
/// or 32 inputs: register x of `cand` (doubles [8 x, 8 x + 8)) holds entry
/// x of every row, x < m <= P, and the inputs m .. P - 1 are +inf.
/// Batcher's networks sort the inputs in two halves, A = [0, a) and
/// B = [a, P) (a = 4, 8, 16, 16), and the merge select
/// t = min_j max(A[k - j - 1], B[j - 1]) over the splits of k between them
/// (A[-1] = B[-1] = -inf) finds t, the k-th smallest entry of each lane.
/// One keep pass then sums the entries <= t; a lane holding exactly k of
/// them has no tie past the k-th, and when every lane does, that sum is the
/// score.  Otherwise the register is rerun keeping, per lane, the entries
/// < t and the first k - #{< t} entries equal to t in ascending x.  Either
/// way: smallest_k_sum's bits for every row.  No NaN entries; 1 <= k <= m.
template <int P>
inline __m512d smallest_k_sum_network(const double* cand, int m, int k) {
  constexpr int kLanes = 8;
  constexpr int a = P == 24 ? 16 : P / 2;
  constexpr int b = P - a;
  const __m512d inf = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  const __m512d minus_inf = _mm512_set1_pd(-std::numeric_limits<double>::infinity());
  __m512d s[P];
#pragma GCC unroll 32
  for (int x = 0; x < P; ++x) s[x] = x < m ? _mm512_loadu_pd(cand + x * kLanes) : inf;
  const auto compare_exchange = [](__m512d& lo, __m512d& hi) {
    const __m512d v = lo;
    lo = _mm512_min_pd(v, hi);
    hi = _mm512_max_pd(v, hi);
  };
  sort_network<a>(s, compare_exchange);
  sort_network<b>(s + a, compare_exchange);
  // A[i] sits at below[i + 1], after a -inf for the split that takes all k
  // from B: its index k - j is a runtime one, B's j - 1 a constant.
  __m512d below[a + 1];
  below[0] = minus_inf;
#pragma GCC unroll 16
  for (int x = 0; x < a; ++x) below[x + 1] = s[x];
  __m512d t = inf;
#pragma GCC unroll 17
  for (int j = 0; j <= b; ++j) {
    if (j > k) break;
    if (k - j > a) continue;
    t = _mm512_min_pd(t, _mm512_max_pd(below[k - j], j == 0 ? minus_inf : s[a + j - 1]));
  }
  const __m512i one = _mm512_set1_epi64(1);
  __m512i kept = _mm512_setzero_si512();
  const __m512d sum = lane_keep_sum(cand, m, [&](__m512d c) {
    const __mmask8 keep = _mm512_cmp_pd_mask(c, t, _CMP_LE_OQ);
    kept = _mm512_mask_add_epi64(kept, keep, kept, one);
    return keep;
  });
  const __m512i vk = _mm512_set1_epi64(k);
  if (_mm512_cmpneq_epi64_mask(kept, vk) == 0) return sum;
  // Ties past the k-th: per lane, the entries equal to t to keep (every
  // entry < t is among the k smallest), and how many the pass has met.
  __m512i ties = vk;
  for (int x = 0; x < m; ++x) {
    const __mmask8 lt = _mm512_cmp_pd_mask(_mm512_loadu_pd(cand + x * kLanes), t, _CMP_LT_OQ);
    ties = _mm512_mask_sub_epi64(ties, lt, ties, one);
  }
  __m512i seen = _mm512_setzero_si512();
  return lane_keep_sum(cand, m, [&](__m512d c) {
    const __mmask8 tie = _mm512_cmp_pd_mask(c, t, _CMP_EQ_OQ);
    seen = _mm512_mask_add_epi64(seen, tie, seen, one);
    return static_cast<__mmask8>(_mm512_cmp_pd_mask(c, t, _CMP_LT_OQ) |
                                 _mm512_mask_cmple_epi64_mask(tie, seen, ties));
  });
}

/// smallest_k_sum_network at the smallest P >= m.  m <= 32.
inline __m512d smallest_k_sum_lanes(const double* cand, int m, int k) {
  switch ((m + 7) / 8) {
    case 1: return smallest_k_sum_network<8>(cand, m, k);
    case 2: return smallest_k_sum_network<16>(cand, m, k);
    case 3: return smallest_k_sum_network<24>(cand, m, k);
    default: return smallest_k_sum_network<32>(cand, m, k);
  }
}
#pragma GCC diagnostic pop
#endif

}  // namespace abft::agg::detail
