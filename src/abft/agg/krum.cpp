#include "abft/agg/krum.hpp"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <numeric>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "abft/agg/rank_kernel.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

namespace detail {

namespace {

static_assert(kKrumRankSelectMaxRow <= kRankKernelCapacity,
              "smallest_k_sum sizes its stack buffer by kRankKernelCapacity");

/// Row i's candidate distances (every other row, or every other active row)
/// in ascending-j order — the buffer the old scorer partitioned.
void gather_candidates(AggregatorWorkspace& ws, int i, int n, const unsigned char* active,
                       double* dst) {
  double* row = ws.pairrow.data();
  ws.gather_pair_row(i, n, row);
  if (active == nullptr) {
    std::copy(row, row + i, dst);
    std::copy(row + i + 1, row + n, dst + i);
    return;
  }
  int m = 0;
  for (int j = 0; j < n; ++j) {
    if (j != i && active[j] != 0) dst[m++] = row[j];
  }
}

/// Every active row's candidates, built in one pass over the packed
/// triangle: the p-th active row's list (the one gather_candidates makes)
/// is cand[p * m, (p + 1) * m), m = live - 1.
template <typename T>
void build_candidates(const T* packed, int n, const unsigned char* active, int m,
                      double* cand) {
  const auto stride = static_cast<std::size_t>(m);
  int pi = 0;  // active rows before i: i's slot, and i's place in later lists
  for (int i = 0; i < n; ++i) {
    if (active != nullptr && active[i] == 0) continue;
    const T* run = packed + AggregatorWorkspace::pair_index(i, i + 1, n);
    double* ci = cand + static_cast<std::size_t>(pi) * stride;
    int pj = pi + 1;  // active rows before j
    for (int j = i + 1; j < n; ++j) {
      if (active != nullptr && active[j] == 0) continue;
      const auto v = static_cast<double>(run[j - i - 1]);
      ci[pj - 1] = v;
      cand[static_cast<std::size_t>(pj) * stride + static_cast<std::size_t>(pi)] = v;
      ++pj;
    }
    ++pi;
  }
}

/// The old score: partition, then sum the kept prefix in partition order.
double nth_element_score(double* dists, int m, int neighbors) {
  std::nth_element(dists, dists + (neighbors - 1), dists + m);
  return std::accumulate(dists, dists + neighbors, 0.0);
}

// Per-row state in ws.krum_state.
constexpr unsigned char kCanonical = 0;  ///< ws.scores holds the canonical sum
constexpr unsigned char kOld = 1;        ///< ws.scores holds the old score
constexpr unsigned char kDue = 2;        ///< the row still needs the old score

/// One row's score from its candidate list: the canonical sum, or, on a
/// tie at the k-th distance (kept != neighbors, where the rank-selected sum
/// over-counts), the old score at once.
double score_row(AggregatorWorkspace& ws, const double* cand, int m, int neighbors,
                 unsigned char* state) {
  int kept = 0;
  const double score = smallest_k_sum(cand, m, neighbors, &kept);
  *state = kCanonical;
  if (kept == neighbors) return score;
  // Partition a copy: the whole-call fallback may score this row again.
  double* dists = ws.scratch.data();
  std::copy(cand, cand + m, dists);
  *state = kOld;
  return nth_element_score(dists, m, neighbors);
}

/// Scores of the active rows from their candidate lists (score_row).
/// Returns false if any score is not finite.
bool score_canonically(AggregatorWorkspace& ws, int n, int m, int neighbors,
                       const unsigned char* active) {
  const double* cand = ws.krum_cand.data();
  bool finite = true;
  for (int i = 0; i < n; ++i) {
    if (active != nullptr && active[i] == 0) continue;
    const auto at = static_cast<std::size_t>(i);
    ws.scores[at] = score_row(ws, cand, m, neighbors, &ws.krum_state[at]);
    finite = finite && std::isfinite(ws.scores[at]);
    cand += m;
  }
  return finite;
}

/// Marks kDue every canonical row whose interval meets another active
/// row's.  Both sums add the same `neighbors` non-negative terms, so each
/// is within a relative g = (neighbors - 1) * DBL_EPSILON / 2 (to first
/// order) of the exact sum t, and the old score lies in
/// [c (1 - g) / (1 + g), c (1 + g) / (1 - g)] around the canonical c.
/// gamma is four times g; [lo, hi] below covers that interval with room for
/// rounding its ends.  An old score is its own interval; an inactive row
/// gets an empty one.  Rows whose intervals are disjoint compare the same
/// under either score, so the mixed vector keeps the old strict order and
/// ties.
void mark_band(AggregatorWorkspace& ws, int n, int neighbors, const unsigned char* active) {
  const auto nn = static_cast<std::size_t>(n);
  ws.krum_lo.resize(nn);
  ws.krum_hi.resize(nn);
  double* lo = ws.krum_lo.data();
  double* hi = ws.krum_hi.data();
  auto& state = ws.krum_state;
  const double gamma = 2.0 * static_cast<double>(neighbors) * DBL_EPSILON;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    const double s = ws.scores[static_cast<std::size_t>(i)];
    const bool old = state[static_cast<std::size_t>(i)] == kOld;
    if (active != nullptr && active[i] == 0) {
      lo[i] = kInf;
      hi[i] = -kInf;
    } else {
      lo[i] = old ? s : s * (1.0 - 2.0 * gamma);
      hi[i] = old ? s : s * (1.0 + 3.0 * gamma);
    }
  }
  // Every active row meets itself.  O(n^2) compares, small next to the
  // rank counts' O(n^3 / lanes).
  for (int i = 0; i < n; ++i) {
    if (state[static_cast<std::size_t>(i)] != kCanonical) continue;
    int meets = 0;
    for (int j = 0; j < n; ++j) meets += (lo[j] <= hi[i]) & (hi[j] >= lo[i]);
    if (meets > 1) state[static_cast<std::size_t>(i)] = kDue;
  }
}

/// The band certification and final selection of krum_select's two routes
/// (krum_select_lanes runs the same steps lane by lane).
/// With `scored` (every active row holds a finite score and its state),
/// mark_band picks the rows due for the old score; without it every row
/// is.  candidates(i, p, dst) copies active row i's (the p-th active row's)
/// m candidates, in ascending-j order, into dst; each due row's old score
/// partitions that fresh copy.  Returns the first active row with the
/// lowest score.
template <typename Candidates>
int certify_and_select(AggregatorWorkspace& ws, int n, int m, int neighbors,
                       const unsigned char* active, bool scored, Candidates&& candidates) {
  auto& state = ws.krum_state;
  if (scored) {
    mark_band(ws, n, neighbors, active);
  } else {
    state.assign(static_cast<std::size_t>(n), kDue);
  }
  double* dists = ws.scratch.data();
  int best = -1;
  int p = 0;
  for (int i = 0; i < n; ++i) {
    if (active != nullptr && active[i] == 0) continue;
    const auto at = static_cast<std::size_t>(i);
    if (state[at] == kDue) {
      candidates(i, p, dists);
      ws.scores[at] = nth_element_score(dists, m, neighbors);
    }
    ++p;
    if (best < 0 || ws.scores[at] < ws.scores[static_cast<std::size_t>(best)]) best = i;
  }
  return best;
}

#if defined(__AVX512F__)
constexpr int kLanes = AggregatorWorkspace::kSmallDLanes;

/// Lane t's candidate list of row i (register x of row i holds candidate x
/// of every lane) into dst.
void lane_candidates(const double* cand, int m, int i, int t, double* dst) {
  const double* regs = cand + static_cast<std::size_t>(i) * m * kLanes;
  for (int x = 0; x < m; ++x) dst[x] = regs[x * kLanes + t];
}

/// The lanes of a row whose state is `want`.
__mmask8 lanes_in_state(const unsigned char* state, unsigned char want) {
  unsigned mask = 0;
  for (int t = 0; t < kLanes; ++t) mask |= static_cast<unsigned>(state[t] == want) << t;
  return static_cast<__mmask8>(mask);
}

/// mark_band for the lanes in `lanes`, each lane a leaf of its own: the
/// same intervals, built from the same products, and the same meet count
/// over the lane's rows.
void mark_band_lanes(AggregatorWorkspace& ws, int rows, int neighbors, __mmask8 lanes) {
  const double gamma = 2.0 * static_cast<double>(neighbors) * DBL_EPSILON;
  const __m512d lo_scale = _mm512_set1_pd(1.0 - 2.0 * gamma);
  const __m512d hi_scale = _mm512_set1_pd(1.0 + 3.0 * gamma);
  const auto regs = static_cast<std::size_t>(rows) * kLanes;
  double* lo = aligned_doubles(ws.krum_lo, regs);
  double* hi = aligned_doubles(ws.krum_hi, regs);
  unsigned char* state = ws.krum_state.data();
  for (int i = 0; i < rows; ++i) {
    const __m512d s = _mm512_loadu_pd(ws.scores.data() + i * kLanes);
    const __mmask8 old = lanes_in_state(state + i * kLanes, kOld);
    _mm512_store_pd(lo + i * kLanes, _mm512_mask_blend_pd(old, _mm512_mul_pd(s, lo_scale), s));
    _mm512_store_pd(hi + i * kLanes, _mm512_mask_blend_pd(old, _mm512_mul_pd(s, hi_scale), s));
  }
  const __m512i one = _mm512_set1_epi64(1);
  for (int i = 0; i < rows; ++i) {
    const __mmask8 canonical = lanes & lanes_in_state(state + i * kLanes, kCanonical);
    if (canonical == 0) continue;
    const __m512d lo_i = _mm512_load_pd(lo + i * kLanes);
    const __m512d hi_i = _mm512_load_pd(hi + i * kLanes);
    __m512i meets = _mm512_setzero_si512();
    for (int j = 0; j < rows; ++j) {
      const __mmask8 meet =
          _mm512_cmp_pd_mask(_mm512_load_pd(lo + j * kLanes), hi_i, _CMP_LE_OQ) &
          _mm512_cmp_pd_mask(_mm512_load_pd(hi + j * kLanes), lo_i, _CMP_GE_OQ);
      meets = _mm512_mask_add_epi64(meets, meet, meets, one);
    }
    const __mmask8 due = _mm512_mask_cmpgt_epi64_mask(canonical, meets, one);
    for (unsigned u = due; u != 0; u &= u - 1) state[i * kLanes + std::countr_zero(u)] = kDue;
  }
}
#endif  // __AVX512F__

}  // namespace

bool krum_shard_lanes(const AggregatorWorkspace& ws, int max_rows, int d) {
  return max_rows <= kLaneShardMaxRows && ws.small_d_kernels(d);
}

void krum_select_lanes(AggregatorWorkspace& ws, const GradientBatch& batch,
                       const int* const* ids, int lanes, int rows, int neighbors, int* best) {
  ABFT_REQUIRE(krum_shard_lanes(ws, rows, batch.cols()), "not a shard-lane Krum call");
  ABFT_REQUIRE(1 <= lanes && lanes <= AggregatorWorkspace::kSmallDLanes,
               "a shard-lane call takes 1 to 8 shards");
  ABFT_REQUIRE(1 <= neighbors && neighbors < rows, "krum neighbours must be in [1, rows - 1]");
#if defined(__AVX512F__)
  const int m = rows - 1;
  const auto regs = static_cast<std::size_t>(rows) * kLanes;
  double* cand = aligned_doubles(ws.krum_cand, regs * static_cast<std::size_t>(m));
  ws.scores.resize(regs);
  ws.krum_state.resize(regs);
  ws.pairrow.resize(static_cast<std::size_t>(rows));
  ws.scratch.resize(static_cast<std::size_t>(rows));
  ws.sqdist_lanes_small_d(batch, ids, lanes, rows, cand);
  const auto valid = static_cast<__mmask8>((1u << lanes) - 1);
  double* scores = ws.scores.data();
  unsigned char* state = ws.krum_state.data();
  double* list = ws.pairrow.data();
  // Canonical scores, row by row for the eight lanes; lanes the network
  // cannot certify take score_row on their list, as krum_select's rows do.
  const __m512d inf = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  __mmask8 finite = valid;
  for (int i = 0; i < rows; ++i) {
    double* si = scores + i * kLanes;
    __mmask8 uncertified = 0;
    _mm512_storeu_pd(si, smallest_k_sum_lanes(cand + static_cast<std::size_t>(i) * m * kLanes,
                                              m, neighbors, &uncertified));
    std::fill_n(state + i * kLanes, kLanes, kCanonical);
    for (unsigned u = uncertified & valid; u != 0; u &= u - 1) {
      const int t = std::countr_zero(u);
      lane_candidates(cand, m, i, t, list);
      si[t] = score_row(ws, list, m, neighbors, &state[i * kLanes + t]);
    }
    finite &= _mm512_cmp_pd_mask(_mm512_abs_pd(_mm512_loadu_pd(si)), inf, _CMP_LT_OQ);
  }
  // certify_and_select per lane: a lane with a non-finite score rescores
  // every row the old way, the others their rows in the band.
  mark_band_lanes(ws, rows, neighbors, finite);
  const __mmask8 fallback = valid & ~finite;
  for (unsigned u = valid; u != 0; u &= u - 1) {
    const int t = std::countr_zero(u);
    const bool whole = ((fallback >> t) & 1) != 0;
    int b = -1;
    for (int i = 0; i < rows; ++i) {
      double& score = scores[i * kLanes + t];
      if (whole || state[i * kLanes + t] == kDue) {
        lane_candidates(cand, m, i, t, list);
        score = nth_element_score(list, m, neighbors);
      }
      if (b < 0 || score < scores[b * kLanes + t]) b = i;
    }
    best[t] = b;
  }
#else
  (void)batch, (void)ids, (void)best;  // unreachable: krum_shard_lanes needs AVX-512
#endif
}

int krum_select(AggregatorWorkspace& ws, int n, int neighbors, const unsigned char* active) {
  const auto nn = static_cast<std::size_t>(n);
  ws.scores.resize(nn);
  ws.pairrow.resize(nn);
  ws.scratch.resize(nn);
  ws.krum_state.assign(nn, kDue);
  int live = 0;
  for (int i = 0; i < n; ++i) live += active == nullptr || active[i] != 0 ? 1 : 0;
  // Past the cutoff every row takes the old route from its gathered row,
  // and so does every call with a non-finite score anywhere.
  const int m = live - 1;
  if (m > kKrumRankSelectMaxRow) {
    return certify_and_select(ws, n, m, neighbors, active, false,
                              [&ws, n, active](int i, int, double* dst) {
                                gather_candidates(ws, i, n, active, dst);
                              });
  }
  ws.krum_cand.resize(static_cast<std::size_t>(live) * static_cast<std::size_t>(m));
  if (ws.f32_lane()) {
    build_candidates(ws.pairdist_f32.data(), n, active, m, ws.krum_cand.data());
  } else {
    build_candidates(ws.pairdist.data(), n, active, m, ws.krum_cand.data());
  }
  const bool finite = score_canonically(ws, n, m, neighbors, active);
  const double* cand = ws.krum_cand.data();
  return certify_and_select(ws, n, m, neighbors, active, finite,
                            [cand, m](int, int p, double* dst) {
                              const double* row = cand + static_cast<std::size_t>(p) * m;
                              std::copy(row, row + m, dst);
                            });
}

}  // namespace detail

namespace {

/// The shard-lane route of both rules' aggregate_shards: equal-size shards
/// in groups of eight (the smaller size first, each size in shard order,
/// so a last group may be partial), the groups split over the worker
/// groups of ws.shard_groups.  emit(sub, lane_ids, rows, t, best, out)
/// writes shard t's output row from sub.scores and its pick.  Returns false,
/// writing nothing, where detail::krum_shard_lanes does not hold.
template <typename Emit>
bool aggregate_shard_lanes(GradientBatch& outputs, const GradientBatch& batch,
                           std::span<const int> ids, int shards, int f, AggregatorWorkspace& ws,
                           Emit&& emit) {
  constexpr int kLanes = AggregatorWorkspace::kSmallDLanes;
  const int n = static_cast<int>(ids.size());
  const int d = batch.cols();
  const int small = n / shards;
  if (!detail::krum_shard_lanes(ws, small + (n % shards != 0 ? 1 : 0), d)) return false;
  ABFT_REQUIRE(f >= 0, "fault bound f must be non-negative");
  ABFT_REQUIRE(small > 2 * f + 2, "krum needs n > 2f + 2");
  outputs.reshape(shards, d);
  const auto rows_of = [n, shards](int s) {
    return shard_begin(n, shards, s + 1) - shard_begin(n, shards, s);
  };
  auto& order = ws.order;  // the shards by size; the leaves draw on sub-workspaces
  order.clear();
  for (int s = 0; s < shards; ++s) {
    if (rows_of(s) == small) order.push_back(s);
  }
  const int small_shards = static_cast<int>(order.size());
  for (int s = 0; s < shards; ++s) {
    if (rows_of(s) != small) order.push_back(s);
  }
  const int small_groups = (small_shards + kLanes - 1) / kLanes;
  const int groups = small_groups + (shards - small_shards + kLanes - 1) / kLanes;
  const int width = ws.shard_groups(groups);
  ws.run_parallel(0, width, [&](int worker_begin, int worker_end) {
    for (int w = worker_begin; w < worker_end; ++w) {
      AggregatorWorkspace& sub = *ws.hier_groups[static_cast<std::size_t>(w)];
      for (int g = shard_begin(groups, width, w); g < shard_begin(groups, width, w + 1); ++g) {
        const int begin = g < small_groups ? g * kLanes
                                           : small_shards + (g - small_groups) * kLanes;
        const int end = std::min(begin + kLanes, g < small_groups ? small_shards : shards);
        const int lanes = end - begin;
        const int* shard = order.data() + begin;
        const int* lane_ids[kLanes];
        for (int t = 0; t < lanes; ++t) lane_ids[t] = ids.data() + shard_begin(n, shards, shard[t]);
        const int rows = rows_of(shard[0]);
        int best[kLanes] = {};
        detail::krum_select_lanes(sub, batch, lane_ids, lanes, rows, rows - f - 2, best);
        for (int t = 0; t < lanes; ++t) {
          emit(sub, lane_ids[t], rows, t, best[t], outputs.row(shard[t]));
        }
      }
    }
  });
  return true;
}

/// Multi-Krum's output: the mean of the m rows with the lowest scores in
/// their stable order, summed in that order, then scaled by 1 / m.  Row
/// i's score is scores[i * stride]; it is batch row ids[i], or row i
/// without ids.
void mean_of_lowest(std::vector<int>& order, const double* scores, int stride, int n, int m,
                    const GradientBatch& batch, const int* ids, std::span<double> out) {
  order.resize(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [scores, stride](int a, int b) {
    return scores[a * stride] < scores[b * stride];
  });
  const int d = batch.cols();
  std::fill(out.begin(), out.end(), 0.0);
  for (int s = 0; s < m; ++s) {
    const int i = order[static_cast<std::size_t>(s)];
    const double* row = batch.row(ids != nullptr ? ids[i] : i).data();
    for (int k = 0; k < d; ++k) out[static_cast<std::size_t>(k)] += row[k];
  }
  const double inv = 1.0 / static_cast<double>(m);
  for (int k = 0; k < d; ++k) out[static_cast<std::size_t>(k)] *= inv;
}

std::vector<double> scores_with_neighbors(std::span<const Vector> gradients, int num_neighbors) {
  std::vector<double> score(gradients.size(), 0.0);
  std::vector<double> dists;
  dists.reserve(gradients.size() - 1);
  for (std::size_t i = 0; i < gradients.size(); ++i) {
    dists.clear();
    for (std::size_t j = 0; j < gradients.size(); ++j) {
      if (i == j) continue;
      const double d = linalg::distance(gradients[i], gradients[j]);
      dists.push_back(d * d);
    }
    std::nth_element(dists.begin(), dists.begin() + (num_neighbors - 1), dists.end());
    score[i] = std::accumulate(dists.begin(), dists.begin() + num_neighbors, 0.0);
  }
  return score;
}

}  // namespace

std::vector<double> KrumAggregator::scores(std::span<const Vector> gradients, int f) {
  const int n = static_cast<int>(gradients.size());
  ABFT_REQUIRE(n > 2 * f + 2, "krum needs n > 2f + 2");
  return scores_with_neighbors(gradients, n - f - 2);
}

std::vector<double> KrumAggregator::relaxed_scores(std::span<const Vector> gradients, int f) {
  const int n = static_cast<int>(gradients.size());
  ABFT_REQUIRE(n >= 2, "relaxed krum scores need at least two gradients");
  ABFT_REQUIRE(f >= 0, "fault bound must be non-negative");
  return scores_with_neighbors(gradients, std::max(1, n - f - 2));
}

Vector KrumAggregator::aggregate(std::span<const Vector> gradients, int f) const {
  validate_gradients(gradients, f);
  const auto score = scores(gradients, f);
  const auto best = std::min_element(score.begin(), score.end()) - score.begin();
  return gradients[static_cast<std::size_t>(best)];
}

int KrumAggregator::batched_scores(const GradientBatch& batch, int f, AggregatorWorkspace& ws) {
  const int n = batch.rows();
  ABFT_REQUIRE(n > 2 * f + 2, "krum needs n > 2f + 2");
  ws.fill_pairwise_sqdist(batch);
  return detail::krum_select(ws, n, n - f - 2, nullptr);
}

void KrumAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                    AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int best = batched_scores(batch, f, ws);
  resize_output(out, d);
  const auto row = batch.row(best);
  std::copy(row.begin(), row.end(), out.coefficients().begin());
}

void KrumAggregator::aggregate_shards(GradientBatch& outputs, const GradientBatch& batch,
                                      std::span<const int> ids, int shards, int f,
                                      AggregatorWorkspace& ws) const {
  const bool lanes = aggregate_shard_lanes(
      outputs, batch, ids, shards, f, ws,
      [&batch](AggregatorWorkspace&, const int* rows, int, int, int best,
               std::span<double> out) {
        const auto row = batch.row(rows[best]);
        std::copy(row.begin(), row.end(), out.begin());
      });
  if (!lanes) GradientAggregator::aggregate_shards(outputs, batch, ids, shards, f, ws);
}

MultiKrumAggregator::MultiKrumAggregator(int m) : m_(m) {
  ABFT_REQUIRE(m >= 0, "multi-krum m must be non-negative");
}

Vector MultiKrumAggregator::aggregate(std::span<const Vector> gradients, int f) const {
  const int dim = validate_gradients(gradients, f);
  const int n = static_cast<int>(gradients.size());
  const int m = m_ > 0 ? m_ : n - f;
  ABFT_REQUIRE(m <= n, "multi-krum m must be at most n");
  const auto score = KrumAggregator::scores(gradients, f);
  std::vector<int> order(gradients.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&score](int a, int b) {
    return score[static_cast<std::size_t>(a)] < score[static_cast<std::size_t>(b)];
  });
  Vector sum(dim);
  for (int i = 0; i < m; ++i) sum += gradients[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])];
  return sum / static_cast<double>(m);
}

void MultiKrumAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                         AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  const int m = m_ > 0 ? m_ : n - f;
  ABFT_REQUIRE(m <= n, "multi-krum m must be at most n");
  KrumAggregator::batched_scores(batch, f, ws);
  resize_output(out, d);
  mean_of_lowest(ws.order, ws.scores.data(), 1, n, m, batch, nullptr, out.coefficients());
}

void MultiKrumAggregator::aggregate_shards(GradientBatch& outputs, const GradientBatch& batch,
                                           std::span<const int> ids, int shards, int f,
                                           AggregatorWorkspace& ws) const {
  // Every shard has at least n / shards rows, so m_ fits every shard.
  ABFT_REQUIRE(m_ <= static_cast<int>(ids.size()) / shards, "multi-krum m must be at most n");
  const bool lanes = aggregate_shard_lanes(
      outputs, batch, ids, shards, f, ws,
      [&batch, f, this](AggregatorWorkspace& sub, const int* rows, int n, int t, int,
                        std::span<double> out) {
        mean_of_lowest(sub.order, sub.scores.data() + t, AggregatorWorkspace::kSmallDLanes, n,
                       m_ > 0 ? m_ : n - f, batch, rows, out);
      });
  if (!lanes) GradientAggregator::aggregate_shards(outputs, batch, ids, shards, f, ws);
}

}  // namespace abft::agg
