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

/// The band certification and final selection both scoring routes share.
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
constexpr int kBlockRows = AggregatorWorkspace::kSqdistBlockRows;
constexpr int kSmallLeafMaxBlocks = (kSmallLeafMaxCandidates + kBlockRows) / kBlockRows;

/// Scores the block of rows i0 .. i0 + 7 of an n-row leaf from `dist`, the
/// block's distance registers (sqdist_blocks_small_d).  Register x of `cand`
/// receives candidate x of every lane: lane t's distance to row x if
/// x < i0 + t, else to row x + 1 (its candidate list, ascending j), and
/// smallest_k_sum_lanes scores the eight lists together.  Lanes it cannot
/// certify (a tie at the k-th distance, a NaN candidate) take score_row on
/// their gathered list, as the packed route does, so every score and state
/// is the packed route's.  Writes ws.scores and ws.krum_state for the
/// block's rows; returns false if any of their scores is not finite.
bool score_block(AggregatorWorkspace& ws, const double* dist, int n, int i0, int neighbors,
                 double* cand) {
  const int m = n - 1;
  for (int x = 0; x < m; ++x) {
    // Lanes t <= x - i0 take row x + 1.
    const int shifted = x - i0 + 1;
    const auto next = static_cast<__mmask8>(
        shifted <= 0 ? 0u : shifted >= kBlockRows ? 0xFFu : (1u << shifted) - 1);
    _mm512_storeu_pd(cand + x * kBlockRows,
                     _mm512_mask_blend_pd(next, _mm512_load_pd(dist + x * kBlockRows),
                                          _mm512_load_pd(dist + (x + 1) * kBlockRows)));
  }
  const int rows = std::min(kBlockRows, n - i0);
  const auto valid = static_cast<__mmask8>((1u << rows) - 1);
  __mmask8 uncertified = 0;
  const __m512d sums = smallest_k_sum_lanes(cand, m, neighbors, &uncertified);
  _mm512_mask_storeu_pd(ws.scores.data() + i0, valid, sums);
  std::fill_n(ws.krum_state.data() + i0, rows, kCanonical);
  double* row = ws.pairrow.data();
  for (unsigned u = uncertified & valid; u != 0; u &= u - 1) {
    const int lane = std::countr_zero(u);
    for (int x = 0; x < m; ++x) row[x] = cand[x * kBlockRows + lane];
    const auto at = static_cast<std::size_t>(i0 + lane);
    ws.scores[at] = score_row(ws, row, m, neighbors, &ws.krum_state[at]);
  }
  bool finite = true;
  for (int r = 0; r < rows; ++r) {
    finite = finite && std::isfinite(ws.scores[static_cast<std::size_t>(i0 + r)]);
  }
  return finite;
}
#endif  // __AVX512F__

}  // namespace

bool krum_small_leaf(const AggregatorWorkspace& ws, int n, int d) {
  return n >= 2 && n - 1 <= kSmallLeafMaxCandidates && ws.small_d_kernels(d);
}

int krum_select_small_leaf(AggregatorWorkspace& ws, const GradientBatch& batch, int neighbors) {
  const int n = batch.rows();
  ABFT_REQUIRE(krum_small_leaf(ws, n, batch.cols()), "not a small Krum leaf");
  ABFT_REQUIRE(1 <= neighbors && neighbors < n, "krum neighbours must be in [1, n - 1]");
#if defined(__AVX512F__)
  const int m = n - 1;
  const int stride = m * kBlockRows;
  const auto nn = static_cast<std::size_t>(n);
  ws.scores.resize(nn);
  ws.pairrow.resize(nn);
  ws.scratch.resize(nn);
  ws.krum_state.resize(nn);
  ws.krum_lanes.resize(static_cast<std::size_t>((n + kBlockRows - 1) / kBlockRows) *
                       static_cast<std::size_t>(stride));
  ws.fill_small_d_operands(batch);
  alignas(64) double dist[kSmallLeafMaxBlocks * (kSmallLeafMaxCandidates + 1) * kBlockRows];
  ws.sqdist_blocks_small_d(batch, dist);
  // Block b's registers start at dist[b * n * 8], its candidates at
  // krum_lanes[b * stride].
  bool finite = true;
  for (int i0 = 0; i0 < n; i0 += kBlockRows) {
    const auto block = static_cast<std::size_t>(i0 / kBlockRows);
    const bool block_finite =
        score_block(ws, dist + block * nn * kBlockRows, n, i0, neighbors,
                    ws.krum_lanes.data() + block * static_cast<std::size_t>(stride));
    finite = finite && block_finite;
  }
  const double* lanes = ws.krum_lanes.data();
  return certify_and_select(
      ws, n, m, neighbors, nullptr, finite, [lanes, m, stride](int i, int, double* dst) {
        const double* col = lanes + (i / kBlockRows) * stride + i % kBlockRows;
        for (int x = 0; x < m; ++x) dst[x] = col[x * kBlockRows];
      });
#else
  return -1;  // unreachable: krum_small_leaf never holds without AVX-512
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
  if (detail::krum_small_leaf(ws, n, batch.cols())) {
    return detail::krum_select_small_leaf(ws, batch, n - f - 2);
  }
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
  ws.order.resize(static_cast<std::size_t>(n));
  std::iota(ws.order.begin(), ws.order.end(), 0);
  std::stable_sort(ws.order.begin(), ws.order.end(), [&ws](int a, int b) {
    return ws.scores[static_cast<std::size_t>(a)] < ws.scores[static_cast<std::size_t>(b)];
  });
  resize_output(out, d);
  auto acc = out.coefficients();
  std::fill(acc.begin(), acc.end(), 0.0);
  for (int s = 0; s < m; ++s) {
    const double* row = batch.row(ws.order[static_cast<std::size_t>(s)]).data();
    for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] += row[k];
  }
  const double inv = 1.0 / static_cast<double>(m);
  for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] *= inv;
}

}  // namespace abft::agg
