#include "abft/agg/krum.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <numeric>

#include "abft/agg/rank_kernel.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

namespace detail {

namespace {

static_assert(kKrumRankSelectMaxRow <= kRankKernelCapacity,
              "smallest_k_sum sizes its stack buffer by kRankKernelCapacity");

/// Row i's candidate distances (every other row, or every other active row)
/// in ascending-j order — the buffer the old scorer partitioned.  Returns
/// their count.
int gather_candidates(AggregatorWorkspace& ws, int i, int n, const unsigned char* active,
                      double* dst) {
  double* row = ws.pairrow.data();
  ws.gather_pair_row(i, n, row);
  if (active == nullptr) {
    std::copy(row, row + i, dst);
    std::copy(row + i + 1, row + n, dst + i);
    return n - 1;
  }
  int m = 0;
  for (int j = 0; j < n; ++j) {
    if (j != i && active[j] != 0) dst[m++] = row[j];
  }
  return m;
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

/// Canonical scores of the active rows.  A tie at the k-th distance
/// (kept != neighbors) makes the rank-selected sum over-count, so those
/// rows take the old score at once.  Returns false if any score is not
/// finite.
bool score_canonically(AggregatorWorkspace& ws, int n, int neighbors,
                       const unsigned char* active) {
  double* dists = ws.scratch.data();
  bool finite = true;
  for (int i = 0; i < n; ++i) {
    if (active != nullptr && active[i] == 0) continue;
    const int m = gather_candidates(ws, i, n, active, dists);
    int kept = 0;
    double score = smallest_k_sum(dists, m, neighbors, &kept);
    unsigned char state = kCanonical;
    if (kept != neighbors) {
      score = nth_element_score(dists, m, neighbors);
      state = kOld;
    }
    ws.scores[static_cast<std::size_t>(i)] = score;
    ws.krum_state[static_cast<std::size_t>(i)] = state;
    finite = finite && std::isfinite(score);
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

}  // namespace

int krum_select(AggregatorWorkspace& ws, int n, int neighbors, const unsigned char* active) {
  const auto nn = static_cast<std::size_t>(n);
  ws.scores.resize(nn);
  ws.pairrow.resize(nn);
  ws.scratch.resize(nn);
  ws.krum_state.assign(nn, kDue);
  const auto is_active = [active](int i) { return active == nullptr || active[i] != 0; };
  auto& state = ws.krum_state;

  int live = 0;
  for (int i = 0; i < n; ++i) live += is_active(i) ? 1 : 0;
  // Past the cutoff every row takes the old route (its rows start out
  // kDue), and so does every call with a non-finite score anywhere.
  if (live - 1 <= kKrumRankSelectMaxRow) {
    if (!score_canonically(ws, n, neighbors, active)) {
      state.assign(nn, kDue);
    } else {
      mark_band(ws, n, neighbors, active);
    }
  }

  double* dists = ws.scratch.data();
  int best = -1;
  for (int i = 0; i < n; ++i) {
    if (!is_active(i)) continue;
    if (state[static_cast<std::size_t>(i)] == kDue) {
      const int m = gather_candidates(ws, i, n, active, dists);
      ws.scores[static_cast<std::size_t>(i)] = nth_element_score(dists, m, neighbors);
    }
    const double score = ws.scores[static_cast<std::size_t>(i)];
    if (best < 0 || score < ws.scores[static_cast<std::size_t>(best)]) best = i;
  }
  return best;
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
