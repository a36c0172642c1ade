// Krum and Multi-Krum (Blanchard et al., NeurIPS 2017) — the best-known
// distance-score gradient filters; the paper cites them as related work
// (Section 2.2), and we include them as comparison baselines.
//
// Krum score of gradient i: the sum of squared Euclidean distances from g_i
// to its n - f - 2 nearest other gradients.  Krum outputs the gradient with
// the lowest score; Multi-Krum averages the m lowest-score gradients.
// Both require n > 2f + 2.
#pragma once

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

namespace detail {

/// Longest candidate row (n - 1 distances for Krum, pool - 1 for a Bulyan
/// round) that krum_select rank-selects; longer rows take the per-row
/// nth_element route, because rank counting costs O(m^2 / lanes) per row
/// against nth_element's O(m).  Measured once per ISA (per-row time of the
/// two routes on uniform rows, k = m / 2, 4-vCPU AVX-512 guest): the rank
/// route breaks even near m = 160 with AVX-512, 96 with AVX2 and 20 with
/// SSE2, and is still 1.8x / 2.4x / 1.4x faster at the cutoffs below, which
/// leaves room for the band recompute.  A constant, not a calibration: both
/// routes select the same rows, so the cutoff only moves time.
#if defined(__AVX512F__)
inline constexpr int kKrumRankSelectMaxRow = 96;
#elif defined(__AVX2__)
inline constexpr int kKrumRankSelectMaxRow = 48;
#else
inline constexpr int kKrumRankSelectMaxRow = 16;
#endif

/// Certified batched Krum scoring of rows [0, n) over the packed pairdist
/// the workspace already holds (fill_pairwise_sqdist).  Row i's score sums
/// its `neighbors` smallest distances to the other rows (to the other
/// *active* rows when `active` is non-null; inactive rows get no score).
///
/// The old scorer partitioned each row with nth_element and summed the kept
/// prefix with std::accumulate; its rounding depends on the partition
/// order.  Here each row is first scored canonically (smallest_k_sum: rank
/// counts and a laned masked sum, no partition, the same bits on every
/// ISA).  Both sums add the same `neighbors` non-negative terms, so each
/// lies within a relative neighbors * DBL_EPSILON / 2 of the exact sum, and
/// an interval around the canonical score holds the old one.  Only rows
/// whose interval meets another row's, plus rows with a tie at the k-th
/// distance, get the old nth_element + accumulate score.  The mixed scores
/// in ws.scores then have exactly the old strict order and ties, so a
/// min_element scan, a strict-< scan or a stable_sort over them picks the
/// rows the old scores picked; rows outside the band hold the canonical
/// value, which can differ from the old one in the last bits.  Rows longer
/// than kKrumRankSelectMaxRow, and every call where a score is not finite
/// (overflow, NaN input), take the old route for every row.
///
/// Returns the first active row with the lowest score.
int krum_select(AggregatorWorkspace& ws, int n, int neighbors, const unsigned char* active);

}  // namespace detail

class KrumAggregator final : public GradientAggregator {
 public:
  [[nodiscard]] Vector aggregate(std::span<const Vector> gradients, int f) const override;
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "krum"; }
  /// n > 2f + 2; below n = 3 the rule cannot run at all (-1).
  [[nodiscard]] int max_usable_f(int n) const noexcept override {
    return n < 3 ? -1 : (n - 3) / 2;
  }

  /// Krum scores for all gradients (exposed for tests and Bulyan).
  [[nodiscard]] static std::vector<double> scores(std::span<const Vector> gradients, int f);

  /// Batched Krum scores, written into workspace.scores by
  /// detail::krum_select; returns the lowest-score row.  Fills the shared
  /// pairwise squared-distance matrix in workspace.pairdist via the Gram
  /// identity; Krum and Multi-Krum both score from it (Bulyan's exact stage
  /// 1 runs krum_select over the same matrix with an active-row mask).
  /// Selections equal the old nth_element scorer's: the returned row and
  /// the stable_sort order of workspace.scores.  Rows outside the rounding
  /// band hold canonical scores, which may differ from the old values in
  /// the last bits.
  static int batched_scores(const GradientBatch& batch, int f, AggregatorWorkspace& workspace);

  /// Scores with the neighbour count clamped to at least one — used by
  /// Bulyan, whose selection loop shrinks the pool below Krum's own n > 2f+2
  /// requirement by design.
  [[nodiscard]] static std::vector<double> relaxed_scores(std::span<const Vector> gradients,
                                                          int f);
};

class MultiKrumAggregator final : public GradientAggregator {
 public:
  /// Averages the `m` lowest-score gradients; m = 0 means the canonical
  /// choice m = n - f computed per call.
  explicit MultiKrumAggregator(int m = 0);

  [[nodiscard]] Vector aggregate(std::span<const Vector> gradients, int f) const override;
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "multikrum"; }
  /// n > 2f + 2 (same scoring precondition as Krum); -1 below n = 3.
  [[nodiscard]] int max_usable_f(int n) const noexcept override {
    return n < 3 ? -1 : (n - 3) / 2;
  }

 private:
  int m_;
};

}  // namespace abft::agg
