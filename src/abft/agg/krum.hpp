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
/// round) that krum_select scores by rank counts (smallest_k_sum); longer
/// rows take smallest_k_sum_select (nth_element, then one keep pass),
/// because rank counting costs O(m^2 / lanes) per row against O(m).
/// Measured once per ISA (per-row time of the two routes on uniform rows,
/// k = m / 2, GCC 12 -O3, 4-vCPU AVX-512 guest): the rank route breaks even
/// near m = 200 with AVX-512, 96 with AVX2 and 30 with SSE2, and is 2.3x /
/// 1.6x / 1.9x faster at the cutoffs below.  A constant, not a
/// calibration: both routes give the same bits, so the cutoff only moves
/// time.
#if defined(__AVX512F__)
inline constexpr int kKrumRankSelectMaxRow = 96;
#elif defined(__AVX2__)
inline constexpr int kKrumRankSelectMaxRow = 48;
#else
inline constexpr int kKrumRankSelectMaxRow = 16;
#endif

/// Batched Krum scoring of rows [0, n) over the packed pairdist the
/// workspace already holds (fill_pairwise_sqdist).  Row i's score, written
/// to ws.scores[i], is Krum's score (rank_kernel.hpp) of its candidate
/// list: its distances to the other rows (to the other *active* rows when
/// `active` is non-null; inactive rows get no score) in ascending j, a NaN
/// distance as +inf.  That is the sum of its `neighbors` smallest
/// distances, ties at the k-th broken toward the lower row index, in a
/// fixed lane order and reduction tree: the same bits on every ISA and on
/// both sides of kKrumRankSelectMaxRow, and never NaN.  Rows up to the
/// cutoff have their lists built at once from the packed triangle into
/// ws.krum_cand and scored by rank counts; longer rows are gathered one at
/// a time and scored by selection.
///
/// Returns the first active row with the lowest score.
int krum_select(AggregatorWorkspace& ws, int n, int neighbors, const unsigned char* active);

/// Most rows a shard may have on the shard-lane route: its candidates
/// (rows - 1) pad to 8, 16, 24 or 32 sorting-network inputs.
inline constexpr int kLaneShardMaxRows = 33;

/// True when Krum and Multi-Krum score a hierarchy level's shards by lanes
/// (aggregate_shards): its largest shard has at most kLaneShardMaxRows rows
/// and AggregatorWorkspace::small_d_kernels(d) holds (the f64 lane in
/// either mode, 8 <= d < 32, AVX-512 at runtime).  Every other level, and
/// every flat call, fills the packed triangle and runs krum_select.
bool krum_shard_lanes(const AggregatorWorkspace& ws, int max_rows, int d);

/// krum_select over `lanes` (1..8) shards of `rows` rows at once, lane t
/// for shard t, whose row i is batch row ids[t][i]; writes no packed
/// triangle.  sqdist_lanes_small_d puts every row's candidate list in
/// registers (in ws.krum_cand, register x of row i holding candidate x of
/// every shard; each shard's rows are loaded eight columns at a time and
/// transposed in registers), and smallest_k_sum_lanes scores each row of
/// the eight shards together: two Batcher half-sorts (sort_network.hpp)
/// and a merge select find the k-th distance, one pass sums.  Shard
/// t's row i score lands in ws.scores[8 i + t], and best[t] receives the
/// shard's first row with the lowest score; unused lanes (t >= lanes) hold
/// zero rows, decide nothing and get no best[t].  The bit contract: every
/// score and every pick equals krum_select's over the shard's gathered
/// rows and their packed triangle, whatever the lane and the other shards,
/// so the Multi-Krum stable order and both rules' outputs do too.
/// Requires krum_shard_lanes(ws, rows, d) and 1 <= neighbors <= rows - 1.
void krum_select_lanes(AggregatorWorkspace& ws, const GradientBatch& batch,
                       const int* const* ids, int lanes, int rows, int neighbors, int* best);

}  // namespace detail

class KrumAggregator final : public GradientAggregator {
 public:
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  /// Scores the shards by lanes (detail::krum_select_lanes) where
  /// detail::krum_shard_lanes holds; the base route otherwise.
  void aggregate_shards(GradientBatch& outputs, const GradientBatch& batch,
                        std::span<const int> ids, int shards, int f,
                        AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "krum"; }
  /// n > 2f + 2; below n = 3 the rule cannot run at all (-1).
  [[nodiscard]] int max_usable_f(int n) const noexcept override {
    return n < 3 ? -1 : (n - 3) / 2;
  }

  /// Batched Krum scores, written into workspace.scores by
  /// detail::krum_select; returns the lowest-score row.  Fills the shared
  /// pairwise squared-distance matrix in workspace.pairdist via the Gram
  /// identity; Krum and Multi-Krum both score from it (Bulyan's exact stage
  /// 1 runs krum_select over the same matrix with an active-row mask).
  static int batched_scores(const GradientBatch& batch, int f, AggregatorWorkspace& workspace);
};

class MultiKrumAggregator final : public GradientAggregator {
 public:
  /// Averages the `m` lowest-score gradients; m = 0 means the canonical
  /// choice m = n - f computed per call.
  explicit MultiKrumAggregator(int m = 0);

  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  /// Krum's shard lanes, then each shard's stable order and mean.
  void aggregate_shards(GradientBatch& outputs, const GradientBatch& batch,
                        std::span<const int> ids, int shards, int f,
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
