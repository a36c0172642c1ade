// Centered clipping (Karimireddy, He & Jaggi, 2021 — the paper's ref [28],
// "Learning from history for Byzantine robust optimization").  Starting
// from a robust pivot v_0, iterate
//   v_{l+1} = v_l + (1/n) sum_i clip(g_i - v_l, tau)
// where clip rescales to norm tau.  Outliers contribute at most tau each,
// while inliers pass through untouched.  Our stateless variant pivots on the
// coordinate-wise median and picks tau as the median distance to the pivot
// when no radius is supplied.
#pragma once

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

class CenteredClipAggregator final : public GradientAggregator {
 public:
  /// tau <= 0 selects the adaptive radius (median distance to the pivot).
  explicit CenteredClipAggregator(double tau = 0.0, int iterations = 3);

  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "cclip"; }

 private:
  double tau_;
  int iterations_;
};

}  // namespace abft::agg
