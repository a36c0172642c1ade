// Geometric median (Weiszfeld's algorithm) and geometric median-of-means
// (GMoM, Chen-Su-Xu 2017) — cited in the paper's Section 2.2 survey.
#pragma once

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

/// Geometric median of the rows of `batch` to the given relative tolerance
/// via damped Weiszfeld iterations, written into `out`.  Deterministic.
/// Draws the Weiszfeld numerator from workspace.vecbuf — no allocation in
/// the iteration loop.
void geometric_median_into(Vector& out, const GradientBatch& batch,
                           AggregatorWorkspace& workspace, double tolerance = 1e-10,
                           int max_iterations = 200);

class GeometricMedianAggregator final : public GradientAggregator {
 public:
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "geomed"; }
};

/// Partitions the n gradients into k buckets (k = 2f + 1 by default, capped
/// at n), averages each bucket, then takes the geometric median of the
/// bucket means.
class GmomAggregator final : public GradientAggregator {
 public:
  explicit GmomAggregator(int num_buckets = 0);

  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "gmom"; }

 private:
  int num_buckets_;
};

}  // namespace abft::agg
