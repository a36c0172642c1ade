#include "abft/agg/cclip.hpp"

#include <algorithm>
#include <cmath>

#include "abft/agg/cwmed.hpp"
#include "abft/agg/simd_util.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

CenteredClipAggregator::CenteredClipAggregator(double tau, int iterations)
    : tau_(tau), iterations_(iterations) {
  ABFT_REQUIRE(iterations > 0, "centered clipping needs at least one iteration");
}

void CenteredClipAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                            AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  // Robust pivot: batched coordinate-wise median straight into `out`.
  const CwmedAggregator median_rule;
  median_rule.aggregate_into(out, batch, f, ws);
  auto pivot = out.coefficients();

  // Fast mode swaps the scalar distance reductions (loop-carried FP
  // dependency, never vectorized at -O2) for laned partial sums; iteration
  // structure, clipping rule and pivot updates are unchanged.
  const bool fast = ws.mode == AggMode::fast && d >= 2 * detail::kReduceLanes;
  const auto sqdist_to_pivot = [&](int i) {
    const double* row = batch.row(i).data();
    if (fast) return detail::laned_sqdist(row, pivot.data(), d);
    double dist_sq = 0.0;
    for (int k = 0; k < d; ++k) {
      const double diff = row[k] - pivot[static_cast<std::size_t>(k)];
      dist_sq += diff * diff;
    }
    return dist_sq;
  };
  ws.vecbuf.resize(static_cast<std::size_t>(d));
  double* correction = ws.vecbuf.data();
  for (int iter = 0; iter < iterations_; ++iter) {
    double tau = tau_;
    if (tau <= 0.0) {
      // Adaptive radius: median distance from the current pivot.
      ws.scratch.resize(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        ws.scratch[static_cast<std::size_t>(i)] = std::sqrt(sqdist_to_pivot(i));
      }
      tau = median_inplace(ws.scratch.data(), ws.scratch.data() + n);
      if (tau <= 0.0) return;  // all gradients equal the pivot
    }
    std::fill(correction, correction + d, 0.0);
    for (int i = 0; i < n; ++i) {
      const double norm = std::sqrt(sqdist_to_pivot(i));
      const double s = norm > tau ? tau / norm : 1.0;
      const double* row = batch.row(i).data();
      for (int k = 0; k < d; ++k) {
        correction[k] += s * (row[k] - pivot[static_cast<std::size_t>(k)]);
      }
    }
    const double inv = 1.0 / static_cast<double>(n);
    for (int k = 0; k < d; ++k) pivot[static_cast<std::size_t>(k)] += inv * correction[k];
  }
}

}  // namespace abft::agg
