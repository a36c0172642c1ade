#include "abft/agg/cclip.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "abft/agg/cwmed.hpp"
#include "abft/agg/simd_util.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

CenteredClipAggregator::CenteredClipAggregator(double tau, int iterations)
    : tau_(tau), iterations_(iterations) {
  ABFT_REQUIRE(iterations > 0, "centered clipping needs at least one iteration");
}

Vector CenteredClipAggregator::aggregate(std::span<const Vector> gradients, int f) const {
  const int dim = validate_gradients(gradients, f);
  (void)dim;
  const CwmedAggregator median_rule;
  Vector pivot = median_rule.aggregate(gradients, f);

  for (int iter = 0; iter < iterations_; ++iter) {
    double tau = tau_;
    if (tau <= 0.0) {
      // Adaptive radius: median distance from the current pivot.
      std::vector<double> dists(gradients.size());
      for (std::size_t i = 0; i < gradients.size(); ++i) {
        dists[i] = linalg::distance(gradients[i], pivot);
      }
      std::sort(dists.begin(), dists.end());
      const std::size_t n = dists.size();
      tau = (n % 2 == 1) ? dists[n / 2] : 0.5 * (dists[n / 2 - 1] + dists[n / 2]);
      if (tau <= 0.0) return pivot;  // all gradients equal the pivot
    }
    Vector correction(pivot.dim());
    for (const auto& g : gradients) {
      Vector delta = g - pivot;
      const double norm = delta.norm();
      if (norm > tau) delta *= tau / norm;
      correction += delta;
    }
    pivot.add_scaled(1.0 / static_cast<double>(gradients.size()), correction);
  }
  return pivot;
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

ClippedInputAggregator::ClippedInputAggregator(const GradientAggregator& inner)
    : inner_(inner) {}

Vector ClippedInputAggregator::aggregate(std::span<const Vector> gradients, int f) const {
  validate_gradients(gradients, f);
  std::vector<double> norms(gradients.size());
  for (std::size_t i = 0; i < gradients.size(); ++i) norms[i] = gradients[i].norm();
  std::vector<double> sorted = norms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const double cap = (n % 2 == 1) ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  std::vector<Vector> capped(gradients.begin(), gradients.end());
  for (std::size_t i = 0; i < capped.size(); ++i) {
    if (norms[i] > cap && norms[i] > 0.0) capped[i] *= cap / norms[i];
  }
  return inner_.aggregate(capped, f);
}

void ClippedInputAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                            AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  ws.fill_norms(batch);
  ws.scratch.assign(ws.norms.begin(), ws.norms.end());
  const double cap = median_inplace(ws.scratch.data(), ws.scratch.data() + n);
  // Capped copy lives in its own workspace batch (clip_batch) so the inner
  // rule is free to use aux_batch and the other scratch buffers.  Nesting
  // ClippedInput inside ClippedInput would alias clip_batch; don't.
  ws.clip_batch.reshape(n, d);
  for (int i = 0; i < n; ++i) {
    const double norm = ws.norms[static_cast<std::size_t>(i)];
    const double* src = batch.row(i).data();
    double* dst = ws.clip_batch.row(i).data();
    if (norm > cap && norm > 0.0) {
      const double s = cap / norm;
      for (int k = 0; k < d; ++k) dst[k] = src[k] * s;
    } else {
      std::memcpy(dst, src, static_cast<std::size_t>(d) * sizeof(double));
    }
  }
  inner_.aggregate_into(out, ws.clip_batch, f, ws);
}

}  // namespace abft::agg
