// Internal: laned floating-point reductions for the relaxed-parity
// (AggMode::fast) kernels.
//
// GCC/Clang will not auto-vectorize a plain `sum += a[k] * b[k]` reduction
// without -ffast-math because it reorders the additions; the loops here
// carry *independent* partial sums (two groups of one 512-bit register's
// lanes, enough ILP to cover the FMA latency chain) so the compiler
// vectorizes them at -O2 and the result is deterministic for a given d on
// every ISA (the build never contracts a * b + c) — just not bit-equal to
// the sequential exact-mode order.
// Exact-mode kernels must NOT call these.  The f64 reductions serve the fast
// Weiszfeld (GeoMed, GMoM), centered clipping and Bulyan stage 2.
#pragma once

namespace abft::agg::detail {

inline constexpr int kReduceLanes = 8;

/// sum_k (a[k] - b[k])^2, laned: kReduceLanes lanes (one 512-bit register
/// group) in two groups, the leftover summed after them.  Serves the fast
/// Weiszfeld and centered-clipping distance passes.
inline double laned_sqdist(const double* a, const double* b, int d) {
  double l0[kReduceLanes] = {};
  double l1[kReduceLanes] = {};
  int k = 0;
  for (; k + 2 * kReduceLanes <= d; k += 2 * kReduceLanes) {
    for (int t = 0; t < kReduceLanes; ++t) {
      const double diff = a[k + t] - b[k + t];
      l0[t] += diff * diff;
    }
    for (int t = 0; t < kReduceLanes; ++t) {
      const double diff = a[k + kReduceLanes + t] - b[k + kReduceLanes + t];
      l1[t] += diff * diff;
    }
  }
  for (; k + kReduceLanes <= d; k += kReduceLanes) {
    for (int t = 0; t < kReduceLanes; ++t) {
      const double diff = a[k + t] - b[k + t];
      l0[t] += diff * diff;
    }
  }
  double sum = 0.0;
  for (; k < d; ++k) {
    const double diff = a[k] - b[k];
    sum += diff * diff;
  }
  for (int t = 0; t < kReduceLanes; ++t) sum += l0[t] + l1[t];
  return sum;
}

/// sum_k a[k], laned.
inline double laned_sum(const double* a, int d) {
  double l0[kReduceLanes] = {0.0};
  int k = 0;
  for (; k + kReduceLanes <= d; k += kReduceLanes) {
    for (int t = 0; t < kReduceLanes; ++t) l0[t] += a[k + t];
  }
  double sum = 0.0;
  for (; k < d; ++k) sum += a[k];
  for (int t = 0; t < kReduceLanes; ++t) sum += l0[t];
  return sum;
}

}  // namespace abft::agg::detail
