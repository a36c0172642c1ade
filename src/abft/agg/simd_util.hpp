// Internal: laned floating-point reductions for the relaxed-parity
// (AggMode::fast) kernels.
//
// GCC/Clang will not auto-vectorize a plain `sum += a[k] * b[k]` reduction
// without -ffast-math because it reorders the additions; the loops here
// carry *independent* partial sums (two groups of one 512-bit register's
// lanes, enough ILP to cover the FMA latency chain) so the compiler
// vectorizes them at -O2 and the result is deterministic for a given
// (d, ISA) — just not bit-equal to the sequential exact-mode order.
// Exact-mode kernels must NOT call these.  The f64 reductions serve the fast
// Weiszfeld (GeoMed, GMoM), centered clipping and Bulyan stage 2.
// laned_sqdist<float> and the f32 section at the bottom serve only the
// coreset k-center pass (agg/coreset.cpp), whose col-major kernels
// vectorize across rows and keep each row's summation sequential in k; only
// their runtime-dispatched AVX-512 variants, whose FMA contraction can
// round differently, are fast-mode-gated.
#pragma once

#include <cstddef>

#if defined(__AVX512F__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

namespace abft::agg::detail {

inline constexpr int kReduceLanes = 8;

/// sum_k (a[k] - b[k])^2, laned: 64 / sizeof(T) lanes (8 doubles or 16
/// floats, one 512-bit register group) in two groups accumulate in T, the
/// leftover is summed in double and the lanes are added to it as doubles.
/// The f64 instance serves the fast Weiszfeld and centered-clipping distance
/// passes, the f32 one the coreset's center distances.
template <typename T>
inline double laned_sqdist(const T* a, const T* b, int d) {
  constexpr int kLanes = 64 / static_cast<int>(sizeof(T));
  T l0[kLanes] = {};
  T l1[kLanes] = {};
  int k = 0;
  for (; k + 2 * kLanes <= d; k += 2 * kLanes) {
    for (int t = 0; t < kLanes; ++t) {
      const T diff = a[k + t] - b[k + t];
      l0[t] += diff * diff;
    }
    for (int t = 0; t < kLanes; ++t) {
      const T diff = a[k + kLanes + t] - b[k + kLanes + t];
      l1[t] += diff * diff;
    }
  }
  for (; k + kLanes <= d; k += kLanes) {
    for (int t = 0; t < kLanes; ++t) {
      const T diff = a[k + t] - b[k + t];
      l0[t] += diff * diff;
    }
  }
  double sum = 0.0;
  for (; k < d; ++k) {
    const double diff = static_cast<double>(a[k]) - static_cast<double>(b[k]);
    sum += diff * diff;
  }
  for (int t = 0; t < kLanes; ++t) sum += static_cast<double>(l0[t]) + static_cast<double>(l1[t]);
  return sum;
}

#if defined(__AVX512F__) && (defined(__GNUC__) || defined(__clang__))
/// Column-major squared-distance block: out[i] = sum_k (cols[k*stride + i]
/// - center[k])^2 for i in [lo, hi), vectorized 8 rows wide with the k loop
/// innermost (one register accumulator per row group, scalar row tail).
/// Each row's sum runs in ascending-k order like the portable loop, but FMA
/// contraction can round differently — fast mode only.
inline void avx512_colmajor_sqdist(const double* cols, std::size_t stride,
                                   const double* center, int d, int lo, int hi,
                                   double* out) {
  int i = lo;
  for (; i + 8 <= hi; i += 8) {
    const double* col = cols + i;
    __m512d diff = _mm512_sub_pd(_mm512_loadu_pd(col), _mm512_set1_pd(center[0]));
    __m512d acc = _mm512_mul_pd(diff, diff);
    for (int k = 1; k < d; ++k) {
      diff = _mm512_sub_pd(_mm512_loadu_pd(col + static_cast<std::size_t>(k) * stride),
                           _mm512_set1_pd(center[k]));
      acc = _mm512_fmadd_pd(diff, diff, acc);
    }
    _mm512_storeu_pd(out + i, acc);
  }
  for (; i < hi; ++i) {  // scalar row tail (< 8 rows)
    const double diff0 = cols[i] - center[0];
    double acc = diff0 * diff0;
    for (int k = 1; k < d; ++k) {
      const double diff = cols[static_cast<std::size_t>(k) * stride + i] - center[k];
      acc += diff * diff;
    }
    out[i] = acc;
  }
}
#endif

/// Runtime probe for the AVX-512 sqdist path (compile-time support AND the
/// running CPU advertises avx512f) — mirrors batch.cpp's Gram dispatch.
inline bool sqdist_avx512_available() {
#if defined(__AVX512F__) && (defined(__GNUC__) || defined(__clang__))
  static const bool available = __builtin_cpu_supports("avx512f") != 0;
  return available;
#else
  return false;
#endif
}

// --- float32 lane (Precision::f32, fast mode only; coreset k-center) -------
// Row accumulation stays in float (each row sums d products — far inside
// the coreset's f32 envelope); the results widen to double.  f32 lane only —
// never exact mode, never the f64 fast lane.

#if defined(__AVX512F__) && (defined(__GNUC__) || defined(__clang__))
/// f32 counterpart of avx512_colmajor_sqdist: 16 rows per register group,
/// float accumulation, results widened into the caller's double buffer (the
/// selection machinery stays f64 so tie-breaking is precision-agnostic).
inline void avx512_colmajor_sqdist_f32(const float* cols, std::size_t stride,
                                       const float* center, int d, int lo, int hi,
                                       double* out) {
  int i = lo;
  for (; i + 16 <= hi; i += 16) {
    const float* col = cols + i;
    __m512 diff = _mm512_sub_ps(_mm512_loadu_ps(col), _mm512_set1_ps(center[0]));
    __m512 acc = _mm512_mul_ps(diff, diff);
    for (int k = 1; k < d; ++k) {
      diff = _mm512_sub_ps(_mm512_loadu_ps(col + static_cast<std::size_t>(k) * stride),
                           _mm512_set1_ps(center[k]));
      acc = _mm512_fmadd_ps(diff, diff, acc);
    }
    _mm512_storeu_pd(out + i, _mm512_cvtps_pd(_mm512_castps512_ps256(acc)));
    // Upper 8 floats via the AVX512F-only f64x4 extract (f32x8 needs DQ).
    const __m256 hi8 = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(acc), 1));
    _mm512_storeu_pd(out + i + 8, _mm512_cvtps_pd(hi8));
  }
  for (; i < hi; ++i) {  // scalar row tail (< 16 rows)
    const float diff0 = cols[i] - center[0];
    float acc = diff0 * diff0;
    for (int k = 1; k < d; ++k) {
      const float diff = cols[static_cast<std::size_t>(k) * stride + i] - center[k];
      acc += diff * diff;
    }
    out[i] = static_cast<double>(acc);
  }
}
#endif

/// Portable f32 col-major distance block: same row-group vectorization shape
/// as the AVX-512 variant (16 rows wide, k innermost), plain loops so the
/// compiler picks the widest ISA it was built for.  Fast-mode f32 lane only.
inline void laned_colmajor_sqdist_f32(const float* cols, std::size_t stride,
                                      const float* center, int d, int lo, int hi,
                                      double* out) {
  constexpr int kRows = 16;
  int i = lo;
  for (; i + kRows <= hi; i += kRows) {
    const float* col = cols + i;
    float acc[kRows];
    for (int t = 0; t < kRows; ++t) {
      const float diff = col[t] - center[0];
      acc[t] = diff * diff;
    }
    for (int k = 1; k < d; ++k) {
      const float* colk = col + static_cast<std::size_t>(k) * stride;
      for (int t = 0; t < kRows; ++t) {
        const float diff = colk[t] - center[k];
        acc[t] += diff * diff;
      }
    }
    for (int t = 0; t < kRows; ++t) out[i + t] = static_cast<double>(acc[t]);
  }
  for (; i < hi; ++i) {
    const float diff0 = cols[i] - center[0];
    float acc = diff0 * diff0;
    for (int k = 1; k < d; ++k) {
      const float diff = cols[static_cast<std::size_t>(k) * stride + i] - center[k];
      acc += diff * diff;
    }
    out[i] = static_cast<double>(acc);
  }
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
