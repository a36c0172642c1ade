#include "abft/agg/batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "abft/agg/rank_kernel.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

namespace {

/// Tile width of the Gram accumulation: row segments of kChunk doubles stay
/// L2-resident across the O(n^2) pair sweep, so the whole batch streams from
/// memory once instead of once per pair.
constexpr int kChunk = 1024;

/// Start of row i's run in the packed strictly-upper-triangular layout
/// (== AggregatorWorkspace::pair_index(i, i + 1, n); for i == n - 1 it is
/// the one-past-end offset, which callers form but never dereference).
std::size_t pair_row_start(int i, int n) {
  return static_cast<std::size_t>(i) * (2 * static_cast<std::size_t>(n) - i - 1) / 2;
}

/// Plain-C++ lane count of the scalar Gram kernels: one 512-bit vector of T
/// (8 doubles, 16 floats).
template <typename T>
constexpr int kScalarLanes = static_cast<int>(64 / sizeof(T));

/// Row i of a row-major n x d buffer.
template <typename T>
const T* row_ptr(const T* rows, int d, int i) {
  return rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
}

/// Accumulates partial dot products <row_i, row_j> over the full chunk
/// [k0, k0 + kChunk) into the packed triangle of `pairdist` for i in
/// [i_begin, i_end), j > i.  The fixed-size lane array makes the inner
/// product vectorizable without -ffast-math (each lane is an independent
/// std::fma chain), and the compile-time k extent is what lets the compiler
/// schedule the vector loop well — a runtime bound here costs ~3x.  Both
/// widths run it on CPUs without AVX-512 and for rows shorter than
/// kTileMinCols (each f32 lane sums kChunk / 16 = 64 products, far inside
/// the f32 tolerance envelopes).
template <typename T>
void accumulate_pair_dots_chunk(const T* rows, T* pairdist, int n, int d, int i_begin,
                                int i_end, int k0) {
  constexpr int kLanes = kScalarLanes<T>;
  for (int i = i_begin; i < i_end; ++i) {
    const T* ri = row_ptr(rows, d, i);
    T* prow = pairdist + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const T* rj = row_ptr(rows, d, j);
      T lanes[kLanes] = {T(0)};
      for (int k = k0; k < k0 + kChunk; k += kLanes) {
        for (int b = 0; b < kLanes; ++b) lanes[b] = std::fma(ri[k + b], rj[k + b], lanes[b]);
      }
      T dot = T(0);
      for (int b = 0; b < kLanes; ++b) dot += lanes[b];
      prow[j - i - 1] += dot;
    }
  }
}

/// <ri, rj> over [k, k1) in k order, each product rounded before its add:
/// the leftover past the last whole lane group of a partial chunk.
template <typename T>
T leftover_dot(const T* ri, const T* rj, int k, int k1) {
  T dot = T(0);
  for (; k < k1; ++k) dot += ri[k] * rj[k];
  return dot;
}

/// Runtime-bound variant for the final partial chunk [k0, k1).
template <typename T>
void accumulate_pair_dots_tail(const T* rows, T* pairdist, int n, int d, int i_begin,
                               int i_end, int k0, int k1) {
  constexpr int kLanes = kScalarLanes<T>;
  for (int i = i_begin; i < i_end; ++i) {
    const T* ri = row_ptr(rows, d, i);
    T* prow = pairdist + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const T* rj = row_ptr(rows, d, j);
      T lanes[kLanes] = {T(0)};
      int k = k0;
      for (; k + kLanes <= k1; k += kLanes) {
        for (int b = 0; b < kLanes; ++b) lanes[b] = std::fma(ri[k + b], rj[k + b], lanes[b]);
      }
      T dot = leftover_dot(ri, rj, k, k1);
      for (int b = 0; b < kLanes; ++b) dot += lanes[b];
      prow[j - i - 1] += dot;
    }
  }
}

/// Rows per side of the AVX-512 Gram tile: a kTile x kTile block of pairs
/// shares each pass over its 2 * kTile row segments.
constexpr int kTile = 4;

/// Fewest columns at which the Gram fill takes the tile.  Below it a pair's
/// dot is one or two vector ops, and the pairs a tile computes only to drop
/// (duplicate edge rows, the lower half of diagonal tiles) can cost more
/// than the loads it saves (n = 10, d = 16: about 10% slower in either
/// width; from d = 32 the tile is faster at every n measured).  Both paths
/// give the same bits.
constexpr int kTileMinCols = 32;

/// Fewest columns at which the small-d f64 kernels run eight rows per
/// register; below it, at grid's d = 3 say, eight pairs per register
/// measured 0.7-0.8x the per-pair kernel's speed.
constexpr int kPairLanesMinCols = 8;

#if defined(__AVX512F__)
/// The AVX-512 operations the Gram tile needs, per element type.
template <typename T>
struct Avx512;

template <>
struct Avx512<double> {
  using Reg = __m512d;
  static constexpr int kWidth = 8;
  static Reg zero() { return _mm512_setzero_pd(); }
  static Reg load(const double* p) { return _mm512_loadu_pd(p); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_pd(a, b, c); }
  static void store(double* p, Reg a) { _mm512_store_pd(p, a); }
};

template <>
struct Avx512<float> {
  using Reg = __m512;
  static constexpr int kWidth = 16;
  static Reg zero() { return _mm512_setzero_ps(); }
  static Reg load(const float* p) { return _mm512_loadu_ps(p); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
  static void store(float* p, Reg a) { _mm512_store_ps(p, a); }
};

/// The kTile x kTile dot products <ri[p], rj[q]> over the chunk [k0, k1),
/// in the operation order of the per-pair kernels (accumulate_pair_dots_chunk
/// and accumulate_pair_dots_tail), so the tile and the per-pair path give
/// the same bits: one W-lane FMA chain per pair (W = vector width), the
/// leftover past the last whole lane group summed by leftover_dot, then the
/// lanes added to it in lane order.  Each step loads 2 * kTile vectors for
/// kTile^2 FMAs, where the per-pair kernel loads two vectors per FMA.
template <typename T>
void gram_tile_dots(const T* const* ri, const T* const* rj, int k0, int k1,
                    T (&dots)[kTile][kTile]) {
  using V = Avx512<T>;
  using Reg = typename V::Reg;
  Reg acc[kTile][kTile];
  for (int p = 0; p < kTile; ++p) {
    for (int q = 0; q < kTile; ++q) acc[p][q] = V::zero();
  }
  int k = k0;
  for (; k + V::kWidth <= k1; k += V::kWidth) {
    Reg x[kTile];
    Reg y[kTile];
    for (int p = 0; p < kTile; ++p) x[p] = V::load(ri[p] + k);
    for (int q = 0; q < kTile; ++q) y[q] = V::load(rj[q] + k);
    for (int p = 0; p < kTile; ++p) {
      for (int q = 0; q < kTile; ++q) acc[p][q] = V::fmadd(x[p], y[q], acc[p][q]);
    }
  }
  alignas(64) T lanes[V::kWidth];
  for (int p = 0; p < kTile; ++p) {
    for (int q = 0; q < kTile; ++q) {
      V::store(lanes, acc[p][q]);
      T dot = leftover_dot(ri[p], rj[q], k, k1);
      for (int b = 0; b < V::kWidth; ++b) dot += lanes[b];
      dots[p][q] = dot;
    }
  }
}

/// Tile walk for the row tiles [t_begin, t_end): every chunk of each tile
/// of kTile rows against itself and every later tile.  A pair's operation
/// sequence depends only on its two rows, never on the tile, its position
/// in the tile or the thread that runs it, so the triangle is bit-identical
/// at every thread count.  Rows past n are clamped to row n - 1: an edge
/// tile runs the same micro-kernel on a duplicate row and drops the cells
/// outside the strict upper triangle.
template <typename T>
void accumulate_pair_dots_tiles_avx512(const T* rows, T* pairdist, int n, int d, int t_begin,
                                       int t_end) {
  const T* ri[kTile];
  const T* rj[kTile];
  T dots[kTile][kTile];
  const auto scatter = [&](int i0, int j0) {
    for (int p = 0; p < kTile && i0 + p < n; ++p) {
      const int i = i0 + p;
      T* prow = pairdist + pair_row_start(i, n);
      for (int q = 0; q < kTile; ++q) {
        const int j = j0 + q;
        if (i < j && j < n) prow[j - i - 1] += dots[p][q];
      }
    }
  };
  for (int k0 = 0; k0 < d; k0 += kChunk) {
    for (int t = t_begin; t < t_end; ++t) {
      const int i0 = t * kTile;
      for (int p = 0; p < kTile; ++p) ri[p] = row_ptr(rows, d, std::min(i0 + p, n - 1));
      for (int j0 = i0; j0 < n; j0 += kTile) {
        for (int q = 0; q < kTile; ++q) rj[q] = row_ptr(rows, d, std::min(j0 + q, n - 1));
        gram_tile_dots(ri, rj, k0, std::min(k0 + kChunk, d), dots);
        scatter(i0, j0);
      }
    }
  }
}
#endif  // __AVX512F__

/// sum r[k]^2 over [k, d) in k order, each square rounded before its add:
/// the leftover of a squared norm past its last whole lane group
/// (row_sqnorm, and the lane pass's per-lane leftover).
double sqnorm_leftover(const double* r, int k, int d) {
  double sum = 0.0;
  for (; k < d; ++k) sum += r[k] * r[k];
  return sum;
}

/// Row r's squared norm: fill_sqnorms' sum, which both small-d kernels'
/// scales read.  Lane b is an FMA chain over the whole 8-lane groups, then
/// leftover + lane 0 + ... + lane 7 in lane order.
double row_sqnorm(const double* r, int d) {
  constexpr int kLanes = 8;
  double lanes[kLanes] = {0.0};
  int k = 0;
  for (; k + kLanes <= d; k += kLanes) {
    for (int b = 0; b < kLanes; ++b) lanes[b] = std::fma(r[k + b], r[k + b], lanes[b]);
  }
  double sum = sqnorm_leftover(r, k, d);
  for (int b = 0; b < kLanes; ++b) sum += lanes[b];
  return sum;
}

/// ||ri - rj||^2 by direct differences: the cancellation-guard recompute of
/// a pair whose Gram-identity distance is small next to its scale.  Lane b
/// is an FMA chain of T differences over the whole lane groups; the
/// leftover and the sum of the lanes (in lane order) run in double.
template <typename T>
double direct_sqdist(const T* ri, const T* rj, int d) {
  constexpr int kLanes = kScalarLanes<T>;
  T lanes[kLanes] = {T(0)};
  int k = 0;
  for (; k + kLanes <= d; k += kLanes) {
    for (int b = 0; b < kLanes; ++b) {
      const T diff = ri[k + b] - rj[k + b];
      lanes[b] = std::fma(diff, diff, lanes[b]);
    }
  }
  double d2 = 0.0;
  for (; k < d; ++k) {
    const double diff = static_cast<double>(ri[k]) - static_cast<double>(rj[k]);
    d2 += diff * diff;
  }
  for (int b = 0; b < kLanes; ++b) d2 += static_cast<double>(lanes[b]);
  return d2;
}

/// Relative cancellation guard of the Gram fill of element type T (see
/// fill_pairwise_sqdist): the f32 dot's larger accumulation error takes a
/// wider one, and clustered f32 batches simply take the direct difference,
/// the most accurate result f32 inputs admit.
template <typename T>
constexpr double kCancellationGuard = std::is_same_v<T, float> ? 1e-3 : 1e-6;

/// Converts the accumulated dots of the packed triangle to squared
/// distances in place, in double: d2 = fma(-2, dot, ||xi||^2 + ||xj||^2),
/// clamped as std::max(d2, 0.0) (a NaN survives).  The Gram identity
/// cancels catastrophically when the rows share a large common component
/// (||xi - xj||^2 << ||xi||^2 + ||xj||^2) — exactly the clustered regime
/// where Krum-family selection matters — so each pair whose distance is
/// small next to its scale, or NaN, is recomputed by direct_sqdist.  On
/// well-separated data no pair trips the guard.  A row with a NaN
/// coordinate thus gets NaN distances, never a clamped 0.
template <typename T>
void gram_to_sqdist(const T* rows, const T* sqnorms, T* pairdist, int n, int d) {
  for (int i = 0; i < n; ++i) {
    const double sqi = sqnorms[i];
    T* prow = pairdist + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const double scale = sqi + static_cast<double>(sqnorms[j]);
      double d2 = std::max(std::fma(-2.0, static_cast<double>(prow[j - i - 1]), scale), 0.0);
      if (!(d2 >= kCancellationGuard<T> * scale)) {
        d2 = direct_sqdist(row_ptr(rows, d, i), row_ptr(rows, d, j), d);
      }
      prow[j - i - 1] = static_cast<T>(d2);
    }
  }
}

#if defined(__AVX512F__)
// GCC 12 flags the deliberately undefined register inside the max, unpack
// and shuffle intrinsics once they are inlined (-Wmaybe-uninitialized); the
// value never reaches the result.  Scoped like the Gram tile's.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// Rows per register of the small-d f64 kernels.
constexpr int kPairLanes = AggregatorWorkspace::kSmallDLanes;

/// leftover + lane 0 + ... + lane 7 in lane order, for eight pairs of
/// rows at once: lane b is an FMA chain over the whole lane groups,
/// fma(x[k], y[k], lane_b), k = b, b + 8, ..., with operands(k) giving
/// registers x and y; leftover(t, 8 Groups) is pair t's sum past the last
/// whole group, taken only for the lanes in `lanes` (the others add +0.0),
/// and skipped when d has no leftover (the sum then starts at lane 0).
/// Both the pair dots (small_d_sqdist) and the lane pass's squared norms
/// (x = y) run it.
template <int Groups, typename Operands, typename Leftover>
inline __m512d small_d_dot(int d, __mmask8 lanes, Operands&& operands, Leftover&& leftover) {
  constexpr int whole = Groups * kPairLanes;
  __m512d acc[kPairLanes];
  for (int b = 0; b < kPairLanes; ++b) acc[b] = _mm512_setzero_pd();
  for (int k0 = 0; k0 < whole; k0 += kPairLanes) {
    for (int b = 0; b < kPairLanes; ++b) {
      const auto [x, y] = operands(k0 + b);
      acc[b] = _mm512_fmadd_pd(x, y, acc[b]);
    }
  }
  __m512d dot = acc[0];
  if (whole < d) {
    alignas(64) double left[kPairLanes];
    for (int t = 0; t < kPairLanes; ++t) left[t] = (lanes >> t) & 1 ? leftover(t, whole) : 0.0;
    dot = _mm512_add_pd(_mm512_load_pd(left), acc[0]);
  }
  for (int b = 1; b < kPairLanes; ++b) dot = _mm512_add_pd(dot, acc[b]);
  return dot;
}

/// The per-pair operation sequence of the small-d f64 kernels, run for the
/// eight pairs of one register.  operands(k) returns two registers whose
/// lane t holds coordinate k of pair t's two rows; leftover(t, k0) is pair
/// t's leftover_dot over [k0, d).  Each lane repeats, for its own pair, the
/// operations of the per-pair path (accumulate_pair_dots_tail on the zeroed
/// cell, then gram_to_sqdist), so every distance gets that path's bits:
///   * lane b of the dot is an FMA chain over the whole lane groups,
///     fma(ri[k], rj[k], lane_b), k = b, b + 8, ...;
///   * the leftover past the last whole group comes from leftover_dot;
///   * dot = leftover + lane 0 + ... + lane 7 in lane order, then 0.0 + dot
///     (the zeroed cell's +=), less the adds noted below that only touch
///     the sign of a zero;
///   * d2 = fma(-2, dot, scale) with scale = sqnorm_i + sqnorm_j, then
///     d2 < 0 ? 0 : d2 (std::max(d2, 0.0): a NaN survives).
/// Every step is symmetric in the pair's two rows (fma and mul commute, and
/// so does the scale's sum), so a distance does not depend on which row
/// is i.  Lanes outside `lanes` get a zero leftover and no guard; *guard
/// receives the lanes of `lanes` whose distance is small next to its scale
/// or NaN (!(d2 >= kCancellationGuard<double> * scale)), which the caller
/// recomputes with direct_sqdist (symmetric too: a negated difference
/// squares the same).
/// Groups is d / 8, so the whole-group loop unrolls.
template <int Groups, typename Operands, typename Leftover>
inline __m512d small_d_sqdist(int d, __mmask8 lanes, __m512d scale, Operands&& operands,
                              Leftover&& leftover, __mmask8* guard) {
  // Without a leftover the sum starts at lane 0, not at +0.0 + lane 0, and
  // the closing 0.0 + dot is skipped too: both can change only the sign of
  // a zero, and fnmadd against a scale >= +0 (or NaN) drops that sign.
  const __m512d dot = small_d_dot<Groups>(d, lanes, operands, leftover);
  const __m512d zero = _mm512_setzero_pd();
  // max_pd(a, b) is a > b ? a : b, so a NaN b survives: the clamp in one op.
  const __m512d d2 = _mm512_max_pd(zero, _mm512_fnmadd_pd(_mm512_set1_pd(2.0), dot, scale));
  *guard = _mm512_mask_cmp_pd_mask(
      lanes, d2, _mm512_mul_pd(_mm512_set1_pd(kCancellationGuard<double>), scale), _CMP_NGE_UQ);
  return d2;
}

/// fn(std::integral_constant<int, d / 8>{}) for 8 <= d < 32: the Groups
/// of small_d_sqdist.
template <typename Fn>
void with_groups(int d, Fn&& fn) {
  switch (d / kPairLanes) {
    case 1: fn(std::integral_constant<int, 1>{}); break;
    case 2: fn(std::integral_constant<int, 2>{}); break;
    default: fn(std::integral_constant<int, 3>{}); break;
  }
}

/// Lanes [0, rows) of a register, rows > 0.
__mmask8 lane_mask(int rows) {
  return rows >= kPairLanes ? static_cast<__mmask8>(0xFF)
                            : static_cast<__mmask8>((1u << rows) - 1);
}

/// Transposes eight rows of eight doubles in registers: register b of the
/// result holds entry b of every input row, lane t from row t.
void transpose8(__m512d* r) {
  __m512d u[8];
  for (int p = 0; p < 8; p += 2) {
    u[p] = _mm512_unpacklo_pd(r[p], r[p + 1]);      // entries 0 2 4 6 of rows p, p + 1
    u[p + 1] = _mm512_unpackhi_pd(r[p], r[p + 1]);  // entries 1 3 5 7
  }
  // Rows 0-3 (then 4-7) of entries {0, 4}, {1, 5}, {2, 6}, {3, 7}.
  const __m512i even = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i odd = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
  __m512d v[8];
  for (int h = 0; h < 8; h += 4) {
    v[h] = _mm512_permutex2var_pd(u[h], even, u[h + 2]);
    v[h + 1] = _mm512_permutex2var_pd(u[h + 1], even, u[h + 3]);
    v[h + 2] = _mm512_permutex2var_pd(u[h], odd, u[h + 2]);
    v[h + 3] = _mm512_permutex2var_pd(u[h + 1], odd, u[h + 3]);
  }
  const __m512i low = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
  const __m512i high = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
  for (int e = 0; e < 4; ++e) {
    r[e] = _mm512_permutex2var_pd(v[e], low, v[e + 4]);
    r[e + 4] = _mm512_permutex2var_pd(v[e], high, v[e + 4]);
  }
}

/// sqdist_lanes_small_d for d in [8 Groups, 8 Groups + 8).  x and sq are
/// the interleaved rows and norms, 64-byte aligned.
template <int Groups>
void lane_pass(const GradientBatch& batch, const int* const* ids, int lanes, int rows, double* x,
               double* sq, double* cand) {
  constexpr int kRegs = Groups * kPairLanes;
  const int d = batch.cols();
  const int m = rows - 1;
  const __mmask8 valid = lane_mask(lanes);
  const auto reg = [](int i) { return static_cast<std::size_t>(i) * kPairLanes; };
  // Shard t's row i, for t < lanes.
  const auto row = [&](int t, int i) { return batch.row(ids[t][i]).data(); };
  // Row i of every shard, eight columns at a time: one row load per shard
  // (masked past d; zeros in the unused lanes), transposed in registers.
  // Then its squared norm in row_sqnorm's order.
  for (int i = 0; i < rows; ++i) {
    double* xi = x + reg(i * d);
    for (int k0 = 0; k0 < d; k0 += kPairLanes) {
      const __mmask8 cols = lane_mask(d - k0);
      __m512d r[kPairLanes];
      for (int t = 0; t < kPairLanes; ++t) {
        r[t] = t < lanes ? _mm512_maskz_loadu_pd(cols, row(t, i) + k0) : _mm512_setzero_pd();
      }
      transpose8(r);
      for (int b = 0; b < kPairLanes && k0 + b < d; ++b) _mm512_store_pd(xi + reg(k0 + b), r[b]);
    }
    const auto square = [&](int k) {
      const __m512d v = _mm512_load_pd(xi + reg(k));
      return std::pair{v, v};
    };
    const auto leftover = [&](int t, int k0) { return sqnorm_leftover(row(t, i), k0, d); };
    _mm512_store_pd(sq + reg(i), small_d_dot<Groups>(d, valid, square, leftover));
  }
  // Each pair once; row i's registers stay loaded across its pairs.
  for (int i = 0; i < rows; ++i) {
    __m512d xi[kRegs];
    for (int k = 0; k < kRegs; ++k) xi[k] = _mm512_load_pd(x + reg(i * d + k));
    const __m512d sqi = _mm512_load_pd(sq + reg(i));
    for (int j = i + 1; j < rows; ++j) {
      const double* xj = x + reg(j * d);
      __mmask8 guard = 0;
      const __m512d d2 = small_d_sqdist<Groups>(
          d, valid, _mm512_add_pd(sqi, _mm512_load_pd(sq + reg(j))),
          [&](int k) { return std::pair{xi[k], _mm512_load_pd(xj + reg(k))}; },
          [&](int t, int k0) { return leftover_dot(row(t, i), row(t, j), k0, d); }, &guard);
      double* ci = cand + reg(i * m + j - 1);
      _mm512_store_pd(ci, d2);
      for (unsigned g = guard; g != 0; g &= g - 1) {
        const int t = std::countr_zero(g);
        ci[t] = detail::nan_as_inf(direct_sqdist(row(t, i), row(t, j), d));
      }
      _mm512_store_pd(cand + reg(j * m + i), _mm512_load_pd(ci));
    }
  }
}
#pragma GCC diagnostic pop
#endif  // __AVX512F__

/// True when the Gram kernels may use AVX-512: compile-time ISA
/// support AND a runtime CPU check (one cpuid probe, cached), so a binary
/// built with -march=native on an AVX-512 host degrades safely elsewhere.
bool gram_avx512_available() {
#if defined(__AVX512F__) && (defined(__GNUC__) || defined(__clang__))
  static const bool available = __builtin_cpu_supports("avx512f") != 0;
  return available;
#else
  return false;
#endif
}

/// Accumulates every pair's dot product into the zeroed packed triangle.
/// On AVX-512 CPUs rows of kTileMinCols or more columns partition over row
/// tiles and run the tile micro-kernel; shorter rows and CPUs without
/// AVX-512 partition over rows and run the per-pair scalar kernels.  Both
/// run one operation sequence per pair, so each packed cell has one writer
/// and the same bits on either path.
template <typename T>
void accumulate_pair_dots(AggregatorWorkspace& ws, const T* rows, T* pairdist, int n, int d) {
  const int full = d - d % kChunk;
#if defined(__AVX512F__)
  if (d >= kTileMinCols && gram_avx512_available()) {
    const int tiles = (n + kTile - 1) / kTile;
    ws.run_parallel(0, tiles, [&](int t_begin, int t_end) {
      accumulate_pair_dots_tiles_avx512(rows, pairdist, n, d, t_begin, t_end);
    });
    return;
  }
#endif
  ws.run_parallel(0, n, [&](int i_begin, int i_end) {
    for (int k0 = 0; k0 < full; k0 += kChunk) {
      accumulate_pair_dots_chunk(rows, pairdist, n, d, i_begin, i_end, k0);
    }
    if (full < d) accumulate_pair_dots_tail(rows, pairdist, n, d, i_begin, i_end, full, d);
  });
}

/// Shared packed-row gather (diagonal 0, f32 values promoted on read).
template <typename T>
void gather_pair_row_from(const T* packed, int i, int n, double* dst) {
  // (j, i) entries for j < i: start at pair_index(0, i, n) == i - 1, and
  // consecutive source rows j are n - j - 2 apart at fixed column i.
  std::size_t idx = static_cast<std::size_t>(i) - 1;  // unused when i == 0
  for (int j = 0; j < i; ++j) {
    dst[j] = static_cast<double>(packed[idx]);
    idx += static_cast<std::size_t>(n - j - 2);
  }
  dst[i] = 0.0;
  // (i, j > i) is row i's contiguous packed run.
  if (i + 1 < n) {
    const T* run = packed + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) dst[j] = static_cast<double>(run[j - i - 1]);
  }
}

}  // namespace

void GradientBatch::reshape(int n, int d) {
  ABFT_REQUIRE(n >= 0 && d >= 0, "batch shape must be non-negative");
  n_ = n;
  d_ = d;
  data_.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
}

void GradientBatch::pack(std::span<const Vector> gradients) {
  ABFT_REQUIRE(!gradients.empty(), "cannot pack an empty gradient family");
  const int d = gradients.front().dim();
  reshape(static_cast<int>(gradients.size()), d);
  for (std::size_t i = 0; i < gradients.size(); ++i) {
    ABFT_REQUIRE(gradients[i].dim() == d, "all gradients must share a dimension");
    const auto src = gradients[i].coefficients();
    std::memcpy(data_.data() + i * static_cast<std::size_t>(d), src.data(),
                static_cast<std::size_t>(d) * sizeof(double));
  }
}

void GradientBatch::set_row(int i, const Vector& v) {
  ABFT_REQUIRE(0 <= i && i < n_, "batch row index out of range");
  ABFT_REQUIRE(v.dim() == d_, "row dimension mismatch");
  std::memcpy(data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d_),
              v.coefficients().data(), static_cast<std::size_t>(d_) * sizeof(double));
}

void GradientBatch::set_row(int i, std::span<const double> values) {
  ABFT_REQUIRE(0 <= i && i < n_, "batch row index out of range");
  ABFT_REQUIRE(static_cast<int>(values.size()) == d_, "row dimension mismatch");
  std::memcpy(data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d_),
              values.data(), static_cast<std::size_t>(d_) * sizeof(double));
}

void GradientBatch::truncate_rows(int n) {
  ABFT_REQUIRE(0 <= n && n <= n_, "cannot truncate to more rows than the batch holds");
  n_ = n;
}

Vector GradientBatch::unpack_row(int i) const {
  ABFT_REQUIRE(0 <= i && i < n_, "batch row index out of range");
  const auto r = row(i);
  return Vector(std::vector<double>(r.begin(), r.end()));
}

std::vector<Vector> GradientBatch::unpack() const {
  std::vector<Vector> out;
  out.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) out.push_back(unpack_row(i));
  return out;
}

void AggregatorWorkspace::fill_colmajor(const GradientBatch& batch) {
  // Cache-blocked: both the source rows and the destination columns are
  // touched in tiles that fit in L1.
  const int n = batch.rows();
  const int d = batch.cols();
  colmajor.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  constexpr int kBlock = 64;
  run_parallel(0, d, [&](int k_begin, int k_end) {
    for (int k0 = k_begin; k0 < k_end; k0 += kBlock) {
      const int k1 = std::min(k0 + kBlock, k_end);
      for (int i0 = 0; i0 < n; i0 += kBlock) {
        const int i1 = std::min(i0 + kBlock, n);
        for (int i = i0; i < i1; ++i) {
          const double* src = batch.row(i).data();
          double* dst = colmajor.data() + i;
          for (int k = k0; k < k1; ++k) {
            dst[static_cast<std::size_t>(k) * static_cast<std::size_t>(n)] = src[k];
          }
        }
      }
    }
  });
}

void AggregatorWorkspace::fill_sqnorms(const GradientBatch& batch) {
  const int n = batch.rows();
  const int d = batch.cols();
  sqnorms.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sqnorms[static_cast<std::size_t>(i)] = row_sqnorm(batch.row(i).data(), d);
  }
}

void AggregatorWorkspace::fill_norms(const GradientBatch& batch) {
  fill_sqnorms(batch);
  norms.resize(sqnorms.size());
  for (std::size_t i = 0; i < sqnorms.size(); ++i) norms[i] = std::sqrt(sqnorms[i]);
}

void AggregatorWorkspace::fill_rows_f32(const GradientBatch& batch) {
  const int n = batch.rows();
  const int d = batch.cols();
  rows_f32.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  sqnorms_f32.resize(static_cast<std::size_t>(n));
  // Element-wise demotion, each row's squared norm summed as it is written:
  // 16 lanes over the whole lane groups, the leftover sequentially, then the
  // lanes added to it in lane order.  One thread per row — bit-identical at
  // every thread count.
  run_parallel(0, n, [&](int i_begin, int i_end) {
    constexpr int kLanes = 16;
    for (int i = i_begin; i < i_end; ++i) {
      const double* src = batch.row(i).data();
      float* dst = rows_f32.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
      float lanes[kLanes] = {0.0f};
      int k = 0;
      for (; k + kLanes <= d; k += kLanes) {
        for (int b = 0; b < kLanes; ++b) {
          const float v = static_cast<float>(src[k + b]);
          dst[k + b] = v;
          lanes[b] += v * v;
        }
      }
      float sum = 0.0f;
      for (; k < d; ++k) {
        const float v = static_cast<float>(src[k]);
        dst[k] = v;
        sum += v * v;
      }
      for (int b = 0; b < kLanes; ++b) sum += lanes[b];
      sqnorms_f32[static_cast<std::size_t>(i)] = sum;
    }
  });
}

void AggregatorWorkspace::gather_pair_row(int i, int n, double* dst) const noexcept {
  if (f32_lane()) {
    gather_pair_row_from(pairdist_f32.data(), i, n, dst);
  } else {
    gather_pair_row_from(pairdist.data(), i, n, dst);
  }
}

void AggregatorWorkspace::fill_pairwise_sqdist(const GradientBatch& batch) {
  const int n = batch.rows();
  const int d = batch.cols();
  const std::size_t pairs = static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) - 1) / 2;
  // Dot products accumulate into the packed triangle in d-chunks sized so
  // the active rows stay cache-resident across the O(n^2) pair sweep — the
  // whole batch is read from memory once instead of once per pair.  The
  // packed layout stores each unordered pair once: half the matrix memory,
  // no n^2 zero-assign, no mirror pass.
  // Pair-level parallelism partitions the rows (on the AVX-512 tile: the
  // 4-row tiles) once per call (one thread team, not one per chunk); every
  // packed cell is written by exactly one thread.  Each thread walks the
  // d-chunks so its active row segments stay cache-resident across its
  // pair sweep.
  if (f32_lane()) {
    // Float32 lane: demote once (summing the row norms in the same pass),
    // run the f32 Gram kernels, convert in double and store the packed
    // triangle in f32.
    fill_rows_f32(batch);
    pairdist_f32.assign(pairs, 0.0f);
    accumulate_pair_dots(*this, rows_f32.data(), pairdist_f32.data(), n, d);
    gram_to_sqdist(rows_f32.data(), sqnorms_f32.data(), pairdist_f32.data(), n, d);
    return;
  }
  fill_sqnorms(batch);
  pairdist.assign(pairs, 0.0);
  accumulate_pair_dots(*this, batch.data(), pairdist.data(), n, d);
  gram_to_sqdist(batch.data(), sqnorms.data(), pairdist.data(), n, d);
}

bool AggregatorWorkspace::small_d_kernels(int d) const noexcept {
  return !f32_lane() && d >= kPairLanesMinCols && d < kTileMinCols && gram_avx512_available();
}

#if defined(__AVX512F__)
void AggregatorWorkspace::sqdist_lanes_small_d(const GradientBatch& batch, const int* const* ids,
                                               int lanes, int rows, double* cand) {
  const auto regs = static_cast<std::size_t>(rows) * kPairLanes;
  double* x = aligned_doubles(gram_colmajor, regs * static_cast<std::size_t>(batch.cols()));
  double* sq = aligned_doubles(sqnorms, regs);
  with_groups(batch.cols(), [&](auto groups) {
    lane_pass<groups()>(batch, ids, lanes, rows, x, sq, cand);
  });
}
#endif  // __AVX512F__

int AggregatorWorkspace::shard_groups(int units) {
  const int width = std::max(1, std::min(parallel_width(), units));
  const auto w = static_cast<std::size_t>(width);
  while (hier_groups.size() < w) hier_groups.push_back(std::make_unique<AggregatorWorkspace>());
  if (hier_gather.size() < w) hier_gather.resize(w);
  if (hier_out.size() < w) hier_out.resize(w);
  for (std::size_t g = 0; g < w; ++g) {
    AggregatorWorkspace& sub = *hier_groups[g];
    sub.mode = mode;
    sub.precision = precision;
    sub.pool = nullptr;
  }
  return width;
}

int validate_batch(const GradientBatch& batch, int f) {
  ABFT_REQUIRE(batch.rows() > 0, "aggregation needs at least one gradient");
  ABFT_REQUIRE(f >= 0, "fault bound f must be non-negative");
  ABFT_REQUIRE(f < batch.rows(), "fault bound f must be smaller than the number of gradients");
  ABFT_REQUIRE(batch.cols() > 0, "gradients must be non-empty vectors");
  return batch.cols();
}

void resize_output(Vector& out, int d) {
  if (out.dim() != d) out = Vector(d);
}

double median_inplace(double* first, double* last) {
  const std::size_t m = static_cast<std::size_t>(last - first);
  ABFT_REQUIRE(m > 0, "median of empty range");
  double* mid = first + m / 2;
  std::nth_element(first, mid, last);
  if (m % 2 == 1) return *mid;
  const double hi = *mid;
  const double lo = *std::max_element(first, mid);
  return 0.5 * (lo + hi);
}

}  // namespace abft::agg
