#include "abft/agg/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

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
/// partial sum), and the compile-time k extent is what lets the compiler
/// schedule the vector loop well — a runtime bound here costs ~3x.  This is
/// exact mode's kernel, and both fast lanes' on CPUs without AVX-512 (each
/// f32 lane sums kChunk / 16 = 64 products, far inside the f32 tolerance
/// envelopes).
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
        for (int b = 0; b < kLanes; ++b) lanes[b] += ri[k + b] * rj[k + b];
      }
      T dot = T(0);
      for (int b = 0; b < kLanes; ++b) dot += lanes[b];
      prow[j - i - 1] += dot;
    }
  }
}

/// <ri, rj> over [k, k1) in k order: the leftover past the last whole lane
/// group of a partial chunk.  Both tail kernels call it, so they run one
/// loop, which the compiler vectorizes and contracts the same way in both.
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
        for (int b = 0; b < kLanes; ++b) lanes[b] += ri[k + b] * rj[k + b];
      }
      T dot = leftover_dot(ri, rj, k, k1);
      for (int b = 0; b < kLanes; ++b) dot += lanes[b];
      prow[j - i - 1] += dot;
    }
  }
}

/// Rows per side of the fast-mode Gram tile: a kTile x kTile block of pairs
/// shares each pass over its 2 * kTile row segments.
constexpr int kTile = 4;

/// Fewest columns at which the fast lanes take the tile.  Below it a pair's
/// dot is one or two vector ops, and the pairs a tile computes only to drop
/// (duplicate edge rows, the lower half of diagonal tiles) can cost more
/// than the loads it saves (n = 10, d = 16: about 10% slower in either
/// width; from d = 32 the tile is faster at every n measured).  Both paths
/// give the same bits.
constexpr int kTileMinCols = 32;

#if defined(__AVX512F__)
// GCC 12 flags the deliberately undefined register inside the
// _mm512_reduce_add_* intrinsics once they are inlined into a loop
// (-Wuninitialized); the value never reaches the result.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// The AVX-512 operations the fast Gram tile needs, per element type.
template <typename T>
struct Avx512;

template <>
struct Avx512<double> {
  using Reg = __m512d;
  static constexpr int kWidth = 8;
  static Reg zero() { return _mm512_setzero_pd(); }
  static Reg load(const double* p) { return _mm512_loadu_pd(p); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_pd(a, b, c); }
  static Reg add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
  static double reduce(Reg a) { return _mm512_reduce_add_pd(a); }
  static void store(double* p, Reg a) { _mm512_store_pd(p, a); }
};

template <>
struct Avx512<float> {
  using Reg = __m512;
  static constexpr int kWidth = 16;
  static Reg zero() { return _mm512_setzero_ps(); }
  static Reg load(const float* p) { return _mm512_loadu_ps(p); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
  static Reg add(Reg a, Reg b) { return _mm512_add_ps(a, b); }
  static float reduce(Reg a) { return _mm512_reduce_add_ps(a); }
  static void store(float* p, Reg a) { _mm512_store_ps(p, a); }
};

/// Runs one accumulator chain per pair of a kTile x kTile tile:
/// acc[p][q] = fma(ri[p][k..k+W), rj[q][k..k+W), acc[p][q]) for k = begin,
/// begin + stride, ... while k + W <= end (W = vector width).  Each step
/// loads 2 * kTile vectors for kTile^2 FMAs; the per-pair kernel this
/// replaces loaded two vectors per FMA.
template <typename T>
void gram_tile_chain(const T* const* ri, const T* const* rj, int begin, int end, int stride,
                     typename Avx512<T>::Reg (&acc)[kTile][kTile]) {
  using V = Avx512<T>;
  using Reg = typename V::Reg;
  for (int p = 0; p < kTile; ++p) {
    for (int q = 0; q < kTile; ++q) acc[p][q] = V::zero();
  }
  for (int k = begin; k + V::kWidth <= end; k += stride) {
    Reg x[kTile];
    Reg y[kTile];
    for (int p = 0; p < kTile; ++p) x[p] = V::load(ri[p] + k);
    for (int q = 0; q < kTile; ++q) y[q] = V::load(rj[q] + k);
    for (int p = 0; p < kTile; ++p) {
      for (int q = 0; q < kTile; ++q) acc[p][q] = V::fmadd(x[p], y[q], acc[p][q]);
    }
  }
}

/// Relaxed-parity (AggMode::fast) AVX-512 Gram micro-kernel: the kTile x
/// kTile dot products <ri[p], rj[q]> over the full chunk [k0, k0 + kChunk).
/// Every pair owns kAccs chains: chain a sums, in increasing k, the vectors
/// at k0 + a * W + s * kAccs * W, and the pair's dot is
/// reduce((c0 + c1) + (c2 + c3)).  Four chains per pair cover the FMA
/// latency, but 4 x 16 of them do not fit in 32 registers, so the tile runs
/// the chains one after another and parks each finished one until the
/// reduction.
template <typename T>
void gram_tile_chunk(const T* const* ri, const T* const* rj, int k0,
                     T (&dots)[kTile][kTile]) {
  using V = Avx512<T>;
  constexpr int kAccs = 4;
  static_assert(kChunk % (kAccs * V::kWidth) == 0, "a chunk holds whole chain steps");
  typename V::Reg parked[kAccs][kTile][kTile];
  for (int a = 0; a < kAccs; ++a) {
    gram_tile_chain(ri, rj, k0 + a * V::kWidth, k0 + kChunk, kAccs * V::kWidth, parked[a]);
  }
  for (int p = 0; p < kTile; ++p) {
    for (int q = 0; q < kTile; ++q) {
      dots[p][q] = V::reduce(V::add(V::add(parked[0][p][q], parked[1][p][q]),
                                    V::add(parked[2][p][q], parked[3][p][q])));
    }
  }
}

/// The tile over the final partial chunk [k0, k1), in the operation order
/// of the scalar accumulate_pair_dots_tail: one W-lane chain per pair, the
/// leftover past the last whole lane group summed by the shared
/// leftover_dot, then the lanes added to it in lane order.  The explicit
/// lane FMAs are what GCC contracts the scalar kernel's
/// `lanes[b] += ri * rj` into at its default -ffp-contract=fast, so under
/// this build's flags both kernels give the same bits.
template <typename T>
void gram_tile_tail(const T* const* ri, const T* const* rj, int k0, int k1,
                    T (&dots)[kTile][kTile]) {
  using V = Avx512<T>;
  typename V::Reg acc[kTile][kTile];
  gram_tile_chain(ri, rj, k0, k1, V::kWidth, acc);
  const int leftover = k1 - (k1 - k0) % V::kWidth;
  alignas(64) T lanes[V::kWidth];
  for (int p = 0; p < kTile; ++p) {
    for (int q = 0; q < kTile; ++q) {
      V::store(lanes, acc[p][q]);
      T dot = leftover_dot(ri[p], rj[q], leftover, k1);
      for (int b = 0; b < V::kWidth; ++b) dot += lanes[b];
      dots[p][q] = dot;
    }
  }
}

/// Fast walk for the row tiles [t_begin, t_end): every full chunk, then the
/// partial one, of each tile of kTile rows against itself and every later
/// tile.  A pair's operation sequence depends only on its two rows, never
/// on the tile, its position in the tile or the thread that runs it, so the
/// triangle is bit-identical at every thread count.  Rows past n are
/// clamped to row n - 1: an edge tile runs the same micro-kernel on a
/// duplicate row and drops the cells outside the strict upper triangle.
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
        if (k0 + kChunk <= d) {
          gram_tile_chunk(ri, rj, k0, dots);
        } else {
          gram_tile_tail(ri, rj, k0, d, dots);
        }
        scatter(i0, j0);
      }
    }
  }
}
#pragma GCC diagnostic pop
#endif  // __AVX512F__

/// True when the fast-mode Gram kernel may use AVX-512: compile-time ISA
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
/// The fast lanes on AVX-512 CPUs partition over row tiles and run the tile
/// micro-kernels; exact mode, CPUs without AVX-512 and rows shorter than
/// kTileMinCols partition over rows and run the per-pair scalar kernels.
/// Either way each packed cell has one writer and a fixed operation
/// sequence.
template <typename T>
void accumulate_pair_dots(AggregatorWorkspace& ws, const T* rows, T* pairdist, int n, int d,
                          bool fast) {
  const int full = d - d % kChunk;
#if defined(__AVX512F__)
  if (fast && d >= kTileMinCols && gram_avx512_available()) {
    const int tiles = (n + kTile - 1) / kTile;
    ws.run_parallel(0, tiles, [&](int t_begin, int t_end) {
      accumulate_pair_dots_tiles_avx512(rows, pairdist, n, d, t_begin, t_end);
    });
    return;
  }
#endif
  (void)fast;
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
  const int n = batch.rows();
  const int d = batch.cols();
  colmajor.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  // Cache-blocked transpose: both the row-major source and the column-major
  // destination are touched in tiles that fit in L1.
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
  constexpr int kLanes = 8;
  sqnorms.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double* r = batch.row(i).data();
    double lanes[kLanes] = {0.0};
    int k = 0;
    for (; k + kLanes <= d; k += kLanes) {
      for (int b = 0; b < kLanes; ++b) lanes[b] += r[k + b] * r[k + b];
    }
    double sum = 0.0;
    for (; k < d; ++k) sum += r[k] * r[k];
    for (int b = 0; b < kLanes; ++b) sum += lanes[b];
    sqnorms[static_cast<std::size_t>(i)] = sum;
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
  const double* src = batch.data();
  float* dst = rows_f32.data();
  // Element-wise demotion with one writer per element — bit-identical at
  // every thread count.
  run_parallel(0, n, [&](int i_begin, int i_end) {
    const std::size_t lo = static_cast<std::size_t>(i_begin) * static_cast<std::size_t>(d);
    const std::size_t hi = static_cast<std::size_t>(i_end) * static_cast<std::size_t>(d);
    for (std::size_t k = lo; k < hi; ++k) dst[k] = static_cast<float>(src[k]);
  });
}

void AggregatorWorkspace::fill_colmajor_f32(const GradientBatch& batch) {
  const int n = batch.rows();
  const int d = batch.cols();
  fill_rows_f32(batch);
  colmajor_f32.resize(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  // Same cache-blocked transpose as fill_colmajor, over the demoted rows.
  constexpr int kBlock = 64;
  const float* rows = rows_f32.data();
  run_parallel(0, d, [&](int k_begin, int k_end) {
    for (int k0 = k_begin; k0 < k_end; k0 += kBlock) {
      const int k1 = std::min(k0 + kBlock, k_end);
      for (int i0 = 0; i0 < n; i0 += kBlock) {
        const int i1 = std::min(i0 + kBlock, n);
        for (int i = i0; i < i1; ++i) {
          const float* src = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
          float* dst = colmajor_f32.data() + i;
          for (int k = k0; k < k1; ++k) {
            dst[static_cast<std::size_t>(k) * static_cast<std::size_t>(n)] = src[k];
          }
        }
      }
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
  // Pair-level parallelism partitions the rows (the fast AVX-512 lane: the
  // 4-row tiles) once per call (one thread team, not one per chunk); every
  // packed cell is written by exactly one thread.  Each thread walks the
  // d-chunks so its active row segments stay cache-resident across its
  // pair sweep.
  if (f32_lane()) {
    // Float32 lane: demote once, run the f32 Gram kernels, convert
    // in double and store the packed triangle in f32.  The wider relative
    // guard reflects the f32 dot's larger accumulation error — clustered
    // batches simply take the direct-difference path, which is the most
    // accurate result f32 inputs admit.
    fill_rows_f32(batch);
    sqnorms_f32.resize(static_cast<std::size_t>(n));
    const float* rows = rows_f32.data();
    for (int i = 0; i < n; ++i) {
      constexpr int kLanes = 16;
      const float* r = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
      float lanes[kLanes] = {0.0f};
      int k = 0;
      for (; k + kLanes <= d; k += kLanes) {
        for (int b = 0; b < kLanes; ++b) lanes[b] += r[k + b] * r[k + b];
      }
      float sum = 0.0f;
      for (; k < d; ++k) sum += r[k] * r[k];
      for (int b = 0; b < kLanes; ++b) sum += lanes[b];
      sqnorms_f32[static_cast<std::size_t>(i)] = sum;
    }
    pairdist_f32.assign(pairs, 0.0f);
    accumulate_pair_dots(*this, rows, pairdist_f32.data(), n, d, /*fast=*/true);
    constexpr double kCancellationGuardF32 = 1e-3;
    float* packed = pairdist_f32.data();
    for (int i = 0; i < n; ++i) {
      const double sqi = static_cast<double>(sqnorms_f32[static_cast<std::size_t>(i)]);
      float* prow = packed + pair_row_start(i, n);
      for (int j = i + 1; j < n; ++j) {
        const double scale =
            sqi + static_cast<double>(sqnorms_f32[static_cast<std::size_t>(j)]);
        double d2 =
            std::max(0.0, scale - 2.0 * static_cast<double>(prow[j - i - 1]));
        if (d2 < kCancellationGuardF32 * scale) {
          constexpr int kLanes = 16;
          const float* ri = rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d);
          const float* rj = rows + static_cast<std::size_t>(j) * static_cast<std::size_t>(d);
          float lanes[kLanes] = {0.0f};
          int k = 0;
          for (; k + kLanes <= d; k += kLanes) {
            for (int b = 0; b < kLanes; ++b) {
              const float diff = ri[k + b] - rj[k + b];
              lanes[b] += diff * diff;
            }
          }
          d2 = 0.0;
          for (; k < d; ++k) {
            const double diff = static_cast<double>(ri[k]) - static_cast<double>(rj[k]);
            d2 += diff * diff;
          }
          for (int b = 0; b < kLanes; ++b) d2 += static_cast<double>(lanes[b]);
        }
        prow[j - i - 1] = static_cast<float>(d2);
      }
    }
    return;
  }
  fill_sqnorms(batch);
  pairdist.assign(pairs, 0.0);
  accumulate_pair_dots(*this, batch.data(), pairdist.data(), n, d, mode == AggMode::fast);
  // Convert the accumulated dots to squared distances in place.  The Gram
  // identity cancels catastrophically when gradients share a large common
  // component (||xi - xj||^2 << ||xi||^2 + ||xj||^2) — exactly the clustered
  // regime where Krum-family selection matters — so pairs whose result is
  // small relative to the cancellation scale are recomputed directly.  On
  // well-separated data no pair trips the guard and nothing is recomputed.
  constexpr double kCancellationGuard = 1e-6;
  for (int i = 0; i < n; ++i) {
    const double sqi = sqnorms[static_cast<std::size_t>(i)];
    double* prow = pairdist.data() + pair_row_start(i, n);
    for (int j = i + 1; j < n; ++j) {
      const double scale = sqi + sqnorms[static_cast<std::size_t>(j)];
      double d2 = std::max(0.0, scale - 2.0 * prow[j - i - 1]);
      if (d2 < kCancellationGuard * scale) {
        constexpr int kLanes = 8;
        const double* ri = batch.row(i).data();
        const double* rj = batch.row(j).data();
        double lanes[kLanes] = {0.0};
        int k = 0;
        for (; k + kLanes <= d; k += kLanes) {
          for (int b = 0; b < kLanes; ++b) {
            const double diff = ri[k + b] - rj[k + b];
            lanes[b] += diff * diff;
          }
        }
        d2 = 0.0;
        for (; k < d; ++k) {
          const double diff = ri[k] - rj[k];
          d2 += diff * diff;
        }
        for (int b = 0; b < kLanes; ++b) d2 += lanes[b];
      }
      prow[j - i - 1] = d2;
    }
  }
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
