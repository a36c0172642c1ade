#include "abft/attack/adaptive_faults.hpp"

#include <algorithm>
#include <cmath>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "abft/util/check.hpp"

namespace abft::attack {

namespace {

/// Lane operations on V::kWidth adjacent coordinates held in a Reg (a double
/// or an __m512d, whose +, -, * and / are element-wise).  fmadd and fnmadd
/// round c + a * b and c - a * b once on every host: every width gives the
/// per-coordinate bits.
struct ScalarLane {
  using Reg = double;
  static constexpr std::size_t kWidth = 1;
  static Reg load(const double* p) { return *p; }
  static void store(double* p, Reg a) { *p = a; }
  static Reg sqrt(Reg a) { return std::sqrt(a); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return std::fma(a, b, c); }
  static Reg fnmadd(double a, Reg b, Reg c) { return std::fma(-a, b, c); }
};

#if defined(__AVX512F__)
struct Avx512Lane {
  using Reg = __m512d;
  static constexpr std::size_t kWidth = 8;
  static Reg load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, Reg a) { _mm512_storeu_pd(p, a); }
  // The all-lanes maskz form: _mm512_sqrt_pd trips -Wuninitialized in GCC 12.
  static Reg sqrt(Reg a) { return _mm512_maskz_sqrt_pd(0xFF, a); }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_pd(a, b, c); }
  static Reg fnmadd(double a, Reg b, Reg c) { return _mm512_fnmadd_pd(_mm512_set1_pd(a), b, c); }
};
#endif

/// Calls tile.template operator()<V, R>(base) over the coordinates [0, dim),
/// each call covering R registers of V::kWidth coordinates from base: with
/// AVX-512, tiles of 64 (eight registers, one 512-byte slice of each honest
/// row, which stays in L1 between the sum and the deviation pass), then one
/// register; otherwise eight scalars; then one coordinate at a time.
template <typename Tile>
void sweep_columns(std::size_t dim, Tile&& tile) {
  std::size_t base = 0;
#if defined(__AVX512F__)
  for (; base + 64 <= dim; base += 64) tile.template operator()<Avx512Lane, 8>(base);
  for (; base + 8 <= dim; base += 8) tile.template operator()<Avx512Lane, 1>(base);
#else
  for (; base + 8 <= dim; base += 8) tile.template operator()<ScalarLane, 8>(base);
#endif
  for (; base < dim; ++base) tile.template operator()<ScalarLane, 1>(base);
}

/// sum[r] = the sum over the honest rows, in row order, of register r of the
/// tile at base: the rows are read one contiguous slice at a time.
template <typename V, std::size_t R>
void column_sums(const HonestRowsView& honest, std::size_t base, typename V::Reg (&sum)[R]) {
  for (auto& s : sum) s = typename V::Reg{};
  for (int i = 0; i < honest.count(); ++i) {
    const double* row = honest.row(i).data() + base;
    for (std::size_t r = 0; r < R; ++r) sum[r] += V::load(row + r * V::kWidth);
  }
}

}  // namespace

LittleIsEnoughFault::LittleIsEnoughFault(double z) : z_(z) {
  ABFT_REQUIRE(z >= 0.0, "little-is-enough z must be non-negative");
}

bool LittleIsEnoughFault::emit_into(std::span<double> out, const RowAttackContext& context,
                                    util::Rng& /*rng*/) const {
  const auto& honest = context.honest;
  if (honest.empty()) {
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = context.true_gradient[k];
    return true;
  }
  // Per coordinate: mean(honest) - z * population-stddev(honest).  The mean
  // scales the row-order sum by the reciprocal, matching linalg::mean
  // exactly, and the squared deviations sum in row order too.
  const auto count = static_cast<double>(honest.count());
  const double inv_count = 1.0 / count;
  sweep_columns(out.size(), [&]<typename V, std::size_t R>(std::size_t base) {
    typename V::Reg mu[R];
    column_sums<V, R>(honest, base, mu);
    for (auto& m : mu) m *= inv_count;
    typename V::Reg sigma[R] = {};
    for (int i = 0; i < honest.count(); ++i) {
      const double* row = honest.row(i).data() + base;
      for (std::size_t r = 0; r < R; ++r) {
        const auto diff = V::load(row + r * V::kWidth) - mu[r];
        sigma[r] = V::fmadd(diff, diff, sigma[r]);
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      V::store(out.data() + base + r * V::kWidth, V::fnmadd(z_, V::sqrt(sigma[r] / count), mu[r]));
    }
  });
  return true;
}

MeanReverseFault::MeanReverseFault(double scale) : scale_(scale) {
  ABFT_REQUIRE(scale > 0.0, "mean-reverse scale must be positive");
}

bool MeanReverseFault::emit_into(std::span<double> out, const RowAttackContext& context,
                                 util::Rng& /*rng*/) const {
  const auto& honest = context.honest;
  const double scale = -scale_;
  if (honest.empty()) {
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = context.true_gradient[k] * scale;
    return true;
  }
  const double inv_count = 1.0 / static_cast<double>(honest.count());
  sweep_columns(out.size(), [&]<typename V, std::size_t R>(std::size_t base) {
    typename V::Reg mu[R];
    column_sums<V, R>(honest, base, mu);
    for (std::size_t r = 0; r < R; ++r) {
      V::store(out.data() + base + r * V::kWidth, (mu[r] * inv_count) * scale);
    }
  });
  return true;
}

namespace {

/// Vector::norm() over a raw row: sequential sum of squares, then sqrt.
double row_norm(std::span<const double> row) {
  double sum = 0.0;
  for (double v : row) sum += v * v;
  return std::sqrt(sum);
}

}  // namespace

bool MimicSmallestFault::emit_into(std::span<double> out, const RowAttackContext& context,
                                   util::Rng& /*rng*/) const {
  const auto& honest = context.honest;
  if (honest.empty()) {
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = context.true_gradient[k];
    return true;
  }
  int best = 0;
  double best_norm = row_norm(honest.row(0));
  for (int i = 1; i < honest.count(); ++i) {
    const double norm = row_norm(honest.row(i));
    if (norm < best_norm) {
      best_norm = norm;
      best = i;
    }
  }
  const auto src = honest.row(best);
  std::copy(src.begin(), src.end(), out.begin());
  return true;
}

}  // namespace abft::attack
