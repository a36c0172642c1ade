#include "abft/attack/adaptive_faults.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "abft/util/check.hpp"

// The in-place row kernels (emit_into) are the single source of truth for
// these behaviours; the legacy emit() packs its scattered honest Vectors
// into one flat row block and delegates.  One kernel, two façades — the two
// paths cannot drift apart by even an ulp (a hand-duplicated loop can: the
// compiler contracts a*b+c into fma differently per loop shape under
// -march=native).
namespace abft::attack {

namespace {

/// Shared emit-over-emit_into adapter for the omniscient faults: flattens
/// the scattered honest Vectors into one contiguous row block with identity
/// indices and delegates (emit is the allocating path by contract).
std::optional<Vector> emit_via_rows(const FaultModel& fault, const AttackContext& context,
                                    util::Rng& rng) {
  const int dim = context.true_gradient.dim();
  std::vector<double> storage(context.honest_gradients.size() * static_cast<std::size_t>(dim));
  std::vector<int> rows(context.honest_gradients.size());
  for (std::size_t i = 0; i < context.honest_gradients.size(); ++i) {
    const auto src = context.honest_gradients[i].coefficients();
    std::copy(src.begin(), src.end(), storage.begin() + i * static_cast<std::size_t>(dim));
    rows[i] = static_cast<int>(i);
  }
  const HonestRowsView honest(storage.data(), dim, rows);
  const RowAttackContext row_context{context.estimate, context.true_gradient.coefficients(),
                                     honest, context.round};
  Vector out(dim);
  if (!fault.emit_into(out.coefficients(), row_context, rng)) return std::nullopt;
  return out;
}

/// Calls tile.template operator()<W>(base) over the coordinates [0, dim) in
/// tiles of a compile-time width W: kHonestTileWidth while that many
/// coordinates remain, then kHonestNarrowTileWidth, then 1.  A fixed width
/// lets the compiler keep a tile's accumulators in registers.
template <typename Tile>
void sweep_tiles(std::size_t dim, Tile&& tile) {
  std::size_t base = 0;
  for (; base + kHonestTileWidth <= dim; base += kHonestTileWidth) {
    tile.template operator()<kHonestTileWidth>(base);
  }
  for (; base + kHonestNarrowTileWidth <= dim; base += kHonestNarrowTileWidth) {
    tile.template operator()<kHonestNarrowTileWidth>(base);
  }
  for (; base < dim; ++base) tile.template operator()<1>(base);
}

/// sums[j] = the sum over the honest rows, in row order, of coordinate
/// base + j: the tile is swept row by row (contiguous reads).
template <std::size_t W>
void column_sums(const HonestRowsView& honest, std::size_t base, double (&sums)[W]) {
  for (std::size_t j = 0; j < W; ++j) sums[j] = 0.0;
  for (int i = 0; i < honest.count(); ++i) {
    const double* row = honest.row(i).data() + base;
    for (std::size_t j = 0; j < W; ++j) sums[j] += row[j];
  }
}

}  // namespace

LittleIsEnoughFault::LittleIsEnoughFault(double z) : z_(z) {
  ABFT_REQUIRE(z >= 0.0, "little-is-enough z must be non-negative");
}

std::optional<Vector> LittleIsEnoughFault::emit(const AttackContext& context,
                                                util::Rng& rng) const {
  return emit_via_rows(*this, context, rng);
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
  sweep_tiles(out.size(), [&]<std::size_t W>(std::size_t base) {
    double mu[W];
    column_sums<W>(honest, base, mu);
    for (std::size_t j = 0; j < W; ++j) mu[j] *= inv_count;
    double sigma[W] = {};
    for (int i = 0; i < honest.count(); ++i) {
      const double* row = honest.row(i).data() + base;
      for (std::size_t j = 0; j < W; ++j) {
        const double diff = row[j] - mu[j];
        sigma[j] += diff * diff;
      }
    }
    for (std::size_t j = 0; j < W; ++j) out[base + j] = mu[j] - z_ * std::sqrt(sigma[j] / count);
  });
  return true;
}

MeanReverseFault::MeanReverseFault(double scale) : scale_(scale) {
  ABFT_REQUIRE(scale > 0.0, "mean-reverse scale must be positive");
}

std::optional<Vector> MeanReverseFault::emit(const AttackContext& context, util::Rng& rng) const {
  return emit_via_rows(*this, context, rng);
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
  sweep_tiles(out.size(), [&]<std::size_t W>(std::size_t base) {
    double mu[W];
    column_sums<W>(honest, base, mu);
    for (std::size_t j = 0; j < W; ++j) out[base + j] = (mu[j] * inv_count) * scale;
  });
  return true;
}

std::optional<Vector> MimicSmallestFault::emit(const AttackContext& context,
                                               util::Rng& rng) const {
  return emit_via_rows(*this, context, rng);
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
