// Attack-path parity: every fault behaviour applied through the new in-place
// row mutation API (emit_into on batch rows) must match the legacy
// std::vector<Vector> path (emit) bit for bit — same payloads, same rng
// stream consumption — including when the output row aliases the true
// gradient, which is how the batched drivers call it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "abft/agg/batch.hpp"
#include "abft/attack/adaptive_faults.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;
using attack::AttackContext;
using attack::FaultModel;
using attack::HonestRowsView;
using attack::RowAttackContext;
using linalg::Vector;

/// A deterministic but irregular honest family plus estimate/true gradient,
/// materialized both as Vectors (legacy) and as rows of a GradientBatch
/// (batched) so the two paths see identical inputs.
struct ParityFixture {
  int d;
  Vector estimate;
  Vector true_gradient;
  std::vector<Vector> honest;
  agg::GradientBatch payloads;  // honest rows at 0..h-1, faulty row last
  std::vector<int> honest_rows;

  explicit ParityFixture(int honest_count = 4, int dim = 7) : d(dim) {
    util::Rng rng(2024);
    estimate = Vector(d);
    true_gradient = Vector(d);
    for (int k = 0; k < d; ++k) {
      estimate[k] = rng.normal(0.0, 3.0);
      true_gradient[k] = rng.normal(0.5, 2.0);
    }
    payloads.reshape(honest_count + 1, d);
    for (int i = 0; i < honest_count; ++i) {
      Vector g(d);
      for (int k = 0; k < d; ++k) g[k] = rng.normal(static_cast<double>(i), 1.5);
      payloads.set_row(i, g);
      honest.push_back(std::move(g));
      honest_rows.push_back(i);
    }
  }

  [[nodiscard]] AttackContext legacy_context(int round = 3) const {
    return AttackContext{estimate, true_gradient, honest, round};
  }

  [[nodiscard]] RowAttackContext row_context(std::span<const double> tg, int round = 3) const {
    return RowAttackContext{estimate, tg,
                            HonestRowsView(payloads.data(), payloads.cols(), honest_rows), round};
  }
};

/// Runs both paths from identical rng states and checks payload and rng
/// stream parity.  `alias` additionally exercises the drivers' calling
/// convention where the output row holds (and aliases) the true gradient.
void expect_parity(const FaultModel& fault, int honest_count = 4, int round = 3, int dim = 7) {
  for (const bool alias : {false, true}) {
    ParityFixture fx(honest_count, dim);
    util::Rng legacy_rng(99);
    util::Rng row_rng(99);

    const auto legacy = fault.emit(fx.legacy_context(round), legacy_rng);

    const int faulty_row = static_cast<int>(fx.honest_rows.size());
    fx.payloads.set_row(faulty_row, fx.true_gradient);
    auto out = fx.payloads.row(faulty_row);
    std::vector<double> tg_copy(out.begin(), out.end());
    const std::span<const double> tg =
        alias ? std::span<const double>(out) : std::span<const double>(tg_copy);
    const bool sent = fault.emit_into(out, fx.row_context(tg, round), row_rng);

    ASSERT_EQ(sent, legacy.has_value()) << fault.name() << " alias=" << alias;
    if (sent) {
      for (int k = 0; k < fx.d; ++k) {
        EXPECT_EQ(out[static_cast<std::size_t>(k)], (*legacy)[k])
            << fault.name() << " alias=" << alias << " d=" << fx.d << " coordinate " << k;
      }
    }
    // Identical stream consumption: the generators must continue in lockstep.
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(legacy_rng.next_u64(), row_rng.next_u64()) << fault.name();
    }
  }
}

TEST(AttackParity, GradientReverse) { expect_parity(attack::GradientReverseFault{}); }

TEST(AttackParity, RandomGaussian) { expect_parity(attack::RandomGaussianFault{200.0}); }

TEST(AttackParity, Zero) { expect_parity(attack::ZeroFault{}); }

TEST(AttackParity, SignFlipScale) { expect_parity(attack::SignFlipScaleFault{3.5}); }

TEST(AttackParity, Constant) {
  ParityFixture fx;
  Vector payload(fx.d);
  for (int k = 0; k < fx.d; ++k) payload[k] = 0.25 * k - 1.0;
  expect_parity(attack::ConstantFault{payload});
}

TEST(AttackParity, RotatingOverRounds) {
  const attack::RotatingFault fault(5.0, 0.7);
  for (int round = 0; round < 5; ++round) expect_parity(fault, 4, round);
}

TEST(AttackParity, Silent) { expect_parity(attack::SilentFault{}); }

TEST(AttackParity, LittleIsEnough) { expect_parity(attack::LittleIsEnoughFault{1.5}); }

TEST(AttackParity, LittleIsEnoughNoHonest) {
  expect_parity(attack::LittleIsEnoughFault{1.5}, /*honest_count=*/0);
}

TEST(AttackParity, MeanReverse) { expect_parity(attack::MeanReverseFault{2.0}); }

TEST(AttackParity, MeanReverseNoHonest) {
  expect_parity(attack::MeanReverseFault{2.0}, /*honest_count=*/0);
}

TEST(AttackParity, MimicSmallest) { expect_parity(attack::MimicSmallestFault{}); }

TEST(AttackParity, MimicSmallestNoHonest) {
  expect_parity(attack::MimicSmallestFault{}, /*honest_count=*/0);
}

// The mean-based omniscient faults sweep the honest rows in coordinate tiles
// of 64, then 8, then 1.  Dimensions on both sides of each tile width (and
// many tiles, with a ragged last one: 72 = 64 + 8, 1000 = 15 * 64 + 5 * 8,
// 10007 = 156 * 64 + 2 * 8 + 7; 10000 is the wide benchmark's d), at 1, 4
// and 45 honest rows, must still give the per-coordinate column walk below
// bit for bit, and emit must still equal emit_into.
const int kTileDims[] = {1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 72, 1000, 10000, 10007};
const int kHonestCounts[] = {1, 4, 45};

/// The per-coordinate column walks the tiled kernels replaced, honest rows in
/// order.  The expressions are the kernels' own, so FMA contraction matches.
std::vector<double> lie_reference(const ParityFixture& fx, double z) {
  const auto count = static_cast<double>(fx.honest.size());
  std::vector<double> out(static_cast<std::size_t>(fx.d));
  for (int k = 0; k < fx.d; ++k) {
    double mu = 0.0;
    for (const auto& g : fx.honest) mu += g[k];
    mu *= 1.0 / count;
    double sigma = 0.0;
    for (const auto& g : fx.honest) {
      const double diff = g[k] - mu;
      sigma += diff * diff;
    }
    out[static_cast<std::size_t>(k)] = mu - z * std::sqrt(sigma / count);
  }
  return out;
}

std::vector<double> mean_reverse_reference(const ParityFixture& fx, double scale) {
  const double inv_count = 1.0 / static_cast<double>(fx.honest.size());
  std::vector<double> out(static_cast<std::size_t>(fx.d));
  for (int k = 0; k < fx.d; ++k) {
    double mu = 0.0;
    for (const auto& g : fx.honest) mu += g[k];
    out[static_cast<std::size_t>(k)] = (mu * inv_count) * -scale;
  }
  return out;
}

std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// emit_into on a fresh fixture, compared bit for bit with `reference`.
template <typename Reference>
void expect_matches_reference(const FaultModel& fault, int honest_count, int dim,
                              Reference reference) {
  ParityFixture fx(honest_count, dim);
  std::vector<double> out(static_cast<std::size_t>(dim));
  util::Rng rng(5);
  ASSERT_TRUE(fault.emit_into(out, fx.row_context(fx.true_gradient.coefficients()), rng));
  EXPECT_EQ(bits(out), bits(reference(fx)))
      << fault.name() << " d=" << dim << " honest=" << honest_count;
}

TEST(AttackParity, LittleIsEnoughAcrossTileBoundaries) {
  const attack::LittleIsEnoughFault fault(1.5);
  for (const int honest_count : kHonestCounts) {
    for (const int dim : kTileDims) {
      expect_parity(fault, honest_count, 3, dim);
      expect_matches_reference(fault, honest_count, dim,
                               [](const ParityFixture& fx) { return lie_reference(fx, 1.5); });
    }
  }
}

TEST(AttackParity, MeanReverseAcrossTileBoundaries) {
  const attack::MeanReverseFault fault(2.0);
  for (const int honest_count : kHonestCounts) {
    for (const int dim : kTileDims) {
      expect_parity(fault, honest_count, 3, dim);
      expect_matches_reference(fault, honest_count, dim, [](const ParityFixture& fx) {
        return mean_reverse_reference(fx, 2.0);
      });
    }
  }
}

/// A third-party fault that only implements the legacy emit(): the base
/// class adapter must feed it a faithfully reconstructed legacy context.
class LegacyOnlyFault final : public FaultModel {
 public:
  [[nodiscard]] std::optional<Vector> emit(const AttackContext& context,
                                           util::Rng& rng) const override {
    // Mixes every context field with one rng draw so any adapter slip shows.
    Vector out = context.true_gradient;
    for (const auto& g : context.honest_gradients) out += g;
    out.add_scaled(0.5, context.estimate);
    out *= 1.0 + 0.01 * static_cast<double>(context.round);
    out[0] += rng.uniform();
    return out;
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "legacy-only"; }
};

TEST(AttackParity, DefaultAdapterReconstructsLegacyContext) {
  expect_parity(LegacyOnlyFault{});
}

/// The same logical honest family, stored once at identity rows and once
/// scattered through a larger block, must yield identical payloads: all
/// that may matter is the sequence of rows the view resolves to.
void expect_row_indirection_invariant(const FaultModel& fault, int honest_count, int dim) {
  ParityFixture fx(honest_count, dim);
  agg::GradientBatch scattered(2 * static_cast<int>(fx.honest_rows.size()), fx.d);
  std::vector<int> scattered_rows;
  for (std::size_t i = 0; i < fx.honest_rows.size(); ++i) {
    const int slot = static_cast<int>(2 * i + 1);  // odd rows, same order
    scattered.set_row(slot, fx.payloads.row(fx.honest_rows[i]));
    scattered_rows.push_back(slot);
  }
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  std::vector<double> out_a(static_cast<std::size_t>(fx.d));
  std::vector<double> out_b(static_cast<std::size_t>(fx.d));
  const std::vector<double> tg(fx.true_gradient.coefficients().begin(),
                               fx.true_gradient.coefficients().end());
  const HonestRowsView identity(fx.payloads.data(), fx.d, fx.honest_rows);
  const HonestRowsView indirect(scattered.data(), fx.d, scattered_rows);
  ASSERT_TRUE(fault.emit_into(out_a, RowAttackContext{fx.estimate, tg, identity, 0}, rng_a));
  ASSERT_TRUE(fault.emit_into(out_b, RowAttackContext{fx.estimate, tg, indirect, 0}, rng_b));
  EXPECT_EQ(bits(out_a), bits(out_b)) << fault.name() << " d=" << dim;
}

TEST(AttackParity, RowIndirectionInvariant) {
  expect_row_indirection_invariant(attack::LittleIsEnoughFault{0.8}, 4, 7);
  // The wide benchmark's shape, through the 64-coordinate tiles.
  expect_row_indirection_invariant(attack::LittleIsEnoughFault{0.8}, 45, 10000);
  expect_row_indirection_invariant(attack::MeanReverseFault{2.0}, 45, 10000);
}

}  // namespace
