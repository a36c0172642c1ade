// Attack-path parity: every fault's emit_into, its one implementation, must
// match a test-local reference bit for bit (same payload, same rng stream
// consumption), including when the output row aliases the true gradient,
// which is how the batched drivers call it.  The references are each
// fault's defining expression over Vectors, and per-coordinate column walks
// for the omniscient faults.  The base-class emit adapter must equal
// emit_into for every built-in fault.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
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
/// materialized both as Vectors (for the references and emit) and as rows
/// of a GradientBatch (for emit_into), so every path sees identical inputs.
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

  [[nodiscard]] AttackContext context(int round = 3) const {
    return AttackContext{estimate, true_gradient, honest, round};
  }

  [[nodiscard]] RowAttackContext row_context(std::span<const double> tg, int round = 3) const {
    return RowAttackContext{estimate, tg,
                            HonestRowsView(payloads.data(), payloads.cols(), honest_rows), round};
  }
};

std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// Runs emit_into and `reference` from identical rng states and checks the
/// payload bits and that the two rng streams continue in lockstep.  `alias`
/// exercises the drivers' calling convention, where the output row holds
/// (and aliases) the true gradient.  reference(fx, round, rng) returns what
/// the fault should send, drawing from rng as the fault does, or
/// std::nullopt for silence.
template <typename Ref>
void expect_matches(const FaultModel& fault, Ref reference, int honest_count = 4,
                    int round = 3, int dim = 7) {
  for (const bool alias : {false, true}) {
    ParityFixture fx(honest_count, dim);
    util::Rng reference_rng(99);
    util::Rng row_rng(99);

    const std::optional<Vector> expected = reference(fx, round, reference_rng);

    const int faulty_row = static_cast<int>(fx.honest_rows.size());
    fx.payloads.set_row(faulty_row, fx.true_gradient);
    auto out = fx.payloads.row(faulty_row);
    std::vector<double> tg_copy(out.begin(), out.end());
    const std::span<const double> tg =
        alias ? std::span<const double>(out) : std::span<const double>(tg_copy);
    const bool sent = fault.emit_into(out, fx.row_context(tg, round), row_rng);

    ASSERT_EQ(sent, expected.has_value()) << fault.name() << " alias=" << alias;
    if (sent) {
      EXPECT_EQ(bits(out), bits(expected->coefficients()))
          << fault.name() << " alias=" << alias << " d=" << dim << " honest=" << honest_count
          << " round=" << round;
    }
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(reference_rng.next_u64(), row_rng.next_u64()) << fault.name();
    }
  }
}

TEST(AttackParity, GradientReverse) {
  expect_matches(attack::GradientReverseFault{},
                 [](const ParityFixture& fx, int, util::Rng&) -> std::optional<Vector> {
                   return -fx.true_gradient;
                 });
}

TEST(AttackParity, RandomGaussian) {
  expect_matches(attack::RandomGaussianFault{200.0},
                 [](const ParityFixture& fx, int, util::Rng& rng) -> std::optional<Vector> {
                   Vector out(fx.d);
                   for (int i = 0; i < out.dim(); ++i) out[i] = rng.normal(0.0, 200.0);
                   return out;
                 });
}

TEST(AttackParity, Zero) {
  expect_matches(attack::ZeroFault{},
                 [](const ParityFixture& fx, int, util::Rng&) -> std::optional<Vector> {
                   return Vector(fx.d);
                 });
}

TEST(AttackParity, SignFlipScale) {
  expect_matches(attack::SignFlipScaleFault{3.5},
                 [](const ParityFixture& fx, int, util::Rng&) -> std::optional<Vector> {
                   return -3.5 * fx.true_gradient;
                 });
}

TEST(AttackParity, RotatingOverRounds) {
  const attack::RotatingFault fault(5.0, 0.7);
  for (int round = 0; round < 5; ++round) {
    expect_matches(
        fault,
        [](const ParityFixture& fx, int t, util::Rng&) -> std::optional<Vector> {
          Vector out(fx.d);
          const double angle = 0.7 * static_cast<double>(t);
          out[0] = 5.0 * std::cos(angle);
          if (out.dim() > 1) out[1] = 5.0 * std::sin(angle);
          return out;
        },
        4, round);
  }
}

TEST(AttackParity, Silent) {
  expect_matches(attack::SilentFault{},
                 [](const ParityFixture&, int, util::Rng&) -> std::optional<Vector> {
                   return std::nullopt;
                 });
}

/// The honest gradient of smallest norm, the first on ties; the true
/// gradient when no honest gradient is visible.
std::optional<Vector> mimic_smallest_reference(const ParityFixture& fx, int, util::Rng&) {
  if (fx.honest.empty()) return fx.true_gradient;
  const Vector* best = &fx.honest.front();
  for (const auto& g : fx.honest) {
    if (g.norm() < best->norm()) best = &g;
  }
  return *best;
}

TEST(AttackParity, MimicSmallest) {
  expect_matches(attack::MimicSmallestFault{}, mimic_smallest_reference);
}

TEST(AttackParity, MimicSmallestNoHonest) {
  expect_matches(attack::MimicSmallestFault{}, mimic_smallest_reference, /*honest_count=*/0);
}

// The mean-based omniscient faults sweep the honest rows in coordinate tiles
// of 64, then 8, then 1.  Dimensions on both sides of each tile width (and
// many tiles, with a ragged last one: 72 = 64 + 8, 1000 = 15 * 64 + 5 * 8,
// 10007 = 156 * 64 + 2 * 8 + 7; 10000 is the wide benchmark's d), at 1, 4
// and 45 honest rows, must still give the per-coordinate column walk below
// bit for bit.
const int kTileDims[] = {1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 72, 1000, 10000, 10007};
const int kHonestCounts[] = {1, 4, 45};

/// The per-coordinate column walks the tiled kernels replaced, honest rows in
/// order, with LIE's two fusions spelled std::fma as the kernels write them.
/// With no honest rows LIE sends the true gradient and mean-reverse its
/// scaled reversal.
std::optional<Vector> lie_reference(const ParityFixture& fx, double z) {
  if (fx.honest.empty()) return fx.true_gradient;
  const auto count = static_cast<double>(fx.honest.size());
  Vector out(fx.d);
  for (int k = 0; k < fx.d; ++k) {
    double mu = 0.0;
    for (const auto& g : fx.honest) mu += g[k];
    mu *= 1.0 / count;
    double sigma = 0.0;
    for (const auto& g : fx.honest) {
      const double diff = g[k] - mu;
      sigma = std::fma(diff, diff, sigma);
    }
    out[k] = std::fma(-z, std::sqrt(sigma / count), mu);
  }
  return out;
}

std::optional<Vector> mean_reverse_reference(const ParityFixture& fx, double scale) {
  if (fx.honest.empty()) return -scale * fx.true_gradient;
  const double inv_count = 1.0 / static_cast<double>(fx.honest.size());
  Vector out(fx.d);
  for (int k = 0; k < fx.d; ++k) {
    double mu = 0.0;
    for (const auto& g : fx.honest) mu += g[k];
    out[k] = (mu * inv_count) * -scale;
  }
  return out;
}

std::optional<Vector> lie_1_5(const ParityFixture& fx, int, util::Rng&) {
  return lie_reference(fx, 1.5);
}

std::optional<Vector> mean_reverse_2(const ParityFixture& fx, int, util::Rng&) {
  return mean_reverse_reference(fx, 2.0);
}

TEST(AttackParity, LittleIsEnough) { expect_matches(attack::LittleIsEnoughFault{1.5}, lie_1_5); }

TEST(AttackParity, LittleIsEnoughNoHonest) {
  expect_matches(attack::LittleIsEnoughFault{1.5}, lie_1_5, /*honest_count=*/0);
}

TEST(AttackParity, MeanReverse) { expect_matches(attack::MeanReverseFault{2.0}, mean_reverse_2); }

TEST(AttackParity, MeanReverseNoHonest) {
  expect_matches(attack::MeanReverseFault{2.0}, mean_reverse_2, /*honest_count=*/0);
}

TEST(AttackParity, LittleIsEnoughAcrossTileBoundaries) {
  const attack::LittleIsEnoughFault fault(1.5);
  for (const int honest_count : kHonestCounts) {
    for (const int dim : kTileDims) expect_matches(fault, lie_1_5, honest_count, 3, dim);
  }
}

TEST(AttackParity, MeanReverseAcrossTileBoundaries) {
  const attack::MeanReverseFault fault(2.0);
  for (const int honest_count : kHonestCounts) {
    for (const int dim : kTileDims) expect_matches(fault, mean_reverse_2, honest_count, 3, dim);
  }
}

/// The allocating emit adapter returns exactly what emit_into writes, and
/// consumes the rng stream the same way, for every built-in fault, with and
/// without honest rows; a silent fault yields std::nullopt.
TEST(AttackParity, EmitAdapterEqualsEmitInto) {
  std::vector<std::unique_ptr<FaultModel>> faults;
  faults.push_back(std::make_unique<attack::GradientReverseFault>());
  faults.push_back(std::make_unique<attack::RandomGaussianFault>(200.0));
  faults.push_back(std::make_unique<attack::ZeroFault>());
  faults.push_back(std::make_unique<attack::SignFlipScaleFault>(3.5));
  faults.push_back(std::make_unique<attack::RotatingFault>(5.0, 0.7));
  faults.push_back(std::make_unique<attack::SilentFault>());
  faults.push_back(std::make_unique<attack::LittleIsEnoughFault>(1.5));
  faults.push_back(std::make_unique<attack::MeanReverseFault>(2.0));
  faults.push_back(std::make_unique<attack::MimicSmallestFault>());
  for (const auto& fault : faults) {
    for (const int honest_count : {0, 4}) {
      ParityFixture fx(honest_count, 70);
      util::Rng emit_rng(11);
      util::Rng row_rng(11);
      const auto emitted = fault->emit(fx.context(), emit_rng);
      std::vector<double> out(static_cast<std::size_t>(fx.d));
      const bool sent =
          fault->emit_into(out, fx.row_context(fx.true_gradient.coefficients()), row_rng);
      ASSERT_EQ(emitted.has_value(), sent) << fault->name() << " honest=" << honest_count;
      EXPECT_EQ(emitted.has_value(), fault->name() != "silent") << fault->name();
      if (sent) {
        EXPECT_EQ(bits(emitted->coefficients()), bits(out))
            << fault->name() << " honest=" << honest_count;
      }
      EXPECT_EQ(emit_rng.next_u64(), row_rng.next_u64()) << fault->name();
    }
  }
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
