// Unit tests for abft::opt — cost functions (values + analytic gradients
// validated against finite differences), aggregates, the box constraint W
// and step schedules.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "abft/opt/box.hpp"
#include "abft/opt/cost.hpp"
#include "abft/opt/quadratic.hpp"
#include "abft/opt/schedule.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;
using opt::Vector;

TEST(ResidualSquaredCost, ValueMatchesDefinition) {
  const opt::ResidualSquaredCost q(Vector{2.0, -1.0}, 3.0);
  // Q(x) = (3 - (2x0 - x1))^2 at x = (1, 1): (3 - 1)^2 = 4.
  EXPECT_DOUBLE_EQ(q.value(Vector{1.0, 1.0}), 4.0);
  EXPECT_DOUBLE_EQ(q.value(Vector{1.5, 0.0}), 0.0);
}

TEST(ResidualSquaredCost, GradientMatchesFiniteDifferences) {
  abft::util::Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    Vector row(3);
    for (int i = 0; i < 3; ++i) row[i] = rng.normal();
    const opt::ResidualSquaredCost q(row, rng.normal());
    Vector x(3);
    for (int i = 0; i < 3; ++i) x[i] = rng.normal();
    EXPECT_TRUE(linalg::approx_equal(q.gradient(x), opt::numerical_gradient(q, x), 1e-5));
  }
}

TEST(ResidualSquaredCost, LipschitzConstantIsTwiceRowNormSquared) {
  const opt::ResidualSquaredCost q(Vector{3.0, 4.0}, 0.0);
  EXPECT_DOUBLE_EQ(q.gradient_lipschitz(), 2.0 * 25.0);
}

TEST(SquaredDistanceCost, MinimizesAtCenter) {
  const opt::SquaredDistanceCost q(Vector{1.0, -2.0});
  EXPECT_DOUBLE_EQ(q.value(Vector{1.0, -2.0}), 0.0);
  EXPECT_DOUBLE_EQ(q.value(Vector{2.0, -2.0}), 1.0);
  EXPECT_EQ(q.gradient(Vector{1.0, -2.0}), (Vector{0.0, 0.0}));
  EXPECT_EQ(q.gradient(Vector{2.0, -2.0}), (Vector{2.0, 0.0}));
}

TEST(SquaredDistanceCost, GradientMatchesFiniteDifferences) {
  const opt::SquaredDistanceCost q(Vector{0.5, 0.25, -1.0});
  const Vector x{1.0, 2.0, 3.0};
  EXPECT_TRUE(linalg::approx_equal(q.gradient(x), opt::numerical_gradient(q, x), 1e-5));
}

/// Bit patterns of a span, so -0.0 vs 0.0 (or any last-ulp slip) fails.
std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

Vector random_vector(abft::util::Rng& rng, int dim, double scale) {
  Vector v(dim);
  for (int i = 0; i < dim; ++i) v[i] = scale * rng.normal();
  return v;
}

// gradient_into is the engines' produce path and gradient() the reference:
// the two must agree bit for bit at every dimension, including lengths that
// are not a multiple of any vector width.
TEST(GradientInto, SquaredDistanceMatchesGradientBitForBit) {
  abft::util::Rng rng(41);
  for (const int dim : {1, 3, 7, 64, 1001}) {
    const opt::SquaredDistanceCost q(random_vector(rng, dim, 3.0));
    const Vector x = random_vector(rng, dim, 5.0);
    std::vector<double> out(static_cast<std::size_t>(dim), -1.0);
    q.gradient_into(x, out);
    EXPECT_EQ(bits(out), bits(q.gradient(x).coefficients())) << "dim " << dim;
  }
}

TEST(GradientInto, ResidualSquaredMatchesGradientBitForBit) {
  abft::util::Rng rng(43);
  for (const int dim : {1, 3, 7, 64, 1001}) {
    const opt::ResidualSquaredCost q(random_vector(rng, dim, 1.0), rng.normal());
    const Vector x = random_vector(rng, dim, 2.0);
    std::vector<double> out(static_cast<std::size_t>(dim), -1.0);
    q.gradient_into(x, out);
    EXPECT_EQ(bits(out), bits(q.gradient(x).coefficients())) << "dim " << dim;
  }
}

// The loops index x and out without per-coordinate checks, so these size
// checks are what keeps a mismatched caller out of bounds.
TEST(GradientInto, SquaredDistanceRejectsMismatchedSizes) {
  const opt::SquaredDistanceCost q(Vector{1.0, 2.0, 3.0});
  std::vector<double> out(3);
  std::vector<double> short_out(2);
  std::vector<double> long_out(4);
  EXPECT_THROW(q.gradient_into(Vector{1.0, 2.0}, out), std::invalid_argument);
  EXPECT_THROW(q.gradient_into(Vector{1.0, 2.0, 3.0, 4.0}, out), std::invalid_argument);
  EXPECT_THROW(q.gradient_into(Vector{1.0, 2.0, 3.0}, short_out), std::invalid_argument);
  EXPECT_THROW(q.gradient_into(Vector{1.0, 2.0, 3.0}, long_out), std::invalid_argument);
}

TEST(GradientInto, ResidualSquaredRejectsMismatchedSizes) {
  const opt::ResidualSquaredCost q(Vector{1.0, 2.0, 3.0}, 0.5);
  std::vector<double> out(3);
  std::vector<double> short_out(2);
  std::vector<double> long_out(4);
  EXPECT_THROW(q.gradient_into(Vector{1.0, 2.0}, out), std::invalid_argument);
  EXPECT_THROW(q.gradient_into(Vector{1.0, 2.0, 3.0, 4.0}, out), std::invalid_argument);
  EXPECT_THROW(q.gradient_into(Vector{1.0, 2.0, 3.0}, short_out), std::invalid_argument);
  EXPECT_THROW(q.gradient_into(Vector{1.0, 2.0, 3.0}, long_out), std::invalid_argument);
}

TEST(AggregateCost, SumsValuesAndGradients) {
  const opt::SquaredDistanceCost a(Vector{0.0, 0.0});
  const opt::SquaredDistanceCost b(Vector{2.0, 2.0});
  const opt::AggregateCost sum({&a, &b});
  const Vector x{1.0, 1.0};
  EXPECT_DOUBLE_EQ(sum.value(x), a.value(x) + b.value(x));
  EXPECT_EQ(sum.gradient(x), a.gradient(x) + b.gradient(x));
  EXPECT_EQ(sum.num_terms(), 2);
}

TEST(AggregateCost, WeightsApply) {
  const opt::SquaredDistanceCost a(Vector{0.0});
  const opt::AggregateCost weighted({&a}, {3.0});
  EXPECT_DOUBLE_EQ(weighted.value(Vector{2.0}), 12.0);
}

TEST(AggregateCost, RejectsBadInput) {
  const opt::SquaredDistanceCost a(Vector{0.0});
  const opt::SquaredDistanceCost b(Vector{0.0, 0.0});
  EXPECT_THROW(opt::AggregateCost({}), std::invalid_argument);
  EXPECT_THROW(opt::AggregateCost({&a, &b}), std::invalid_argument);
  EXPECT_THROW(opt::AggregateCost({&a}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(opt::AggregateCost({nullptr}), std::invalid_argument);
}

TEST(Box, ProjectionClampsCoordinatewise) {
  const auto box = opt::Box::centered_cube(2, 1.0);
  EXPECT_EQ(box.project(Vector{2.0, -3.0}), (Vector{1.0, -1.0}));
  EXPECT_EQ(box.project(Vector{0.5, 0.5}), (Vector{0.5, 0.5}));
}

TEST(Box, ProjectionIsIdempotentAndNonExpansive) {
  const opt::Box box(Vector{-1.0, 0.0}, Vector{2.0, 5.0});
  abft::util::Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    Vector x(2);
    Vector y(2);
    for (int i = 0; i < 2; ++i) {
      x[i] = rng.uniform(-10.0, 10.0);
      y[i] = rng.uniform(-10.0, 10.0);
    }
    const Vector px = box.project(x);
    EXPECT_EQ(box.project(px), px);
    EXPECT_TRUE(box.contains(px, 1e-12));
    // Non-expansion: ||P(x) - P(y)|| <= ||x - y||.
    EXPECT_LE(linalg::distance(px, box.project(y)), linalg::distance(x, y) + 1e-12);
  }
}

TEST(Box, ContainsAndGeometry) {
  const opt::Box box(Vector{0.0, 0.0}, Vector{2.0, 2.0});
  EXPECT_TRUE(box.contains(Vector{1.0, 1.0}));
  EXPECT_FALSE(box.contains(Vector{3.0, 1.0}));
  EXPECT_DOUBLE_EQ(box.diameter(), std::sqrt(8.0));
  // Farthest corner from (0, 0) is (2, 2).
  EXPECT_DOUBLE_EQ(box.max_distance_from(Vector{0.0, 0.0}), std::sqrt(8.0));
}

TEST(Box, RejectsInvertedBounds) {
  EXPECT_THROW(opt::Box(Vector{1.0}, Vector{0.0}), std::invalid_argument);
  EXPECT_THROW(opt::Box::centered_cube(0, 1.0), std::invalid_argument);
}

TEST(Schedules, HarmonicMatchesPaper) {
  const opt::HarmonicSchedule schedule(1.5);
  EXPECT_DOUBLE_EQ(schedule.step(0), 1.5);
  EXPECT_DOUBLE_EQ(schedule.step(2), 0.5);
  EXPECT_TRUE(schedule.is_diminishing());
  EXPECT_THROW((void)schedule.step(-1), std::invalid_argument);
  EXPECT_THROW(opt::HarmonicSchedule(0.0), std::invalid_argument);
}

TEST(Schedules, HarmonicSatisfiesTheorem3Conditions) {
  // sum eta_t diverges while sum eta_t^2 converges: check numerically that
  // partial sums behave accordingly.
  const opt::HarmonicSchedule schedule(1.0);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int t = 0; t < 100000; ++t) {
    sum += schedule.step(t);
    sum_sq += schedule.step(t) * schedule.step(t);
  }
  EXPECT_GT(sum, 10.0);                 // diverging (log growth)
  EXPECT_NEAR(sum_sq, 1.644934, 1e-4);  // pi^2 / 6
}

TEST(Schedules, ConstantAndPolynomial) {
  const opt::ConstantSchedule constant(0.01);
  EXPECT_DOUBLE_EQ(constant.step(1000), 0.01);
  EXPECT_FALSE(constant.is_diminishing());

  const opt::PolynomialSchedule poly(2.0, 0.75);
  EXPECT_DOUBLE_EQ(poly.step(0), 2.0);
  EXPECT_GT(poly.step(10), poly.step(100));
  EXPECT_TRUE(poly.is_diminishing());
  EXPECT_THROW(opt::PolynomialSchedule(1.0, 0.4), std::invalid_argument);
  EXPECT_THROW(opt::PolynomialSchedule(1.0, 1.5), std::invalid_argument);
}

TEST(NumericalGradient, RejectsNonPositiveStep) {
  const opt::SquaredDistanceCost q(Vector{0.0});
  EXPECT_THROW(opt::numerical_gradient(q, Vector{1.0}, 0.0), std::invalid_argument);
}

}  // namespace
