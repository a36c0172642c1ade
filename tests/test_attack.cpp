// Unit tests for the Byzantine fault behaviours.
#include <gtest/gtest.h>

#include "abft/attack/adaptive_faults.hpp"
#include "abft/attack/simple_faults.hpp"

namespace {

using namespace abft;
using attack::AttackContext;
using attack::Vector;

struct ContextFixture {
  Vector estimate{0.5, 0.5};
  Vector true_gradient{1.0, -2.0};
  std::vector<Vector> honest{Vector{1.0, 0.0}, Vector{3.0, 0.0}};
  util::Rng rng{99};

  [[nodiscard]] AttackContext context(int round = 0) {
    return AttackContext{estimate, true_gradient, honest, round};
  }
};

TEST(GradientReverse, NegatesTrueGradient) {
  ContextFixture fx;
  const attack::GradientReverseFault fault;
  const auto out = fault.emit(fx.context(), fx.rng);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Vector{-1.0, 2.0}));
}

TEST(RandomGaussian, MatchesDimensionAndScale) {
  ContextFixture fx;
  const attack::RandomGaussianFault fault(200.0);
  double sum_sq = 0.0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const auto out = fault.emit(fx.context(i), fx.rng);
    ASSERT_TRUE(out.has_value());
    ASSERT_EQ(out->dim(), 2);
    sum_sq += out->squared_norm();
  }
  // E||g||^2 = d * stddev^2 = 2 * 40000.
  EXPECT_NEAR(sum_sq / trials, 80000.0, 8000.0);
  EXPECT_THROW(attack::RandomGaussianFault(-1.0), std::invalid_argument);
}

TEST(Zero, SendsZeroVector) {
  ContextFixture fx;
  const attack::ZeroFault fault;
  const auto out = fault.emit(fx.context(), fx.rng);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, Vector(2));
}

TEST(SignFlipScale, AmplifiesReversal) {
  ContextFixture fx;
  const attack::SignFlipScaleFault fault(3.0);
  const auto out = fault.emit(fx.context(), fx.rng);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Vector{-3.0, 6.0}));
  EXPECT_THROW(attack::SignFlipScaleFault(0.0), std::invalid_argument);
}

TEST(Rotating, SweepsDirectionsOverRounds) {
  ContextFixture fx;
  const attack::RotatingFault fault(5.0, 1.5707963267948966);  // quarter turn per round
  const auto r0 = fault.emit(fx.context(0), fx.rng);
  const auto r1 = fault.emit(fx.context(1), fx.rng);
  const auto r2 = fault.emit(fx.context(2), fx.rng);
  ASSERT_TRUE(r0 && r1 && r2);
  EXPECT_NEAR((*r0)[0], 5.0, 1e-9);
  EXPECT_NEAR((*r0)[1], 0.0, 1e-9);
  EXPECT_NEAR((*r1)[0], 0.0, 1e-9);
  EXPECT_NEAR((*r1)[1], 5.0, 1e-9);
  EXPECT_NEAR((*r2)[0], -5.0, 1e-9);
  EXPECT_NEAR(r0->norm(), 5.0, 1e-9);
  EXPECT_THROW(attack::RotatingFault(0.0, 1.0), std::invalid_argument);
}

TEST(Silent, NeverSends) {
  ContextFixture fx;
  const attack::SilentFault fault;
  EXPECT_FALSE(fault.emit(fx.context(), fx.rng).has_value());
}

TEST(LittleIsEnough, HidesInsideHonestSpread) {
  ContextFixture fx;
  const attack::LittleIsEnoughFault fault(1.0);
  const auto out = fault.emit(fx.context(), fx.rng);
  ASSERT_TRUE(out.has_value());
  // Honest coordinate 0: mean 2, population stddev 1 -> 2 - 1 = 1.
  EXPECT_NEAR((*out)[0], 1.0, 1e-12);
  EXPECT_NEAR((*out)[1], 0.0, 1e-12);
}

TEST(LittleIsEnough, FallsBackWithoutHonestView) {
  ContextFixture fx;
  fx.honest.clear();
  const attack::LittleIsEnoughFault fault(1.0);
  const auto out = fault.emit(fx.context(), fx.rng);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, fx.true_gradient);
}

TEST(MeanReverse, ReversesHonestMean) {
  ContextFixture fx;
  const attack::MeanReverseFault fault(2.0);
  const auto out = fault.emit(fx.context(), fx.rng);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Vector{-4.0, 0.0}));
}

TEST(MimicSmallest, CopiesSmallestHonestGradient) {
  ContextFixture fx;
  const attack::MimicSmallestFault fault;
  const auto out = fault.emit(fx.context(), fx.rng);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (Vector{1.0, 0.0}));
}

TEST(FaultNames, AreStable) {
  EXPECT_EQ(attack::GradientReverseFault{}.name(), "gradient-reverse");
  EXPECT_EQ(attack::RandomGaussianFault{1.0}.name(), "random");
  EXPECT_EQ(attack::SilentFault{}.name(), "silent");
  EXPECT_EQ(attack::LittleIsEnoughFault{1.0}.name(), "little-is-enough");
}

}  // namespace
