// Golden end-to-end regression tests: short exact-mode runs of every
// registry rule on the quadratic workload (plus the original CWTM / Krum /
// GeoMed regression-workload goldens) with checked-in final costs.  The
// tolerances are tight enough that a driver or kernel refactor that
// silently changes convergence (a dropped gradient, a reordered filter
// input, a mis-threaded rng stream) fails loudly, yet loose enough to
// absorb a host libm's last-ulp differences (exact mode itself has the
// same bits on every ISA: the build never contracts a * b + c).  With
// every rule pinned in exact mode, any drift
// the relaxed-parity fast mode introduces end-to-end is detectable against
// these numbers — the FastMode tests below bound it explicitly.
//
// Regenerate goldens only for an *intentional* semantic change:
//
//   ABFT_PRINT_GOLDENS=1 ./test_golden_e2e --gtest_filter='*RegenerateGoldens*'
//
// prints every fixture's current value in copy-pasteable form.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "abft/agg/registry.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/opt/quadratic.hpp"
#include "abft/opt/schedule.hpp"
#include "abft/regress/problem.hpp"
#include "abft/sim/dgd.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;
using linalg::Vector;

struct GoldenCase {
  std::string_view rule;
  double final_cost;
  double tolerance;
};

// --------------------------- quadratic workload -----------------------------

/// 7 squared-distance agents with deliberately irregular centers (evenly
/// spaced centers create exact pairwise-distance ties, and a selection rule
/// like Krum then flips on ISA-level fp noise), gradient-reverse on the
/// last, f = 1; cost measured over the 6 honest agents.
double quadratic_final_cost(std::string_view rule, int agg_threads,
                            agg::AggMode mode = agg::AggMode::exact) {
  const opt::HarmonicSchedule schedule(0.4);
  std::vector<opt::SquaredDistanceCost> costs;
  for (int i = 0; i < 7; ++i) {
    const double a = 1.37 * i - 3.1 + 0.211 * i * i;
    const double b = 0.53 * i - 1.45 - 0.097 * i * i;
    costs.emplace_back(Vector{a, b});
  }
  std::vector<const opt::CostFunction*> ptrs;
  for (auto& c : costs) ptrs.push_back(&c);
  const attack::GradientReverseFault fault;
  auto roster = sim::honest_roster(ptrs);
  sim::assign_fault(roster, 6, fault);
  sim::DgdConfig config{Vector{8.0, -8.0}, opt::Box::centered_cube(2, 20.0), &schedule,
                        300,               1,
                        77,                0.0,
                        false,             agg_threads};
  config.agg_mode = mode;
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto aggregator = agg::make_aggregator(rule);
  const auto trace = simulation.run(*aggregator);
  const opt::AggregateCost honest_cost(
      std::vector<const opt::CostFunction*>(ptrs.begin(), ptrs.end() - 1));
  return honest_cost.value(trace.final_estimate());
}

TEST(GoldenE2e, QuadraticFinalCosts) {
  const GoldenCase cases[] = {
      {"cwtm", 115.525689080964, 1e-3},
      {"krum", 123.794918833372, 1e-3},
      {"geomed", 123.492099419682, 1e-3},
  };
  for (const auto& c : cases) {
    EXPECT_NEAR(quadratic_final_cost(c.rule, 1), c.final_cost, c.tolerance) << c.rule;
  }
}

TEST(GoldenE2e, QuadraticFinalCostsAllRemainingRules) {
  // The rules the original golden set skipped, pinned in exact mode so any
  // fast-mode (or kernel-refactor) drift in them is detectable end-to-end.
  // n = 7, f = 1 satisfies every precondition (bulyan's n >= 4f + 3
  // included).  CGE returns the sum of n - f gradients, so its trajectory
  // (and golden) differs in scale from the mean-like rules — intentional.
  const GoldenCase cases[] = {
      {"average", 127.680687386035, 1e-3},
      {"cwmed", 123.115333504718, 1e-3},
      {"bulyan", 120.729426921158, 1e-3},
      {"multikrum", 104.961947167433, 1e-3},
      {"cge", 104.959761666667, 1e-3},
      {"cclip", 120.70991087775, 1e-3},
      {"normclip", 113.14116852692, 1e-3},
      {"gmom", 107.115878901948, 1e-3},
  };
  for (const auto& c : cases) {
    EXPECT_NEAR(quadratic_final_cost(c.rule, 1), c.final_cost, c.tolerance) << c.rule;
  }
}

TEST(GoldenE2e, QuadraticFastModeWithinEnvelope) {
  // The relaxed-parity fast mode on the same fixture: per-round kernel
  // drift is tolerance-bounded (tests/test_agg_fast.cpp), so after 300
  // rounds the final honest cost must still land within a small envelope of
  // the exact golden — far inside the eps-resilience envelope of Theorem 3,
  // where rule-to-rule differences are of order 1e0 on this fixture.
  const GoldenCase cases[] = {
      {"cwtm", 115.525689080964, 1e-3},
      {"cwmed", 123.115333504718, 1e-3},
      {"krum", 123.794918833372, 1e-3},
      {"geomed", 123.492099419682, 1e-2},
      {"gmom", 107.115878901948, 1e-2},
      {"bulyan", 120.729426921158, 1e-3},
      {"multikrum", 104.961947167433, 1e-3},
      {"cclip", 120.70991087775, 1e-2},
      {"average", 127.680687386035, 1e-3},
      {"cge", 104.959761666667, 1e-3},
      {"normclip", 113.14116852692, 1e-3},
  };
  for (const auto& c : cases) {
    EXPECT_NEAR(quadratic_final_cost(c.rule, 1, agg::AggMode::fast), c.final_cost,
                c.tolerance)
        << c.rule << " (fast mode)";
  }
}

/// High-dimensional variant (d = 1100): the d = 2 fixtures above route fast
/// mode back to the exact kernels (the laned Weiszfeld engages at d >= 16,
/// the AVX-512 Gram tile needs a full 1024-wide chunk), so they cannot see
/// a bug in those kernels.  Here every fast kernel actually runs.  Exact
/// and fast final costs are compared in-process, so no checked-in golden is
/// needed — the assertion IS the envelope.
double quadratic_highdim_final_cost(std::string_view rule, agg::AggMode mode) {
  constexpr int kDim = 1100;
  const opt::HarmonicSchedule schedule(0.4);
  util::Rng rng(2027);
  std::vector<opt::SquaredDistanceCost> costs;
  for (int i = 0; i < 7; ++i) {
    std::vector<double> center(kDim);
    for (auto& c : center) c = rng.normal();
    costs.emplace_back(Vector(std::move(center)));
  }
  std::vector<const opt::CostFunction*> ptrs;
  for (auto& c : costs) ptrs.push_back(&c);
  const attack::GradientReverseFault fault;
  auto roster = sim::honest_roster(ptrs);
  sim::assign_fault(roster, 6, fault);
  std::vector<double> start(kDim, 3.0);
  sim::DgdConfig config{Vector(std::move(start)),
                        opt::Box::centered_cube(kDim, 20.0),
                        &schedule,
                        120,
                        1,
                        77,
                        0.0,
                        false,
                        1};
  config.agg_mode = mode;
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto aggregator = agg::make_aggregator(rule);
  const auto trace = simulation.run(*aggregator);
  const opt::AggregateCost honest_cost(
      std::vector<const opt::CostFunction*>(ptrs.begin(), ptrs.end() - 1));
  return honest_cost.value(trace.final_estimate());
}

TEST(GoldenE2e, QuadraticHighDimFastStaysInEnvelope) {
  // Every rule with a genuine fast fork at this shape: the Weiszfeld pair,
  // the window-sweep Bulyan, the Gram-kernel selection rules, the laned
  // trimmed/clipped sums.
  for (const auto rule :
       {"cwtm", "cwmed", "krum", "multikrum", "geomed", "gmom", "bulyan", "cclip"}) {
    const double exact = quadratic_highdim_final_cost(rule, agg::AggMode::exact);
    const double fast = quadratic_highdim_final_cost(rule, agg::AggMode::fast);
    EXPECT_NEAR(fast, exact, 1e-5 * (1.0 + exact)) << rule << " (high-dim fast envelope)";
  }
}

TEST(GoldenE2e, QuadraticFinalCostsThreaded) {
  // The goldens hold verbatim under round-level parallelism.
  const GoldenCase cases[] = {
      {"cwtm", 115.525689080964, 1e-3},
      {"geomed", 123.492099419682, 1e-3},
  };
  for (const auto& c : cases) {
    EXPECT_NEAR(quadratic_final_cost(c.rule, 4), c.final_cost, c.tolerance) << c.rule;
  }
}

// --------------------------- regression workload ----------------------------

/// The Appendix-J linear-regression instance (n = 6, d = 2), with
/// gradient-reverse on agent 0 and f = 1; cost measured over agents 1..5.
double regression_final_cost(std::string_view rule, double* distance_to_xh = nullptr,
                             agg::AggMode mode = agg::AggMode::exact) {
  const auto problem = regress::RegressionProblem::paper_instance();
  const opt::HarmonicSchedule schedule(1.5);
  const attack::GradientReverseFault fault;
  auto roster = sim::honest_roster(problem.costs());
  sim::assign_fault(roster, 0, fault);
  sim::DgdConfig config{Vector{0.0, 0.0}, opt::Box::centered_cube(2, 1000.0), &schedule,
                        400,              1,
                        11,               0.0,
                        false,            1};
  config.agg_mode = mode;
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto aggregator = agg::make_aggregator(rule);
  const auto trace = simulation.run(*aggregator);
  const std::vector<int> honest_agents{1, 2, 3, 4, 5};
  const opt::AggregateCost honest_cost(problem.costs(honest_agents));
  if (distance_to_xh != nullptr) {
    *distance_to_xh =
        linalg::distance(trace.final_estimate(), problem.subset_minimizer(honest_agents));
  }
  return honest_cost.value(trace.final_estimate());
}

TEST(GoldenE2e, RegressionFinalCosts) {
  const GoldenCase cases[] = {
      {"cwtm", 0.00241259789444486, 1e-5},
      {"krum", 1.82829150050707, 1e-3},
      {"geomed", 0.00243838127920856, 1e-5},
  };
  for (const auto& c : cases) {
    EXPECT_NEAR(regression_final_cost(c.rule), c.final_cost, c.tolerance) << c.rule;
  }
}

TEST(GoldenE2e, RegressionFinalCostsAllRemainingRules) {
  // Exact-mode goldens for the rules the original regression set skipped.
  // Bulyan is absent: the paper instance has n = 6 < 4f + 3.  CGE's golden
  // reflects its sum-not-mean output scale driving a different trajectory.
  const GoldenCase cases[] = {
      {"average", 0.0318296229643472, 1e-5},
      {"cwmed", 0.00266254802276085, 1e-5},
      {"multikrum", 0.00211278558909893, 1e-5},
      {"cge", 0.00211192186161183, 1e-5},
      {"cclip", 0.00227409924744552, 1e-5},
      {"normclip", 0.00281059664509269, 1e-5},
      {"gmom", 0.124952225193065, 1e-4},
  };
  for (const auto& c : cases) {
    EXPECT_NEAR(regression_final_cost(c.rule), c.final_cost, c.tolerance) << c.rule;
  }
}

TEST(GoldenE2e, RegressionFastModeWithinEnvelope) {
  // Fast mode on the regression fixture: the trimmed rules must still land
  // on the honest minimizer's cost plateau (the paper's (2f, eps)-resilience
  // behaviour), within a slightly relaxed tolerance for the Weiszfeld rule.
  EXPECT_NEAR(regression_final_cost("cwtm", nullptr, agg::AggMode::fast),
              0.00241259789444486, 1e-5);
  EXPECT_NEAR(regression_final_cost("geomed", nullptr, agg::AggMode::fast),
              0.00243838127920856, 1e-4);
  EXPECT_NEAR(regression_final_cost("cclip", nullptr, agg::AggMode::fast),
              0.00227409924744552, 1e-4);
}

TEST(GoldenE2e, RegenerateGoldens) {
  // Not a check: prints every fixture's current value in copy-pasteable
  // form when ABFT_PRINT_GOLDENS is set (see the file comment), so an
  // intentional semantic change can refresh the tables above mechanically.
  if (std::getenv("ABFT_PRINT_GOLDENS") == nullptr) {
    GTEST_SKIP() << "set ABFT_PRINT_GOLDENS=1 to print regeneration values";
  }
  const char* all_rules[] = {"average", "cge",    "cwtm",     "cwmed", "krum", "multikrum",
                             "geomed",  "gmom",   "bulyan",   "normclip", "cclip"};
  std::printf("--- quadratic workload (exact) ---\n");
  for (const auto rule : all_rules) {
    std::printf("  {\"%s\", %.15g, tol},\n", rule, quadratic_final_cost(rule, 1));
  }
  std::printf("--- quadratic workload (fast) ---\n");
  for (const auto rule : all_rules) {
    std::printf("  {\"%s\", %.15g, tol},\n", rule,
                quadratic_final_cost(rule, 1, agg::AggMode::fast));
  }
  std::printf("--- regression workload (exact; bulyan needs n >= 4f+3) ---\n");
  for (const auto rule : all_rules) {
    if (std::string_view(rule) == "bulyan") continue;
    std::printf("  {\"%s\", %.15g, tol},\n", rule, regression_final_cost(rule));
  }
  std::printf("--- regression workload (fast) ---\n");
  for (const auto rule : all_rules) {
    if (std::string_view(rule) == "bulyan") continue;
    std::printf("  {\"%s\", %.15g, tol},\n", rule,
                regression_final_cost(rule, nullptr, agg::AggMode::fast));
  }
}

TEST(GoldenE2e, RegressionTrimmedRulesApproachHonestMinimizer) {
  // Convergence sanity on top of the goldens: CWTM and GeoMed land close to
  // the honest minimizer x_H (the (2f, eps)-resilience behaviour the paper
  // proves); the honest optimum cost is ~0.00211.
  for (const auto rule : {"cwtm", "geomed"}) {
    double dist = 0.0;
    const double cost = regression_final_cost(rule, &dist);
    EXPECT_LT(dist, 0.02) << rule;
    EXPECT_LT(cost, 0.0025) << rule;
  }
}

}  // namespace
