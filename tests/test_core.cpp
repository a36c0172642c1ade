// Unit and property tests for the resilience core: the
// subset-minimization oracles, the (2f, eps)-redundancy analyzer, the
// Theorem-2 exhaustive algorithm, closed-form bounds, and the Theorem-1 /
// Lemma-1 lower-bound gadgets.
#include <gtest/gtest.h>

#include <numeric>

#include "abft/core/bounds.hpp"
#include "abft/core/certify.hpp"
#include "abft/core/exhaustive.hpp"
#include "abft/core/lowerbound.hpp"
#include "abft/core/redundancy.hpp"
#include "abft/core/subset_solver.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;
using core::Vector;

TEST(MeanSubsetSolver, SolvesCentroids) {
  const core::MeanSubsetSolver solver(
      {Vector{0.0, 0.0}, Vector{2.0, 0.0}, Vector{0.0, 4.0}});
  EXPECT_EQ(solver.num_agents(), 3);
  EXPECT_EQ(solver.dim(), 2);
  EXPECT_EQ(solver.solve({0, 1}), (Vector{1.0, 0.0}));
  EXPECT_EQ(solver.solve({0, 1, 2}), (Vector{2.0 / 3.0, 4.0 / 3.0}));
}

TEST(SubsetValidation, RejectsBadSubsets) {
  const core::MeanSubsetSolver solver({Vector{0.0}, Vector{1.0}});
  EXPECT_THROW(solver.solve({}), std::invalid_argument);
  EXPECT_THROW(solver.solve({1, 0}), std::invalid_argument);   // unsorted
  EXPECT_THROW(solver.solve({0, 0}), std::invalid_argument);   // duplicate
  EXPECT_THROW(solver.solve({0, 2}), std::invalid_argument);   // out of range
}

TEST(CachedSubsetSolver, CachesAndReturnsSameAnswers) {
  const core::MeanSubsetSolver inner({Vector{0.0}, Vector{2.0}, Vector{4.0}});
  const core::CachedSubsetSolver cached(inner);
  const auto first = cached.solve({0, 2});
  const auto second = cached.solve({0, 2});
  EXPECT_EQ(first, second);
  EXPECT_EQ(cached.cache_size(), 1u);
  (void)cached.solve({0, 1});
  EXPECT_EQ(cached.cache_size(), 2u);
}

// --------------------------- redundancy -----------------------------------

TEST(Redundancy, ZeroWhenAllAgentsAgree) {
  // Identical centers: every subset minimizes at the same point.
  const core::MeanSubsetSolver solver(std::vector<Vector>(6, Vector{1.0, 1.0}));
  const auto report = core::measure_redundancy(solver, 2);
  EXPECT_DOUBLE_EQ(report.epsilon, 0.0);
  EXPECT_DOUBLE_EQ(report.epsilon_all_sizes, 0.0);
  EXPECT_GT(report.pairs_checked, 0);
}

TEST(Redundancy, HandComputableInstance) {
  // n = 3, f = 1: centers 0, 1, 2 on the line.  Sets S of size 2, subsets
  // S-hat of size 1.  Worst pair: S = {0, 2} (mean 1) vs {0} or {2} -> 1.
  const core::MeanSubsetSolver solver({Vector{0.0}, Vector{1.0}, Vector{2.0}});
  const auto report = core::measure_redundancy(solver, 1);
  EXPECT_DOUBLE_EQ(report.epsilon, 1.0);
  EXPECT_EQ(report.pairs_checked, 6);  // 3 sets x 2 subsets
}

TEST(Redundancy, FZeroReportsZero) {
  const core::MeanSubsetSolver solver({Vector{0.0}, Vector{5.0}});
  const auto report = core::measure_redundancy(solver, 0);
  EXPECT_DOUBLE_EQ(report.epsilon, 0.0);
  EXPECT_EQ(report.pairs_checked, 0);
}

TEST(Redundancy, EpsilonGrowsWithSpread) {
  util::Rng rng(31);
  double previous = 0.0;
  for (const double spread : {0.1, 1.0, 10.0}) {
    std::vector<Vector> centers;
    util::Rng local(7);  // same shape, different scale
    for (int i = 0; i < 6; ++i) {
      centers.push_back(Vector{spread * local.normal(), spread * local.normal()});
    }
    const core::MeanSubsetSolver solver(centers);
    const double epsilon = core::measure_redundancy(solver, 1).epsilon;
    EXPECT_GT(epsilon, previous);
    previous = epsilon;
  }
}

TEST(Redundancy, HasRedundancyPredicate) {
  const core::MeanSubsetSolver solver({Vector{0.0}, Vector{1.0}, Vector{2.0}});
  EXPECT_TRUE(core::has_redundancy(solver, 1, 1.0));
  EXPECT_FALSE(core::has_redundancy(solver, 1, 0.5));
}

TEST(Redundancy, SampledEstimateIsALowerBoundThatConverges) {
  util::Rng center_rng(61);
  std::vector<Vector> centers;
  for (int i = 0; i < 8; ++i) centers.push_back(Vector{center_rng.normal(), center_rng.normal()});
  const core::MeanSubsetSolver solver(centers);
  const double exact = core::measure_redundancy(solver, 2).epsilon;
  // Same seed for both estimates: the 2000-sample run replays the 5-sample
  // run's draws first, so its max can only grow.
  util::Rng rng_few(62);
  util::Rng rng_many(62);
  const double few = core::estimate_redundancy(solver, 2, 5, rng_few);
  const double many = core::estimate_redundancy(solver, 2, 2000, rng_many);
  EXPECT_LE(few, exact + 1e-12);
  EXPECT_LE(many, exact + 1e-12);
  EXPECT_GE(many, few - 1e-12);                   // superset of draws
  EXPECT_NEAR(many, exact, 0.05 * exact + 1e-9);  // dense sampling ~ exact
}

TEST(Redundancy, SampledEstimateValidation) {
  const core::MeanSubsetSolver solver({Vector{0.0}, Vector{1.0}, Vector{2.0}});
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(core::estimate_redundancy(solver, 0, 10, rng), 0.0);
  EXPECT_THROW(core::estimate_redundancy(solver, 1, 0, rng), std::invalid_argument);
}

TEST(Redundancy, RequiresEnoughAgents) {
  const core::MeanSubsetSolver solver({Vector{0.0}, Vector{1.0}});
  EXPECT_THROW(core::measure_redundancy(solver, 1), std::invalid_argument);  // n - 2f = 0
}

// --------------------------- exhaustive (Theorem 2) ------------------------

TEST(Exhaustive, FZeroReturnsGlobalArgmin) {
  const core::MeanSubsetSolver solver({Vector{0.0}, Vector{2.0}});
  const auto result = core::exhaustive_resilient_solve(solver, 0);
  EXPECT_EQ(result.output, (Vector{1.0}));
  EXPECT_EQ(result.chosen, (std::vector<int>{0, 1}));
}

TEST(Exhaustive, RejectsInfeasibleF) {
  const core::MeanSubsetSolver solver({Vector{0.0}, Vector{1.0}});
  EXPECT_THROW(core::exhaustive_resilient_solve(solver, 1), std::invalid_argument);  // f >= n/2
}

TEST(Exhaustive, ExactRecoveryUnderTwoFRedundancy) {
  // 2f-redundancy (eps = 0): all agents share one minimizer; with f of them
  // replaced by adversarial costs, the algorithm still returns it exactly
  // (Appendix B: (f, 0)-resilience == exact fault-tolerance).
  std::vector<Vector> centers(5, Vector{3.0, -1.0});  // n = 7, f = 2 honest core
  centers.push_back(Vector{100.0, 100.0});            // faulty
  centers.push_back(Vector{-100.0, 50.0});            // faulty
  const core::MeanSubsetSolver solver(centers);
  const auto result = core::exhaustive_resilient_solve(solver, 2);
  EXPECT_TRUE(linalg::approx_equal(result.output, Vector{3.0, -1.0}, 1e-9));
  EXPECT_NEAR(result.score, 0.0, 1e-12);
}

TEST(Exhaustive, TheoremTwoGuaranteeOnRandomInstances) {
  // Property: for every set G of n - f honest agents, the output is within
  // 2 * eps_received of argmin over G, where eps_received is the redundancy
  // of the *received* costs (honest + faulty), since the algorithm only sees
  // those.  We check the paper's actual guarantee: dist(output, argmin_G)
  // <= 2 * eps_honest where eps_honest comes from the honest instance —
  // via the proof's chain through r_S <= eps.
  util::Rng rng(47);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 6;
    const int f = 1;
    std::vector<Vector> centers;
    for (int i = 0; i < n - f; ++i) {
      centers.push_back(Vector{rng.normal(), rng.normal()});
    }
    // Byzantine agent's "received" cost: arbitrary center.
    centers.push_back(Vector{10.0 * rng.normal(), 10.0 * rng.normal()});
    const core::MeanSubsetSolver received(centers);

    // eps of the received instance (what the algorithm can rely on).
    const double eps = core::measure_redundancy(received, f).epsilon;
    const auto result = core::exhaustive_resilient_solve(received, f);

    // Honest set = {0, ..., n-f-1}.
    std::vector<int> honest(static_cast<std::size_t>(n - f));
    std::iota(honest.begin(), honest.end(), 0);
    const Vector x_honest = received.solve(honest);
    EXPECT_LE(linalg::distance(result.output, x_honest), 2.0 * eps + 1e-9)
        << "trial " << trial;
  }
}

TEST(Exhaustive, ScoreNeverExceedsHonestEpsilon) {
  // From the proof: r_S <= r_G <= eps for the honest G, so the chosen score
  // is bounded by the honest instance's redundancy.
  util::Rng rng(53);
  const int n = 7;
  const int f = 2;
  std::vector<Vector> centers;
  for (int i = 0; i < n; ++i) centers.push_back(Vector{rng.normal(), rng.normal()});
  const core::MeanSubsetSolver solver(centers);
  const double eps = core::measure_redundancy(solver, f).epsilon;
  const auto result = core::exhaustive_resilient_solve(solver, f);
  EXPECT_LE(result.score, eps + 1e-12);
}

// --------------------------- certification ---------------------------------

TEST(Certify, AcceptsTheoremTwoOutput) {
  util::Rng rng(83);
  std::vector<Vector> centers;
  for (int i = 0; i < 7; ++i) centers.push_back(Vector{rng.normal(), rng.normal()});
  const core::MeanSubsetSolver solver(centers);
  const double eps = core::measure_redundancy(solver, 2).epsilon;
  const auto result = core::exhaustive_resilient_solve(solver, 2);
  const auto cert = core::certify_resilience(solver, 2, result.output, 2.0 * eps);
  EXPECT_TRUE(cert.satisfied);
  EXPECT_LE(cert.worst_distance, 2.0 * eps + 1e-12);
  EXPECT_EQ(cert.subsets_checked, 21);  // C(7, 5)
  EXPECT_EQ(cert.worst_subset.size(), 5u);
}

TEST(Certify, RejectsFarOutput) {
  const core::MeanSubsetSolver solver({Vector{0.0}, Vector{1.0}, Vector{2.0}});
  const auto cert = core::certify_resilience(solver, 1, Vector{100.0}, 1.0);
  EXPECT_FALSE(cert.satisfied);
  EXPECT_GT(cert.worst_distance, 90.0);
}

TEST(Certify, ValidatesArguments) {
  const core::MeanSubsetSolver solver({Vector{0.0}, Vector{1.0}});
  EXPECT_THROW(core::certify_resilience(solver, 1, Vector{0.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(core::certify_resilience(solver, 0, Vector{0.0, 0.0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(core::certify_resilience(solver, 0, Vector{0.0}, -1.0), std::invalid_argument);
}

// --------------------------- bounds ----------------------------------------

TEST(Bounds, FeasibilityIsLemmaOne) {
  EXPECT_TRUE(core::resilience_feasible(3, 1));
  EXPECT_FALSE(core::resilience_feasible(2, 1));
  EXPECT_FALSE(core::resilience_feasible(6, 3));
  EXPECT_TRUE(core::resilience_feasible(7, 3));
}

TEST(Bounds, Theorem4MatchesFormula) {
  const auto bound = core::cge_bound_theorem4(10, 1, 1.0, 1.0);
  // alpha = 1 - 0.1 * 3 = 0.7; D = 4 * 1 * 1 / 0.7.
  EXPECT_TRUE(bound.valid);
  EXPECT_NEAR(bound.alpha, 0.7, 1e-12);
  EXPECT_NEAR(bound.factor, 4.0 / 0.7, 1e-9);
}

TEST(Bounds, Theorem4InvalidWhenAlphaNonPositive) {
  // The paper's own experiment: n=6, f=1, mu=2, gamma=0.712 -> alpha < 0.
  const auto bound = core::cge_bound_theorem4(6, 1, 2.0, 0.712);
  EXPECT_FALSE(bound.valid);
  EXPECT_LT(bound.alpha, 0.0);
}

TEST(Bounds, Theorem5ValidOnPaperInstance) {
  const auto bound = core::cge_bound_theorem5(6, 1, 2.0, 0.712);
  EXPECT_TRUE(bound.valid);
  EXPECT_NEAR(bound.alpha, 1.0 - (1.0 / 6.0) * (1.0 + 2.0 / 0.712), 1e-12);
  EXPECT_NEAR(bound.factor, 3.0 * 4.0 * 2.0 / (bound.alpha * 6.0 * 0.712), 1e-9);
}

TEST(Bounds, Theorem5RequiresFAtMostThirdOfN) {
  const auto bound = core::cge_bound_theorem5(8, 3, 1.0, 1.0);
  EXPECT_FALSE(bound.valid);  // 3f = 9 > 8
}

TEST(Bounds, Theorem5TighterThanTheorem4WhenBothValid) {
  // With small f/n both alphas are positive; Theorem 5's alpha is larger.
  const auto t4 = core::cge_bound_theorem4(20, 1, 1.0, 1.0);
  const auto t5 = core::cge_bound_theorem5(20, 1, 1.0, 1.0);
  ASSERT_TRUE(t4.valid && t5.valid);
  EXPECT_GT(t5.alpha, t4.alpha);
}

TEST(Bounds, Theorem6ThresholdAndFactor) {
  const double threshold = core::cwtm_lambda_threshold(4, 2.0, 1.0);
  EXPECT_NEAR(threshold, 1.0 / 4.0, 1e-12);  // gamma / (mu sqrt(d)) = 1 / (2*2)
  const auto valid = core::cwtm_bound_theorem6(10, 4, 2.0, 1.0, 0.1);
  EXPECT_TRUE(valid.valid);
  // D' = 2 * 2 * 10 * 2 * 0.1 / (1 - 2*2*0.1) = 8 / 0.6.
  EXPECT_NEAR(valid.factor, 8.0 / 0.6, 1e-9);
  const auto invalid = core::cwtm_bound_theorem6(10, 4, 2.0, 1.0, 0.3);
  EXPECT_FALSE(invalid.valid);
}

TEST(Bounds, GammaGreaterThanMuRejected) {
  EXPECT_THROW(core::cge_bound_theorem4(10, 1, 1.0, 2.0), std::invalid_argument);
}

TEST(Bounds, Lemma4Formulas) {
  const auto bounds = core::lemma4_bounds(6, 1, 2.0, 0.089);
  EXPECT_NEAR(bounds.subset_sum_bound, 4.0 * 2.0 * 0.089, 1e-12);
  EXPECT_NEAR(bounds.single_bound, 2.0 * 4.0 * 2.0 * 0.089, 1e-12);
  EXPECT_THROW(core::lemma4_bounds(6, 3, 1.0, 0.1), std::invalid_argument);  // f > n/3
}

// --------------------------- lower bounds ----------------------------------

TEST(LowerBound, GapInstanceGeometry) {
  const auto gap = core::make_gap_instance(6, 1, 0.5, 0.1);
  EXPECT_EQ(gap.costs.size(), 6u);
  EXPECT_EQ(gap.set_s.size(), 5u);
  EXPECT_EQ(gap.set_shat.size(), 4u);
  EXPECT_EQ(gap.set_b.size(), 1u);
  // Construction promises: argmin over S and over B u S-hat sit 2(eps+delta)
  // apart, symmetric around the S-hat minimizer (0).
  EXPECT_NEAR(core::subset_minimizer(gap, gap.set_s), gap.x_s, 1e-12);
  std::vector<int> b_shat = gap.set_shat;
  b_shat.insert(b_shat.end(), gap.set_b.begin(), gap.set_b.end());
  std::sort(b_shat.begin(), b_shat.end());
  EXPECT_NEAR(core::subset_minimizer(gap, b_shat), gap.x_b_shat, 1e-12);
  EXPECT_NEAR(gap.x_b_shat - gap.x_s, 2.0 * (0.5 + 0.1), 1e-12);
}

TEST(LowerBound, NoOutputSatisfiesBothWorlds) {
  // Theorem 1's contradiction: whatever the deterministic algorithm outputs,
  // it violates (f, eps)-resilience in one of the two indistinguishable
  // worlds.  Scan candidate outputs across the whole relevant interval.
  const auto gap = core::make_gap_instance(5, 2, 0.25, 0.05);
  for (double candidate = -2.0; candidate <= 2.0; candidate += 0.01) {
    EXPECT_FALSE(core::output_satisfies_both_worlds(gap, candidate));
  }
}

TEST(LowerBound, ShrinkingDeltaApproachesTightness) {
  // As delta -> 0 the two admissible intervals close to within any margin:
  // with delta = 0 they would just touch — eps is exactly the threshold.
  const auto gap = core::make_gap_instance(4, 1, 1.0, 1e-9);
  EXPECT_NEAR(gap.x_b_shat - gap.x_s, 2.0, 1e-6);
}

TEST(LowerBound, RejectsDegenerateParameters) {
  EXPECT_THROW(core::make_gap_instance(4, 2, 0.1, 0.1), std::invalid_argument);  // f >= n/2
  EXPECT_THROW(core::make_gap_instance(4, 0, 0.1, 0.1), std::invalid_argument);  // f < 1
  EXPECT_THROW(core::make_gap_instance(4, 1, 0.1, 0.0), std::invalid_argument);  // delta = 0
}

}  // namespace
