// Scenario-axis coverage: partial participation, straggler schedules and
// mid-run churn, exercised with fixed seeds on every driver (server-based
// DGD, D-SGD, peer-to-peer DGD).  Each axis test checks the semantics that
// distinguish it from the others:
//   participation — the agent skips the round; never eliminated, the
//                   trajectory changes, and stragglers' rng streams differ
//   straggler     — the message is lost but the agent is NOT eliminated
//                   (step S1 does not apply to late messages)
//   churn         — a permanent departure counted separately from
//                   elimination; a faulty departure shrinks the usable f
// plus thread-count invariance and run-to-run determinism for each.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "abft/agg/registry.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/engine/round_engine.hpp"
#include "abft/learn/dataset.hpp"
#include "abft/learn/dsgd.hpp"
#include "abft/learn/softmax.hpp"
#include "abft/opt/quadratic.hpp"
#include "abft/opt/schedule.hpp"
#include "abft/p2p/p2p_dgd.hpp"
#include "abft/regress/problem.hpp"
#include "abft/sim/dgd.hpp"
#include "abft/sim/network.hpp"

namespace {

using namespace abft;
using linalg::Vector;

void expect_identical_traces(const sim::Trace& a, const sim::Trace& b, const char* label) {
  ASSERT_EQ(a.estimates.size(), b.estimates.size()) << label;
  EXPECT_EQ(a.eliminated_agents, b.eliminated_agents) << label;
  EXPECT_EQ(a.departed_agents, b.departed_agents) << label;
  for (std::size_t t = 0; t < a.estimates.size(); ++t) {
    ASSERT_EQ(a.estimates[t], b.estimates[t]) << label << ": diverged at iteration " << t;
  }
}

// ------------------------------ RoundPlanner --------------------------------

TEST(RoundPlanner, DefaultAxesAreNoOp) {
  engine::ScenarioAxes axes;
  EXPECT_FALSE(axes.enabled());
  engine::RoundPlanner planner(axes, 5);
  for (int t = 0; t < 3; ++t) {
    planner.begin_round(t);
    EXPECT_TRUE(planner.churned_this_round().empty());
    for (int a = 0; a < 5; ++a) {
      EXPECT_TRUE(planner.participates(a));
      EXPECT_FALSE(planner.straggles(a));
    }
  }
}

TEST(RoundPlanner, ChurnFiresOnceInRoundOrderAndCatchesUp) {
  engine::ScenarioAxes axes;
  axes.churn = {{4, 2}, {1, 0}, {4, 3}};
  EXPECT_TRUE(axes.enabled());
  engine::RoundPlanner planner(axes, 5);
  // A 1-based driver (D-SGD) starts at round 1: the round-1 event fires.
  planner.begin_round(1);
  ASSERT_EQ(planner.churned_this_round().size(), 1u);
  EXPECT_EQ(planner.churned_this_round()[0], 0);
  planner.begin_round(2);
  EXPECT_TRUE(planner.churned_this_round().empty());
  planner.begin_round(5);  // skipped past round 4: both events catch up
  ASSERT_EQ(planner.churned_this_round().size(), 2u);
  EXPECT_EQ(planner.churned_this_round()[0], 2);
  EXPECT_EQ(planner.churned_this_round()[1], 3);
}

TEST(RoundPlanner, RejectsBadAxes) {
  engine::ScenarioAxes zero_participation;
  zero_participation.participation = 0.0;
  EXPECT_THROW(engine::RoundPlanner(zero_participation, 3), std::invalid_argument);
  engine::ScenarioAxes certain_straggle;
  certain_straggle.straggler_probability = 1.0;
  EXPECT_THROW(engine::RoundPlanner(certain_straggle, 3), std::invalid_argument);
  engine::ScenarioAxes bad_agent;
  bad_agent.churn = {{0, 7}};
  EXPECT_THROW(engine::RoundPlanner(bad_agent, 3), std::invalid_argument);
}

// --------------------------- server-based DGD -------------------------------

sim::Trace run_dgd(const engine::ScenarioAxes& axes, int agg_threads,
                   std::vector<opt::SquaredDistanceCost>& costs) {
  static const opt::HarmonicSchedule schedule(0.4);
  std::vector<const opt::CostFunction*> ptrs;
  for (auto& c : costs) ptrs.push_back(&c);
  static const attack::GradientReverseFault fault;
  auto roster = sim::honest_roster(ptrs);
  sim::assign_fault(roster, static_cast<int>(costs.size()) - 1, fault);
  sim::DgdConfig config{Vector{8.0, -8.0}, opt::Box::centered_cube(2, 20.0), &schedule,
                        40,                1,
                        77,                0.0,
                        false,             agg_threads};
  config.axes = axes;
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto aggregator = agg::make_aggregator("cwtm");
  return simulation.run(*aggregator);
}

std::vector<opt::SquaredDistanceCost> quadratic_costs() {
  std::vector<opt::SquaredDistanceCost> costs;
  for (int i = 0; i < 7; ++i) {
    costs.emplace_back(Vector{1.37 * i - 3.1 + 0.211 * i * i, 0.53 * i - 1.45 - 0.097 * i * i});
  }
  return costs;
}

TEST(DgdScenario, PartialParticipationPerturbsWithoutEliminating) {
  auto costs = quadratic_costs();
  const auto baseline = run_dgd({}, 1, costs);
  engine::ScenarioAxes axes;
  axes.participation = 0.6;
  axes.perturbation_seed = 9001;
  const auto perturbed = run_dgd(axes, 1, costs);
  ASSERT_EQ(perturbed.estimates.size(), baseline.estimates.size());
  EXPECT_EQ(perturbed.eliminated_agents, 0);
  EXPECT_EQ(perturbed.departed_agents, 0);
  EXPECT_NE(perturbed.final_estimate(), baseline.final_estimate());
  // Seeded: repeatable, and bit-identical at every thread count.
  expect_identical_traces(perturbed, run_dgd(axes, 1, costs), "dgd participation repeat");
  expect_identical_traces(perturbed, run_dgd(axes, 4, costs), "dgd participation threads");
}

TEST(DgdScenario, StragglersAreLostButNeverEliminated) {
  auto costs = quadratic_costs();
  const auto baseline = run_dgd({}, 1, costs);
  engine::ScenarioAxes axes;
  axes.straggler_probability = 0.4;
  axes.perturbation_seed = 31337;
  const auto perturbed = run_dgd(axes, 1, costs);
  // A straggled message is late, not missing: step S1 must not fire.
  EXPECT_EQ(perturbed.eliminated_agents, 0);
  ASSERT_EQ(perturbed.estimates.size(), baseline.estimates.size());
  EXPECT_NE(perturbed.final_estimate(), baseline.final_estimate());
  expect_identical_traces(perturbed, run_dgd(axes, 4, costs), "dgd straggler threads");
}

TEST(DgdScenario, ChurnDepartsWithoutElimination) {
  auto costs = quadratic_costs();
  engine::ScenarioAxes axes;
  axes.churn = {{5, 1}, {12, 6}};  // honest agent 1, then the faulty agent
  const auto perturbed = run_dgd(axes, 1, costs);
  EXPECT_EQ(perturbed.departed_agents, 2);
  EXPECT_EQ(perturbed.eliminated_agents, 0);
  const auto baseline = run_dgd({}, 1, costs);
  EXPECT_NE(perturbed.final_estimate(), baseline.final_estimate());
  expect_identical_traces(perturbed, run_dgd(axes, 4, costs), "dgd churn threads");
}

// --------------------------------- D-SGD ------------------------------------

learn::DsgdSeries run_dsgd(const engine::ScenarioAxes& axes, int agg_threads) {
  learn::SyntheticOptions options;
  options.num_classes = 3;
  options.feature_dim = 6;
  options.examples_per_class = 30;
  options.noise_stddev = 0.3;
  util::Rng data_rng(31);
  const auto full = learn::make_synthetic(options, data_rng);
  util::Rng split_rng(32);
  auto split = learn::split_train_test(full, 0.2, split_rng);
  util::Rng shard_rng(33);
  const auto shards = learn::shard(split.train, 8, shard_rng);
  std::vector<learn::AgentFault> faults(8, learn::AgentFault::kHonest);
  faults[0] = learn::AgentFault::kGradientReverse;

  const learn::SoftmaxRegression model(options.feature_dim, options.num_classes);
  learn::DsgdConfig config;
  config.iterations = 30;
  config.batch_size = 8;
  config.step_size = 0.05;
  config.f = 1;
  config.eval_interval = 10;
  config.momentum = 0.5;
  config.seed = 88;
  config.agg_threads = agg_threads;
  config.axes = axes;
  const auto aggregator = agg::make_aggregator("cwtm");
  return learn::run_dsgd(model, Vector(model.param_dim()), shards, faults, split.test,
                         *aggregator, config);
}

TEST(DsgdScenario, PartialParticipationPerturbsDeterministically) {
  const auto baseline = run_dsgd({}, 1);
  engine::ScenarioAxes axes;
  axes.participation = 0.7;
  axes.perturbation_seed = 404;
  const auto perturbed = run_dsgd(axes, 1);
  EXPECT_NE(perturbed.final_params, baseline.final_params);
  const auto repeat = run_dsgd(axes, 1);
  EXPECT_EQ(perturbed.final_params, repeat.final_params);
  EXPECT_EQ(perturbed.train_loss, repeat.train_loss);
  const auto threaded = run_dsgd(axes, 4);
  EXPECT_EQ(perturbed.final_params, threaded.final_params);
}

TEST(DsgdScenario, StragglerAdvancesTheSamplingStreamParticipationDoesNot) {
  // Same coin stream (same perturbation seed and probability), different
  // axis: the excluded-agent sets per round coincide, so any divergence
  // comes from the semantic difference — a straggler still samples its
  // mini-batch and updates its momentum, a non-participant does neither.
  engine::ScenarioAxes participation;
  participation.participation = 0.7;
  participation.perturbation_seed = 777;
  engine::ScenarioAxes straggler;
  straggler.straggler_probability = 0.3;  // = 1 - participation: same coins
  straggler.perturbation_seed = 777;
  const auto out = run_dsgd(participation, 1);
  const auto late = run_dsgd(straggler, 1);
  EXPECT_NE(out.final_params, late.final_params);
  const auto threaded = run_dsgd(straggler, 4);
  EXPECT_EQ(late.final_params, threaded.final_params);
}

TEST(DsgdScenario, ChurnedAgentLeavesTheSeries) {
  engine::ScenarioAxes axes;
  axes.churn = {{10, 3}, {20, 0}};  // honest agent 3, then the faulty agent
  const auto perturbed = run_dsgd(axes, 1);
  EXPECT_EQ(perturbed.departed_agents, 2);
  const auto baseline = run_dsgd({}, 1);
  EXPECT_NE(perturbed.final_params, baseline.final_params);
  const auto threaded = run_dsgd(axes, 4);
  EXPECT_EQ(perturbed.final_params, threaded.final_params);
}

// ----------------------------- peer-to-peer ---------------------------------

p2p::P2pDgdResult run_p2p(const engine::ScenarioAxes& axes, int agg_threads) {
  static const regress::RegressionProblem problem = regress::RegressionProblem::paper_instance();
  static const opt::HarmonicSchedule schedule(1.5);
  auto roster = sim::honest_roster(problem.costs());
  static const attack::GradientReverseFault fault;
  sim::assign_fault(roster, 0, fault);
  p2p::P2pDgdConfig config{Vector{0.0, 0.0}, opt::Box::centered_cube(2, 1000.0), &schedule,
                           30,  1,           5,
                           agg_threads};
  config.axes = axes;
  const auto aggregator = agg::make_aggregator("cwtm");
  return p2p::run_p2p_dgd(roster, config, *aggregator);
}

TEST(P2pScenario, StragglingSourcePreservesHonestAgreement) {
  engine::ScenarioAxes axes;
  axes.straggler_probability = 0.3;
  axes.perturbation_seed = 5150;
  const auto result = run_p2p(axes, 1);
  // A straggled broadcast misses the round for EVERY receiver, so all honest
  // nodes still filter the same multiset and remain in lockstep.
  ASSERT_GE(result.traces.size(), 2u);
  for (std::size_t k = 1; k < result.traces.size(); ++k) {
    expect_identical_traces(result.traces[0], result.traces[k], "p2p straggler agreement");
  }
  EXPECT_EQ(result.eliminated_agents, 0);
  const auto baseline = run_p2p({}, 1);
  EXPECT_NE(result.traces[0].final_estimate(), baseline.traces[0].final_estimate());
  const auto threaded = run_p2p(axes, 4);
  for (std::size_t k = 0; k < result.traces.size(); ++k) {
    expect_identical_traces(result.traces[k], threaded.traces[k], "p2p straggler threads");
  }
}

TEST(P2pScenario, PartialParticipationBreaksLockstepDeterministically) {
  engine::ScenarioAxes axes;
  axes.participation = 0.75;
  axes.perturbation_seed = 62;
  const auto result = run_p2p(axes, 1);
  // Trace lengths stay uniform (a sitting-out node holds position and still
  // records), but the estimates drift apart across nodes by design.
  const auto baseline = run_p2p({}, 1);
  for (const auto& trace : result.traces) {
    EXPECT_EQ(trace.estimates.size(), baseline.traces[0].estimates.size());
  }
  bool diverged = false;
  for (std::size_t k = 1; k < result.traces.size() && !diverged; ++k) {
    diverged = !(result.traces[0].final_estimate() == result.traces[k].final_estimate());
  }
  EXPECT_TRUE(diverged) << "partial participation should desynchronize honest nodes";
  const auto threaded = run_p2p(axes, 4);
  for (std::size_t k = 0; k < result.traces.size(); ++k) {
    expect_identical_traces(result.traces[k], threaded.traces[k], "p2p participation threads");
  }
}

TEST(P2pScenario, StragglingFaultySourceStillAdvancesItsRngStream) {
  // Straggler semantics are identical across drivers: the message is late,
  // not unsent, so a stochastic fault keeps drawing from its stream.  With
  // the same perturbation coins, a straggler run and a participation run
  // must therefore diverge (under participation the absent fault never
  // draws), and the straggler run stays thread-count invariant.
  static const regress::RegressionProblem problem = regress::RegressionProblem::paper_instance();
  static const opt::HarmonicSchedule schedule(1.5);
  static const attack::RandomGaussianFault random_fault(80.0);
  auto make = [&](const engine::ScenarioAxes& axes, int threads) {
    auto roster = sim::honest_roster(problem.costs());
    sim::assign_fault(roster, 0, random_fault);
    p2p::P2pDgdConfig config{Vector{0.0, 0.0}, opt::Box::centered_cube(2, 1000.0), &schedule,
                             25,  1,           5,
                             threads};
    config.axes = axes;
    const auto aggregator = agg::make_aggregator("cwtm");
    return p2p::run_p2p_dgd(roster, config, *aggregator);
  };
  engine::ScenarioAxes straggler;
  straggler.straggler_probability = 0.3;
  straggler.perturbation_seed = 21;
  engine::ScenarioAxes participation;
  participation.participation = 0.7;  // = 1 - straggler_probability: same coins
  participation.perturbation_seed = 21;
  const auto late = make(straggler, 1);
  const auto out = make(participation, 1);
  EXPECT_NE(late.traces[0].final_estimate(), out.traces[0].final_estimate());
  const auto threaded = make(straggler, 4);
  for (std::size_t k = 0; k < late.traces.size(); ++k) {
    expect_identical_traces(late.traces[k], threaded.traces[k], "p2p faulty straggler threads");
  }
}

TEST(P2pScenario, ChurnedHonestNodeFreezesItsTrace) {
  engine::ScenarioAxes axes;
  axes.churn = {{10, 3}};  // roster node 3 is honest (fault sits on node 0)
  const auto result = run_p2p(axes, 1);
  EXPECT_EQ(result.departed_agents, 1);
  const auto baseline = run_p2p({}, 1);
  // honest_nodes = {1, 2, 3, 4, 5}; slot of roster node 3 is 2.
  ASSERT_EQ(result.honest_nodes, baseline.honest_nodes);
  for (std::size_t k = 0; k < result.traces.size(); ++k) {
    const std::size_t expected =
        result.honest_nodes[k] == 3 ? 11u : baseline.traces[k].estimates.size();
    EXPECT_EQ(result.traces[k].estimates.size(), expected) << "slot " << k;
  }
  const auto threaded = run_p2p(axes, 4);
  for (std::size_t k = 0; k < result.traces.size(); ++k) {
    expect_identical_traces(result.traces[k], threaded.traces[k], "p2p churn threads");
  }
}

// -------------------- deliver / straggler / silent interplay ----------------

TEST(EngineDeliver, StragglingByzantineIsLostNotEliminated) {
  // A Byzantine agent that stays silent is eliminated by step S1 the moment
  // its (empty) message reaches the round close — but a round in which it
  // STRAGGLES never reaches the close, so it must be lost-not-eliminated,
  // however suspicious the silence.  Seeded straggler schedule; transport
  // rejects empty messages like the sync network does.
  engine::RoundEngineConfig config;
  config.seed = 17;
  config.axes.straggler_probability = 0.9;
  config.axes.perturbation_seed = 9;
  engine::RoundEngine eng({0, 0, 0, 1}, 2, config);
  eng.reset(1);
  int straggle_rounds = 0;
  for (int t = 0; t < 100 && eng.eliminated_count() == 0; ++t) {
    eng.begin_round(t);
    eng.emit_honest([](int agent, std::span<double> row) {
      row[0] = agent;
      row[1] = -agent;
    });
    eng.emit_faulty([](int, std::span<double>, const attack::HonestRowsView&) {
      return false;  // silent every round
    });
    const bool straggled = eng.straggles(3);
    eng.deliver([](int, std::span<const double> message, std::span<double> dst) {
      if (message.empty()) return false;  // step S1: silence at the close
      engine::move_row(message, dst);
      return true;
    });
    if (straggled) {
      ++straggle_rounds;
      EXPECT_EQ(eng.eliminated_count(), 0) << "straggled round " << t;
      EXPECT_TRUE(eng.is_member(3)) << "straggled round " << t;
    }
  }
  // The seed produces both regimes: straggled rounds left the agent alone,
  // and the first non-straggled round eliminated it.
  EXPECT_GT(straggle_rounds, 0);
  EXPECT_EQ(eng.eliminated_count(), 1);
  EXPECT_FALSE(eng.is_member(3));
}

TEST(EngineDeliver, SilentMarkDoesNotLeakIntoEmitPresentRounds) {
  // Round 0 uses the honest/faulty split and the Byzantine agent stays
  // silent: the transport must see its empty span.  Round 1 uses
  // emit_present (the dsgd produce path, which never touches the silent
  // mask): begin_round must have cleared the mark, or agent 1's round-1 row
  // would be delivered as silence.
  engine::RoundEngineConfig config;
  config.seed = 5;
  engine::RoundEngine eng({0, 1, 0}, 2, config);
  eng.reset(1);
  std::vector<int> silent_agents;
  const auto transport = [&silent_agents](int agent, std::span<const double> message,
                                          std::span<double> dst) {
    if (message.empty()) {
      silent_agents.push_back(agent);
      std::fill(dst.begin(), dst.end(), 0.0);
    } else {
      engine::move_row(message, dst);
    }
    return true;  // tolerate silence so the roster survives into round 1
  };
  eng.begin_round(0);
  eng.emit_honest([](int agent, std::span<double> row) { row[0] = row[1] = agent; });
  eng.emit_faulty([](int, std::span<double>, const attack::HonestRowsView&) { return false; });
  EXPECT_EQ(eng.deliver(transport), 3);
  EXPECT_EQ(silent_agents, std::vector<int>{1});

  silent_agents.clear();
  eng.begin_round(1);
  eng.emit_present([](int agent, std::span<double> row) { row[0] = row[1] = 10.0 + agent; });
  EXPECT_EQ(eng.deliver(transport), 3);
  EXPECT_TRUE(silent_agents.empty()) << "round-0 silent mark leaked into round 1";
  for (int row = 0; row < 3; ++row) {
    EXPECT_EQ(eng.ingest().row(row)[0], 10.0 + row) << "row " << row;
  }
}

TEST(EngineDeliver, InPlaceCompactionMatchesACopyingTransport) {
  // deliver() compacts the survivors inside the payload batch.  Against a
  // reference that receives every message into a separate buffer (the
  // pre-compaction contract), drop injection, stragglers and a silent
  // Byzantine agent in the middle of the roster must give the same filter
  // rows, kept counts, eliminations and network transcript.
  constexpr int kAgents = 12;
  constexpr int kDim = 3;
  std::vector<unsigned char> faulty(kAgents, 0);
  faulty[5] = 1;
  engine::RoundEngineConfig config;
  config.seed = 31;
  config.axes.straggler_probability = 0.2;
  config.axes.perturbation_seed = 8;
  engine::RoundEngine in_place(faulty, kDim, config);
  engine::RoundEngine reference(faulty, kDim, config);
  sim::SyncNetwork in_place_net(0.1, 11);
  sim::SyncNetwork reference_net(0.1, 11);
  in_place_net.record_transcript(true);
  reference_net.record_transcript(true);
  in_place.reset(2);
  reference.reset(2);

  int moved = 0;
  for (int t = 0; t < 6; ++t) {
    std::vector<std::vector<double>> received;
    for (auto* eng : {&in_place, &reference}) {
      eng->begin_round(t);
      eng->emit_honest([t](int agent, std::span<double> row) {
        for (int k = 0; k < kDim; ++k) {
          row[static_cast<std::size_t>(k)] = 100.0 * t + 10.0 * agent + k;
        }
      });
      eng->emit_faulty([](int, std::span<double>, const attack::HonestRowsView&) {
        return false;  // silent
      });
    }
    const int kept = in_place.deliver(
        [&](int agent, std::span<const double> message, std::span<double> dst) {
          if (in_place_net.transmit_row(agent, t, message, dst)) {
            EXPECT_LE(dst.data(), message.data()) << "rows only move forward";
            if (dst.data() != message.data()) ++moved;
            return true;
          }
          return false;
        });
    const int reference_kept = reference.deliver(
        [&](int agent, std::span<const double> message, std::span<double> dst) {
          std::vector<double> copy(kDim);
          if (!reference_net.transmit_row(agent, t, message, copy)) return false;
          for (int k = 0; k < kDim; ++k) {
            EXPECT_EQ(copy[static_cast<std::size_t>(k)], 100.0 * t + 10.0 * agent + k)
                << "round " << t << " agent " << agent;
          }
          received.push_back(copy);
          std::copy(copy.begin(), copy.end(), dst.begin());
          return true;
        });
    ASSERT_EQ(kept, reference_kept) << "round " << t;
    ASSERT_EQ(in_place.ingest().rows(), kept) << "round " << t;
    for (int r = 0; r < kept; ++r) {
      const auto row = in_place.ingest().row(r);
      EXPECT_EQ(std::vector<double>(row.begin(), row.end()), received[static_cast<std::size_t>(r)])
          << "round " << t << " row " << r;
    }
    EXPECT_EQ(in_place.eliminated_count(), reference.eliminated_count()) << "round " << t;
    EXPECT_TRUE(std::ranges::equal(in_place.members(), reference.members())) << "round " << t;
  }
  // The seeds exercise what the test is about: the silent agent and some
  // dropped messages were eliminated, and rows behind a lost message moved.
  EXPECT_FALSE(in_place.is_member(5));
  EXPECT_GT(in_place.eliminated_count(), 1);
  EXPECT_GT(in_place_net.messages_dropped(), 0);
  EXPECT_GT(moved, 0);

  const auto& a = in_place_net.transcript();
  const auto& b = reference_net.transcript();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].agent, b[m].agent) << "message " << m;
    EXPECT_EQ(a[m].round, b[m].round) << "message " << m;
    ASSERT_EQ(a[m].payload.has_value(), b[m].payload.has_value()) << "message " << m;
    if (a[m].payload) {
      EXPECT_EQ(*a[m].payload, *b[m].payload) << "message " << m;
    }
  }
}

TEST(EngineDeliver, MoveRowCopiesUnlessTheRowIsItsOwnDestination) {
  std::vector<double> rows{1.0, 2.0, 3.0, 4.0};
  const std::span<double> first(rows.data(), 2);
  const std::span<double> second(rows.data() + 2, 2);
  engine::move_row(second, first);
  EXPECT_EQ(rows, (std::vector<double>{3.0, 4.0, 3.0, 4.0}));
  engine::move_row(second, second);
  EXPECT_EQ(rows, (std::vector<double>{3.0, 4.0, 3.0, 4.0}));
}

TEST(EngineDeliver, NothingMovesWhenNoMessageIsLost) {
  // With every message delivered, kept row k is payload row k: the
  // transport is handed each message's own row as its destination.
  engine::RoundEngineConfig config;
  config.seed = 3;
  engine::RoundEngine eng({0, 0, 1, 0, 0}, 4, config);
  eng.reset(1);
  for (int t = 0; t < 3; ++t) {
    eng.begin_round(t);
    eng.emit_honest(
        [](int agent, std::span<double> row) { std::fill(row.begin(), row.end(), agent); });
    eng.emit_faulty([](int, std::span<double> row, const attack::HonestRowsView&) {
      std::fill(row.begin(), row.end(), -1.0);
      return true;
    });
    int calls = 0;
    EXPECT_EQ(eng.deliver([&](int, std::span<const double> message, std::span<double> dst) {
      ++calls;
      EXPECT_EQ(dst.data(), message.data());
      engine::move_row(message, dst);
      return true;
    }), 5);
    EXPECT_EQ(calls, 5);
    for (int r = 0; r < 5; ++r) EXPECT_EQ(eng.ingest().row(r)[0], r == 2 ? -1.0 : r) << "row " << r;
  }
}

}  // namespace
