// Unit tests for the synchronous DGD simulator: roster plumbing, network
// drop injection, the S1 elimination rule, projection onto W, observer
// callbacks, determinism, and trace series.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "abft/agg/average.hpp"
#include "abft/agg/cge.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/opt/quadratic.hpp"
#include "abft/sim/dgd.hpp"

namespace {

using namespace abft;
using linalg::Vector;

struct TwoAgentFixture {
  opt::SquaredDistanceCost c0{Vector{0.0, 0.0}};
  opt::SquaredDistanceCost c1{Vector{2.0, 2.0}};
  opt::HarmonicSchedule schedule{0.5};

  [[nodiscard]] std::vector<sim::AgentSpec> roster() {
    return sim::honest_roster(std::vector<const opt::CostFunction*>{&c0, &c1});
  }

  [[nodiscard]] sim::DgdConfig config(int iterations) {
    return sim::DgdConfig{Vector{5.0, -5.0}, opt::Box::centered_cube(2, 10.0), &schedule,
                          iterations, 0, 42};
  }
};

TEST(Roster, HonestAndByzantineIndices) {
  TwoAgentFixture fx;
  auto roster = fx.roster();
  const attack::ZeroFault fault;
  sim::assign_fault(roster, 1, fault);
  EXPECT_EQ(sim::honest_indices(roster), (std::vector<int>{0}));
  EXPECT_EQ(sim::byzantine_indices(roster), (std::vector<int>{1}));
  EXPECT_THROW(sim::assign_fault(roster, 5, fault), std::invalid_argument);
}

TEST(Roster, RejectsNullCosts) {
  EXPECT_THROW(sim::honest_roster(std::vector<const opt::CostFunction*>{nullptr}),
               std::invalid_argument);
}

TEST(Network, DropInjectionCountsMessages) {
  sim::SyncNetwork network(1.0, 7);  // drop everything
  const auto delivered = network.transmit(0, 0, Vector{1.0});
  EXPECT_FALSE(delivered.has_value());
  EXPECT_EQ(network.messages_sent(), 1);
  EXPECT_EQ(network.messages_dropped(), 1);
  EXPECT_THROW(sim::SyncNetwork(1.5, 0), std::invalid_argument);
}

TEST(Network, TranscriptRecordsWhenEnabled) {
  sim::SyncNetwork network(0.0, 0);
  network.record_transcript(true);
  network.transmit(3, 1, Vector{2.0});
  network.transmit(4, 1, std::nullopt);
  ASSERT_EQ(network.transcript().size(), 2u);
  EXPECT_EQ(network.transcript()[0].agent, 3);
  EXPECT_TRUE(network.transcript()[0].payload.has_value());
  EXPECT_FALSE(network.transcript()[1].payload.has_value());
}

TEST(Dgd, FaultFreeConvergesToAggregateMinimum) {
  TwoAgentFixture fx;
  sim::DgdSimulation simulation(fx.roster(), fx.config(300));
  const agg::AverageAggregator average;
  const auto trace = simulation.run(average);
  // Aggregate of the two squared distances minimizes at the midpoint (1, 1).
  EXPECT_TRUE(linalg::approx_equal(trace.final_estimate(), Vector{1.0, 1.0}, 1e-3));
  EXPECT_EQ(trace.estimates.size(), 301u);
  EXPECT_EQ(trace.eliminated_agents, 0);
}

TEST(Dgd, EstimatesStayInsideBox) {
  TwoAgentFixture fx;
  const auto tight_box = opt::Box::centered_cube(2, 0.25);
  auto config = fx.config(50);
  config.box = tight_box;
  sim::DgdSimulation simulation(fx.roster(), std::move(config));
  const agg::AverageAggregator average;
  const auto trace = simulation.run(average);
  for (const auto& x : trace.estimates) {
    EXPECT_TRUE(tight_box.contains(x, 1e-12));
  }
}

TEST(Dgd, DeterministicAcrossRuns) {
  TwoAgentFixture fx;
  const attack::RandomGaussianFault fault(10.0);
  auto make_trace = [&fx, &fault]() {
    auto roster = fx.roster();
    sim::assign_fault(roster, 1, fault);
    sim::DgdSimulation simulation(std::move(roster), fx.config(40));
    const agg::CgeAggregator cge;
    return simulation.run(cge);
  };
  const auto a = make_trace();
  const auto b = make_trace();
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    EXPECT_EQ(a.estimates[i], b.estimates[i]);
  }
}

TEST(Dgd, SilentAgentEliminatedAndRunContinues) {
  TwoAgentFixture fx;
  const attack::SilentFault fault;
  auto roster = fx.roster();
  sim::assign_fault(roster, 1, fault);
  auto config = fx.config(100);
  config.f = 1;
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const agg::AverageAggregator average;
  const auto trace = simulation.run(average);
  // Eliminated exactly once (first round), after which only agent 0 remains:
  // convergence to agent 0's minimum (0, 0).
  EXPECT_EQ(trace.eliminated_agents, 1);
  EXPECT_TRUE(linalg::approx_equal(trace.final_estimate(), Vector{0.0, 0.0}, 1e-2));
}

TEST(Dgd, DropInjectionEliminatesHonestAgents) {
  TwoAgentFixture fx;
  auto config = fx.config(10);
  config.drop_probability = 1.0;  // every message lost -> everyone eliminated
  sim::DgdSimulation simulation(fx.roster(), std::move(config));
  const agg::AverageAggregator average;
  EXPECT_THROW(simulation.run(average), std::invalid_argument);
}

// A lossy or recording network must keep taking its drop coins and writing
// its transcript message by message, exactly as before the lossless deliver
// fast path existed.  The expected values were recorded on these fixed seeds
// with the per-message transmit_row loop; the transcript digest covers every
// message's agent, round, delivery and payload bits (the drop sequence).
struct LossyRun {
  long sent = 0;
  long dropped = 0;
  int eliminated = 0;
  std::size_t messages = 0;
  std::uint64_t estimates = 0;
  std::uint64_t transcript = 0;
};

std::uint64_t mix(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * 0x100000001b3ULL;
}

std::uint64_t mix_bits(std::uint64_t hash, std::span<const double> values) {
  for (const double v : values) hash = mix(hash, std::bit_cast<std::uint64_t>(v));
  return hash;
}

LossyRun run_lossy(double drop_probability, bool record) {
  constexpr int kAgents = 12;
  constexpr int kDim = 3;
  std::vector<opt::SquaredDistanceCost> costs;
  for (int i = 0; i < kAgents; ++i) costs.emplace_back(Vector{1.0 * i, -1.0 * i, 0.5 * i});
  std::vector<const opt::CostFunction*> cost_ptrs;
  for (const auto& cost : costs) cost_ptrs.push_back(&cost);
  auto roster = sim::honest_roster(cost_ptrs);
  const attack::SilentFault silent;
  const attack::RandomGaussianFault noisy(3.0);
  sim::assign_fault(roster, 4, silent);
  sim::assign_fault(roster, 9, noisy);
  const opt::HarmonicSchedule schedule(0.5);
  sim::DgdConfig config{Vector{5.0, -5.0, 1.0}, opt::Box::centered_cube(kDim, 10.0), &schedule,
                        12, 2, 77};
  config.drop_probability = drop_probability;
  config.record_transcript = record;
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto trace = simulation.run(agg::CgeAggregator{});

  LossyRun run;
  run.sent = simulation.network().messages_sent();
  run.dropped = simulation.network().messages_dropped();
  run.eliminated = trace.eliminated_agents;
  run.estimates = 0xcbf29ce484222325ULL;
  for (const auto& x : trace.estimates) run.estimates = mix_bits(run.estimates, x.coefficients());
  const auto& transcript = simulation.network().transcript();
  run.messages = transcript.size();
  run.transcript = 0xcbf29ce484222325ULL;
  for (const auto& message : transcript) {
    run.transcript = mix(run.transcript, static_cast<std::uint64_t>(message.agent));
    run.transcript = mix(run.transcript, static_cast<std::uint64_t>(message.round));
    run.transcript = mix(run.transcript, message.payload.has_value() ? 1 : 0);
    if (message.payload) run.transcript = mix_bits(run.transcript, message.payload->coefficients());
  }
  return run;
}

void expect_recorded(const LossyRun& run, const LossyRun& recorded, const char* label) {
  EXPECT_EQ(run.sent, recorded.sent) << label;
  EXPECT_EQ(run.dropped, recorded.dropped) << label;
  EXPECT_EQ(run.eliminated, recorded.eliminated) << label;
  EXPECT_EQ(run.messages, recorded.messages) << label;
  EXPECT_EQ(run.estimates, recorded.estimates) << label;
  EXPECT_EQ(run.transcript, recorded.transcript) << label;
}

TEST(Dgd, LossyAndRecordingNetworksDrawAndCountAsRecorded) {
  constexpr std::uint64_t kNoTranscript = 0xcbf29ce484222325ULL;
  expect_recorded(run_lossy(0.04, false),
                  LossyRun{101, 5, 6, 0, 4989839340839946024ULL, kNoTranscript}, "drop 0.04");
  expect_recorded(run_lossy(0.0, true),
                  LossyRun{133, 0, 1, 133, 11412599242320469972ULL, 10812590001751541662ULL},
                  "transcript");
  expect_recorded(run_lossy(0.04, true),
                  LossyRun{101, 5, 6, 101, 4989839340839946024ULL, 13801639363827219430ULL},
                  "drop 0.04 + transcript");
  // The lossless network, which delivers without a per-message call,
  // counts the same messages, eliminates the same agents and ends at the
  // same estimates as the recording one, which keeps the per-message path.
  const LossyRun lossless = run_lossy(0.0, false);
  const LossyRun recording = run_lossy(0.0, true);
  EXPECT_EQ(lossless.sent, recording.sent);
  EXPECT_EQ(lossless.eliminated, recording.eliminated);
  EXPECT_EQ(lossless.estimates, recording.estimates);
}

TEST(Dgd, ObserverSeesEveryRound) {
  TwoAgentFixture fx;
  sim::DgdSimulation simulation(fx.roster(), fx.config(25));
  int calls = 0;
  simulation.set_observer([&calls](int round, const Vector&, const Vector&) {
    EXPECT_EQ(round, calls);
    ++calls;
  });
  const agg::AverageAggregator average;
  simulation.run(average);
  EXPECT_EQ(calls, 25);
}

TEST(Dgd, CustomHonestGradientFunction) {
  TwoAgentFixture fx;
  sim::DgdSimulation simulation(fx.roster(), fx.config(10));
  // Constant pull toward -x halves the estimate each unit step.
  simulation.set_honest_gradient_writer(
      [](int /*agent*/, const Vector& x, int /*round*/, std::span<double> out) {
        std::copy(x.coefficients().begin(), x.coefficients().end(), out.begin());
      });
  const agg::AverageAggregator average;
  const auto trace = simulation.run(average);
  // x_{t+1} = x_t (1 - eta_t) with eta_0 = 0.5 -> strictly decreasing norm.
  EXPECT_LT(trace.final_estimate().norm(), trace.estimates.front().norm());
}

TEST(Dgd, ValidatesConfiguration) {
  TwoAgentFixture fx;
  auto bad_schedule = fx.config(10);
  bad_schedule.schedule = nullptr;
  EXPECT_THROW(sim::DgdSimulation(fx.roster(), std::move(bad_schedule)), std::invalid_argument);

  auto bad_dim = fx.config(10);
  bad_dim.x0 = Vector{1.0};
  EXPECT_THROW(sim::DgdSimulation(fx.roster(), std::move(bad_dim)), std::invalid_argument);

  EXPECT_THROW(sim::DgdSimulation({}, fx.config(10)), std::invalid_argument);
}

TEST(Dgd, ByzantineAgentWithoutCostGetsZeroTrueGradient) {
  TwoAgentFixture fx;
  auto roster = fx.roster();
  const attack::GradientReverseFault fault;
  roster[1] = sim::AgentSpec{nullptr, &fault};  // no cost: true gradient = 0
  auto config = fx.config(400);
  config.f = 1;
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const agg::AverageAggregator average;
  const auto trace = simulation.run(average);
  // Reversing a zero gradient sends zero; the run still contracts toward
  // agent 0's minimum (at half speed, since the filtered step is halved).
  EXPECT_LT(trace.final_estimate().norm(), 0.1 * trace.estimates.front().norm());
}

TEST(Dgd, TrajectoryInvariantUnderRosterPermutation) {
  // With a deterministic fault and a permutation-invariant filter the
  // trajectory must not depend on agent ordering.
  const opt::SquaredDistanceCost c0{Vector{0.0, 0.0}};
  const opt::SquaredDistanceCost c1{Vector{2.0, 2.0}};
  const opt::SquaredDistanceCost c2{Vector{-1.0, 3.0}};
  const attack::GradientReverseFault fault;
  const opt::HarmonicSchedule schedule(0.5);
  auto run_order = [&](std::vector<const opt::CostFunction*> costs, int faulty_at) {
    auto roster = sim::honest_roster(costs);
    sim::assign_fault(roster, faulty_at, fault);
    sim::DgdConfig config{Vector{4.0, -4.0}, opt::Box::centered_cube(2, 10.0), &schedule, 80, 1,
                          9};
    sim::DgdSimulation simulation(std::move(roster), std::move(config));
    const agg::AverageAggregator average;
    return simulation.run(average);
  };
  // c2 is the faulty agent in both orders.
  const auto a = run_order({&c0, &c1, &c2}, 2);
  const auto b = run_order({&c2, &c0, &c1}, 0);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t t = 0; t < a.estimates.size(); ++t) {
    EXPECT_TRUE(linalg::approx_equal(a.estimates[t], b.estimates[t], 1e-12))
        << "diverged at iteration " << t;
  }
}

TEST(Analysis, DgdLossSeriesSettles) {
  TwoAgentFixture fx;
  sim::DgdSimulation simulation(fx.roster(), fx.config(400));
  const agg::AverageAggregator average;
  const auto trace = simulation.run(average);
  const opt::AggregateCost aggregate(
      std::vector<const opt::CostFunction*>{&fx.c0, &fx.c1});
  const auto losses = trace.loss_series(aggregate);
  ASSERT_GE(losses.size(), 240u);
  // A decreasing trend: the mean of the last 20 losses is no larger than
  // the mean of losses 1..20.
  const auto window_mean = [&losses](std::size_t begin) {
    const auto first = losses.begin() + static_cast<std::ptrdiff_t>(begin);
    return std::accumulate(first, first + 20, 0.0) / 20.0;
  };
  EXPECT_LE(window_mean(losses.size() - 20), window_mean(1) + 1e-12);
  // Settled before round 200: from there on every loss stays within 0.01
  // of the final one.
  for (std::size_t t = 199; t < losses.size(); ++t) {
    EXPECT_NEAR(losses[t], losses.back(), 0.01) << "round " << t;
  }
}

TEST(Trace, CsvExport) {
  sim::Trace trace;
  trace.estimates = {Vector{1.0, 2.0}, Vector{3.0, 4.0}};
  std::ostringstream os;
  trace.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("t,x0,x1"), std::string::npos);
  EXPECT_NE(out.find("0,1,2"), std::string::npos);
  EXPECT_NE(out.find("1,3,4"), std::string::npos);
  EXPECT_THROW(sim::Trace{}.write_csv(os), std::invalid_argument);
}

TEST(Trace, SeriesHelpers) {
  sim::Trace trace;
  trace.estimates = {Vector{0.0, 0.0}, Vector{1.0, 0.0}};
  const opt::SquaredDistanceCost cost(Vector{1.0, 0.0});
  const auto losses = trace.loss_series(cost);
  ASSERT_EQ(losses.size(), 2u);
  EXPECT_DOUBLE_EQ(losses[0], 1.0);
  EXPECT_DOUBLE_EQ(losses[1], 0.0);
  const auto dists = trace.distance_series(Vector{0.0, 0.0});
  EXPECT_DOUBLE_EQ(dists[1], 1.0);
  EXPECT_THROW((void)sim::Trace{}.final_estimate(), std::invalid_argument);
}

}  // namespace
