#include "traced_run.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "abft/attack/adaptive_faults.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/learn/dataset.hpp"
#include "abft/learn/dsgd.hpp"
#include "abft/learn/mlp.hpp"
#include "abft/learn/softmax.hpp"
#include "abft/opt/box.hpp"
#include "abft/opt/quadratic.hpp"
#include "abft/opt/schedule.hpp"
#include "abft/p2p/p2p_dgd.hpp"
#include "abft/regress/problem.hpp"
#include "abft/sim/dgd.hpp"
#include "abft/util/rng.hpp"

namespace bench_e2e {

namespace {

using abft::linalg::Vector;
using abft::scenario::FaultSpec;
using abft::scenario::ScenarioResult;
using abft::scenario::ScenarioSpec;

// ------------------ mirror of scenario.cpp's private assembly ---------------

double param_or(const FaultSpec& spec, double fallback) {
  return std::isnan(spec.param) ? fallback : spec.param;
}

std::unique_ptr<abft::attack::FaultModel> make_fault(const FaultSpec& spec) {
  using namespace abft::attack;
  if (spec.kind == "gradient-reverse") return std::make_unique<GradientReverseFault>();
  if (spec.kind == "random") return std::make_unique<RandomGaussianFault>(param_or(spec, 200.0));
  if (spec.kind == "zero") return std::make_unique<ZeroFault>();
  if (spec.kind == "sign-flip-scale") {
    return std::make_unique<SignFlipScaleFault>(param_or(spec, 2.0));
  }
  if (spec.kind == "rotating") return std::make_unique<RotatingFault>(param_or(spec, 10.0), 0.25);
  if (spec.kind == "little-is-enough") {
    return std::make_unique<LittleIsEnoughFault>(param_or(spec, 1.2));
  }
  if (spec.kind == "mean-reverse") return std::make_unique<MeanReverseFault>(param_or(spec, 1.0));
  if (spec.kind == "mimic-smallest") return std::make_unique<MimicSmallestFault>();
  if (spec.kind == "silent") return std::make_unique<SilentFault>();
  throw std::invalid_argument("traced pass: unknown fault kind \"" + spec.kind + "\"");
}

std::unique_ptr<abft::opt::StepSchedule> make_schedule(const abft::scenario::ScheduleSpec& spec) {
  if (spec.kind == "harmonic") return std::make_unique<abft::opt::HarmonicSchedule>(spec.scale);
  if (spec.kind == "constant") return std::make_unique<abft::opt::ConstantSchedule>(spec.scale);
  if (spec.kind == "polynomial") {
    return std::make_unique<abft::opt::PolynomialSchedule>(spec.scale, spec.power);
  }
  throw std::invalid_argument("traced pass: unknown schedule kind \"" + spec.kind + "\"");
}

Vector make_x0(const ScenarioSpec& spec, int dim) {
  if (spec.x0.empty()) return Vector(dim);
  if (spec.x0.size() == 1) {
    return Vector(std::vector<double>(static_cast<std::size_t>(dim), spec.x0.front()));
  }
  return Vector(spec.x0);
}

/// The problem's costs behind TracedCost, and the roster over them with the
/// spec's faults behind TracedFault.
struct GradientWorkload {
  std::unique_ptr<abft::regress::RegressionProblem> regression;
  std::vector<abft::opt::SquaredDistanceCost> quadratic_costs;
  std::vector<std::unique_ptr<TracedCost>> costs;
  std::vector<std::unique_ptr<TracedFault>> faults;
  std::vector<abft::sim::AgentSpec> roster;
  int dim = 0;
};

GradientWorkload build_gradient_workload(const ScenarioSpec& spec, SpanRecorder& recorder) {
  GradientWorkload w;
  const std::string problem = spec.problem.empty() ? "paper_regression" : spec.problem;
  std::vector<const abft::opt::CostFunction*> plain;
  if (problem == "paper_regression") {
    w.regression = std::make_unique<abft::regress::RegressionProblem>(
        abft::regress::RegressionProblem::paper_instance());
    plain = w.regression->costs(spec.agents);
    w.dim = w.regression->dim();
  } else if (problem == "random_regression") {
    w.regression = std::make_unique<abft::regress::RegressionProblem>(
        abft::scenario::random_regression_instance(spec));
    plain = w.regression->costs();
    w.dim = w.regression->dim();
  } else if (problem == "quadratic") {
    abft::util::Rng center_rng(spec.seed ^ 0x9ad5eedULL);
    w.quadratic_costs.reserve(static_cast<std::size_t>(spec.num_agents));
    for (int i = 0; i < spec.num_agents; ++i) {
      std::vector<double> center(static_cast<std::size_t>(spec.dim));
      for (auto& c : center) c = 3.0 * center_rng.normal();
      w.quadratic_costs.emplace_back(Vector(std::move(center)));
    }
    for (const auto& cost : w.quadratic_costs) plain.push_back(&cost);
    w.dim = spec.dim;
  } else {
    throw std::invalid_argument("traced pass: unknown gradient problem \"" + problem + "\"");
  }
  std::vector<const abft::opt::CostFunction*> traced;
  for (const auto* cost : plain) {
    w.costs.push_back(std::make_unique<TracedCost>(*cost, recorder));
    traced.push_back(w.costs.back().get());
  }
  w.roster = abft::sim::honest_roster(traced);
  for (const auto& fault : spec.faults) {
    w.faults.push_back(std::make_unique<TracedFault>(make_fault(fault), recorder));
    abft::sim::assign_fault(w.roster, fault.agent, *w.faults.back());
  }
  return w;
}

TracedAggregator make_aggregator(const ScenarioSpec& spec, SpanRecorder& recorder) {
  return TracedAggregator(abft::scenario::make_scenario_aggregator(spec), recorder);
}

// ------------------------------ round loops ---------------------------------

ScenarioResult run_dgd(const ScenarioSpec& spec, SpanRecorder& recorder, std::int64_t* loop_ns) {
  GradientWorkload w = build_gradient_workload(spec, recorder);
  const auto schedule = make_schedule(spec.schedule);
  const TracedAggregator aggregator = make_aggregator(spec, recorder);
  abft::sim::DgdConfig config{make_x0(spec, w.dim),
                              abft::opt::Box::centered_cube(w.dim, spec.box_halfwidth),
                              schedule.get(),
                              spec.iterations,
                              spec.f,
                              spec.seed,
                              spec.drop_probability,
                              false,
                              spec.threads,
                              spec.mode,
                              spec.precision,
                              spec.axes,
                              spec.async};
  abft::sim::DgdSimulation simulation(std::move(w.roster), std::move(config));
  ScenarioResult result;
  result.spec = spec;
  const std::int64_t start = recorder.now();
  simulation.set_observer(recorder.round_observer(start));
  result.traces.push_back(simulation.run(aggregator));
  *loop_ns += recorder.now() - start;
  result.eliminated_agents = result.traces.front().eliminated_agents;
  result.departed_agents = result.traces.front().departed_agents;
  result.messages_sent = simulation.network().messages_sent();
  result.messages_dropped = simulation.network().messages_dropped();
  if (const auto* stats = simulation.async_stats()) result.async_stats = *stats;
  return result;
}

ScenarioResult run_p2p(const ScenarioSpec& spec, SpanRecorder& recorder, std::int64_t* loop_ns) {
  if (spec.relay_strategy && spec.relay_strategy->kind != "honest") {
    throw std::invalid_argument("traced pass: p2p relay strategies are not traced");
  }
  GradientWorkload w = build_gradient_workload(spec, recorder);
  const auto schedule = make_schedule(spec.schedule);
  const TracedAggregator aggregator = make_aggregator(spec, recorder);
  const abft::p2p::P2pDgdConfig config{make_x0(spec, w.dim),
                                       abft::opt::Box::centered_cube(w.dim, spec.box_halfwidth),
                                       schedule.get(),
                                       spec.iterations,
                                       spec.f,
                                       spec.seed,
                                       spec.threads,
                                       spec.mode,
                                       spec.precision,
                                       spec.axes};
  const std::int64_t start = recorder.now();
  auto outcome = abft::p2p::run_p2p_dgd(w.roster, config, aggregator, nullptr);
  *loop_ns += recorder.now() - start;
  ScenarioResult result;
  result.spec = spec;
  result.traces = std::move(outcome.traces);
  result.honest_nodes = std::move(outcome.honest_nodes);
  result.eliminated_agents = outcome.eliminated_agents;
  result.departed_agents = outcome.departed_agents;
  result.broadcast_messages = outcome.broadcast_messages;
  return result;
}

ScenarioResult run_dsgd(const ScenarioSpec& spec, SpanRecorder& recorder, std::int64_t* loop_ns) {
  namespace learn = abft::learn;
  abft::util::Rng data_rng(spec.seed ^ 0xda7aULL);
  const auto full = learn::make_synthetic(spec.dataset, data_rng);
  abft::util::Rng split_rng(spec.seed ^ 0x51D17ULL);
  auto split = learn::split_train_test(full, 0.2, split_rng);
  abft::util::Rng shard_rng(spec.seed ^ 0x54a2dULL);
  auto shards =
      learn::shard_dirichlet(split.train, spec.num_agents, spec.dirichlet_alpha, shard_rng);
  if (!spec.agents.empty()) {
    std::vector<learn::Dataset> subset;
    for (const int agent : spec.agents) {
      subset.push_back(std::move(shards[static_cast<std::size_t>(agent)]));
    }
    shards = std::move(subset);
  }
  std::vector<learn::AgentFault> faults(shards.size(), learn::AgentFault::kHonest);
  for (const auto& fault : spec.faults) {
    auto& slot = faults.at(static_cast<std::size_t>(fault.agent));
    if (fault.kind == "label-flip") {
      slot = learn::AgentFault::kLabelFlip;
    } else if (fault.kind == "gradient-reverse") {
      slot = learn::AgentFault::kGradientReverse;
    } else {
      throw std::invalid_argument("traced pass: unknown dsgd fault kind \"" + fault.kind + "\"");
    }
  }
  std::unique_ptr<learn::Model> inner;
  Vector params0;
  if (spec.model == "mlp") {
    auto mlp = std::make_unique<learn::Mlp>(split.train.feature_dim(), spec.hidden_dim,
                                            split.train.num_classes);
    abft::util::Rng init_rng(spec.seed ^ 0x1417ULL);
    params0 = mlp->initial_params(init_rng);
    inner = std::move(mlp);
  } else {
    inner = std::make_unique<learn::SoftmaxRegression>(split.train.feature_dim(),
                                                        split.train.num_classes);
    params0 = Vector(inner->param_dim());
  }
  const TracedModel model(std::move(inner), recorder);
  learn::DsgdConfig config;
  config.iterations = spec.iterations;
  config.batch_size = spec.batch_size;
  config.step_size = spec.step_size;
  config.f = spec.f;
  config.eval_interval = spec.eval_interval;
  config.momentum = spec.momentum;
  config.seed = spec.seed;
  config.agg_threads = spec.threads;
  config.agg_mode = spec.mode;
  config.agg_precision = spec.precision;
  config.axes = spec.axes;
  const TracedAggregator aggregator = make_aggregator(spec, recorder);
  ScenarioResult result;
  result.spec = spec;
  const std::int64_t start = recorder.now();
  config.observer = recorder.round_observer(start);
  result.series =
      learn::run_dsgd(model, params0, shards, faults, split.test, aggregator, config);
  *loop_ns += recorder.now() - start;
  result.departed_agents = result.series->departed_agents;
  return result;
}

ScenarioResult run_scenario_traced(const ScenarioSpec& spec, SpanRecorder& recorder,
                                   std::int64_t* loop_ns) {
  if (spec.driver == "dgd") return run_dgd(spec, recorder, loop_ns);
  if (spec.driver == "p2p") return run_p2p(spec, recorder, loop_ns);
  if (spec.driver == "dsgd") return run_dsgd(spec, recorder, loop_ns);
  throw std::invalid_argument("traced pass: driver \"" + spec.driver + "\" is not traced");
}

int result_dim(const ScenarioResult& result) {
  return result.series ? result.series->final_params.dim()
                       : result.traces.front().final_estimate().dim();
}

/// The grid on `threads` workers draining a shared cursor, as run_sweep's
/// pool does; every run is a dgd scenario on its worker's thread.
TracedRun run_sweep_traced(const Workload& workload, SpanRecorder& recorder) {
  TracedRun traced;
  const std::int64_t start = recorder.now();
  auto runs = abft::sweep::expand_sweep(workload.sweep);
  abft::sweep::SweepOutcome outcome;
  outcome.runs.resize(runs.size());
  const int total = static_cast<int>(runs.size());
  const int threads = std::max(1, std::min(workload.sweep.threads, total));
  std::atomic<int> cursor{0};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  const std::int64_t loop_start = recorder.now();
  auto worker = [&](int k) {
    try {
      std::int64_t unused_loop_ns = 0;
      for (int i = cursor.fetch_add(1); i < total; i = cursor.fetch_add(1)) {
        const auto& spec = runs[static_cast<std::size_t>(i)].spec;
        if (spec.driver != "dgd") {
          throw std::invalid_argument("traced pass: sweeps are traced over dgd runs only");
        }
        outcome.runs[static_cast<std::size_t>(i)].result =
            run_dgd(spec, recorder, &unused_loop_ns);
      }
    } catch (...) {
      errors[static_cast<std::size_t>(k)] = std::current_exception();
      cursor.store(total);
    }
  };
  {
    std::vector<std::jthread> pool;
    for (int k = 1; k < threads; ++k) pool.emplace_back(worker, k);
    worker(0);
  }
  const std::int64_t end = recorder.now();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  traced.outcome = summarize(outcome);
  if (!outcome.runs.empty()) traced.dim = result_dim(outcome.runs.front().result);
  traced.loop_ns = end - loop_start;
  traced.call_ns = end - start;
  return traced;
}

}  // namespace

std::size_t expected_spans(const Workload& workload) {
  auto per_scenario = [](const ScenarioSpec& spec) {
    // One opt (or learn) span per agent, one attack span per fault, the
    // filter calls (one per node on p2p) and the round boundary.
    const auto agents = static_cast<std::size_t>(spec.num_agents);
    const std::size_t filters =
        spec.driver == "p2p" ? static_cast<std::size_t>(spec.num_agents) : 1;
    return static_cast<std::size_t>(std::max(spec.iterations, 0)) *
           (agents + spec.faults.size() + filters + 2);
  };
  if (!workload.is_sweep) return per_scenario(workload.scenario);
  std::size_t total = 0;
  for (const auto& run : abft::sweep::expand_sweep(workload.sweep)) {
    total += per_scenario(run.spec);
  }
  return total;
}

TracedRun run_traced(const Workload& workload, SpanRecorder& recorder) {
  if (workload.is_sweep) return run_sweep_traced(workload, recorder);
  TracedRun traced;
  const std::int64_t start = recorder.now();
  const auto result = run_scenario_traced(workload.scenario, recorder, &traced.loop_ns);
  traced.call_ns = recorder.now() - start;
  traced.outcome = summarize(result);
  traced.dim = result_dim(result);
  traced.observes_rounds = workload.scenario.driver != "p2p";
  return traced;
}

}  // namespace bench_e2e
