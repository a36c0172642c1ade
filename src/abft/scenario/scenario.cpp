#include "abft/scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>

#include "abft/agg/registry.hpp"
#include "abft/attack/adaptive_faults.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/learn/mlp.hpp"
#include "abft/learn/softmax.hpp"
#include "abft/opt/quadratic.hpp"
#include "abft/regress/generator.hpp"
#include "abft/opt/schedule.hpp"
#include "abft/p2p/dolev_strong.hpp"
#include "abft/p2p/p2p_dgd.hpp"
#include "abft/regress/problem.hpp"
#include "abft/sim/dgd.hpp"
#include "abft/util/check.hpp"

namespace abft::scenario {

namespace {

using linalg::Vector;

// ------------------------------- parsing ------------------------------------

void require_known_keys(const util::JsonValue& object, std::string_view where,
                        std::initializer_list<std::string_view> allowed) {
  util::require_known_keys(object, "scenario", where, allowed);
}

int int_or(const util::JsonValue& object, std::string_view key, int fallback) {
  return util::checked_int(object.number_or(key, fallback), "scenario", key);
}

/// JSON numbers are doubles: a seed above 2^53 would silently round, so a
/// spec that needs one must fail loudly instead of running off a different
/// seed than it states.
std::uint64_t parse_seed(const util::JsonValue& json, std::string_view key, double fallback) {
  const double value = json.number_or(key, fallback);
  ABFT_REQUIRE(value >= 0.0 && value <= 9007199254740992.0 && value == std::floor(value),
               "seeds in JSON must be integers in [0, 2^53] (doubles cannot carry more)");
  return static_cast<std::uint64_t>(value);
}

/// The aggregator key takes a registry rule name, or an object holding a
/// "rule" or a "hierarchy" layer; the hierarchy form fills spec.hierarchy
/// and stamps the canonical label into spec.aggregator.
void parse_aggregator(const util::JsonValue& value, ScenarioSpec* spec) {
  if (value.is_string()) {
    spec->aggregator = value.as_string();
    return;
  }
  require_known_keys(value, "aggregator", {"rule", "hierarchy"});
  if (value.find("hierarchy") == nullptr) {
    spec->aggregator = value.string_or("rule", "cwtm");
    (void)agg::make_aggregator(spec->aggregator);  // validate the name at parse time
    return;
  }
  ABFT_REQUIRE(value.find("rule") == nullptr,
               "aggregator: \"rule\" and \"hierarchy\" are mutually exclusive — the "
               "hierarchy block names its own leaf_rule/root_rule");
  const auto& hier = value.at("hierarchy");
  require_known_keys(hier, "hierarchy", {"shards", "leaf_rule", "root_rule", "f_leaf"});
  agg::HierarchyConfig config;
  config.shards = int_or(hier, "shards", config.shards);
  ABFT_REQUIRE(config.shards >= 1, "hierarchy shards must be >= 1");
  config.leaf_rule = hier.string_or("leaf_rule", config.leaf_rule);
  config.root_rule = hier.string_or("root_rule", config.root_rule);
  // Validate the rule names at parse time, so a sweep rejects its grid
  // before running anything.
  (void)agg::make_aggregator(config.leaf_rule);
  (void)agg::make_aggregator(config.root_rule);
  if (hier.find("f_leaf") != nullptr) {
    config.f_leaf = int_or(hier, "f_leaf", config.f_leaf);
    ABFT_REQUIRE(config.f_leaf >= 0, "hierarchy f_leaf must be >= 0 when given");
  }
  spec->hierarchy = config;
  spec->aggregator = agg::hierarchy_label(config);
}

RelayStrategySpec parse_relay_strategy(const util::JsonValue& json) {
  require_known_keys(json, "relay_strategy", {"kind", "param"});
  RelayStrategySpec relay;
  relay.kind = json.string_or("kind", relay.kind);
  ABFT_REQUIRE(relay.kind == "honest" || relay.kind == "equivocate" ||
                   relay.kind == "silent" || relay.kind == "fixed-value",
               "relay_strategy kind must be honest, equivocate, silent or fixed-value");
  relay.param = json.number_or("param", relay.param);
  ABFT_REQUIRE(relay.kind == "equivocate" || relay.kind == "fixed-value" ||
                   json.find("param") == nullptr,
               "relay_strategy param applies to the equivocate/fixed-value kinds only");
  return relay;
}

DsStrategySpec parse_ds_strategy(const util::JsonValue& json) {
  require_known_keys(json, "ds_strategy", {"kind", "offset", "forward_probability"});
  DsStrategySpec ds;
  ds.kind = json.string_or("kind", ds.kind);
  ABFT_REQUIRE(ds.kind == "honest" || ds.kind == "equivocate" || ds.kind == "silent",
               "ds_strategy kind must be honest, equivocate or silent");
  ds.offset = json.number_or("offset", ds.offset);
  ds.forward_probability = json.number_or("forward_probability", ds.forward_probability);
  ABFT_REQUIRE(ds.forward_probability >= 0.0 && ds.forward_probability <= 1.0,
               "ds_strategy forward_probability must be in [0, 1]");
  ABFT_REQUIRE(ds.kind == "equivocate" ||
                   (json.find("offset") == nullptr &&
                    json.find("forward_probability") == nullptr),
               "ds_strategy offset/forward_probability apply to the equivocate kind only");
  return ds;
}

engine::AsyncConfig parse_async(const util::JsonValue& json) {
  require_known_keys(json, "async", {"quorum", "deadline", "staleness_cap", "arrival"});
  engine::AsyncConfig async;
  async.quorum = int_or(json, "quorum", async.quorum);
  ABFT_REQUIRE(async.quorum >= 0, "async quorum must be >= 0 (0 = full roster)");
  async.deadline = json.number_or("deadline", async.deadline);
  ABFT_REQUIRE(async.deadline > 0.0, "async deadline must be > 0");
  async.staleness_cap = int_or(json, "staleness_cap", async.staleness_cap);
  ABFT_REQUIRE(async.staleness_cap >= 0, "async staleness_cap must be >= 0");
  if (const auto* arrival = json.find("arrival")) {
    require_known_keys(*arrival, "arrival", {"kind", "scale"});
    async.arrival.kind = arrival->string_or("kind", async.arrival.kind);
    ABFT_REQUIRE(async.arrival.kind == "uniform" || async.arrival.kind == "exponential" ||
                     async.arrival.kind == "fixed",
                 "async arrival kind must be uniform, exponential or fixed");
    async.arrival.scale = arrival->number_or("scale", async.arrival.scale);
    ABFT_REQUIRE(async.arrival.scale > 0.0, "async arrival scale must be > 0");
  }
  return async;
}

engine::ScenarioAxes parse_axes(const util::JsonValue& json) {
  require_known_keys(json, "axes",
                     {"participation", "straggler_probability", "perturbation_seed", "churn"});
  engine::ScenarioAxes axes;
  axes.participation = json.number_or("participation", axes.participation);
  axes.straggler_probability =
      json.number_or("straggler_probability", axes.straggler_probability);
  axes.perturbation_seed = parse_seed(json, "perturbation_seed", 0.0);
  if (const auto* churn = json.find("churn")) {
    for (const auto& event : churn->as_array()) {
      require_known_keys(event, "churn event", {"round", "agent"});
      axes.churn.push_back(
          engine::ChurnEvent{util::checked_int(event.at("round").as_number(), "scenario",
                                               "churn round"),
                             util::checked_int(event.at("agent").as_number(), "scenario",
                                               "churn agent")});
    }
  }
  return axes;
}

}  // namespace

ScenarioSpec parse_scenario(const util::JsonValue& json) {
  require_known_keys(
      json, "scenario",
      {"name",       "driver",   "problem",          "aggregator",    "mode",
       "precision",  "iterations", "f",              "seed",          "threads",       "schedule",
       "box_halfwidth", "x0",    "agents",           "num_agents",    "dim",
       "noise_stddev",  "faults", "drop_probability", "relay_strategy",
       "ds_strategy", "axes",    "async",            "batch_size",    "step_size",
       "momentum",    "eval_interval", "model",      "dataset"});
  ScenarioSpec spec;
  spec.specified_keys = json.keys();
  spec.name = json.string_or("name", "");
  spec.driver = json.string_or("driver", spec.driver);
  spec.problem = json.string_or("problem", "");
  if (const auto* aggregator = json.find("aggregator")) parse_aggregator(*aggregator, &spec);
  spec.mode = agg::agg_mode_from_string(json.string_or("mode", "exact"));
  spec.precision = agg::precision_from_string(json.string_or("precision", "f64"));
  // The f32 lane exists only under the fast tolerance contract; a spec
  // pairing it with exact mode is a contradiction, not a silent no-op.
  ABFT_REQUIRE(spec.precision == agg::Precision::f64 || spec.mode == agg::AggMode::fast,
               "precision \"f32\" requires mode \"fast\"");
  spec.iterations = int_or(json, "iterations", spec.iterations);
  spec.f = int_or(json, "f", spec.f);
  spec.seed = parse_seed(json, "seed", 1.0);
  spec.threads = int_or(json, "threads", spec.threads);
  ABFT_REQUIRE(spec.threads >= 1, "threads must be >= 1");
  if (const auto* schedule = json.find("schedule")) {
    require_known_keys(*schedule, "schedule", {"kind", "scale", "power"});
    spec.schedule.kind = schedule->string_or("kind", spec.schedule.kind);
    spec.schedule.scale = schedule->number_or("scale", spec.schedule.scale);
    spec.schedule.power = schedule->number_or("power", spec.schedule.power);
  }
  spec.box_halfwidth = json.number_or("box_halfwidth", spec.box_halfwidth);
  if (const auto* x0 = json.find("x0")) {
    if (x0->is_number()) {
      spec.x0 = {x0->as_number()};
    } else {
      for (const auto& coord : x0->as_array()) spec.x0.push_back(coord.as_number());
    }
  }
  if (const auto* agents = json.find("agents")) {
    for (const auto& agent : agents->as_array()) {
      spec.agents.push_back(util::checked_int(agent.as_number(), "scenario", "agents entry"));
    }
  }
  spec.num_agents = int_or(json, "num_agents", spec.num_agents);
  spec.dim = int_or(json, "dim", spec.dim);
  spec.noise_stddev = json.number_or("noise_stddev", spec.noise_stddev);
  if (const auto* faults = json.find("faults")) {
    for (const auto& fault : faults->as_array()) {
      require_known_keys(fault, "fault", {"agent", "kind", "param"});
      FaultSpec f;
      f.agent = util::checked_int(fault.at("agent").as_number(), "scenario", "fault agent");
      f.kind = fault.at("kind").as_string();
      f.param = fault.number_or("param", f.param);
      // These kinds take no knob: a param there would be silently ignored.
      ABFT_REQUIRE(fault.find("param") == nullptr ||
                       (f.kind != "gradient-reverse" && f.kind != "zero" &&
                        f.kind != "mimic-smallest" && f.kind != "silent" &&
                        f.kind != "label-flip"),
                   "fault param does not apply to the " + f.kind + " kind");
      spec.faults.push_back(std::move(f));
    }
  }
  spec.drop_probability = json.number_or("drop_probability", spec.drop_probability);
  if (const auto* relay = json.find("relay_strategy")) {
    spec.relay_strategy = parse_relay_strategy(*relay);
  }
  if (const auto* ds = json.find("ds_strategy")) spec.ds_strategy = parse_ds_strategy(*ds);
  if (const auto* axes = json.find("axes")) spec.axes = parse_axes(*axes);
  if (const auto* async = json.find("async")) {
    spec.async = parse_async(*async);
    // Lateness and loss live in the virtual clock there; the synchronous
    // perturbation axes and drop injection would be a second, conflicting
    // realization of the same phenomena.
    ABFT_REQUIRE(!spec.axes.enabled(),
                 "async does not compose with the participation/straggler/churn axes");
    ABFT_REQUIRE(json.number_or("drop_probability", 0.0) == 0.0,
                 "async does not compose with drop_probability");
  }
  spec.batch_size = int_or(json, "batch_size", spec.batch_size);
  spec.step_size = json.number_or("step_size", spec.step_size);
  spec.momentum = json.number_or("momentum", spec.momentum);
  spec.eval_interval = int_or(json, "eval_interval", spec.eval_interval);
  if (const auto* model = json.find("model")) {
    require_known_keys(*model, "model", {"kind", "hidden_dim"});
    spec.model = model->string_or("kind", spec.model);
    ABFT_REQUIRE(spec.model == "softmax" || spec.model == "mlp",
                 "model kind must be softmax or mlp");
    // hidden_dim on a softmax model would be silently ignored — the same
    // class of lie as batch_size on dgd; reject instead.
    ABFT_REQUIRE(spec.model == "mlp" || model->find("hidden_dim") == nullptr,
                 "hidden_dim applies to the mlp model only");
    spec.hidden_dim = int_or(*model, "hidden_dim", spec.hidden_dim);
  }
  if (const auto* dataset = json.find("dataset")) {
    require_known_keys(*dataset, "dataset",
                       {"num_classes", "feature_dim", "examples_per_class", "prototype_scale",
                        "noise_stddev", "dirichlet_alpha"});
    spec.dataset.num_classes = int_or(*dataset, "num_classes", spec.dataset.num_classes);
    spec.dataset.feature_dim = int_or(*dataset, "feature_dim", spec.dataset.feature_dim);
    spec.dataset.examples_per_class =
        int_or(*dataset, "examples_per_class", spec.dataset.examples_per_class);
    spec.dataset.prototype_scale =
        dataset->number_or("prototype_scale", spec.dataset.prototype_scale);
    spec.dataset.noise_stddev = dataset->number_or("noise_stddev", spec.dataset.noise_stddev);
    spec.dirichlet_alpha = dataset->number_or("dirichlet_alpha", spec.dirichlet_alpha);
    ABFT_REQUIRE(spec.dirichlet_alpha > 0.0, "dirichlet_alpha must be positive");
  }
  return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
  return parse_scenario(util::parse_json_file(path));
}

namespace {

// ---------------------------- fault factory ---------------------------------

double param_or(const FaultSpec& spec, double fallback) {
  return std::isnan(spec.param) ? fallback : spec.param;
}

/// Rejects spec keys the chosen driver would silently ignore — a spec whose
/// intent cannot be honoured must fail loudly, not run a different
/// experiment.
void reject_inapplicable_keys(const ScenarioSpec& spec,
                              std::initializer_list<std::string_view> inapplicable,
                              std::string_view driver) {
  for (const auto& key : spec.specified_keys) {
    if (std::find(inapplicable.begin(), inapplicable.end(), key) != inapplicable.end()) {
      std::ostringstream os;
      os << "scenario: key \"" << key << "\" does not apply to the " << driver << " driver";
      throw std::invalid_argument(os.str());
    }
  }
}

std::unique_ptr<attack::FaultModel> make_fault(const FaultSpec& spec) {
  if (spec.kind == "gradient-reverse") return std::make_unique<attack::GradientReverseFault>();
  if (spec.kind == "random") {
    return std::make_unique<attack::RandomGaussianFault>(param_or(spec, 200.0));
  }
  if (spec.kind == "zero") return std::make_unique<attack::ZeroFault>();
  if (spec.kind == "sign-flip-scale") {
    return std::make_unique<attack::SignFlipScaleFault>(param_or(spec, 2.0));
  }
  if (spec.kind == "rotating") {
    return std::make_unique<attack::RotatingFault>(param_or(spec, 10.0), 0.25);
  }
  if (spec.kind == "little-is-enough") {
    return std::make_unique<attack::LittleIsEnoughFault>(param_or(spec, 1.2));
  }
  if (spec.kind == "mean-reverse") {
    return std::make_unique<attack::MeanReverseFault>(param_or(spec, 1.0));
  }
  if (spec.kind == "mimic-smallest") return std::make_unique<attack::MimicSmallestFault>();
  if (spec.kind == "silent") return std::make_unique<attack::SilentFault>();
  throw std::invalid_argument("scenario: unknown fault kind \"" + spec.kind + "\"");
}

// --------------------------- workload assembly ------------------------------

/// Everything a dgd/p2p run needs alive for its duration: the cost objects,
/// the fault objects, the roster referencing both, and the closed-form
/// honest reference when one exists.
struct GradientWorkload {
  // Problem state: `regression` points at `owned_regression` or at a shared
  // prebuilt instance; otherwise the quadratic costs are populated.
  std::unique_ptr<regress::RegressionProblem> owned_regression;
  const regress::RegressionProblem* regression = nullptr;
  std::vector<opt::SquaredDistanceCost> quadratic_costs;

  std::vector<const opt::CostFunction*> costs;
  std::vector<std::unique_ptr<attack::FaultModel>> faults;
  std::vector<sim::AgentSpec> roster;
  std::vector<int> honest;  // roster positions without a fault assignment
  std::optional<Vector> reference;  // honest minimizer, when closed-form
  int dim = 0;
};

/// `shared`, when set, is the spec's random_regression instance, already
/// built; it is used in place of a fresh one.
GradientWorkload build_gradient_workload(const ScenarioSpec& spec,
                                         const regress::RegressionProblem* shared) {
  GradientWorkload w;
  const std::string problem = spec.problem.empty() ? "paper_regression" : spec.problem;
  std::set<int> faulty_positions;
  for (const auto& fault : spec.faults) faulty_positions.insert(fault.agent);
  if (problem != "random_regression") {
    for (const auto& key : spec.specified_keys) {
      ABFT_REQUIRE(key != "noise_stddev",
                   "noise_stddev applies to the random_regression problem only");
    }
  }

  if (problem == "paper_regression") {
    // The Appendix-J instance has a fixed shape; a spec that sets
    // num_agents/dim for it would run a different experiment than it
    // states, so reject rather than ignore.
    for (const auto& key : spec.specified_keys) {
      ABFT_REQUIRE(key != "num_agents" && key != "dim",
                   "paper_regression has a fixed shape (n = 6, d = 2); "
                   "num_agents/dim apply to the quadratic problem");
    }
    ABFT_REQUIRE(spec.agents.empty() ||
                     std::all_of(spec.agents.begin(), spec.agents.end(),
                                 [](int a) { return 0 <= a && a < 6; }),
                 "paper_regression agents must be in [0, 6)");
    w.owned_regression = std::make_unique<regress::RegressionProblem>(
        regress::RegressionProblem::paper_instance());
    w.regression = w.owned_regression.get();
    w.costs = w.regression->costs(spec.agents);
    w.dim = w.regression->dim();
  } else if (problem == "random_regression") {
    ABFT_REQUIRE(spec.agents.empty(),
                 "the agents subset applies to paper_regression and dsgd only");
    if (shared == nullptr) {
      w.owned_regression =
          std::make_unique<regress::RegressionProblem>(random_regression_instance(spec));
      shared = w.owned_regression.get();
    }
    w.regression = shared;
    w.costs = w.regression->costs();
    w.dim = w.regression->dim();
  } else if (problem == "quadratic") {
    ABFT_REQUIRE(spec.num_agents > 0 && spec.dim > 0, "quadratic needs num_agents and dim > 0");
    ABFT_REQUIRE(spec.agents.empty(),
                 "the agents subset applies to paper_regression and dsgd only");
    // Deliberately irregular centers (evenly spaced centers create exact
    // pairwise-distance ties and selection rules then flip on fp noise) —
    // deterministic in the spec seed, independent of the driver streams.
    util::Rng center_rng(spec.seed ^ 0x9ad5eedULL);
    for (int i = 0; i < spec.num_agents; ++i) {
      std::vector<double> center(static_cast<std::size_t>(spec.dim));
      for (auto& c : center) c = 3.0 * center_rng.normal();
      w.quadratic_costs.emplace_back(Vector(std::move(center)));
    }
    for (const auto& cost : w.quadratic_costs) w.costs.push_back(&cost);
    w.dim = spec.dim;
  } else {
    throw std::invalid_argument("scenario: unknown gradient problem \"" + problem + "\"");
  }

  w.roster = sim::honest_roster(w.costs);
  for (const auto& fault : spec.faults) {
    ABFT_REQUIRE(0 <= fault.agent && fault.agent < static_cast<int>(w.roster.size()),
                 "fault agent outside the roster");
    w.faults.push_back(make_fault(fault));
    sim::assign_fault(w.roster, fault.agent, *w.faults.back());
  }
  for (int i = 0; i < static_cast<int>(w.roster.size()); ++i) {
    if (!faulty_positions.count(i)) w.honest.push_back(i);
  }
  ABFT_REQUIRE(!w.honest.empty(), "scenario needs at least one honest agent");

  if (w.regression != nullptr) {
    // Positions == problem agent ids when no subset was taken; map through
    // the subset otherwise.
    std::vector<int> honest_ids;
    for (const int position : w.honest) {
      honest_ids.push_back(spec.agents.empty() ? position
                                               : spec.agents[static_cast<std::size_t>(position)]);
    }
    if (w.regression->subset_rank(honest_ids) == w.regression->dim()) {
      w.reference = w.regression->subset_minimizer(honest_ids);
    }
  } else {
    // argmin of sum ||x - c_i||^2 over the honest agents: their centroid.
    Vector centroid(w.dim);
    for (const int position : w.honest) {
      centroid += w.quadratic_costs[static_cast<std::size_t>(position)].center();
    }
    centroid *= 1.0 / static_cast<double>(w.honest.size());
    w.reference = centroid;
  }
  return w;
}

/// Fills result.hierarchy_bounds from the rule the run used (roster_n is
/// the full roster size — the bookkeeping the paper's 2f/n margin wants).
void attach_hierarchy_bounds(ScenarioResult* result, const agg::GradientAggregator& rule,
                             const ScenarioSpec& spec, int roster_n) {
  if (!spec.hierarchy) return;
  result->hierarchy_bounds =
      static_cast<const agg::HierarchicalAggregator&>(rule).bounds(roster_n, spec.f);
  // n < requested S clamps the tree (bounds() reports the effective count);
  // restamp the label so outputs never advertise shards that never ran.
  if (result->hierarchy_bounds->shards != spec.hierarchy->shards) {
    result->spec.aggregator = agg::hierarchy_label(*spec.hierarchy, roster_n);
  }
}

/// Builds the p2p relay behaviour a spec names; nullptr = honest relaying.
std::unique_ptr<p2p::RelayStrategy> make_relay_strategy(const ScenarioSpec& spec, int dim) {
  if (!spec.relay_strategy || spec.relay_strategy->kind == "honest") return nullptr;
  const auto& relay = *spec.relay_strategy;
  const double param = relay.param;
  if (relay.kind == "equivocate") {
    return std::make_unique<p2p::EquivocateStrategy>(std::isnan(param) ? 200.0 : param);
  }
  if (relay.kind == "silent") return std::make_unique<p2p::SilentStrategy>();
  // fixed-value: every coordinate of the pushed payload is `param`.
  return std::make_unique<p2p::FixedValueStrategy>(linalg::Vector(
      std::vector<double>(static_cast<std::size_t>(dim), std::isnan(param) ? 0.0 : param)));
}

/// Builds the Dolev-Strong behaviour a spec names; nullptr = honest.
std::unique_ptr<p2p::DsStrategy> make_ds_strategy(const ScenarioSpec& spec) {
  if (!spec.ds_strategy || spec.ds_strategy->kind == "honest") return nullptr;
  const auto& ds = *spec.ds_strategy;
  if (ds.kind == "equivocate") {
    return std::make_unique<p2p::EquivocatingDsStrategy>(ds.offset, ds.forward_probability);
  }
  return std::make_unique<p2p::SilentDsStrategy>();
}

std::unique_ptr<opt::StepSchedule> make_schedule(const ScheduleSpec& spec) {
  if (spec.kind == "harmonic") return std::make_unique<opt::HarmonicSchedule>(spec.scale);
  if (spec.kind == "constant") return std::make_unique<opt::ConstantSchedule>(spec.scale);
  if (spec.kind == "polynomial") {
    return std::make_unique<opt::PolynomialSchedule>(spec.scale, spec.power);
  }
  throw std::invalid_argument("scenario: unknown schedule kind \"" + spec.kind + "\"");
}

Vector make_x0(const ScenarioSpec& spec, int dim) {
  if (spec.x0.empty()) return Vector(dim);
  if (spec.x0.size() == 1) {
    return Vector(std::vector<double>(static_cast<std::size_t>(dim), spec.x0.front()));
  }
  ABFT_REQUIRE(static_cast<int>(spec.x0.size()) == dim, "x0 dimension mismatch");
  return Vector(spec.x0);
}

double honest_cost_at(const GradientWorkload& w, const Vector& x) {
  double total = 0.0;
  for (const int position : w.honest) {
    total += w.costs[static_cast<std::size_t>(position)]->value(x);
  }
  return total;
}

ScenarioResult run_dgd_scenario(const ScenarioSpec& spec,
                                const regress::RegressionProblem* instance) {
  reject_inapplicable_keys(spec,
                           {"batch_size", "step_size", "momentum", "eval_interval", "model",
                            "dataset", "relay_strategy", "ds_strategy"},
                           "dgd");
  GradientWorkload w = build_gradient_workload(spec, instance);
  const auto schedule = make_schedule(spec.schedule);
  const auto aggregator = make_scenario_aggregator(spec);
  sim::DgdConfig config{make_x0(spec, w.dim),
                        opt::Box::centered_cube(w.dim, spec.box_halfwidth),
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
  sim::DgdSimulation simulation(std::move(w.roster), std::move(config));
  ScenarioResult result;
  result.spec = spec;
  result.traces.push_back(simulation.run(*aggregator));
  const auto& trace = result.traces.front();
  result.final_cost = honest_cost_at(w, trace.final_estimate());
  if (w.reference) {
    result.distance_to_reference = linalg::distance(trace.final_estimate(), *w.reference);
  }
  result.eliminated_agents = trace.eliminated_agents;
  result.departed_agents = trace.departed_agents;
  result.messages_sent = simulation.network().messages_sent();
  result.messages_dropped = simulation.network().messages_dropped();
  if (const auto* stats = simulation.async_stats()) result.async_stats = *stats;
  attach_hierarchy_bounds(&result, *aggregator, spec, static_cast<int>(w.costs.size()));
  return result;
}

ScenarioResult run_p2p_scenario(const ScenarioSpec& spec, bool authenticated,
                                const regress::RegressionProblem* instance) {
  reject_inapplicable_keys(spec,
                           {"batch_size", "step_size", "momentum", "eval_interval", "model",
                            "dataset", "drop_probability", "async",
                            authenticated ? "relay_strategy" : "ds_strategy"},
                           authenticated ? "p2p_auth" : "p2p");
  GradientWorkload w = build_gradient_workload(spec, instance);
  const auto schedule = make_schedule(spec.schedule);
  const auto aggregator = make_scenario_aggregator(spec);
  const auto relay = make_relay_strategy(spec, w.dim);
  const auto ds = make_ds_strategy(spec);
  p2p::P2pDgdConfig config{make_x0(spec, w.dim),
                           opt::Box::centered_cube(w.dim, spec.box_halfwidth),
                           schedule.get(),
                           spec.iterations,
                           spec.f,
                           spec.seed,
                           spec.threads,
                           spec.mode,
                           spec.precision,
                           spec.axes};
  const auto outcome =
      authenticated ? p2p::run_p2p_dgd_authenticated(w.roster, config, *aggregator, ds.get())
                    : p2p::run_p2p_dgd(w.roster, config, *aggregator, relay.get());
  ScenarioResult result;
  result.spec = spec;
  result.traces = outcome.traces;
  result.honest_nodes = outcome.honest_nodes;
  result.final_cost = honest_cost_at(w, result.traces.front().final_estimate());
  if (w.reference) {
    result.distance_to_reference =
        linalg::distance(result.traces.front().final_estimate(), *w.reference);
  }
  result.eliminated_agents = outcome.eliminated_agents;
  result.departed_agents = outcome.departed_agents;
  result.broadcast_messages = outcome.broadcast_messages;
  attach_hierarchy_bounds(&result, *aggregator, spec, static_cast<int>(w.costs.size()));
  return result;
}

ScenarioResult run_dsgd_scenario(const ScenarioSpec& spec) {
  reject_inapplicable_keys(spec,
                           {"schedule", "box_halfwidth", "x0", "drop_probability", "dim",
                            "noise_stddev", "relay_strategy", "ds_strategy", "async"},
                           "dsgd");
  const std::string problem = spec.problem.empty() ? "synthetic" : spec.problem;
  ABFT_REQUIRE(problem == "synthetic", "dsgd supports the synthetic problem only");
  ABFT_REQUIRE(spec.num_agents > 0, "dsgd needs num_agents > 0");
  // Derived, documented sub-streams so one spec seed pins the whole run.
  util::Rng data_rng(spec.seed ^ 0xda7aULL);
  const auto full = learn::make_synthetic(spec.dataset, data_rng);
  util::Rng split_rng(spec.seed ^ 0x51D17ULL);
  auto split = learn::split_train_test(full, 0.2, split_rng);
  util::Rng shard_rng(spec.seed ^ 0x54a2dULL);
  // dirichlet_alpha defaults to +infinity, where shard_dirichlet IS the iid
  // shard() split (same code path, same rng consumption).
  auto shards =
      learn::shard_dirichlet(split.train, spec.num_agents, spec.dirichlet_alpha, shard_rng);
  if (!spec.agents.empty()) {
    // Roster subset: shard for the full num_agents roster, then run on the
    // named shards only (fault indices refer to subset positions) — the
    // dsgd analogue of paper_regression's agents subset, used by the fig4/5
    // fault-free curves ("omit the faulty agents, keep everyone's data
    // assignment").
    std::vector<learn::Dataset> subset;
    subset.reserve(spec.agents.size());
    for (const int agent : spec.agents) {
      ABFT_REQUIRE(0 <= agent && agent < spec.num_agents,
                   "agents subset entries must be in [0, num_agents)");
      subset.push_back(std::move(shards[static_cast<std::size_t>(agent)]));
    }
    shards = std::move(subset);
  }
  const int roster_size = static_cast<int>(shards.size());

  std::vector<learn::AgentFault> faults(static_cast<std::size_t>(roster_size),
                                        learn::AgentFault::kHonest);
  for (const auto& fault : spec.faults) {
    ABFT_REQUIRE(0 <= fault.agent && fault.agent < roster_size,
                 "fault agent outside the roster");
    if (fault.kind == "label-flip") {
      faults[static_cast<std::size_t>(fault.agent)] = learn::AgentFault::kLabelFlip;
    } else if (fault.kind == "gradient-reverse") {
      faults[static_cast<std::size_t>(fault.agent)] = learn::AgentFault::kGradientReverse;
    } else {
      throw std::invalid_argument("scenario: dsgd fault kind must be label-flip or "
                                  "gradient-reverse, got \"" +
                                  fault.kind + "\"");
    }
  }

  std::unique_ptr<learn::Model> model;
  Vector params0;
  if (spec.model == "mlp") {
    auto mlp = std::make_unique<learn::Mlp>(split.train.feature_dim(), spec.hidden_dim,
                                            split.train.num_classes);
    // Dedicated init sub-stream: the parameter draw must not disturb the
    // data/shard streams above.
    util::Rng init_rng(spec.seed ^ 0x1417ULL);
    params0 = mlp->initial_params(init_rng);
    model = std::move(mlp);
  } else {
    ABFT_REQUIRE(spec.model == "softmax", "model kind must be softmax or mlp");
    model = std::make_unique<learn::SoftmaxRegression>(split.train.feature_dim(),
                                                       split.train.num_classes);
    params0 = Vector(model->param_dim());
  }
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
  const auto aggregator = make_scenario_aggregator(spec);
  ScenarioResult result;
  result.spec = spec;
  result.series =
      learn::run_dsgd(*model, params0, shards, faults, split.test, *aggregator, config);
  result.final_cost = result.series->train_loss.back();
  result.departed_agents = result.series->departed_agents;
  attach_hierarchy_bounds(&result, *aggregator, spec, roster_size);
  return result;
}

}  // namespace

RegressionKey regression_key(const ScenarioSpec& spec) {
  return RegressionKey{spec.seed, spec.num_agents, spec.dim, spec.f, spec.noise_stddev};
}

regress::RegressionProblem random_regression_instance(const RegressionKey& key) {
  ABFT_REQUIRE(key.num_agents > 0 && key.dim > 0,
               "random_regression needs num_agents and dim > 0");
  ABFT_REQUIRE(key.num_agents - 2 * key.f >= key.dim,
               "random_regression needs n - 2f >= dim (else no honest subset determines x)");
  regress::GeneratorOptions options;
  options.num_agents = key.num_agents;
  options.dim = key.dim;
  options.noise_stddev = key.noise_stddev;
  options.rank_check_subset_size = key.num_agents - 2 * key.f;
  // Problem construction gets its own derived stream, independent of the
  // driver's round streams: two specs differing only in the rule or fault
  // study the same instance.
  util::Rng rng(key.seed ^ 0xab5eedULL);
  return regress::random_problem(options, rng);
}

regress::RegressionProblem random_regression_instance(const ScenarioSpec& spec) {
  return random_regression_instance(regression_key(spec));
}

std::unique_ptr<agg::GradientAggregator> make_scenario_aggregator(const ScenarioSpec& spec) {
  if (!spec.hierarchy) return agg::make_aggregator(spec.aggregator);
  agg::HierarchyConfig config = *spec.hierarchy;
  // Derived, documented sub-stream (like the problem/data streams above):
  // one spec seed pins the shard assignment too.  The xor could land on 0 —
  // the identity-assignment sentinel — so remap that one value.
  config.assignment_seed = spec.seed ^ 0x5a2dba5eULL;
  if (config.assignment_seed == 0) config.assignment_seed = 0x5a2dba5eULL;
  return std::make_unique<agg::HierarchicalAggregator>(std::move(config));
}

namespace {

ScenarioResult run_scenario_on(const ScenarioSpec& spec,
                               const regress::RegressionProblem* instance) {
  ABFT_REQUIRE(spec.iterations >= 0, "iterations must be non-negative");
  // A repeated roster entry would run one shard/cost twice under two agent
  // ids (and the dsgd subset moves shards, so a duplicate would also read a
  // moved-from Dataset) — reject for every driver.
  std::set<int> distinct_agents(spec.agents.begin(), spec.agents.end());
  ABFT_REQUIRE(distinct_agents.size() == spec.agents.size(),
               "the agents subset must not repeat entries");
  if (spec.driver == "dgd") return run_dgd_scenario(spec, instance);
  if (spec.driver == "dsgd") return run_dsgd_scenario(spec);
  if (spec.driver == "p2p") return run_p2p_scenario(spec, false, instance);
  if (spec.driver == "p2p_auth") return run_p2p_scenario(spec, true, instance);
  throw std::invalid_argument("scenario: unknown driver \"" + spec.driver + "\"");
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) { return run_scenario_on(spec, nullptr); }

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const regress::RegressionProblem& instance) {
  ABFT_REQUIRE(spec.problem == "random_regression",
               "a prebuilt instance applies to the random_regression problem only");
  ABFT_REQUIRE(instance.num_agents() == spec.num_agents && instance.dim() == spec.dim,
               "prebuilt random_regression instance does not match the spec's shape");
  return run_scenario_on(spec, &instance);
}

namespace {

// JSON-safe: non-finite values (a diverged run's nan cost) emit null.
void write_number(std::ostream& os, double value) { util::write_json_number(os, value); }

void write_string(std::ostream& os, std::string_view text) {
  util::write_json_string(os, text);
}

}  // namespace

void write_result_json(const ScenarioResult& result, std::ostream& os) {
  os << "{\n";
  os << "  \"name\": ";
  write_string(os, result.spec.name);
  os << ",\n";
  os << "  \"driver\": ";
  write_string(os, result.spec.driver);
  os << ",\n";
  os << "  \"aggregator\": ";
  write_string(os, result.spec.aggregator);
  os << ",\n";
  os << "  \"mode\": \"" << agg::to_string(result.spec.mode) << "\",\n";
  os << "  \"precision\": \"" << agg::to_string(result.spec.precision) << "\",\n";
  os << "  \"iterations\": " << result.spec.iterations << ",\n";
  os << "  \"final_cost\": ";
  write_number(os, result.final_cost);
  os << ",\n";
  if (result.distance_to_reference) {
    os << "  \"distance_to_reference\": ";
    write_number(os, *result.distance_to_reference);
    os << ",\n";
  }
  os << "  \"eliminated_agents\": " << result.eliminated_agents << ",\n";
  os << "  \"departed_agents\": " << result.departed_agents << ",\n";
  if (result.hierarchy_bounds) {
    const auto& b = *result.hierarchy_bounds;
    // "shards" is the effective count the run executed (min(requested, n));
    // "requested_shards" preserves the spec's asked-for S.
    os << "  \"hierarchy\": {\"shards\": " << b.shards
       << ", \"requested_shards\": " << result.spec.hierarchy->shards
       << ", \"shard_rows_min\": " << b.shard_rows_min << ", \"shard_rows_max\": "
       << b.shard_rows_max << ", \"f_leaf\": " << b.f_leaf << ", \"f_root\": " << b.f_root
       << ", \"tolerated_f\": " << b.tolerated_f << ", \"resilience_margin\": ";
    write_number(os, b.resilience_margin);
    os << "},\n";
  }
  if (result.async_stats) {
    const auto& a = *result.async_stats;
    os << "  \"async\": {\"quorum_fires\": " << a.quorum_fires
       << ", \"deadline_fires\": " << a.deadline_fires
       << ", \"stale_dropped\": " << a.stale_dropped << ", \"late_rows\": " << a.late_rows
       << "},\n";
  }
  if (result.series) {
    const auto& series = *result.series;
    os << "  \"final_train_loss\": ";
    write_number(os, series.train_loss.back());
    os << ",\n  \"final_test_accuracy\": ";
    write_number(os, series.test_accuracy.back());
    os << ",\n  \"evaluations\": " << series.eval_iterations.size() << "\n";
  } else {
    const auto& estimate = result.traces.front().final_estimate();
    os << "  \"trace_length\": " << result.traces.front().estimates.size() << ",\n";
    if (!result.honest_nodes.empty()) {
      os << "  \"honest_nodes\": " << result.honest_nodes.size() << ",\n";
      os << "  \"broadcast_messages\": " << result.broadcast_messages << ",\n";
    } else {
      os << "  \"messages_sent\": " << result.messages_sent << ",\n";
      os << "  \"messages_dropped\": " << result.messages_dropped << ",\n";
    }
    os << "  \"final_estimate\": [";
    for (int k = 0; k < estimate.dim(); ++k) {
      if (k > 0) os << ", ";
      write_number(os, estimate[k]);
    }
    os << "]\n";
  }
  os << "}\n";
}

void print_result(const ScenarioResult& result, std::ostream& os) {
  os << "scenario: " << (result.spec.name.empty() ? "(unnamed)" : result.spec.name) << "\n"
     << "  driver " << result.spec.driver << ", rule " << result.spec.aggregator << " ("
     << agg::to_string(result.spec.mode) << ", " << agg::to_string(result.spec.precision)
     << "), " << result.spec.iterations
     << " iterations, f = " << result.spec.f << ", seed = " << result.spec.seed << "\n";
  if (result.spec.axes.enabled()) {
    os << "  axes: participation " << result.spec.axes.participation << ", straggler "
       << result.spec.axes.straggler_probability << ", churn events "
       << result.spec.axes.churn.size() << "\n";
  }
  os << "  final honest cost " << result.final_cost;
  if (result.distance_to_reference) {
    os << ", distance to honest minimizer " << *result.distance_to_reference;
  }
  os << "\n  eliminated " << result.eliminated_agents << ", departed "
     << result.departed_agents;
  if (result.hierarchy_bounds) {
    const auto& b = *result.hierarchy_bounds;
    os << "\n  hierarchy: " << b.shards << " shards";
    if (result.spec.hierarchy && result.spec.hierarchy->shards != b.shards) {
      os << " (requested " << result.spec.hierarchy->shards << ", clamped to the roster)";
    }
    os << " of " << b.shard_rows_min << "-" << b.shard_rows_max << " rows, f_leaf "
       << b.f_leaf << ", f_root " << b.f_root << ", tolerated_f " << b.tolerated_f
       << " (margin 2f/n = " << b.resilience_margin << ")";
  }
  if (result.async_stats) {
    const auto& a = *result.async_stats;
    os << "\n  async: quorum fires " << a.quorum_fires << ", deadline fires "
       << a.deadline_fires << ", stale dropped " << a.stale_dropped << ", late rows "
       << a.late_rows;
  }
  if (!result.honest_nodes.empty()) {
    os << ", honest nodes " << result.honest_nodes.size() << ", broadcast messages "
       << result.broadcast_messages;
  } else if (!result.series) {
    os << ", messages " << result.messages_sent << " (dropped " << result.messages_dropped
       << ")";
  }
  os << "\n";
  if (result.series) {
    os << "  final train loss " << result.series->train_loss.back() << ", test accuracy "
       << 100.0 * result.series->test_accuracy.back() << "%\n";
  }
}

void write_trace_csv(const ScenarioResult& result, std::ostream& os) {
  ABFT_REQUIRE(!result.traces.empty(), "no trace to export (dsgd runs have series instead)");
  result.traces.front().write_csv(os);
}

}  // namespace abft::scenario
