// The declarative scenario layer: JSON parsing (the self-contained reader in
// util/json.hpp), spec validation, and — the load-bearing check — that a
// spec-driven run is bit-identical to the same workload hand-assembled
// against the driver API, for every driver the layer dispatches to.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "abft/agg/registry.hpp"
#include "abft/attack/simple_faults.hpp"
#include "abft/opt/schedule.hpp"
#include "abft/regress/problem.hpp"
#include "abft/scenario/scenario.hpp"
#include "abft/sim/dgd.hpp"
#include "abft/util/json.hpp"

namespace {

using namespace abft;
using linalg::Vector;

// ------------------------------- util/json ----------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  const auto doc = util::parse_json(R"({
    "text": "a\"b\\c\nA",
    "yes": true, "no": false, "nothing": null,
    "pi": 3.25, "negexp": -1.5e2,
    "list": [1, 2, 3],
    "nested": {"inner": [{"k": 7}]}
  })");
  EXPECT_EQ(doc.at("text").as_string(), "a\"b\\c\nA");
  EXPECT_TRUE(doc.at("yes").as_bool());
  EXPECT_FALSE(doc.at("no").as_bool());
  EXPECT_TRUE(doc.at("nothing").is_null());
  EXPECT_DOUBLE_EQ(doc.at("pi").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(doc.at("negexp").as_number(), -150.0);
  ASSERT_EQ(doc.at("list").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("list").as_array()[2].as_number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("nested").at("inner").as_array()[0].at("k").as_number(), 7.0);
}

TEST(Json, DefaultsAndErrors) {
  const auto doc = util::parse_json(R"({"a": 1})");
  EXPECT_DOUBLE_EQ(doc.number_or("a", 9.0), 1.0);
  EXPECT_DOUBLE_EQ(doc.number_or("missing", 9.0), 9.0);
  EXPECT_EQ(doc.string_or("missing", "dflt"), "dflt");
  EXPECT_THROW(doc.at("missing"), std::invalid_argument);
  EXPECT_THROW(doc.at("a").as_string(), std::invalid_argument);
  EXPECT_THROW(util::parse_json("{\"a\": 1} trailing"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("[1, 2,,]"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(util::parse_json(""), std::invalid_argument);
}

TEST(Json, ErrorsCarryPosition) {
  try {
    util::parse_json("{\n  \"a\": tru\n}");
    FAIL() << "expected a parse error";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("2:"), std::string::npos) << error.what();
  }
}

// ----------------------------- spec parsing ---------------------------------

TEST(ScenarioSpec, ParsesFullSpec) {
  const auto spec = scenario::parse_scenario(util::parse_json(R"({
    "name": "demo", "driver": "p2p", "problem": "paper_regression",
    "aggregator": "cge", "mode": "fast", "iterations": 40, "f": 1,
    "seed": 5, "threads": 2,
    "schedule": {"kind": "polynomial", "scale": 0.7, "power": 0.8},
    "box_halfwidth": 10.0, "x0": [0.5, -0.5],
    "faults": [{"agent": 0, "kind": "random", "param": 30.0}],
    "axes": {"participation": 0.9, "straggler_probability": 0.05,
             "perturbation_seed": 17, "churn": [{"round": 9, "agent": 2}]}
  })"));
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.driver, "p2p");
  EXPECT_EQ(spec.aggregator, "cge");
  EXPECT_EQ(spec.mode, agg::AggMode::fast);
  EXPECT_EQ(spec.iterations, 40);
  EXPECT_EQ(spec.schedule.kind, "polynomial");
  EXPECT_DOUBLE_EQ(spec.schedule.power, 0.8);
  ASSERT_EQ(spec.x0.size(), 2u);
  ASSERT_EQ(spec.faults.size(), 1u);
  EXPECT_EQ(spec.faults[0].kind, "random");
  EXPECT_DOUBLE_EQ(spec.faults[0].param, 30.0);
  EXPECT_TRUE(spec.axes.enabled());
  EXPECT_DOUBLE_EQ(spec.axes.participation, 0.9);
  ASSERT_EQ(spec.axes.churn.size(), 1u);
  EXPECT_EQ(spec.axes.churn[0].round, 9);
}

TEST(ScenarioSpec, RejectsKeysTheDriverWouldIgnore) {
  // A dsgd spec carrying gradient-driver keys must fail loudly instead of
  // silently running a different experiment (and vice versa).
  auto dsgd = scenario::parse_scenario(util::parse_json(
      R"({"driver": "dsgd", "iterations": 5, "schedule": {"kind": "constant", "scale": 0.5}})"));
  EXPECT_THROW(scenario::run_scenario(dsgd), std::invalid_argument);
  auto dgd = scenario::parse_scenario(
      util::parse_json(R"({"driver": "dgd", "iterations": 5, "batch_size": 16})"));
  EXPECT_THROW(scenario::run_scenario(dgd), std::invalid_argument);
  auto p2p = scenario::parse_scenario(
      util::parse_json(R"({"driver": "p2p", "iterations": 5, "drop_probability": 0.5})"));
  EXPECT_THROW(scenario::run_scenario(p2p), std::invalid_argument);
}

TEST(ScenarioSpec, UnsupportableDeclaredFFailsLoudly) {
  // f = 3 on a 5-agent roster can never satisfy krum's n > 2f + 2 — the
  // engine must NOT silently clamp a misconfigured spec; the rule's own
  // precondition has to surface.
  scenario::ScenarioSpec spec;
  spec.driver = "dgd";
  spec.problem = "quadratic";
  spec.num_agents = 5;
  spec.dim = 2;
  spec.aggregator = "krum";
  spec.iterations = 3;
  spec.f = 3;
  spec.seed = 2;
  spec.schedule = {"harmonic", 0.4, 1.0};
  EXPECT_THROW(scenario::run_scenario(spec), std::invalid_argument);
}

TEST(ScenarioSpec, BulyanThinRoundHoldsPositionInsteadOfCrashing) {
  // Valid at full strength (n = 7, f = 1 satisfies n >= 4f + 3), but churn
  // shrinks delivery to 5 rows where Bulyan cannot run at any f — those
  // rounds must hold position, not trip the selection-pool requirement.
  scenario::ScenarioSpec spec;
  spec.driver = "dgd";
  spec.problem = "quadratic";
  spec.num_agents = 7;
  spec.dim = 2;
  spec.aggregator = "bulyan";
  spec.iterations = 8;
  spec.f = 1;
  spec.seed = 4;
  spec.box_halfwidth = 30.0;
  spec.schedule = {"harmonic", 0.4, 1.0};
  spec.axes.churn = {{3, 1}, {3, 2}};
  const auto result = scenario::run_scenario(spec);
  ASSERT_EQ(result.traces.front().estimates.size(), 9u);
  EXPECT_EQ(result.departed_agents, 2);
  // Rounds 3+ hold: the estimate freezes after the churn event.
  const auto& estimates = result.traces.front().estimates;
  for (std::size_t t = 4; t < estimates.size(); ++t) {
    EXPECT_EQ(estimates[t], estimates[3]) << "iteration " << t;
  }
  EXPECT_NE(estimates[3], estimates[0]);  // it did move before the churn
}

TEST(ScenarioSpec, ResultJsonEscapesFreeFormText) {
  scenario::ScenarioSpec spec;
  spec.name = "quo\"te back\\slash\nnewline";
  spec.driver = "dgd";
  spec.problem = "quadratic";
  spec.num_agents = 4;
  spec.aggregator = "average";
  spec.iterations = 2;
  spec.seed = 1;
  spec.schedule = {"harmonic", 0.4, 1.0};
  spec.box_halfwidth = 10.0;
  const auto result = scenario::run_scenario(spec);
  std::ostringstream json;
  scenario::write_result_json(result, json);
  const auto parsed = util::parse_json(json.str());
  EXPECT_EQ(parsed.at("name").as_string(), spec.name);
}

TEST(ScenarioSpec, RejectsUnknownKeysAndEnums) {
  EXPECT_THROW(scenario::parse_scenario(util::parse_json(R"({"agregator": "cwtm"})")),
               std::invalid_argument);
  EXPECT_THROW(scenario::parse_scenario(
                   util::parse_json(R"({"axes": {"participatoin": 0.5}})")),
               std::invalid_argument);
  EXPECT_THROW(scenario::parse_scenario(util::parse_json(R"({"mode": "turbo"})")),
               std::invalid_argument);
  const auto bad_driver = scenario::parse_scenario(util::parse_json(R"({"driver": "mesh"})"));
  EXPECT_THROW(scenario::run_scenario(bad_driver), std::invalid_argument);
  auto bad_fault = scenario::parse_scenario(
      util::parse_json(R"({"faults": [{"agent": 0, "kind": "gremlin"}]})"));
  EXPECT_THROW(scenario::run_scenario(bad_fault), std::invalid_argument);
}

// JSON numbers are doubles: every integer field is checked, not cast — a
// fractional value would silently truncate (2.7 iterations ran 2 rounds)
// and one past INT_MAX is undefined behaviour.
TEST(ScenarioSpec, RejectsNonIntegerAndOutOfRangeIntegers) {
  const auto parse = [](const char* text) {
    return scenario::parse_scenario(util::parse_json(text));
  };
  for (const char* bad : {
           R"({"iterations": 1e12})",
           R"({"iterations": 2.7})",
           R"({"iterations": -3e9})",
           R"({"f": 2.5})",
           R"({"threads": 1e300})",
           R"({"num_agents": 4.5})",
           R"({"async": {"quorum": 1e10}})",
           R"({"async": {"staleness_cap": 0.5}})",
           R"({"axes": {"churn": [{"round": 1.5, "agent": 0}]}})",
           R"({"axes": {"churn": [{"round": 1, "agent": 3e9}]}})",
           R"({"agents": [0, 1.25]})",
           R"({"faults": [{"agent": 1e12, "kind": "reverse"}]})",
       }) {
    EXPECT_THROW(parse(bad), std::invalid_argument) << bad;
  }
  try {
    parse(R"({"iterations": 2.7})");
    FAIL() << "a fractional iteration count must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("scenario: iterations must be an integer"),
              std::string::npos)
        << error.what();
  }
  // Integral values, including the int extremes, still parse exactly.
  EXPECT_EQ(parse(R"({"iterations": 2147483647})").iterations, 2147483647);
  EXPECT_EQ(parse(R"({"iterations": 3.0, "f": 1})").iterations, 3);
}

// ----------------------- spec-vs-driver bit parity ---------------------------

TEST(ScenarioRun, DgdSpecMatchesHandBuiltDriverRun) {
  // The scenario layer must add nothing and lose nothing: the same workload
  // assembled by hand against DgdSimulation produces the identical trace.
  scenario::ScenarioSpec spec;
  spec.driver = "dgd";
  spec.problem = "paper_regression";
  spec.aggregator = "cwtm";
  spec.iterations = 120;
  spec.f = 1;
  spec.seed = 2021;
  spec.x0 = {-0.0085, -0.5643};
  spec.schedule = {"harmonic", 1.5, 1.0};
  spec.faults.push_back(scenario::FaultSpec{0, "gradient-reverse", 0.0});
  const auto result = scenario::run_scenario(spec);

  const auto problem = regress::RegressionProblem::paper_instance();
  const opt::HarmonicSchedule schedule(1.5);
  const attack::GradientReverseFault fault;
  auto roster = sim::honest_roster(problem.costs());
  sim::assign_fault(roster, 0, fault);
  sim::DgdConfig config{Vector{-0.0085, -0.5643}, opt::Box::centered_cube(2, 1000.0),
                        &schedule, 120, 1, 2021};
  sim::DgdSimulation simulation(std::move(roster), std::move(config));
  const auto aggregator = agg::make_aggregator("cwtm");
  const auto direct = simulation.run(*aggregator);

  ASSERT_EQ(result.traces.front().estimates.size(), direct.estimates.size());
  for (std::size_t t = 0; t < direct.estimates.size(); ++t) {
    ASSERT_EQ(result.traces.front().estimates[t], direct.estimates[t]) << "iteration " << t;
  }
}

TEST(ScenarioRun, AllDriversExecuteAndSummarize) {
  for (const auto* driver : {"dgd", "p2p", "p2p_auth"}) {
    scenario::ScenarioSpec spec;
    spec.driver = driver;
    spec.aggregator = "cge";
    spec.iterations = 10;
    spec.f = 1;
    spec.seed = 3;
    spec.schedule = {"harmonic", 1.5, 1.0};
    spec.faults.push_back(scenario::FaultSpec{0, "gradient-reverse", 0.0});
    const auto result = scenario::run_scenario(spec);
    ASSERT_FALSE(result.traces.empty()) << driver;
    EXPECT_EQ(result.traces.front().estimates.size(), 11u) << driver;
    ASSERT_TRUE(result.distance_to_reference.has_value()) << driver;
    std::ostringstream json;
    scenario::write_result_json(result, json);
    // The machine summary must itself be valid JSON (our own parser checks).
    const auto parsed = util::parse_json(json.str());
    EXPECT_EQ(parsed.at("driver").as_string(), driver);
    EXPECT_NEAR(parsed.at("final_cost").as_number(), result.final_cost,
                1e-9 * (1.0 + std::abs(result.final_cost)));
  }

  scenario::ScenarioSpec dsgd;
  dsgd.driver = "dsgd";
  dsgd.aggregator = "cwtm";
  dsgd.iterations = 12;
  dsgd.eval_interval = 6;
  dsgd.batch_size = 4;
  dsgd.f = 1;
  dsgd.num_agents = 5;
  dsgd.seed = 77;
  dsgd.faults.push_back(scenario::FaultSpec{0, "label-flip", 0.0});
  const auto result = scenario::run_scenario(dsgd);
  ASSERT_TRUE(result.series.has_value());
  EXPECT_EQ(result.series->eval_iterations.back(), 12);
  std::ostringstream json;
  scenario::write_result_json(result, json);
  const auto parsed = util::parse_json(json.str());
  EXPECT_EQ(parsed.at("driver").as_string(), "dsgd");
  EXPECT_GT(parsed.at("final_test_accuracy").as_number(), 0.0);
}

TEST(ScenarioRun, QuadraticProblemReferenceIsHonestCentroid) {
  scenario::ScenarioSpec spec;
  spec.driver = "dgd";
  spec.problem = "quadratic";
  spec.num_agents = 6;
  spec.dim = 3;
  spec.aggregator = "average";
  spec.iterations = 400;
  spec.f = 0;
  spec.seed = 13;
  spec.box_halfwidth = 50.0;
  spec.schedule = {"harmonic", 0.5, 1.0};
  const auto result = scenario::run_scenario(spec);
  // Fault-free plain averaging on squared-distance costs converges to the
  // centroid — the layer's closed-form reference must agree.
  ASSERT_TRUE(result.distance_to_reference.has_value());
  EXPECT_LT(*result.distance_to_reference, 1e-2);
}

// ------------------------- new workload knobs -------------------------------

TEST(ScenarioRun, DsgdDirichletAlphaDefaultMatchesExplicitInfinity) {
  // A spec that never mentions dirichlet_alpha and one that sets it to the
  // iid limit programmatically must produce the same series — the knob's
  // default is exactly today's split.
  scenario::ScenarioSpec spec;
  spec.driver = "dsgd";
  spec.aggregator = "cwtm";
  spec.iterations = 8;
  spec.eval_interval = 4;
  spec.batch_size = 4;
  spec.num_agents = 5;
  spec.f = 1;
  spec.seed = 31;
  spec.faults.push_back(scenario::FaultSpec{0, "label-flip", 0.0});
  const auto iid = scenario::run_scenario(spec);
  spec.dirichlet_alpha = std::numeric_limits<double>::infinity();
  const auto limit = scenario::run_scenario(spec);
  ASSERT_TRUE(iid.series && limit.series);
  EXPECT_EQ(iid.series->train_loss, limit.series->train_loss);
  EXPECT_EQ(iid.series->final_params, limit.series->final_params);

  // A finite alpha actually changes the shards (and hence the run).
  spec.dirichlet_alpha = 0.1;
  const auto skewed = scenario::run_scenario(spec);
  EXPECT_NE(iid.series->train_loss, skewed.series->train_loss);
}

TEST(ScenarioSpec, DsgdKnobsParseAndValidate) {
  const auto spec = scenario::parse_scenario(util::parse_json(R"({
    "driver": "dsgd", "iterations": 6, "num_agents": 6, "agents": [1, 2, 3],
    "model": {"kind": "mlp", "hidden_dim": 8},
    "dataset": {"num_classes": 3, "feature_dim": 5, "examples_per_class": 20,
                "dirichlet_alpha": 0.3}
  })"));
  EXPECT_EQ(spec.model, "mlp");
  EXPECT_EQ(spec.hidden_dim, 8);
  EXPECT_DOUBLE_EQ(spec.dirichlet_alpha, 0.3);
  ASSERT_EQ(spec.agents.size(), 3u);
  const auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.series.has_value());

  EXPECT_THROW(scenario::parse_scenario(
                   util::parse_json(R"({"model": {"kind": "resnet"}})")),
               std::invalid_argument);
  EXPECT_THROW(scenario::parse_scenario(
                   util::parse_json(R"({"dataset": {"dirichlet_alpha": 0}})")),
               std::invalid_argument);
  // The roster subset must name real shards, and must not repeat one (the
  // subset moves shards out; a duplicate would alias a moved-from Dataset).
  auto bad = scenario::parse_scenario(util::parse_json(
      R"({"driver": "dsgd", "iterations": 2, "num_agents": 4, "agents": [4]})"));
  EXPECT_THROW(scenario::run_scenario(bad), std::invalid_argument);
  auto doubled = scenario::parse_scenario(util::parse_json(
      R"({"driver": "dsgd", "iterations": 2, "num_agents": 4, "agents": [1, 1, 2]})"));
  EXPECT_THROW(scenario::run_scenario(doubled), std::invalid_argument);
}

TEST(ScenarioRun, RandomRegressionIsDeterministicAndReferenced) {
  scenario::ScenarioSpec spec;
  spec.driver = "dgd";
  spec.problem = "random_regression";
  spec.num_agents = 8;
  spec.dim = 2;
  spec.noise_stddev = 0.1;
  spec.aggregator = "cge";
  spec.iterations = 30;
  spec.f = 1;
  spec.seed = 1000;
  spec.schedule = {"harmonic", 0.5, 1.0};
  spec.faults.push_back(scenario::FaultSpec{0, "gradient-reverse", 0.0});
  const auto first = scenario::run_scenario(spec);
  const auto second = scenario::run_scenario(spec);
  ASSERT_TRUE(first.distance_to_reference.has_value());
  EXPECT_EQ(*first.distance_to_reference, *second.distance_to_reference);
  EXPECT_EQ(first.traces.front().estimates, second.traces.front().estimates);

  // The exposed instance is the very problem the run used: same design, so
  // the honest-subset minimizer matches the run's reference distance.
  const auto problem = scenario::random_regression_instance(spec);
  EXPECT_EQ(problem.num_agents(), 8);
  EXPECT_EQ(problem.dim(), 2);
  const std::vector<int> honest{1, 2, 3, 4, 5, 6, 7};
  const auto x_h = problem.subset_minimizer(honest);
  EXPECT_NEAR(linalg::distance(first.traces.front().final_estimate(), x_h),
              *first.distance_to_reference, 1e-12);

  // noise_stddev is a random_regression-only key.
  auto wrong = scenario::parse_scenario(util::parse_json(
      R"({"driver": "dgd", "problem": "quadratic", "iterations": 2, "noise_stddev": 0.1})"));
  EXPECT_THROW(scenario::run_scenario(wrong), std::invalid_argument);
  // And the redundancy precondition n - 2f >= d must surface, not hang.
  spec.f = 4;
  EXPECT_THROW(scenario::run_scenario(spec), std::invalid_argument);
}

// ----------------------- hierarchical aggregator ----------------------------

TEST(ScenarioSpec, HierarchyAggregatorParsesObjectForm) {
  const auto spec = scenario::parse_scenario(util::parse_json(R"({
    "driver": "dgd", "problem": "quadratic",
    "aggregator": {"hierarchy": {"shards": 6, "leaf_rule": "krum",
                                 "root_rule": "cwmed", "f_leaf": 2}}
  })"));
  ASSERT_TRUE(spec.hierarchy.has_value());
  EXPECT_EQ(spec.hierarchy->shards, 6);
  EXPECT_EQ(spec.hierarchy->leaf_rule, "krum");
  EXPECT_EQ(spec.hierarchy->root_rule, "cwmed");
  EXPECT_EQ(spec.hierarchy->f_leaf, 2);
  EXPECT_EQ(spec.aggregator, "hier-6-krum-cwmed-fl2");

  // Leaf/root default to cwtm, f_leaf to auto.
  const auto defaults = scenario::parse_scenario(
      util::parse_json(R"({"aggregator": {"hierarchy": {"shards": 4}}})"));
  ASSERT_TRUE(defaults.hierarchy.has_value());
  EXPECT_EQ(defaults.hierarchy->leaf_rule, "cwtm");
  EXPECT_EQ(defaults.hierarchy->root_rule, "cwtm");
  EXPECT_EQ(defaults.hierarchy->f_leaf, -1);
  EXPECT_EQ(defaults.aggregator, "hier-4-cwtm-cwtm");
}

TEST(ScenarioSpec, HierarchyAggregatorRejectsMalformedBlocks) {
  const auto parse = [](const char* text) {
    return scenario::parse_scenario(util::parse_json(text));
  };
  // Unknown key next to (or inside) the hierarchy block.
  EXPECT_THROW(parse(R"({"aggregator": {"hierarchy": {"shards": 2}, "x": 1}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"aggregator": {"hierarchy": {"shards": 2, "nope": 1}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"aggregator": {"hierarchy": {"shards": 0}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"aggregator": {"hierarchy": {"leaf_rule": "nope"}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"aggregator": {"hierarchy": {"root_rule": "nope"}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"aggregator": {"hierarchy": {"f_leaf": -1}}})"),
               std::invalid_argument);
}

TEST(ScenarioSpec, ReductionBlockParsesBothKindsAndAdaptiveSize) {
  const auto sample = scenario::parse_scenario(util::parse_json(R"({
    "aggregator": {"rule": "cwtm",
                   "reduction": {"sample": {"size": 16, "strata": 4}}}
  })"));
  ASSERT_TRUE(sample.coreset.has_value());
  EXPECT_EQ(sample.coreset->kind, agg::CoresetConfig::Kind::sample);
  EXPECT_EQ(sample.coreset->size, 16);
  EXPECT_EQ(sample.coreset->strata, 4);
  EXPECT_EQ(sample.aggregator, "sample-16-cwtm");

  const auto adaptive = scenario::parse_scenario(util::parse_json(R"({
    "aggregator": {"rule": "krum",
                   "reduction": {"coreset": {"size": "adaptive"}}}
  })"));
  ASSERT_TRUE(adaptive.coreset.has_value());
  EXPECT_EQ(adaptive.coreset->kind, agg::CoresetConfig::Kind::kcenter);
  EXPECT_EQ(adaptive.coreset->size, agg::CoresetConfig::kAdaptiveSize);
  EXPECT_EQ(adaptive.aggregator, "coreset-adaptive-krum");

  const auto parse = [](const char* text) {
    return scenario::parse_scenario(util::parse_json(text));
  };
  // "adaptive" is a k-center growth policy; the sampler has no radius to
  // drive it.
  EXPECT_THROW(parse(R"({"aggregator": {"rule": "cwtm",
      "reduction": {"sample": {"size": "adaptive"}}}})"),
               std::invalid_argument);
  // Exactly one reducer kind per reduction block.
  EXPECT_THROW(parse(R"({"aggregator": {"rule": "cwtm",
      "reduction": {"coreset": {"size": 4}, "sample": {"size": 4}}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"aggregator": {"rule": "cwtm", "reduction": {}}})"),
               std::invalid_argument);
  // Unknown keys inside either sub-block fail loudly.
  EXPECT_THROW(parse(R"({"aggregator": {"rule": "cwtm",
      "reduction": {"sample": {"size": 4, "temperature": 1}}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"aggregator": {"rule": "cwtm",
      "reduction": {"coreset": {"size": 4, "strata": 2}}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"aggregator": {"rule": "cwtm",
      "reduction": {"sample": {"size": -1}}}})"),
               std::invalid_argument);
}

TEST(ScenarioRun, HierarchySpecRunsAndReportsBounds) {
  auto spec = scenario::parse_scenario(util::parse_json(R"({
    "name": "hier-run", "driver": "dgd", "problem": "quadratic",
    "num_agents": 60, "dim": 3, "iterations": 30, "f": 6, "seed": 5,
    "box_halfwidth": 50.0,
    "aggregator": {"hierarchy": {"shards": 6, "leaf_rule": "krum",
                                 "root_rule": "cwtm", "f_leaf": 2}}
  })"));
  const auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.hierarchy_bounds.has_value());
  const auto& b = *result.hierarchy_bounds;
  EXPECT_EQ(b.n, 60);
  EXPECT_EQ(b.shards, 6);
  EXPECT_EQ(b.shard_rows_min, 10);
  EXPECT_EQ(b.f_leaf, 2);
  EXPECT_EQ(b.f_root, 2);  // floor(6 / 3), within cwtm(6)'s cap
  EXPECT_EQ(b.tolerated_f, 8);
  EXPECT_DOUBLE_EQ(b.resilience_margin, 2.0 * 8 / 60);
  EXPECT_TRUE(std::isfinite(result.final_cost));
  std::ostringstream json;
  scenario::write_result_json(result, json);
  EXPECT_NE(json.str().find("\"hierarchy\""), std::string::npos);
  EXPECT_NE(json.str().find("\"tolerated_f\": 8"), std::string::npos);

  // A non-hierarchy run carries no bounds (and no JSON block).
  const auto flat = scenario::run_scenario(scenario::parse_scenario(util::parse_json(
      R"({"driver": "dgd", "problem": "quadratic", "iterations": 5})")));
  EXPECT_FALSE(flat.hierarchy_bounds.has_value());
}

TEST(ScenarioRun, SingleShardHierarchyMatchesFlatRunBitwise) {
  const char* common = R"("driver": "dgd", "problem": "quadratic",
    "num_agents": 21, "dim": 2, "iterations": 40, "f": 2, "seed": 9,
    "box_halfwidth": 40.0,
    "faults": [{"agent": 0, "kind": "random"}, {"agent": 1, "kind": "sign-flip-scale"}])";
  const auto flat = scenario::run_scenario(scenario::parse_scenario(
      util::parse_json(std::string("{\"aggregator\": \"krum\", ") + common + "}")));
  const auto hier = scenario::run_scenario(scenario::parse_scenario(util::parse_json(
      std::string(R"({"aggregator": {"hierarchy": {"shards": 1, "leaf_rule": "krum"}}, )") +
      common + "}")));
  ASSERT_EQ(flat.traces.size(), hier.traces.size());
  EXPECT_EQ(flat.traces.front().final_estimate(), hier.traces.front().final_estimate());
  EXPECT_EQ(flat.final_cost, hier.final_cost);
}

// --------------------- p2p in-protocol strategies ----------------------------

TEST(ScenarioSpec, StrategyBlocksParseAndValidate) {
  const auto spec = scenario::parse_scenario(util::parse_json(R"({
    "driver": "p2p", "relay_strategy": {"kind": "equivocate", "param": 50.0}
  })"));
  ASSERT_TRUE(spec.relay_strategy.has_value());
  EXPECT_EQ(spec.relay_strategy->kind, "equivocate");
  EXPECT_DOUBLE_EQ(spec.relay_strategy->param, 50.0);

  const auto ds = scenario::parse_scenario(util::parse_json(R"({
    "driver": "p2p_auth",
    "ds_strategy": {"kind": "equivocate", "offset": 7.0, "forward_probability": 0.25}
  })"));
  ASSERT_TRUE(ds.ds_strategy.has_value());
  EXPECT_DOUBLE_EQ(ds.ds_strategy->offset, 7.0);
  EXPECT_DOUBLE_EQ(ds.ds_strategy->forward_probability, 0.25);

  const auto parse = [](const char* text) {
    return scenario::parse_scenario(util::parse_json(text));
  };
  EXPECT_THROW(parse(R"({"relay_strategy": {"kind": "nope"}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"relay_strategy": {"kind": "honest", "x": 1}})"),
               std::invalid_argument);
  // param only makes sense for equivocate / fixed-value.
  EXPECT_THROW(parse(R"({"relay_strategy": {"kind": "silent", "param": 1.0}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"ds_strategy": {"kind": "nope"}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"ds_strategy": {"kind": "equivocate", "forward_probability": 1.5}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"ds_strategy": {"kind": "silent", "offset": 1.0}})"),
               std::invalid_argument);
}

TEST(ScenarioRun, StrategyKeysRejectedOnWrongDriver) {
  const auto run = [](const char* text) {
    return scenario::run_scenario(scenario::parse_scenario(util::parse_json(text)));
  };
  // relay_strategy belongs to the Oral-Messages p2p driver only.
  EXPECT_THROW(run(R"({"driver": "dgd", "problem": "quadratic", "iterations": 2,
                       "relay_strategy": {"kind": "silent"}})"),
               std::invalid_argument);
  EXPECT_THROW(run(R"({"driver": "p2p_auth", "problem": "quadratic", "iterations": 2,
                       "relay_strategy": {"kind": "silent"}})"),
               std::invalid_argument);
  // ds_strategy belongs to the Dolev-Strong p2p_auth driver only.
  EXPECT_THROW(run(R"({"driver": "p2p", "problem": "quadratic", "iterations": 2,
                       "ds_strategy": {"kind": "silent"}})"),
               std::invalid_argument);
  EXPECT_THROW(run(R"({"driver": "dsgd", "iterations": 2,
                       "ds_strategy": {"kind": "silent"}})"),
               std::invalid_argument);
}

TEST(ScenarioRun, P2pStrategiesExecuteAndHonestKindIsTransparent) {
  const char* common = R"("problem": "quadratic", "num_agents": 7, "dim": 2,
    "iterations": 15, "f": 1, "seed": 3, "box_halfwidth": 40.0,
    "faults": [{"agent": 0, "kind": "random"}])";
  const auto run = [&](const std::string& head) {
    return scenario::run_scenario(
        scenario::parse_scenario(util::parse_json("{" + head + ", " + common + "}")));
  };
  // An explicit honest strategy is bit-identical to leaving the key out.
  const auto plain = run(R"("driver": "p2p")");
  const auto honest = run(R"("driver": "p2p", "relay_strategy": {"kind": "honest"})");
  EXPECT_EQ(plain.traces.front().final_estimate(), honest.traces.front().final_estimate());
  // Misbehaving relays still yield a finite, converging run.
  const auto equiv = run(R"("driver": "p2p", "relay_strategy": {"kind": "equivocate"})");
  EXPECT_TRUE(std::isfinite(equiv.final_cost));
  EXPECT_GT(equiv.broadcast_messages, 0);
  const auto fixed =
      run(R"("driver": "p2p", "relay_strategy": {"kind": "fixed-value", "param": 3.0})");
  EXPECT_TRUE(std::isfinite(fixed.final_cost));

  const auto ds_plain = run(R"("driver": "p2p_auth")");
  const auto ds_honest = run(R"("driver": "p2p_auth", "ds_strategy": {"kind": "honest"})");
  EXPECT_EQ(ds_plain.traces.front().final_estimate(),
            ds_honest.traces.front().final_estimate());
  const auto ds_equiv = run(R"("driver": "p2p_auth", "ds_strategy": {"kind": "equivocate"})");
  EXPECT_TRUE(std::isfinite(ds_equiv.final_cost));
}

// ------------------------- async engine mode ---------------------------------

TEST(ScenarioSpec, AsyncBlockParsesAndValidates) {
  const auto spec = scenario::parse_scenario(util::parse_json(R"({
    "driver": "dgd", "problem": "quadratic",
    "async": {"quorum": 5, "deadline": 2.0, "staleness_cap": 3,
              "arrival": {"kind": "exponential", "scale": 0.8}}
  })"));
  ASSERT_TRUE(spec.async.has_value());
  EXPECT_EQ(spec.async->quorum, 5);
  EXPECT_DOUBLE_EQ(spec.async->deadline, 2.0);
  EXPECT_EQ(spec.async->staleness_cap, 3);
  EXPECT_EQ(spec.async->arrival.kind, "exponential");
  EXPECT_DOUBLE_EQ(spec.async->arrival.scale, 0.8);

  // An empty block is the full-quorum zero-staleness default config.
  const auto defaults =
      scenario::parse_scenario(util::parse_json(R"({"async": {}})"));
  ASSERT_TRUE(defaults.async.has_value());
  EXPECT_EQ(defaults.async->quorum, 0);
  EXPECT_EQ(defaults.async->staleness_cap, 0);

  const auto parse = [](const char* text) {
    return scenario::parse_scenario(util::parse_json(text));
  };
  EXPECT_THROW(parse(R"({"async": {"qourum": 3}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"async": {"quorum": -1}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"async": {"deadline": 0.0}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"async": {"staleness_cap": -2}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"async": {"arrival": {"kind": "bursty"}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"async": {"arrival": {"scale": 0.0}}})"), std::invalid_argument);
  // Lateness/loss live in the virtual clock: the synchronous perturbation
  // axes and drop injection do not compose with async mode.
  EXPECT_THROW(parse(R"({"async": {}, "axes": {"participation": 0.5}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"async": {}, "drop_probability": 0.1})"), std::invalid_argument);
}

TEST(ScenarioRun, AsyncKeyRejectedOnWrongDriver) {
  const auto run = [](const char* text) {
    return scenario::run_scenario(scenario::parse_scenario(util::parse_json(text)));
  };
  EXPECT_THROW(run(R"({"driver": "p2p", "problem": "quadratic", "iterations": 2,
                       "async": {}})"),
               std::invalid_argument);
  EXPECT_THROW(run(R"({"driver": "p2p_auth", "problem": "quadratic", "iterations": 2,
                       "async": {}})"),
               std::invalid_argument);
  EXPECT_THROW(run(R"({"driver": "dsgd", "iterations": 2, "async": {}})"),
               std::invalid_argument);
}

TEST(ScenarioRun, AsyncResultCarriesTheCounters) {
  const auto result = scenario::run_scenario(scenario::parse_scenario(util::parse_json(R"({
    "driver": "dgd", "problem": "quadratic", "num_agents": 6, "dim": 2,
    "iterations": 10, "seed": 2, "box_halfwidth": 30.0,
    "async": {"quorum": 4, "staleness_cap": 2,
              "arrival": {"kind": "exponential", "scale": 0.7}}
  })")));
  ASSERT_TRUE(result.async_stats.has_value());
  EXPECT_EQ(result.async_stats->quorum_fires + result.async_stats->deadline_fires, 10);
  std::ostringstream json;
  scenario::write_result_json(result, json);
  EXPECT_NE(json.str().find("\"async\": {\"quorum_fires\": "), std::string::npos);
  std::ostringstream text;
  scenario::print_result(result, text);
  EXPECT_NE(text.str().find("async: quorum fires "), std::string::npos);
}

TEST(ScenarioRun, CommittedSpecsParse) {
  for (const auto* path :
       {"fig2_cwtm_reverse.json", "fig2_cge_random.json", "fig2_fault_free.json",
        "table1_cwtm_reverse.json", "scenario_churn_stragglers.json", "smoke_dgd.json",
        "smoke_dsgd.json", "smoke_p2p.json", "async_smoke.json"}) {
    SCOPED_TRACE(path);
    // ctest runs from the build tree; the specs live in the source tree.
    scenario::ScenarioSpec spec;
    ASSERT_NO_THROW(spec = scenario::load_scenario_file(std::string(ABFT_SPEC_DIR "/") + path));
    EXPECT_FALSE(spec.name.empty());
  }
}

}  // namespace
