// The sweep orchestration layer: grid expansion (cartesian size/ordering,
// deterministic run ids, seed ranges), spec validation (unknown/duplicate/
// conflicting keys), and — the load-bearing checks — that sweep execution is
// bit-identical to run-by-run run_scenario and row-for-row identical at
// every thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "abft/sweep/sweep.hpp"
#include "abft/util/json.hpp"

namespace {

using namespace abft;

sweep::SweepSpec parse(const std::string& text) {
  return sweep::parse_sweep(util::parse_json(text));
}

/// The message parse(text) throws; fails the test when it does not throw.
std::string parse_error(const std::string& text) {
  try {
    parse(text);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected a rejection: " << text;
  return "";
}

const char* kQuadraticGrid = R"({
  "name": "grid",
  "base": {
    "driver": "dgd", "problem": "quadratic", "num_agents": 6, "dim": 2,
    "iterations": 12, "box_halfwidth": 30.0,
    "schedule": {"kind": "harmonic", "scale": 0.4}
  },
  "sweep": {
    "aggregator": ["cwtm", "cge"],
    "f": [0, 1],
    "seed": {"from": 5, "count": 3}
  }
})";

// ------------------------------ expansion -----------------------------------

TEST(SweepExpand, CartesianSizeAndRowMajorOrdering) {
  const auto runs = sweep::expand_sweep(parse(kQuadraticGrid));
  // |aggregator| x |f| x |seed| in canonical order, last axis fastest.
  ASSERT_EQ(runs.size(), 2u * 2u * 3u);
  EXPECT_EQ(runs[0].spec.aggregator, "cwtm");
  EXPECT_EQ(runs[0].spec.f, 0);
  EXPECT_EQ(runs[0].spec.seed, 5u);
  EXPECT_EQ(runs[1].spec.seed, 6u);  // seed varies fastest
  EXPECT_EQ(runs[2].spec.seed, 7u);
  EXPECT_EQ(runs[3].spec.f, 1);  // then f
  EXPECT_EQ(runs[3].spec.seed, 5u);
  EXPECT_EQ(runs[6].spec.aggregator, "cge");  // aggregator outermost
  EXPECT_EQ(runs[6].spec.f, 0);
  EXPECT_EQ(runs[6].spec.seed, 5u);
  // Axis cells mirror the spec values, in canonical order.
  ASSERT_EQ(runs[0].axes.size(), 3u);
  EXPECT_EQ(runs[0].axes[0].axis, "aggregator");
  EXPECT_EQ(runs[0].axes[1].axis, "f");
  EXPECT_EQ(runs[0].axes[2].axis, "seed");
}

TEST(SweepExpand, DeterministicRunIds) {
  const auto runs = sweep::expand_sweep(parse(kQuadraticGrid));
  EXPECT_EQ(runs[0].run_id, "000_aggregator=cwtm_f=0_seed=5");
  EXPECT_EQ(runs[7].run_id, "007_aggregator=cge_f=0_seed=6");
  EXPECT_EQ(runs[11].run_id, "011_aggregator=cge_f=1_seed=7");
  // Expansion is a pure function of the spec.
  const auto again = sweep::expand_sweep(parse(kQuadraticGrid));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].run_id, again[i].run_id);
  }
}

TEST(SweepExpand, SeedRangeAndExplicitListAgree) {
  const auto ranged = parse(kQuadraticGrid);
  auto listed = parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 6, "dim": 2,
             "iterations": 12, "box_halfwidth": 30.0,
             "schedule": {"kind": "harmonic", "scale": 0.4}},
    "sweep": {"aggregator": ["cwtm", "cge"], "f": [0, 1], "seed": [5, 6, 7]}
  })");
  EXPECT_EQ(ranged.seed, listed.seed);
  EXPECT_EQ(ranged.seed, (std::vector<std::uint64_t>{5, 6, 7}));
}

TEST(SweepExpand, FaultPresetsAndVariantPatchesApply) {
  // The fig2 shape: an attack axis replaced wholesale by a variant that
  // clears the faults and shrinks the roster — variants apply last.
  const auto runs = sweep::expand_sweep(parse(R"({
    "base": {"driver": "dgd", "problem": "paper_regression", "iterations": 5,
             "f": 1, "seed": 2021, "schedule": {"kind": "harmonic", "scale": 1.5}},
    "sweep": {
      "faults": [
        {"label": "reverse", "faults": [{"agent": 0, "kind": "gradient-reverse"}]},
        {"label": "random", "faults": [{"agent": 0, "kind": "random", "param": 200.0}]}
      ],
      "variants": [
        {"label": "fault-free",
         "patch": {"aggregator": "average", "f": 0, "agents": [1, 2, 3, 4, 5], "faults": []}},
        {"label": "CWTM", "patch": {"aggregator": "cwtm"}}
      ]
    }
  })"));
  ASSERT_EQ(runs.size(), 4u);
  // fault-free under both attacks: faults cleared, subset roster, f = 0.
  EXPECT_TRUE(runs[0].spec.faults.empty());
  EXPECT_EQ(runs[0].spec.f, 0);
  EXPECT_EQ(runs[0].spec.agents.size(), 5u);
  EXPECT_EQ(runs[0].spec.aggregator, "average");
  // CWTM keeps the axis's fault assignment.
  ASSERT_EQ(runs[1].spec.faults.size(), 1u);
  EXPECT_EQ(runs[1].spec.faults[0].kind, "gradient-reverse");
  EXPECT_EQ(runs[1].spec.aggregator, "cwtm");
  ASSERT_EQ(runs[3].spec.faults.size(), 1u);
  EXPECT_EQ(runs[3].spec.faults[0].kind, "random");
  EXPECT_EQ(runs[3].run_id, "003_faults=random_variants=CWTM");
}

TEST(SweepExpand, ParticipationAxisMergesIntoNestedAxes) {
  const auto runs = sweep::expand_sweep(parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 5, "dim": 2,
             "iterations": 4, "schedule": {"kind": "harmonic", "scale": 0.4},
             "axes": {"perturbation_seed": 9}},
    "sweep": {"participation": [1.0, 0.8], "straggler_probability": [0.0, 0.25]}
  })"));
  ASSERT_EQ(runs.size(), 4u);
  // The nested merge must preserve the base's other axes keys.
  EXPECT_EQ(runs[3].spec.axes.perturbation_seed, 9u);
  EXPECT_DOUBLE_EQ(runs[3].spec.axes.participation, 0.8);
  EXPECT_DOUBLE_EQ(runs[3].spec.axes.straggler_probability, 0.25);
  EXPECT_DOUBLE_EQ(runs[0].spec.axes.participation, 1.0);
  EXPECT_DOUBLE_EQ(runs[0].spec.axes.straggler_probability, 0.0);
}

// The shards axis rebuilds the nested aggregator/hierarchy object per run
// and lands in canonical position (between f and seed) in ids and cells.
TEST(SweepExpand, ShardsAxisSetsNestedHierarchyMember) {
  const auto runs = sweep::expand_sweep(parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 24, "dim": 2,
             "iterations": 4, "f": 2, "box_halfwidth": 40.0,
             "schedule": {"kind": "harmonic", "scale": 0.4},
             "aggregator": {"hierarchy": {"leaf_rule": "krum", "root_rule": "cwtm"}}},
    "sweep": {"shards": [1, 4], "seed": [7, 8]}
  })"));
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].run_id, "000_shards=1_seed=7");
  EXPECT_EQ(runs[3].run_id, "003_shards=4_seed=8");
  ASSERT_TRUE(runs[3].spec.hierarchy.has_value());
  EXPECT_EQ(runs[3].spec.hierarchy->shards, 4);
  // The base's other hierarchy keys survive the per-run rebuild.
  EXPECT_EQ(runs[3].spec.hierarchy->leaf_rule, "krum");
  EXPECT_EQ(runs[3].spec.aggregator, "hier-4-krum-cwtm");
  EXPECT_EQ(runs[0].spec.hierarchy->shards, 1);
  EXPECT_EQ(runs[0].axes.front().axis, "shards");
  // A base with no aggregator at all defaults to an all-cwtm tree.
  const auto defaulted = sweep::expand_sweep(parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 12, "dim": 2,
             "iterations": 3},
    "sweep": {"shards": [3]}
  })"));
  ASSERT_EQ(defaulted.size(), 1u);
  ASSERT_TRUE(defaulted[0].spec.hierarchy.has_value());
  EXPECT_EQ(defaulted[0].spec.aggregator, "hier-3-cwtm-cwtm");
}

// The coreset_size axis rebuilds aggregator/reduction/coreset per run, lands
// after shards in canonical order, and composes with the shards axis into
// per-shard coresets.
TEST(SweepExpand, CoresetSizeAxisSetsNestedReductionMember) {
  const auto runs = sweep::expand_sweep(parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 30, "dim": 2,
             "iterations": 4, "f": 2, "box_halfwidth": 40.0,
             "schedule": {"kind": "harmonic", "scale": 0.4},
             "aggregator": {"rule": "cwtm"}},
    "sweep": {"coreset_size": [8, 0], "seed": [7, 8]}
  })"));
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].run_id, "000_coreset_size=8_seed=7");
  EXPECT_EQ(runs[3].run_id, "003_coreset_size=0_seed=8");
  ASSERT_TRUE(runs[0].spec.coreset.has_value());
  EXPECT_EQ(runs[0].spec.coreset->size, 8);
  EXPECT_EQ(runs[0].spec.coreset_rule, "cwtm");
  EXPECT_EQ(runs[0].spec.aggregator, "coreset-8-cwtm");
  // size 0 = the auto budget f + ceil(sqrt n).
  EXPECT_EQ(runs[2].spec.coreset->size, 0);
  EXPECT_EQ(runs[2].spec.aggregator, "coreset-auto-cwtm");
  // Composing with the shards axis: the reduction object lands beside the
  // hierarchy object and becomes the per-shard leaf coreset.
  const auto composed = sweep::expand_sweep(parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 30, "dim": 2,
             "iterations": 3, "f": 2,
             "aggregator": {"hierarchy": {"leaf_rule": "cwtm", "root_rule": "cwtm"}}},
    "sweep": {"shards": [2], "coreset_size": [6]}
  })"));
  ASSERT_EQ(composed.size(), 1u);
  EXPECT_EQ(composed[0].run_id, "000_shards=2_coreset_size=6");
  ASSERT_TRUE(composed[0].spec.hierarchy.has_value());
  ASSERT_TRUE(composed[0].spec.hierarchy->coreset.has_value());
  EXPECT_EQ(composed[0].spec.hierarchy->coreset->size, 6);
  EXPECT_EQ(composed[0].spec.aggregator, "hier-2-cwtm-cwtm-cs6");
}

// The reduction_kind axis re-keys the reduction object per run, lands after
// coreset_size in canonical order, and composes with it: the size axis
// writes the inner config, the kind axis renames the strategy around it.
TEST(SweepExpand, ReductionKindAxisRekeysTheReductionObject) {
  const auto runs = sweep::expand_sweep(parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 30, "dim": 2,
             "iterations": 4, "f": 2, "aggregator": {"rule": "cwtm"}},
    "sweep": {"coreset_size": [8], "reduction_kind": ["coreset", "sample"]}
  })"));
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].run_id, "000_coreset_size=8_reduction_kind=coreset");
  EXPECT_EQ(runs[1].run_id, "001_coreset_size=8_reduction_kind=sample");
  ASSERT_TRUE(runs[0].spec.coreset.has_value());
  EXPECT_EQ(runs[0].spec.coreset->kind, agg::CoresetConfig::Kind::kcenter);
  EXPECT_EQ(runs[0].spec.coreset->size, 8);
  EXPECT_EQ(runs[0].spec.aggregator, "coreset-8-cwtm");
  ASSERT_TRUE(runs[1].spec.coreset.has_value());
  EXPECT_EQ(runs[1].spec.coreset->kind, agg::CoresetConfig::Kind::sample);
  EXPECT_EQ(runs[1].spec.coreset->size, 8);
  EXPECT_EQ(runs[1].spec.aggregator, "sample-8-cwtm");
  // Alone, the axis creates a default (auto-size) reduction of each kind.
  const auto alone = sweep::expand_sweep(parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 30, "dim": 2,
             "iterations": 3, "f": 2},
    "sweep": {"reduction_kind": ["sample"]}
  })"));
  ASSERT_EQ(alone.size(), 1u);
  ASSERT_TRUE(alone[0].spec.coreset.has_value());
  EXPECT_EQ(alone[0].spec.coreset->kind, agg::CoresetConfig::Kind::sample);
  EXPECT_EQ(alone[0].spec.aggregator, "sample-auto-cwtm");
}

// ------------------------------ validation ----------------------------------

TEST(SweepParse, RejectsUnknownAndDuplicateKeys) {
  // Unknown axis.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"aggregatr": ["cwtm"]}})"),
               std::invalid_argument);
  // Unknown top-level key.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"f": [1]}, "thread": 2})"),
               std::invalid_argument);
  // Duplicate axis key (the reader resolves last-wins; the sweep layer must
  // reject the contradiction instead).
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"f": [1], "f": [2]}})"),
               std::invalid_argument);
  // Duplicate key inside the base.
  EXPECT_THROW(parse(R"({"base": {"seed": 1, "seed": 2}, "sweep": {"f": [1]}})"),
               std::invalid_argument);
  // Empty axis list.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"f": []}})"), std::invalid_argument);
  // No axes at all.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {}})"), std::invalid_argument);
  // Duplicate labels.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"variants": [
    {"label": "a", "patch": {"f": 1}}, {"label": "a", "patch": {"f": 2}}]}})"),
               std::invalid_argument);
  // Labels that only differ in sanitized-away characters would emit
  // indistinguishable run ids / CSV cells — duplicates too.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"variants": [
    {"label": "a b", "patch": {"f": 1}}, {"label": "a-b", "patch": {"f": 2}}]}})"),
               std::invalid_argument);
  // So are repeated values on every other axis, numbers compared after
  // the 12 digits their token keeps.
  for (const char* bad : {
           R"({"base": {}, "sweep": {"seed": [1, 1]}})",
           R"({"base": {}, "sweep": {"aggregator": ["cwtm", "cwtm"]}})",
           R"({"base": {}, "sweep": {"participation": [0.5, 0.50000000000001]}})",
       }) {
    EXPECT_NE(parse_error(bad).find("duplicate value"), std::string::npos) << bad;
  }
}

TEST(SweepParse, RejectsAxesConflictingWithBase) {
  // A swept key the base also sets is a spec contradicting itself.
  EXPECT_THROW(parse(R"({"base": {"aggregator": "cwtm"},
                         "sweep": {"aggregator": ["cge"]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {"axes": {"participation": 0.9}},
                         "sweep": {"participation": [0.5]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {"faults": [{"agent": 0, "kind": "zero"}]},
                         "sweep": {"faults": [{"label": "a", "faults": []}]}})"),
               std::invalid_argument);
  // A non-object base block the axis writes into is named with the axis.
  EXPECT_NE(parse_error(R"({"base": {"axes": "x"}, "sweep": {"participation": [0.5]}})")
                .find("sweep: the participation axis writes base.axes.participation, but "
                      "base.axes is a string"),
            std::string::npos);
  // Variants are exempt: patches exist to override the base.
  EXPECT_NO_THROW(parse(R"({"base": {"aggregator": "cwtm"},
                            "sweep": {"variants": [{"label": "a",
                                                    "patch": {"aggregator": "cge"}}]}})"));
}

TEST(SweepParse, ShardsAxisRejectsConflictingAggregatorShapes) {
  // A string base aggregator has no hierarchy object to patch.
  EXPECT_THROW(parse(R"({"base": {"aggregator": "cwtm"}, "sweep": {"shards": [2]}})"),
               std::invalid_argument);
  // Combining with an aggregator axis would clobber the hierarchy object.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"shards": [2], "aggregator": ["cge"]}})"),
               std::invalid_argument);
  // The base already pins shards: the spec contradicts itself.
  EXPECT_THROW(parse(R"({"base": {"aggregator": {"hierarchy": {"shards": 4}}},
                         "sweep": {"shards": [2]}})"),
               std::invalid_argument);
  // Malformed entries.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"shards": [0]}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"shards": [1.5]}})"), std::invalid_argument);
  // Other hierarchy keys in the base are fine alongside the axis.
  EXPECT_NO_THROW(parse(R"({"base": {"aggregator": {"hierarchy": {"leaf_rule": "krum"}}},
                            "sweep": {"shards": [2]}})"));
}

TEST(SweepParse, CoresetSizeAxisValidates) {
  // Malformed entries fail at parse, not mid-sweep.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"coreset_size": [-1]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"coreset_size": [1.5]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"coreset_size": []}})"),
               std::invalid_argument);
  // A string base aggregator has no reduction object to patch.
  EXPECT_THROW(parse(R"({"base": {"aggregator": "cwtm"},
                         "sweep": {"coreset_size": [8]}})"),
               std::invalid_argument);
  // Combining with an aggregator axis would clobber the reduction object.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"coreset_size": [8],
                                               "aggregator": ["cge"]}})"),
               std::invalid_argument);
  // The base already pins the size: the spec contradicts itself.
  EXPECT_THROW(parse(R"({"base": {"aggregator": {"reduction": {"coreset": {"size": 4}}}},
                         "sweep": {"coreset_size": [8]}})"),
               std::invalid_argument);
  // A non-object reduction block in the base is named with the axis.
  EXPECT_NE(parse_error(R"({"base": {"aggregator": {"reduction": 5}},
                           "sweep": {"coreset_size": [8]}})")
                .find("sweep: the coreset_size axis writes "
                      "base.aggregator.reduction.coreset.size, but base.aggregator.reduction "
                      "is a number"),
            std::string::npos);
  // An object base aggregator with just a rule is fine alongside the axis.
  EXPECT_NO_THROW(parse(R"({"base": {"aggregator": {"rule": "cge"}},
                            "sweep": {"coreset_size": [8]}})"));
}

TEST(SweepParse, ReductionKindAxisValidates) {
  // Only the two reducer kinds are legal entries.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"reduction_kind": ["kmeans"]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"reduction_kind": []}})"),
               std::invalid_argument);
  // A string base aggregator has no reduction object to re-key.
  EXPECT_THROW(parse(R"({"base": {"aggregator": "cwtm"},
                         "sweep": {"reduction_kind": ["sample"]}})"),
               std::invalid_argument);
  // Combining with an aggregator axis would clobber the reduction object.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"reduction_kind": ["sample"],
                                               "aggregator": ["cge"]}})"),
               std::invalid_argument);
  // The base already pins a reduction block: the kind axis would silently
  // replace it — the spec contradicts itself.
  EXPECT_THROW(parse(R"({"base": {"aggregator": {"reduction": {"coreset": {"size": 4}}}},
                         "sweep": {"reduction_kind": ["sample"]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {"aggregator": {"reduction": {"sample": {"size": 4}}}},
                         "sweep": {"reduction_kind": ["coreset"]}})"),
               std::invalid_argument);
  // An object base aggregator with just a rule is fine alongside the axis.
  EXPECT_NO_THROW(parse(R"({"base": {"aggregator": {"rule": "cge"}},
                            "sweep": {"reduction_kind": ["coreset", "sample"]}})"));
}

TEST(SweepParse, RejectsMalformedAxes) {
  // Bad seed range.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"seed": {"from": 1}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"seed": {"from": 1, "count": 0}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"seed": [1.5]}})"), std::invalid_argument);
  // Seeds reach the spec as JSON numbers, exact only up to 2^53: a range
  // running past it would alias neighbouring seeds onto one run.
  EXPECT_NE(parse_error(R"({"base": {}, "sweep": {"seed": {"from": 9007199254740991,
                                                            "count": 3}}})")
                .find("2^53"),
            std::string::npos);
  EXPECT_EQ(parse(R"({"base": {}, "sweep": {"seed": {"from": 9007199254740991,
                                                     "count": 2}}})")
                .seed.back(),
            9007199254740992u);
  // Non-integer f.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"f": [0.5]}})"), std::invalid_argument);
  // Unknown mode spelling fails at parse, not mid-sweep.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"mode": ["turbo"]}})"),
               std::invalid_argument);
  // A run whose merged spec fails parse-time validation names the run id.
  try {
    sweep::expand_sweep(parse(R"({
      "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 4, "dim": 2,
               "iterations": 2, "schedule": {"kind": "harmonic", "scale": 0.4}},
      "sweep": {"variants": [{"label": "bad", "patch": {"mode": "turbo"}}]}
    })"));
    FAIL() << "expected the unknown-mode rejection to surface";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("000_variants=bad"), std::string::npos)
        << error.what();
  }
  // Run-time validation (driver-inapplicable keys) also names the run id.
  try {
    sweep::run_sweep(parse(R"({
      "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 4, "dim": 2,
               "iterations": 2, "schedule": {"kind": "harmonic", "scale": 0.4}},
      "sweep": {"variants": [{"label": "bad", "patch": {"batch_size": 8}}]}
    })"));
    FAIL() << "expected the dgd/batch_size rejection to surface";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("000_variants=bad"), std::string::npos)
        << error.what();
  }
}

TEST(SweepParse, AxisNamesAreTheCanonicalOrder) {
  const std::vector<std::string_view> expected{
      "aggregator", "mode", "precision", "f", "shards", "coreset_size", "reduction_kind",
      "quorum", "staleness_cap", "seed", "drop_probability", "participation",
      "straggler_probability", "faults", "variants"};
  EXPECT_EQ(sweep::axis_names(), expected);
}

// Integer axes and the runner width are checked, not cast: a value past
// INT_MAX is undefined behaviour as a cast, and a fractional one truncates.
TEST(SweepParse, RejectsNonIntegerAndOutOfRangeIntegers) {
  for (const char* bad : {
           R"({"base": {}, "sweep": {"f": [1e12]}})",
           R"({"base": {}, "sweep": {"f": [1, 2.5]}})",
           R"({"base": {}, "sweep": {"shards": [3e9]}})",
           R"({"base": {}, "sweep": {"coreset_size": [2.5]}})",
           R"({"base": {}, "sweep": {"quorum": [1e10]}})",
           R"({"base": {}, "sweep": {"staleness_cap": [-3e9]}})",
           R"({"threads": 1e12, "base": {}, "sweep": {"f": [1]}})",
           R"({"threads": 2.5, "base": {}, "sweep": {"f": [1]}})",
       }) {
    EXPECT_THROW(parse(bad), std::invalid_argument) << bad;
  }
  try {
    parse(R"({"base": {}, "sweep": {"f": [1e12]}})");
    FAIL() << "an f axis entry past INT_MAX must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("sweep: f axis entry must be an integer"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(parse(R"({"base": {}, "sweep": {"f": [0, 2147483647]}})").f.back(), 2147483647);
}

TEST(SweepParse, AsyncAxesValidateAndRejectBaseConflicts) {
  // Malformed entries fail at parse, not mid-sweep.
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"quorum": [-1]}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"quorum": [1.5]}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"staleness_cap": [-1]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {}, "sweep": {"staleness_cap": []}})"),
               std::invalid_argument);
  // The base already pins the swept key inside its async block: contradiction.
  EXPECT_THROW(parse(R"({"base": {"async": {"quorum": 3}},
                         "sweep": {"quorum": [2]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"base": {"async": {"staleness_cap": 1}},
                         "sweep": {"staleness_cap": [2]}})"),
               std::invalid_argument);
  // A non-object async block in the base is named with the axis.
  EXPECT_NE(parse_error(R"({"base": {"async": 3}, "sweep": {"quorum": [2]}})")
                .find("sweep: the quorum axis writes base.async.quorum, but base.async is a "
                      "number"),
            std::string::npos);
  // Other async keys in the base are fine alongside the axes.
  EXPECT_NO_THROW(parse(R"({"base": {"async": {"arrival": {"scale": 0.8}}},
                            "sweep": {"quorum": [2], "staleness_cap": [0, 1]}})"));
}

TEST(SweepExpand, AsyncAxesLandInTheAsyncBlock) {
  const auto runs = sweep::expand_sweep(parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 6, "dim": 2,
             "iterations": 4, "schedule": {"kind": "harmonic", "scale": 0.4},
             "async": {"arrival": {"kind": "exponential", "scale": 0.9}}},
    "sweep": {"quorum": [0, 4], "staleness_cap": [0, 2], "seed": [1]}
  })"));
  // quorum outermost of the three, seed fastest (canonical order).
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].run_id, "000_quorum=0_staleness_cap=0_seed=1");
  EXPECT_EQ(runs[3].run_id, "003_quorum=4_staleness_cap=2_seed=1");
  for (const auto& run : runs) {
    ASSERT_TRUE(run.spec.async.has_value()) << run.run_id;
    // The axes merged into the base block without clobbering its arrival.
    EXPECT_EQ(run.spec.async->arrival.kind, "exponential") << run.run_id;
  }
  EXPECT_EQ(runs[0].spec.async->quorum, 0);
  EXPECT_EQ(runs[3].spec.async->quorum, 4);
  EXPECT_EQ(runs[3].spec.async->staleness_cap, 2);
  // Either axis alone creates the async block on a base without one.
  const auto created = sweep::expand_sweep(parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 6, "dim": 2,
             "iterations": 4, "schedule": {"kind": "harmonic", "scale": 0.4}},
    "sweep": {"staleness_cap": [1]}
  })"));
  ASSERT_EQ(created.size(), 1u);
  ASSERT_TRUE(created[0].spec.async.has_value());
  EXPECT_EQ(created[0].spec.async->staleness_cap, 1);
}

TEST(SweepRun, AsyncCountersAppearInCsvAndJson) {
  const auto outcome = sweep::run_sweep(parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 6, "dim": 2,
             "iterations": 6, "seed": 2, "schedule": {"kind": "harmonic", "scale": 0.4},
             "async": {"arrival": {"kind": "exponential", "scale": 0.7}}},
    "sweep": {"quorum": [0, 4]}
  })"));
  std::ostringstream csv;
  sweep::write_sweep_csv(outcome, csv);
  std::istringstream lines(csv.str());
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header,
            "run_id,quorum,final_dist,final_loss,eliminated,"
            "quorum_fires,deadline_fires,stale_dropped,late_rows,wall_ms");
  std::ostringstream json;
  sweep::write_sweep_json(outcome, json);
  const auto parsed = util::parse_json(json.str());
  for (const auto& run : parsed.at("runs").as_array()) {
    const auto& async = run.at("async");
    EXPECT_DOUBLE_EQ(async.at("quorum_fires").as_number() +
                         async.at("deadline_fires").as_number(),
                     6.0);
  }
}

// ------------------------------ execution -----------------------------------

TEST(SweepRun, MatchesRunByRunScenarioBitIdentically) {
  const auto spec = parse(kQuadraticGrid);
  const auto runs = sweep::expand_sweep(spec);
  const auto outcome = sweep::run_sweep(spec);
  ASSERT_EQ(outcome.runs.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto direct = scenario::run_scenario(runs[i].spec);
    EXPECT_EQ(outcome.runs[i].run_id, runs[i].run_id);
    EXPECT_EQ(outcome.runs[i].result.final_cost, direct.final_cost) << runs[i].run_id;
    ASSERT_EQ(outcome.runs[i].result.traces.size(), direct.traces.size());
    const auto& sweep_estimates = outcome.runs[i].result.traces.front().estimates;
    const auto& direct_estimates = direct.traces.front().estimates;
    ASSERT_EQ(sweep_estimates.size(), direct_estimates.size());
    for (std::size_t t = 0; t < direct_estimates.size(); ++t) {
      ASSERT_EQ(sweep_estimates[t], direct_estimates[t]) << runs[i].run_id << " @" << t;
    }
  }
}

TEST(SweepRun, ThreadCountDoesNotChangeAnyRow) {
  const auto spec = parse(kQuadraticGrid);
  const auto serial = sweep::run_sweep(spec, 1);
  const auto pooled = sweep::run_sweep(spec, 4);
  ASSERT_EQ(serial.runs.size(), pooled.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_EQ(serial.runs[i].run_id, pooled.runs[i].run_id);
    EXPECT_EQ(serial.runs[i].result.final_cost, pooled.runs[i].result.final_cost);
    EXPECT_EQ(serial.runs[i].result.traces.front().estimates,
              pooled.runs[i].result.traces.front().estimates)
        << serial.runs[i].run_id;
    EXPECT_EQ(serial.runs[i].result.eliminated_agents,
              pooled.runs[i].result.eliminated_agents);
  }
}

// random_regression runs share one prebuilt instance per regression key
// (seed, num_agents, dim, f, noise_stddev).  Two rules per key, and keys
// that differ in seed, f or noise alone: a key that dropped a field would
// hand some run another spec's instance and move its row.
const char* kRegressionGrid = R"({
  "name": "regression-grid",
  "base": {
    "driver": "dgd", "problem": "random_regression", "num_agents": 10, "dim": 3,
    "iterations": 15, "box_halfwidth": 50.0,
    "schedule": {"kind": "harmonic", "scale": 0.5},
    "faults": [{"agent": 0, "kind": "gradient-reverse"}]
  },
  "sweep": {
    "aggregator": ["cwtm", "krum"],
    "f": [1, 2],
    "seed": {"from": 3, "count": 2},
    "variants": [{"label": "low-noise", "patch": {"noise_stddev": 0.05}},
                 {"label": "high-noise", "patch": {"noise_stddev": 0.4}}]
  }
})";

TEST(SweepRun, RegressionGridMatchesRunByRunScenarioAtEveryWidth) {
  const auto spec = parse(kRegressionGrid);
  const auto runs = sweep::expand_sweep(spec);
  ASSERT_EQ(runs.size(), 16U);
  for (const int threads : {1, 4}) {
    const auto outcome = sweep::run_sweep(spec, threads);
    ASSERT_EQ(outcome.runs.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto direct = scenario::run_scenario(runs[i].spec);
      const auto& swept = outcome.runs[i].result;
      EXPECT_EQ(outcome.runs[i].run_id, runs[i].run_id);
      EXPECT_EQ(swept.final_cost, direct.final_cost) << runs[i].run_id;
      ASSERT_TRUE(swept.distance_to_reference.has_value()) << runs[i].run_id;
      EXPECT_EQ(swept.distance_to_reference, direct.distance_to_reference) << runs[i].run_id;
      EXPECT_EQ(swept.eliminated_agents, direct.eliminated_agents) << runs[i].run_id;
      ASSERT_EQ(swept.traces.size(), direct.traces.size());
      EXPECT_EQ(swept.traces.front().estimates, direct.traces.front().estimates)
          << runs[i].run_id << " threads=" << threads;
    }
  }
}

TEST(SweepRun, RegressionInstanceIsNotSharedAcrossFaultBounds) {
  // n - 2f < dim at f = 4: run_scenario refuses to build that instance.  The
  // f = 1 instance of the same seed must not stand in for it.
  const auto spec = parse(R"({
    "base": {"driver": "dgd", "problem": "random_regression", "num_agents": 10, "dim": 3,
             "iterations": 5},
    "sweep": {"f": [1, 4]}
  })");
  const auto runs = sweep::expand_sweep(spec);
  ASSERT_EQ(runs.size(), 2U);
  EXPECT_NO_THROW((void)scenario::run_scenario(runs[0].spec));
  EXPECT_THROW((void)scenario::run_scenario(runs[1].spec), std::invalid_argument);
  for (const int threads : {1, 2}) {
    try {
      (void)sweep::run_sweep(spec, threads);
      ADD_FAILURE() << "the f = 4 run must fail at threads=" << threads;
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(runs[1].run_id), std::string::npos) << message;
      EXPECT_NE(message.find("n - 2f >= dim"), std::string::npos) << message;
    }
  }
}

TEST(SweepRun, CsvAndJsonCarryTheGrid) {
  const auto outcome = sweep::run_sweep(parse(kQuadraticGrid));
  std::ostringstream csv;
  sweep::write_sweep_csv(outcome, csv);
  std::istringstream lines(csv.str());
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header, "run_id,aggregator,f,seed,final_dist,final_loss,eliminated,wall_ms");
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) ++rows;
  EXPECT_EQ(rows, outcome.runs.size());

  std::ostringstream json;
  sweep::write_sweep_json(outcome, json);
  const auto parsed = util::parse_json(json.str());  // must be valid JSON
  ASSERT_EQ(parsed.at("runs").as_array().size(), outcome.runs.size());
  const auto& first = parsed.at("runs").as_array().front();
  EXPECT_EQ(first.at("run_id").as_string(), outcome.runs.front().run_id);
  EXPECT_EQ(first.at("axes").at("aggregator").as_string(), "cwtm");
  // The writer rounds to 12 significant digits (same contract as
  // write_result_json).
  EXPECT_NEAR(first.at("final_cost").as_number(), outcome.runs.front().result.final_cost,
              1e-9 * (1.0 + std::abs(outcome.runs.front().result.final_cost)));
}

// A comma-bearing fault/variant label must reach the CSV as ONE quoted cell
// carrying the author's exact text; only the run id gets sanitized.  (The
// expansion layer used to sanitize the AxisCell value itself, mangling the
// label before the RFC-4180 writer ever saw it.)
TEST(SweepRun, RawLabelsSurviveToCsvCells) {
  const auto spec = parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 6, "dim": 2,
             "iterations": 3, "f": 1, "seed": 4,
             "schedule": {"kind": "harmonic", "scale": 0.4}},
    "sweep": {"faults": [
      {"label": "sign-flip, strong", "faults": [{"agent": 0, "kind": "gradient-reverse"}]}
    ]}
  })");
  const auto runs = sweep::expand_sweep(spec);
  ASSERT_EQ(runs.size(), 1u);
  // Raw label in the cell, sanitized token in the id.
  EXPECT_EQ(runs[0].axes.front().value, "sign-flip, strong");
  EXPECT_EQ(runs[0].run_id, "000_faults=sign-flip--strong");

  const auto outcome = sweep::run_sweep(spec);
  std::ostringstream csv;
  sweep::write_sweep_csv(outcome, csv);
  std::istringstream lines(csv.str());
  std::string header;
  std::string row;
  std::getline(lines, header);
  std::getline(lines, row);
  // The label cell is quoted, so the row still splits into header-many
  // columns at the unquoted commas.
  EXPECT_NE(row.find("\"sign-flip, strong\""), std::string::npos) << row;
  const auto count_unquoted_commas = [](const std::string& line) {
    std::size_t count = 0;
    bool quoted = false;
    for (const char c : line) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) ++count;
    }
    return count;
  };
  EXPECT_EQ(count_unquoted_commas(row), count_unquoted_commas(header)) << row;
}

// A diverged run's final_cost is nan, which has no JSON spelling; the sweep
// JSON writer must emit null there and stay parseable end to end.
TEST(SweepRun, NonFiniteSummaryFieldsWriteParseableJson) {
  sweep::SweepOutcome outcome;
  outcome.name = "nan-run";
  sweep::SweepRunResult run;
  run.run_id = "000_f=1";
  run.axes.push_back(sweep::AxisCell{"f", "1"});
  run.result.final_cost = std::nan("");
  run.result.distance_to_reference = std::numeric_limits<double>::infinity();
  outcome.runs.push_back(std::move(run));

  std::ostringstream json;
  sweep::write_sweep_json(outcome, json);
  util::JsonValue parsed;
  ASSERT_NO_THROW(parsed = util::parse_json(json.str())) << json.str();
  const auto& first = parsed.at("runs").as_array().front();
  EXPECT_TRUE(first.at("final_cost").is_null());
  EXPECT_TRUE(first.at("distance_to_reference").is_null());
}

// Hierarchical grids carry the tree bookkeeping: the EFFECTIVE shard count
// (clamped to the roster when n < S), the end-to-end tolerated f and the
// paper's 2f/n resilience margin — in the CSV columns and the JSON block.
TEST(SweepRun, HierarchyColumnsReportEffectiveShards) {
  const auto outcome = sweep::run_sweep(parse(R"({
    "base": {"driver": "dgd", "problem": "quadratic", "num_agents": 4, "dim": 2,
             "iterations": 3, "f": 0, "seed": 5,
             "schedule": {"kind": "harmonic", "scale": 0.4},
             "aggregator": {"hierarchy": {"leaf_rule": "cwtm", "root_rule": "cwtm"}}},
    "sweep": {"shards": [8]}
  })"));
  ASSERT_EQ(outcome.runs.size(), 1u);
  std::ostringstream csv;
  sweep::write_sweep_csv(outcome, csv);
  std::istringstream lines(csv.str());
  std::string header;
  std::string row;
  std::getline(lines, header);
  std::getline(lines, row);
  EXPECT_EQ(header,
            "run_id,shards,final_dist,final_loss,eliminated,"
            "eff_shards,tolerated_f,resilience_margin,wall_ms");
  // The requested S = 8 exceeds the 4-agent roster: the axis cell keeps the
  // requested value, the eff_shards column reports the clamped tree.
  EXPECT_NE(row.find("000_shards=8,8,"), std::string::npos) << row;
  EXPECT_NE(row.find(",4,"), std::string::npos) << row;

  std::ostringstream json;
  sweep::write_sweep_json(outcome, json);
  const auto parsed = util::parse_json(json.str());
  const auto& first = parsed.at("runs").as_array().front();
  const auto& hierarchy = first.at("hierarchy");
  EXPECT_EQ(hierarchy.at("shards").as_number(), 4.0);
  EXPECT_EQ(hierarchy.at("requested_shards").as_number(), 8.0);
  // The label is restamped to the tree that actually ran.
  EXPECT_EQ(first.at("aggregator").as_string(), "hier-4-cwtm-cwtm");
}

TEST(SweepRun, SetBaseMemberOverridesCommittedGrids) {
  auto spec = parse(kQuadraticGrid);
  sweep::set_base_member(&spec, "iterations", util::JsonValue::make_number(3));
  const auto runs = sweep::expand_sweep(spec);
  for (const auto& run : runs) EXPECT_EQ(run.spec.iterations, 3);
}

TEST(SweepRun, CommittedSweepSpecsParseAndExpand) {
  const struct {
    const char* file;
    std::size_t grid;
  } specs[] = {
      {"sweep_fig2.json", 8},    {"sweep_table1.json", 4}, {"sweep_fig4.json", 6},
      {"sweep_fig5.json", 6},    {"sweep_epsilon.json", 36}, {"sweep_smoke.json", 8},
      {"sweep_async.json", 27},  {"sweep_hier_smoke.json", 4},
      {"sweep_coreset_smoke.json", 4},
  };
  for (const auto& entry : specs) {
    SCOPED_TRACE(entry.file);
    sweep::SweepSpec spec;
    ASSERT_NO_THROW(spec = sweep::load_sweep_file(std::string(ABFT_SPEC_DIR "/") + entry.file));
    EXPECT_FALSE(spec.name.empty());
    EXPECT_EQ(sweep::expand_sweep(spec).size(), entry.grid);
  }
}

}  // namespace
