// Declarative scenarios: one JSON (or programmatic) spec composes a problem,
// a roster with faults, an aggregation rule and mode, a step schedule, and
// the engine's round-perturbation axes — and runs on any of the three
// drivers (server-based DGD, D-SGD, peer-to-peer DGD).  The spec layer is
// what turns "add a scenario" from a fourth hand-written round loop into a
// config file: the fig2/fig3/table1 reproductions, the CI smoke goldens and
// the abft_run CLI all execute through run_scenario().
//
// Spec schema (all keys optional unless noted; defaults in parentheses;
// count-valued keys such as iterations, f, num_agents, agent ids and churn
// rounds must be integers within int range — 2.7 or 1e12 is rejected):
//   name                  free-form label ("")
//   driver                "dgd" | "dsgd" | "p2p" | "p2p_auth"       ("dgd")
//   problem               dgd/p2p: "paper_regression" | "quadratic" |
//                           "random_regression"
//                         dsgd: "synthetic"         (driver's natural one)
//   aggregator            registry rule name                       ("cwtm")
//                         or an object composing up to three layers:
//                         {"rule": r} — the flat registry rule;
//                         {"hierarchy": {"shards": S, "leaf_rule": r,
//                         "root_rule": r, "f_leaf": k}} — the sharded
//                         aggregate-of-aggregates tree (agg/hierarchy.hpp;
//                         leaf_rule/root_rule default "cwtm", f_leaf
//                         defaults to auto).  The deterministic shard
//                         assignment is seeded from the spec seed
//                         (derived stream seed ^ 0x5a2dba5e), and the
//                         result carries the per-level fault bookkeeping.
//                         When the roster is smaller than the requested S
//                         the tree clamps to min(S, n) shards; the result
//                         label and JSON report the *effective* count
//                         (requested_shards keeps the asked-for one);
//                         {"reduction": {"coreset": {"size": k}}} — the
//                         greedy k-center coreset pre-reduction
//                         (agg/coreset.hpp; size 0/absent = auto
//                         f + ceil(sqrt(n)), size "adaptive" = grow k
//                         until the covering radius stops improving) — or
//                         {"reduction": {"sample": {"size": k,
//                         "strata": s}}} — norm-stratified weighted
//                         sampling (strata 0/absent = auto min(8, k));
//                         exactly one of "coreset"/"sample".  Composes
//                         with "rule" (the whole batch is reduced) or
//                         with "hierarchy" (each shard is reduced before
//                         its leaf rule); "rule" and "hierarchy" are
//                         mutually exclusive
//   mode                  "exact" | "fast"                        ("exact")
//   precision             "f64" | "f32"                           ("f64")
//                         f32 demotes the fast lane's bandwidth-bound
//                         kernel inputs; requires mode "fast" (rejected
//                         at parse time under "exact")
//   iterations, f, seed, threads
//   schedule              {"kind": "harmonic"|"constant"|"polynomial",
//                          "scale": s, "power": p}      (harmonic, 1.5)
//   box_halfwidth         W = [-w, w]^d                            (1000)
//   x0                    array of d numbers, or a single number
//                         broadcast to every coordinate            (zeros)
//   agents                paper_regression / dsgd: roster (shard) subset
//                         to run on                                  (all)
//   num_agents, dim       quadratic / random_regression shape      (7, 2)
//   noise_stddev          random_regression observation noise      (0.05)
//   faults                [{"agent": i, "kind": k, "param": x}, ...]
//       dgd/p2p kinds: gradient-reverse, random (param = stddev, 200),
//         zero, sign-flip-scale (param = kappa, 2), rotating (param =
//         magnitude, 10), little-is-enough (param = z, 1.2), mean-reverse
//         (param = scale, 1), mimic-smallest, silent
//       dsgd kinds: label-flip, gradient-reverse
//   drop_probability      dgd network crash injection                (0)
//   relay_strategy        p2p only: how faulty nodes misbehave INSIDE the
//                         Oral-Messages broadcast (they always lie at the
//                         source via their fault kind):
//                         {"kind": "honest"|"equivocate"|"silent"|
//                          "fixed-value", "param": x}
//                         equivocate: param = noise stddev (200);
//                         fixed-value: param = the coordinate value the
//                         node pushes to everyone (0)
//   ds_strategy           p2p_auth only: the Dolev-Strong in-protocol
//                         misbehaviour {"kind": "honest"|"equivocate"|
//                         "silent", "offset": o (100),
//                          "forward_probability": p (0.5)}
//   axes                  {"participation": p, "straggler_probability": q,
//                          "perturbation_seed": s,
//                          "churn": [{"round": r, "agent": i}, ...]}
//   async                 dgd only: event-driven quorum-or-deadline rounds
//                         (engine/async_engine.hpp) instead of the
//                         synchronous close:
//                         {"quorum": q (0 = full roster),
//                          "deadline": D (1.0, > 0),
//                          "staleness_cap": c (0, >= 0),
//                          "arrival": {"kind": "uniform"|"exponential"|
//                                      "fixed", "scale": s (0.5, > 0)}}
//                         ("fixed" makes every computation take exactly
//                         `scale` — deterministic, for boundary tests.)
//                         The filter fires as soon as q rows arrive inside
//                         the round window [t*D, (t+1)*D), else at the
//                         close.  The window is half-open: a row arriving
//                         exactly at (t+1)*D belongs to window t+1, never
//                         t.  Staleness is measured in whole windows
//                         (age = consuming round - birth round): a row is
//                         purged only when age > c — at exactly age == c it
//                         is kept and, like every late-but-fresh row
//                         (age >= 1), scaled by 1/(1+age).
//                         Does not compose with `axes` or
//                         `drop_probability` (lateness/loss live in the
//                         virtual clock); results carry the
//                         quorum/deadline/staleness counters
//   dsgd knobs            batch_size (32), step_size (0.01), momentum (0),
//                         eval_interval (25),
//                         model {"kind": "softmax"|"mlp",
//                                "hidden_dim": h}        (softmax; mlp: 24)
//                         dataset {num_classes (3), feature_dim (6),
//                         examples_per_class (30), noise_stddev (0.3),
//                         dirichlet_alpha (absent = iid split)}
//       dirichlet_alpha: Dirichlet-alpha label skew over the synthetic
//       shards (learn/dataset.hpp shard_dirichlet); small alpha = severe
//       skew, absent / +infinity = today's iid split, bit-identically
//
// Sweep specs — a "sweep" block of list-valued axes over a "base" spec,
// expanded into a cartesian run grid and executed in parallel — are the
// layer above this one: see sweep/sweep.hpp.
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abft/agg/batch.hpp"
#include "abft/agg/hierarchy.hpp"
#include "abft/engine/async_engine.hpp"
#include "abft/engine/axes.hpp"
#include "abft/learn/dsgd.hpp"
#include "abft/sim/trace.hpp"
#include "abft/util/json.hpp"

namespace abft::regress {
class RegressionProblem;  // random_regression_instance return type
}

namespace abft::scenario {

struct FaultSpec {
  int agent = 0;
  std::string kind;
  /// Kind-specific knob (stddev / kappa / z / scale ...); NaN = kind default.
  double param = std::numeric_limits<double>::quiet_NaN();
};

struct ScheduleSpec {
  std::string kind = "harmonic";  // harmonic | constant | polynomial
  double scale = 1.5;
  double power = 1.0;  // polynomial only
};

/// p2p: faulty nodes' in-protocol Oral-Messages relay behaviour.
struct RelayStrategySpec {
  std::string kind = "honest";  // honest | equivocate | silent | fixed-value
  /// equivocate: noise stddev; fixed-value: the broadcast coordinate value;
  /// NaN = kind default.
  double param = std::numeric_limits<double>::quiet_NaN();
};

/// p2p_auth: faulty nodes' in-protocol Dolev-Strong behaviour.
struct DsStrategySpec {
  std::string kind = "honest";  // honest | equivocate | silent
  double offset = 100.0;
  double forward_probability = 0.5;
};

struct ScenarioSpec {
  std::string name;
  std::string driver = "dgd";  // dgd | dsgd | p2p | p2p_auth
  std::string problem;         // "" = the driver's natural problem
  /// Registry rule name — or the hierarchy's stable label when `hierarchy`
  /// is set (parse_scenario fills both from the aggregator object form).
  std::string aggregator = "cwtm";
  /// Sharded aggregate-of-aggregates tree (agg/hierarchy.hpp); the
  /// assignment seed is derived from the spec seed at run time.  A
  /// per-shard coreset reduction rides inside the config.
  std::optional<agg::HierarchyConfig> hierarchy;
  /// Flat coreset pre-reduction (agg/coreset.hpp) wrapping coreset_rule;
  /// parse_scenario fills both from the aggregator object's "reduction"
  /// block (hierarchy specs carry theirs in hierarchy->coreset instead).
  std::optional<agg::CoresetConfig> coreset;
  std::string coreset_rule = "cwtm";
  agg::AggMode mode = agg::AggMode::exact;
  agg::Precision precision = agg::Precision::f64;
  int iterations = 100;
  int f = 0;
  std::uint64_t seed = 1;
  int threads = 1;
  ScheduleSpec schedule;
  double box_halfwidth = 1000.0;
  /// Start estimate: empty = zeros; one entry = broadcast to all coords.
  std::vector<double> x0;
  /// paper_regression / dsgd: the roster (shard) subset to run on
  /// (empty = all).
  std::vector<int> agents;
  int num_agents = 7;  // quadratic / random_regression / synthetic roster
  int dim = 2;         // quadratic / random_regression dimension
  double noise_stddev = 0.05;  // random_regression observation noise
  std::vector<FaultSpec> faults;
  double drop_probability = 0.0;
  /// p2p / p2p_auth in-protocol misbehaviour ("honest" kind = not set).
  std::optional<RelayStrategySpec> relay_strategy;
  std::optional<DsStrategySpec> ds_strategy;
  engine::ScenarioAxes axes;
  /// dgd only: event-driven quorum-or-deadline mode (see schema comment).
  std::optional<engine::AsyncConfig> async;

  // D-SGD knobs.
  int batch_size = 32;
  double step_size = 0.01;
  double momentum = 0.0;
  int eval_interval = 25;
  std::string model = "softmax";  // softmax | mlp
  int hidden_dim = 24;            // mlp only
  learn::SyntheticOptions dataset{3, 6, 30, 1.0, 0.3};
  /// Dirichlet label-skew over the shards; +infinity (the default) is the
  /// iid split, bit-identically (shard_dirichlet delegates to shard()).
  double dirichlet_alpha = std::numeric_limits<double>::infinity();

  /// Top-level keys the spec actually set (filled by parse_scenario) — lets
  /// run_scenario reject keys the chosen driver would silently ignore.
  std::vector<std::string> specified_keys;
};

/// Parses a spec object; throws std::invalid_argument naming unknown keys,
/// unknown enum spellings and malformed sections.
ScenarioSpec parse_scenario(const util::JsonValue& json);
ScenarioSpec load_scenario_file(const std::string& path);

struct ScenarioResult {
  ScenarioSpec spec;
  /// dgd: one trace; p2p: one per honest node (honest_nodes parallel).
  std::vector<sim::Trace> traces;
  std::vector<int> honest_nodes;
  /// dsgd only.
  std::optional<learn::DsgdSeries> series;

  /// Honest aggregate cost at the final estimate (dgd/p2p: node 0's trace;
  /// dsgd: final train loss).
  double final_cost = 0.0;
  /// ||x_T - x_H|| against the closed-form honest minimizer (dgd/p2p).
  std::optional<double> distance_to_reference;
  int eliminated_agents = 0;
  int departed_agents = 0;
  /// Per-level fault bookkeeping when the spec runs a hierarchy (computed
  /// against the full roster size and the declared f).
  std::optional<agg::HierarchyBounds> hierarchy_bounds;
  /// Trigger/staleness counters when the spec runs the async engine mode.
  std::optional<engine::AsyncStats> async_stats;
  long broadcast_messages = 0;  // p2p
  long messages_sent = 0;       // dgd network
  long messages_dropped = 0;
};

/// Builds the workload named by the spec and runs it on the spec's driver.
ScenarioResult run_scenario(const ScenarioSpec& spec);

/// run_scenario on an already built random_regression instance, which the
/// run only reads (so concurrent runs may share one).  `instance` must be
/// random_regression_instance(regression_key(spec)); the result is then
/// bit-identical to run_scenario(spec).  How a sweep builds each instance
/// once for all the runs that name it.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const regress::RegressionProblem& instance);

/// The aggregator a spec runs with: the registry rule, or the hierarchy
/// tree with its shard-assignment seed derived from the spec seed — exposed
/// so tests/benches can study the exact rule a scenario used.
std::unique_ptr<agg::GradientAggregator> make_scenario_aggregator(const ScenarioSpec& spec);

/// Exactly the spec fields random_regression_instance reads: specs with
/// equal keys name the same instance.  noise_stddev compares bit for bit.
struct RegressionKey {
  std::uint64_t seed = 1;
  int num_agents = 0;
  int dim = 0;
  int f = 0;
  double noise_stddev = 0.0;

  friend bool operator==(const RegressionKey& a, const RegressionKey& b) noexcept {
    return a.seed == b.seed && a.num_agents == b.num_agents && a.dim == b.dim && a.f == b.f &&
           std::bit_cast<std::uint64_t>(a.noise_stddev) ==
               std::bit_cast<std::uint64_t>(b.noise_stddev);
  }
};

RegressionKey regression_key(const ScenarioSpec& spec);

/// The deterministic random_regression instance a spec names (problem rng is
/// derived from the spec seed) — exposed so redundancy / theorem-bound
/// analysis (bench_epsilon_sweep) can study the very instance a sweep ran.
/// Every subset of n - 2f agents is certified full rank.
regress::RegressionProblem random_regression_instance(const RegressionKey& key);
regress::RegressionProblem random_regression_instance(const ScenarioSpec& spec);

/// Machine-readable one-object summary (stable keys; used by the CI smoke
/// goldens and scripts/compare_scenario.py).
void write_result_json(const ScenarioResult& result, std::ostream& os);

/// Human-readable summary table.
void print_result(const ScenarioResult& result, std::ostream& os);

/// Full estimate trace as CSV (t, x[0..d-1]); dgd/p2p only.
void write_trace_csv(const ScenarioResult& result, std::ostream& os);

}  // namespace abft::scenario
