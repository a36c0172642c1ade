// Sweep orchestration: the paper's headline results (Fig. 2-5, Table 1) are
// grids — one (2f, eps)-redundancy experiment repeated over rules, attacks,
// fault bounds and seeds.  A SweepSpec makes that grid declarative: a "sweep"
// block of list-valued axes over a "base" ScenarioSpec, expanded into the
// cartesian product with deterministic run ids, executed in parallel across
// an agg::ThreadPool, and emitted as one CSV / JSON result set.  The
// bench_fig2/3/4/5, bench_table1 and bench_epsilon_sweep binaries are thin
// wrappers over committed specs/sweep_*.json through this layer, and
// `abft_run --sweep` executes any of them from the command line.
//
// Sweep spec schema:
//   name        free-form label ("")
//   threads     number of runs executed concurrently (1); per-run kernel
//               threading (base "threads") degenerates to serial inside a
//               pool worker, so sweep- and run-level parallelism compose
//               safely but not multiplicatively
//   base        a full ScenarioSpec object (scenario.hpp schema)
//   sweep       list-valued axes, all optional, at least one required.
//               The axis table kAxes in sweep.cpp is the one source of
//               truth: each row names an axis, the dot-separated key path
//               it writes in the base spec (e.g. quorum -> async.quorum,
//               coreset_size -> aggregator.reduction.coreset.size), its
//               entry parser and the SweepSpec field it fills; axis_names()
//               lists them.  Each axis takes a JSON list of values, except
//               seed, which also takes a range {"from": s, "count": n}.
//               faults entries are {"label", "faults": [fault objects]}
//               presets and variants entries {"label", "patch": {spec
//               keys}} patches.
//
// Expansion contract: the grid is the cartesian product of the axes in the
// table's canonical order (aggregator outermost, variants innermost /
// fastest-varying).  Each run starts from "base", applies one value per
// axis in canonical order — variants last, so a variant patch overrides
// both base keys and earlier axes (that is its purpose) — and is then
// parsed/validated exactly like a standalone scenario spec.  Run ids are
// deterministic: a zero-padded grid index followed by axis=value tokens,
// e.g. "003_aggregator=cge_faults=random".  Axis cells keep the author's
// raw label (the CSV layer RFC-4180-quotes commas and quotes); only the
// run-id token is sanitized, and two values of one axis with the same
// token are rejected.  An axis writing a key the base already sets, or
// into a base level that is not an object, is rejected (the spec would
// contradict itself); unknown or duplicate sweep keys are rejected.
//
// Determinism: expansion is a pure function of the spec, each expanded run
// is bit-deterministic given its ScenarioSpec, and results land in
// grid-index order — so a threads=N sweep is row-for-row identical to
// threads=1, which is in turn identical to calling run_scenario on each
// expanded spec by hand (wall_ms excepted).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "abft/scenario/scenario.hpp"
#include "abft/util/json.hpp"

namespace abft::sweep {

/// One named fault assignment (stored as the raw JSON array so it merges
/// into the base spec verbatim).
struct FaultPreset {
  std::string label;
  util::JsonValue faults;  // array of {"agent", "kind", "param"} objects
};

/// One named free-form spec patch.
struct Variant {
  std::string label;
  util::JsonValue patch;  // object of scenario keys, applied last
};

struct SweepSpec {
  std::string name;
  /// Number of runs executed concurrently (>= 1).
  int threads = 1;
  /// The base ScenarioSpec as JSON (axes merge into it textually, then the
  /// merged object goes through parse_scenario's full validation).
  util::JsonValue base;

  // Axes in canonical application order; empty = not swept.
  std::vector<std::string> aggregator;
  std::vector<std::string> mode;
  std::vector<std::string> precision;
  std::vector<int> f;
  std::vector<int> shards;
  std::vector<int> coreset_size;
  std::vector<std::string> reduction_kind;
  std::vector<int> quorum;
  std::vector<int> staleness_cap;
  std::vector<std::uint64_t> seed;
  std::vector<double> drop_probability;
  std::vector<double> participation;
  std::vector<double> straggler_probability;
  std::vector<FaultPreset> faults;
  std::vector<Variant> variants;
};

/// The sweep axis names, in canonical order.
std::vector<std::string_view> axis_names();

/// Parses a sweep document ({"name", "threads", "base", "sweep"}).  Throws
/// std::invalid_argument naming unknown keys, duplicate keys, empty or
/// base-conflicting axes, duplicate axis values and malformed axis entries.
SweepSpec parse_sweep(const util::JsonValue& json);
SweepSpec load_sweep_file(const std::string& path);

/// True when the document carries a "sweep" block (abft_run uses this to
/// dispatch between scenario and sweep execution).
bool is_sweep_json(const util::JsonValue& json);

/// Replaces (or adds) one key in the sweep's base spec — how the figure
/// benches apply --mode=fast or a truncated iteration count onto a
/// committed grid instead of forking the spec file.
void set_base_member(SweepSpec* spec, std::string_view key, util::JsonValue value);

/// One cell of a run's grid coordinates: axis name + human-readable value
/// token (the CSV axis columns and the run-id tokens).
struct AxisCell {
  std::string axis;
  std::string value;
};

struct ExpandedRun {
  std::string run_id;
  std::vector<AxisCell> axes;
  scenario::ScenarioSpec spec;
};

/// Expands the cartesian grid in canonical order.  Every expanded spec has
/// been through parse_scenario; a run whose merged spec fails validation
/// throws with the run id in the message.
std::vector<ExpandedRun> expand_sweep(const SweepSpec& spec);

struct SweepRunResult {
  std::string run_id;
  std::vector<AxisCell> axes;
  scenario::ScenarioResult result;
  double wall_ms = 0.0;

  /// The value this run takes on the named sweep axis ("" when not swept) —
  /// how the figure/table renderers group a grid's rows.
  [[nodiscard]] std::string axis_value(std::string_view axis) const;
};

struct SweepOutcome {
  std::string name;
  /// In grid-index order, independent of the thread count.
  std::vector<SweepRunResult> runs;
};

/// Expands and executes the sweep, `threads_override` > 0 replacing the
/// spec's runner width.  Runs execute concurrently across an
/// agg::ThreadPool; results are ordered by grid index either way.
SweepOutcome run_sweep(const SweepSpec& spec, int threads_override = 0);

/// Aggregated result CSV, one row per run:
///   run_id, <one column per swept axis>, final_dist, final_loss,
///   eliminated, [eff_shards, tolerated_f, resilience_margin,]
///   [quorum_fires, deadline_fires, stale_dropped, late_rows,] wall_ms
/// final_dist is "nan" when the run has no closed-form reference (dsgd);
/// the hierarchy columns appear only when the grid runs a hierarchical
/// aggregator (eff_shards is the clamped shard count the tree actually
/// ran, which can differ from a swept "shards" axis cell when n < S);
/// the async counter columns appear only when the grid runs the async
/// engine mode.
void write_sweep_csv(const SweepOutcome& outcome, std::ostream& os);

/// Machine-readable result set: {"name", "runs": [{run_id, axes, summary
/// fields, wall_ms}, ...]} with the same stable keys as write_result_json.
void write_sweep_json(const SweepOutcome& outcome, std::ostream& os);

/// Human-readable summary table.
void print_sweep(const SweepOutcome& outcome, std::ostream& os);

}  // namespace abft::sweep
