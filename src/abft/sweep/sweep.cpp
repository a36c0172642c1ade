#include "abft/sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "abft/agg/registry.hpp"
#include "abft/agg/threads.hpp"
#include "abft/regress/problem.hpp"
#include "abft/util/check.hpp"
#include "abft/util/csv.hpp"
#include "abft/util/table.hpp"

namespace abft::sweep {

namespace {

using util::JsonValue;
using Members = std::vector<std::pair<std::string, JsonValue>>;

// ------------------------------- parsing ------------------------------------

void require_known_keys(const JsonValue& object, std::string_view where,
                        std::initializer_list<std::string_view> allowed) {
  util::require_known_keys(object, "sweep", where, allowed);
}

/// The JSON reader resolves duplicate keys last-wins; a sweep block where
/// the same axis appears twice is a spec contradicting itself, so it must
/// fail loudly instead of silently dropping the first list.
void reject_duplicate_keys(const JsonValue& object, std::string_view where) {
  auto keys = object.keys();
  std::sort(keys.begin(), keys.end());
  const auto dup = std::adjacent_find(keys.begin(), keys.end());
  if (dup != keys.end()) {
    std::ostringstream os;
    os << "sweep: duplicate key \"" << *dup << "\" in " << where;
    throw std::invalid_argument(os.str());
  }
}

std::string number_token(double value) { return util::format_json_number(value); }

/// Run-id / CSV token: labels are free-form, ids must stay shell- and
/// csv-friendly.
std::string sanitize_token(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    out.push_back(keep ? c : '-');
  }
  return out.empty() ? std::string("-") : out;
}

std::string pad_index(std::size_t index, std::size_t total) {
  std::string digits = std::to_string(total == 0 ? 0 : total - 1);
  std::string out = std::to_string(index);
  const std::size_t width = std::max<std::size_t>(3, digits.size());
  while (out.size() < width) out.insert(out.begin(), '0');
  return out;
}

// Entry parsers: one JSON list entry -> one element of a SweepSpec field,
// validated early so a malformed grid fails at parse, not mid-sweep.

std::string any_string(const JsonValue& entry, std::string_view) { return entry.as_string(); }

std::string mode_name(const JsonValue& entry, std::string_view) {
  agg::agg_mode_from_string(entry.as_string());
  return entry.as_string();
}

std::string precision_name(const JsonValue& entry, std::string_view) {
  agg::precision_from_string(entry.as_string());
  return entry.as_string();
}

double any_number(const JsonValue& entry, std::string_view) { return entry.as_number(); }

/// An int (util::checked_int) of at least `Min`.
template <int Min>
int int_at_least(const JsonValue& entry, std::string_view axis) {
  const int value =
      util::checked_int(entry.as_number(), "sweep", std::string(axis) + " axis entry");
  if (value < Min) {
    std::ostringstream os;
    os << "sweep: " << axis << " axis entries must be integers >= " << Min << ", got "
       << value;
    throw std::invalid_argument(os.str());
  }
  return value;
}

/// Seeds land in the spec as JSON numbers (doubles), which are exact only
/// up to 2^53; a larger seed would silently alias its neighbour.
constexpr std::uint64_t kMaxSeed = std::uint64_t{1} << 53;

std::uint64_t checked_seed(double value) {
  ABFT_REQUIRE(value >= 0.0 && value <= static_cast<double>(kMaxSeed) &&
                   value == std::floor(value),
               "sweep seeds must be integers in [0, 2^53]");
  return static_cast<std::uint64_t>(value);
}

std::uint64_t seed_entry(const JsonValue& entry, std::string_view) {
  return checked_seed(entry.as_number());
}

FaultPreset fault_preset(const JsonValue& entry, std::string_view) {
  require_known_keys(entry, "fault preset", {"label", "faults"});
  FaultPreset preset{entry.at("label").as_string(), entry.at("faults")};
  ABFT_REQUIRE(preset.faults.is_array(), "a fault preset's faults must be an array");
  return preset;
}

Variant variant(const JsonValue& entry, std::string_view) {
  require_known_keys(entry, "variant", {"label", "patch"});
  Variant parsed{entry.at("label").as_string(), entry.at("patch")};
  ABFT_REQUIRE(parsed.patch.is_object(), "a variant's patch must be an object");
  reject_duplicate_keys(parsed.patch, "variant patch \"" + parsed.label + "\"");
  return parsed;
}

/// The generic list parser: every entry through `Entry` into `Field`.
template <auto Field, auto Entry>
void parse_each(const JsonValue& list, std::string_view axis, SweepSpec& spec) {
  for (const auto& entry : list.as_array()) (spec.*Field).push_back(Entry(entry, axis));
}

/// Seeds: an explicit list, or a contiguous range {"from": s, "count": n}.
void parse_seeds(const JsonValue& list, std::string_view axis, SweepSpec& spec) {
  if (!list.is_object()) return parse_each<&SweepSpec::seed, seed_entry>(list, axis, spec);
  require_known_keys(list, "seed range", {"from", "count"});
  const std::uint64_t from = checked_seed(list.at("from").as_number());
  const double count = list.at("count").as_number();
  ABFT_REQUIRE(count >= 1.0 && count == std::floor(count) && count <= 1e6,
               "seed range count must be an integer in [1, 1e6]");
  const auto n = static_cast<std::uint64_t>(count);
  ABFT_REQUIRE(from + (n - 1) <= kMaxSeed, "a seed range must end at or below 2^53");
  for (std::uint64_t i = 0; i < n; ++i) spec.seed.push_back(from + i);
}

/// Shards rewrite the base's hierarchy block, so the base aggregator must
/// be one (or be absent, defaulting to an all-cwtm tree).
void parse_shards(const JsonValue& list, std::string_view axis, SweepSpec& spec) {
  parse_each<&SweepSpec::shards, int_at_least<1>>(list, axis, spec);
  const auto* aggregator = spec.base.find("aggregator");
  ABFT_REQUIRE(aggregator == nullptr || aggregator->find("hierarchy") != nullptr,
               "the shards axis needs the base aggregator to be a {\"hierarchy\": ...} "
               "object (or absent, defaulting to one)");
}

// ------------------------------- paths --------------------------------------

/// The last member named `key` (the JSON reader's last-wins rule).
const JsonValue* find_member(const Members& members, std::string_view key) {
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) found = &value;
  }
  return found;
}

/// The value at a dot-separated path below `members`; nullptr when any
/// level is absent.
const JsonValue* find_path(const Members& members, std::string_view path) {
  std::size_t dot = path.find('.');
  const JsonValue* node = find_member(members, path.substr(0, dot));
  while (node != nullptr && dot != std::string_view::npos) {
    path.remove_prefix(dot + 1);
    dot = path.find('.');
    node = node->find(path.substr(0, dot));
  }
  return node;
}

/// Writes `value` at a dot-separated path below `members`, creating every
/// absent level and keeping the other members of the levels that exist.
void set_path(Members& members, std::string_view path, const JsonValue& value) {
  const std::size_t dot = path.find('.');
  const std::string_view key = path.substr(0, dot);
  if (dot == std::string_view::npos) return set_member(members, key, value);
  Members level;
  if (const auto* existing = find_member(members, key)) level = existing->as_object();
  set_path(level, path.substr(dot + 1), value);
  set_member(members, key, JsonValue::make_object(std::move(level)));
}

/// variants: every patch key replaces (or adds) a top-level spec key.
void merge_patch(Members& members, std::string_view, const JsonValue& patch) {
  for (const auto& [key, value] : patch.as_object()) set_member(members, key, value);
}

// ----------------------------- axis table -----------------------------------

/// One value of a swept axis: its raw label (the AxisCell value — the CSV
/// layer RFC-4180-quotes commas and quotes; only the run-id token is
/// sanitized) and the JSON it writes into the spec.
struct Cell {
  std::string label;
  JsonValue value;
};

Cell cell(const std::string& name) { return {name, JsonValue::make_string(name)}; }
Cell cell(int value) { return {std::to_string(value), JsonValue::make_number(value)}; }
Cell cell(std::uint64_t seed) {
  return {std::to_string(seed), JsonValue::make_number(static_cast<double>(seed))};
}
Cell cell(double value) { return {number_token(value), JsonValue::make_number(value)}; }
Cell cell(const FaultPreset& preset) { return {preset.label, preset.faults}; }
Cell cell(const Variant& patch) { return {patch.label, patch.patch}; }

template <auto Field>
std::vector<Cell> cells_of(const SweepSpec& spec) {
  std::vector<Cell> out;
  out.reserve((spec.*Field).size());
  for (const auto& value : spec.*Field) out.push_back(cell(value));
  return out;
}

using ParseFn = void (*)(const JsonValue& list, std::string_view axis, SweepSpec& spec);
using CellsFn = std::vector<Cell> (*)(const SweepSpec& spec);
using ApplyFn = void (*)(Members& members, std::string_view path, const JsonValue& value);

struct AxisRow {
  std::string_view name;
  /// Dot-separated key path the axis writes in the base spec ("" = the
  /// spec root, which only the variants merge writes).
  std::string_view path;
  ParseFn parse;  // the "sweep" list -> the SweepSpec field
  CellsFn cells;  // the SweepSpec field -> one Cell per value
  ApplyFn apply;  // writes one Cell value onto the merged spec
};

template <auto Field, auto Entry>
constexpr AxisRow axis(std::string_view name, std::string_view path,
                       ApplyFn apply = set_path) {
  return {name, path, parse_each<Field, Entry>, cells_of<Field>, apply};
}

/// Every sweep axis, in canonical order: expansion applies them in this
/// order (so variants, last, override everything) and the grid's last axis
/// varies fastest.  Adding an axis is one row here plus its SweepSpec field.
///   shards          the base aggregator must be a hierarchy object or absent
///   quorum,         create the "async" block when the base has none, so a
///   staleness_cap   default quorum-or-deadline config applies
///   faults          named presets; each replaces the base "faults" array
///   variants        named free-form patches for rows that are not a single
///                   key change (e.g. fig2's "fault-free")
const AxisRow kAxes[] = {
    axis<&SweepSpec::aggregator, any_string>("aggregator", "aggregator"),
    axis<&SweepSpec::mode, mode_name>("mode", "mode"),
    axis<&SweepSpec::precision, precision_name>("precision", "precision"),
    axis<&SweepSpec::f, int_at_least<0>>("f", "f"),
    {"shards", "aggregator.hierarchy.shards", parse_shards, cells_of<&SweepSpec::shards>,
     set_path},
    axis<&SweepSpec::quorum, int_at_least<0>>("quorum", "async.quorum"),
    axis<&SweepSpec::staleness_cap, int_at_least<0>>("staleness_cap", "async.staleness_cap"),
    {"seed", "seed", parse_seeds, cells_of<&SweepSpec::seed>, set_path},
    axis<&SweepSpec::drop_probability, any_number>("drop_probability", "drop_probability"),
    axis<&SweepSpec::participation, any_number>("participation", "axes.participation"),
    axis<&SweepSpec::straggler_probability, any_number>("straggler_probability",
                                                        "axes.straggler_probability"),
    axis<&SweepSpec::faults, fault_preset>("faults", "faults"),
    axis<&SweepSpec::variants, variant>("variants", "", merge_patch),
};

/// Values are compared as run-id tokens: two that differ only in characters
/// the tokens drop ("a b" vs "a-b"), or past the 12 digits a number token
/// keeps, would emit indistinguishable axis cells and run ids.
void reject_duplicate_labels(const std::vector<Cell>& cells, std::string_view axis) {
  std::vector<std::string> tokens;
  tokens.reserve(cells.size());
  for (const auto& c : cells) tokens.push_back(sanitize_token(c.label));
  std::sort(tokens.begin(), tokens.end());
  const auto dup = std::adjacent_find(tokens.begin(), tokens.end());
  if (dup != tokens.end()) {
    std::ostringstream os;
    os << "sweep: duplicate value \"" << *dup << "\" in the " << axis
       << " axis (values are compared as run-id tokens)";
    throw std::invalid_argument(os.str());
  }
}

/// Walks the axis's path through the base: every level the base already
/// has must be an object for the axis to write into, and the axis's own key
/// must be absent — a swept key the base also sets is a spec contradicting
/// itself.  Variants (the root path) are exempt: a patch exists to override.
void reject_base_conflict(const Members& base, const AxisRow& row) {
  if (row.path.empty()) return;
  for (std::size_t dot = row.path.find('.'); dot != std::string_view::npos;
       dot = row.path.find('.', dot + 1)) {
    const auto* level = find_path(base, row.path.substr(0, dot));
    if (level != nullptr && !level->is_object()) {
      std::ostringstream os;
      os << "sweep: the " << row.name << " axis writes base." << row.path << ", but base."
         << row.path.substr(0, dot) << " is "
         << (level->is_null() ? "" : level->is_array() ? "an " : "a ")
         << util::kind_name(level->kind());
      throw std::invalid_argument(os.str());
    }
  }
  if (find_path(base, row.path) != nullptr) {
    std::ostringstream os;
    os << "sweep: axis \"" << row.name << "\" is also set in the base spec — remove one";
    throw std::invalid_argument(os.str());
  }
}

/// An earlier axis writing a parent of this axis's path (the aggregator
/// string axis under shards, say) would clobber the object this axis writes
/// into.
void reject_clobbering_axis(const AxisRow& earlier, const AxisRow& row) {
  if (row.path.starts_with(std::string(earlier.path) + '.')) {
    std::ostringstream os;
    os << "sweep: the " << row.name << " axis cannot combine with a " << earlier.name
       << " axis — it replaces base." << earlier.path << ", which " << row.name
       << " writes into; use variants instead";
    throw std::invalid_argument(os.str());
  }
}

// ------------------------------ output --------------------------------------

using util::write_json_string;

std::string format_wall_ms(double wall_ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", wall_ms);
  return buffer;
}

std::string final_dist_cell(const scenario::ScenarioResult& result) {
  return result.distance_to_reference ? number_token(*result.distance_to_reference)
                                      : std::string("nan");
}

/// The async counter columns appear only when the grid ran the async engine
/// (every run of a grid shares the base driver config, so the front run
/// decides for the whole table).
bool has_async_columns(const SweepOutcome& outcome) {
  return !outcome.runs.empty() && outcome.runs.front().result.async_stats.has_value();
}

/// The hierarchy bookkeeping columns appear only when the grid ran a
/// hierarchical aggregator.  eff_shards is the EFFECTIVE shard count the
/// tree ran with — on a roster of n < S agents it clamps to n, so it can
/// legitimately differ from the swept "shards" axis cell.
bool has_hierarchy_columns(const SweepOutcome& outcome) {
  return !outcome.runs.empty() && outcome.runs.front().result.hierarchy_bounds.has_value();
}

/// Which optional column groups a table carries.
struct RowShape {
  bool hierarchy = false;
  bool async_stats = false;
};

RowShape row_shape(const SweepOutcome& outcome) {
  return RowShape{has_hierarchy_columns(outcome), has_async_columns(outcome)};
}

/// One header/row shape shared by the CSV writer and the summary table.
std::vector<std::string> result_header(const SweepOutcome& outcome) {
  std::vector<std::string> header{"run_id"};
  if (!outcome.runs.empty()) {
    for (const auto& cell : outcome.runs.front().axes) header.push_back(cell.axis);
  }
  header.insert(header.end(), {"final_dist", "final_loss", "eliminated"});
  const RowShape shape = row_shape(outcome);
  if (shape.hierarchy) {
    header.insert(header.end(), {"eff_shards", "tolerated_f", "resilience_margin"});
  }
  if (shape.async_stats) {
    header.insert(header.end(),
                  {"quorum_fires", "deadline_fires", "stale_dropped", "late_rows"});
  }
  header.push_back("wall_ms");
  return header;
}

std::vector<std::string> result_row(const SweepRunResult& run, RowShape shape) {
  std::vector<std::string> row{run.run_id};
  for (const auto& cell : run.axes) row.push_back(cell.value);
  row.push_back(final_dist_cell(run.result));
  row.push_back(number_token(run.result.final_cost));
  row.push_back(std::to_string(run.result.eliminated_agents));
  if (shape.hierarchy) {
    const auto bounds = run.result.hierarchy_bounds.value_or(agg::HierarchyBounds{});
    row.push_back(std::to_string(bounds.shards));
    row.push_back(std::to_string(bounds.tolerated_f));
    row.push_back(number_token(bounds.resilience_margin));
  }
  if (shape.async_stats) {
    const auto stats = run.result.async_stats.value_or(engine::AsyncStats{});
    row.push_back(std::to_string(stats.quorum_fires));
    row.push_back(std::to_string(stats.deadline_fires));
    row.push_back(std::to_string(stats.stale_dropped));
    row.push_back(std::to_string(stats.late_rows));
  }
  row.push_back(format_wall_ms(run.wall_ms));
  return row;
}

}  // namespace

bool is_sweep_json(const JsonValue& json) { return json.find("sweep") != nullptr; }

std::string SweepRunResult::axis_value(std::string_view axis) const {
  for (const auto& cell : axes) {
    if (cell.axis == axis) return cell.value;
  }
  return "";
}

void set_base_member(SweepSpec* spec, std::string_view key, JsonValue value) {
  ABFT_REQUIRE(spec->base.is_object(), "sweep base must be a scenario object");
  Members members = spec->base.as_object();
  set_member(members, key, std::move(value));
  spec->base = JsonValue::make_object(std::move(members));
}

std::vector<std::string_view> axis_names() {
  std::vector<std::string_view> names;
  for (const auto& row : kAxes) names.push_back(row.name);
  return names;
}

SweepSpec parse_sweep(const JsonValue& json) {
  require_known_keys(json, "sweep document", {"name", "threads", "base", "sweep"});
  reject_duplicate_keys(json, "sweep document");
  SweepSpec spec;
  spec.name = json.string_or("name", "");
  spec.threads = util::checked_int(json.number_or("threads", 1), "sweep", "threads");
  ABFT_REQUIRE(spec.threads >= 1, "sweep threads must be an integer >= 1");
  spec.base = json.at("base");
  ABFT_REQUIRE(spec.base.is_object(), "sweep base must be a scenario object");
  reject_duplicate_keys(spec.base, "base");

  const JsonValue& sw = json.at("sweep");
  ABFT_REQUIRE(sw.is_object(), "the sweep block must be an object of axes");
  for (const auto& key : sw.keys()) {
    if (std::none_of(std::begin(kAxes), std::end(kAxes),
                     [&](const AxisRow& row) { return row.name == key; })) {
      throw std::invalid_argument("sweep: unknown key \"" + key + "\" in sweep block");
    }
  }
  reject_duplicate_keys(sw, "sweep block");

  std::vector<const AxisRow*> swept;
  for (const auto& row : kAxes) {
    const auto* list = sw.find(row.name);
    if (list == nullptr) continue;
    row.parse(*list, row.name, spec);
    const auto cells = row.cells(spec);
    if (cells.empty()) {
      throw std::invalid_argument("sweep: the " + std::string(row.name) + " axis list is empty");
    }
    reject_duplicate_labels(cells, row.name);
    reject_base_conflict(spec.base.as_object(), row);
    for (const auto* earlier : swept) reject_clobbering_axis(*earlier, row);
    swept.push_back(&row);
  }
  ABFT_REQUIRE(!swept.empty(), "the sweep block must sweep at least one axis");
  return spec;
}

SweepSpec load_sweep_file(const std::string& path) {
  return parse_sweep(util::parse_json_file(path));
}

std::vector<ExpandedRun> expand_sweep(const SweepSpec& spec) {
  ABFT_REQUIRE(spec.base.is_object(), "sweep base must be a scenario object");
  struct SweptAxis {
    const AxisRow* row;
    std::vector<Cell> cells;
  };
  std::vector<SweptAxis> axes;
  for (const auto& row : kAxes) {
    auto cells = row.cells(spec);
    if (!cells.empty()) axes.push_back({&row, std::move(cells)});
  }
  ABFT_REQUIRE(!axes.empty(), "the sweep block must sweep at least one axis");

  std::size_t total = 1;
  for (const auto& axis : axes) {
    ABFT_REQUIRE(total <= 1000000 / axis.cells.size(),
                 "sweep grid exceeds 1e6 runs — split the spec");
    total *= axis.cells.size();
  }

  std::vector<ExpandedRun> runs;
  runs.reserve(total);
  std::vector<const Cell*> picked(axes.size());
  for (std::size_t index = 0; index < total; ++index) {
    // Row-major decomposition: the LAST axis varies fastest.
    std::size_t remainder = index;
    for (std::size_t a = axes.size(); a-- > 0;) {
      picked[a] = &axes[a].cells[remainder % axes[a].cells.size()];
      remainder /= axes[a].cells.size();
    }

    ExpandedRun run;
    run.run_id = pad_index(index, total);
    run.axes.reserve(axes.size());
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::string_view name = axes[a].row->name;
      run.run_id.append(1, '_').append(name).append(1, '=');
      run.run_id += sanitize_token(picked[a]->label);
      run.axes.push_back(AxisCell{std::string(name), picked[a]->label});
    }
    try {
      Members members = spec.base.as_object();
      for (std::size_t a = 0; a < axes.size(); ++a) {
        axes[a].row->apply(members, axes[a].row->path, picked[a]->value);
      }
      run.spec = scenario::parse_scenario(JsonValue::make_object(std::move(members)));
    } catch (const std::exception& error) {
      throw std::invalid_argument("sweep run " + run.run_id + ": " + error.what());
    }
    if (run.spec.name.empty()) run.spec.name = run.run_id;
    runs.push_back(std::move(run));
  }
  return runs;
}

SweepOutcome run_sweep(const SweepSpec& spec, int threads_override) {
  const int threads = threads_override > 0 ? threads_override : spec.threads;
  ABFT_REQUIRE(threads >= 1, "sweep threads must be >= 1");
  std::vector<ExpandedRun> runs = expand_sweep(spec);

  SweepOutcome outcome;
  outcome.name = spec.name;
  outcome.runs.resize(runs.size());
  // Independent engines per run: results land in their grid slot, so the
  // outcome is row-for-row identical at every thread count (and identical
  // to run-by-run run_scenario).  Inside a pool worker the per-run engines'
  // own parallel_for degenerates to serial (nested-dispatch rule), so a
  // parallel sweep never oversubscribes.
  agg::ThreadPool pool(std::min(threads, static_cast<int>(std::max<std::size_t>(
                                             runs.size(), 1))));

  // One random_regression instance per distinct key, built (and certified)
  // before dispatch; every run naming the key reads it.  Rules, faults and
  // most other axes leave the key alone, so a grid builds one instance per
  // seed rather than one per run.  A key whose construction throws stays
  // unbuilt: its runs build it themselves and report the error as a
  // standalone run_scenario would.
  std::vector<scenario::RegressionKey> keys;
  std::vector<int> key_of_run(runs.size(), -1);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run_spec = runs[i].spec;
    if (run_spec.problem != "random_regression" || run_spec.driver == "dsgd") continue;
    const auto key = scenario::regression_key(run_spec);
    const auto found = std::find(keys.begin(), keys.end(), key);
    key_of_run[i] = static_cast<int>(found - keys.begin());
    if (found == keys.end()) keys.push_back(key);
  }
  std::vector<std::optional<regress::RegressionProblem>> instances(keys.size());
  pool.parallel_for(0, static_cast<int>(keys.size()), threads, [&](int lo, int hi) {
    for (int k = lo; k < hi; ++k) {
      try {
        instances[static_cast<std::size_t>(k)].emplace(
            scenario::random_regression_instance(keys[static_cast<std::size_t>(k)]));
      } catch (const std::exception&) {
        // Left unbuilt (see above).
      }
    }
  });
  // Dynamic scheduling: run costs are heterogeneous (and grid order
  // correlates cost with position — e.g. a mode axis groups all the slow
  // exact runs together), so workers drain a shared cursor instead of
  // taking parallel_for's static chunks.  Each run still lands in its own
  // grid slot, so the outcome stays row-for-row identical.
  std::atomic<int> cursor{0};
  const int total_runs = static_cast<int>(runs.size());
  pool.parallel_for(0, total_runs, threads, [&](int, int) {
    for (int i = cursor.fetch_add(1); i < total_runs; i = cursor.fetch_add(1)) {
      auto& slot = outcome.runs[static_cast<std::size_t>(i)];
      auto& run = runs[static_cast<std::size_t>(i)];
      const auto start = std::chrono::steady_clock::now();
      const int key = key_of_run[static_cast<std::size_t>(i)];
      const auto* instance = key < 0 ? nullptr : &instances[static_cast<std::size_t>(key)];
      try {
        slot.result = instance != nullptr && instance->has_value()
                          ? scenario::run_scenario(run.spec, **instance)
                          : scenario::run_scenario(run.spec);
      } catch (const std::exception& error) {
        // Re-anchor the failure to its grid cell; parallel_for rethrows the
        // first failing chunk's exception to the caller.
        throw std::invalid_argument("sweep run " + run.run_id + ": " + error.what());
      }
      const auto stop = std::chrono::steady_clock::now();
      slot.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
      slot.run_id = std::move(run.run_id);
      slot.axes = std::move(run.axes);
    }
  });
  return outcome;
}

void write_sweep_csv(const SweepOutcome& outcome, std::ostream& os) {
  util::CsvWriter csv(os, result_header(outcome));
  const RowShape shape = row_shape(outcome);
  for (const auto& run : outcome.runs) csv.add_row(result_row(run, shape));
}

void write_sweep_json(const SweepOutcome& outcome, std::ostream& os) {
  os << "{\n  \"name\": ";
  write_json_string(os, outcome.name);
  os << ",\n  \"runs\": [";
  for (std::size_t i = 0; i < outcome.runs.size(); ++i) {
    const auto& run = outcome.runs[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"run_id\": ";
    write_json_string(os, run.run_id);
    os << ", \"axes\": {";
    for (std::size_t c = 0; c < run.axes.size(); ++c) {
      if (c > 0) os << ", ";
      write_json_string(os, run.axes[c].axis);
      os << ": ";
      write_json_string(os, run.axes[c].value);
    }
    os << "}, \"driver\": ";
    write_json_string(os, run.result.spec.driver);
    os << ", \"aggregator\": ";
    write_json_string(os, run.result.spec.aggregator);
    os << ", \"mode\": \"" << agg::to_string(run.result.spec.mode) << "\"";
    os << ", \"precision\": \"" << agg::to_string(run.result.spec.precision) << "\"";
    // A diverged run's final_cost/distance can be nan or inf, which have no
    // JSON spelling; write_json_number emits null instead of an unparseable
    // bare token.
    os << ", \"final_cost\": ";
    util::write_json_number(os, run.result.final_cost);
    if (run.result.distance_to_reference) {
      os << ", \"distance_to_reference\": ";
      util::write_json_number(os, *run.result.distance_to_reference);
    }
    os << ", \"eliminated_agents\": " << run.result.eliminated_agents;
    os << ", \"departed_agents\": " << run.result.departed_agents;
    if (run.result.hierarchy_bounds) {
      const auto& b = *run.result.hierarchy_bounds;
      os << ", \"hierarchy\": {\"shards\": " << b.shards
         << ", \"requested_shards\": " << run.result.spec.hierarchy->shards
         << ", \"f_leaf\": " << b.f_leaf << ", \"f_root\": " << b.f_root
         << ", \"tolerated_f\": " << b.tolerated_f
         << ", \"resilience_margin\": " << number_token(b.resilience_margin) << "}";
    }
    if (run.result.async_stats) {
      const auto& a = *run.result.async_stats;
      os << ", \"async\": {\"quorum_fires\": " << a.quorum_fires
         << ", \"deadline_fires\": " << a.deadline_fires
         << ", \"stale_dropped\": " << a.stale_dropped
         << ", \"late_rows\": " << a.late_rows << "}";
    }
    os << ", \"wall_ms\": " << format_wall_ms(run.wall_ms) << "}";
  }
  os << "\n  ]\n}\n";
}

void print_sweep(const SweepOutcome& outcome, std::ostream& os) {
  os << "sweep: " << (outcome.name.empty() ? "(unnamed)" : outcome.name) << " — "
     << outcome.runs.size() << " runs\n";
  util::Table table(result_header(outcome));
  const RowShape shape = row_shape(outcome);
  for (const auto& run : outcome.runs) table.add_row(result_row(run, shape));
  table.print(os);
}

}  // namespace abft::sweep
