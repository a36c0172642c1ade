#include "abft/sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
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

std::vector<std::string> parse_string_axis(const JsonValue& values, std::string_view axis) {
  std::vector<std::string> out;
  for (const auto& value : values.as_array()) out.push_back(value.as_string());
  if (out.empty()) {
    throw std::invalid_argument("sweep: the " + std::string(axis) + " axis list is empty");
  }
  return out;
}

std::vector<double> parse_number_axis(const JsonValue& values) {
  std::vector<double> out;
  for (const auto& value : values.as_array()) out.push_back(value.as_number());
  ABFT_REQUIRE(!out.empty(), "sweep axis lists must be non-empty");
  return out;
}

/// An integer axis: every entry an int (util::checked_int) of at least
/// `min`, else `message`.
std::vector<int> parse_int_axis(const JsonValue& values, std::string_view axis, int min,
                                const char* message) {
  std::vector<int> out;
  for (const double value : parse_number_axis(values)) {
    out.push_back(util::checked_int(value, "sweep", std::string(axis) + " axis entry"));
    ABFT_REQUIRE(out.back() >= min, message);
  }
  return out;
}

std::uint64_t checked_seed(double value) {
  ABFT_REQUIRE(value >= 0.0 && value <= 9007199254740992.0 && value == std::floor(value),
               "sweep seeds must be integers in [0, 2^53]");
  return static_cast<std::uint64_t>(value);
}

/// Seed axis: an explicit list, or a contiguous range {"from": s, "count": n}.
std::vector<std::uint64_t> parse_seed_axis(const JsonValue& values) {
  std::vector<std::uint64_t> out;
  if (values.is_object()) {
    require_known_keys(values, "seed range", {"from", "count"});
    const std::uint64_t from = checked_seed(values.at("from").as_number());
    const double count = values.at("count").as_number();
    ABFT_REQUIRE(count >= 1.0 && count == std::floor(count) && count <= 1e6,
                 "seed range count must be an integer in [1, 1e6]");
    for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(count); ++i) {
      out.push_back(from + i);
    }
    return out;
  }
  for (const auto& value : values.as_array()) out.push_back(checked_seed(value.as_number()));
  ABFT_REQUIRE(!out.empty(), "sweep axis lists must be non-empty");
  return out;
}

std::string sanitize_token(std::string_view text);

/// Labels are compared after run-id/CSV sanitization: two labels that only
/// differ in characters the tokens drop (e.g. "a b" vs "a-b") would emit
/// indistinguishable axis cells and run ids, so they are duplicates too.
void reject_duplicate_labels(const std::vector<std::string>& labels, std::string_view axis) {
  std::vector<std::string> sorted;
  sorted.reserve(labels.size());
  for (const auto& label : labels) sorted.push_back(sanitize_token(label));
  std::sort(sorted.begin(), sorted.end());
  const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end()) {
    std::ostringstream os;
    os << "sweep: duplicate label \"" << *dup << "\" in the " << axis
       << " axis (labels are compared after run-id sanitization)";
    throw std::invalid_argument(os.str());
  }
}

/// A named axis re-specifying a key the base already sets would make the
/// spec contradict itself (which value did the author mean?) — reject.
/// Variants are exempt: a patch exists to override, and applies last.
void reject_base_conflict(const SweepSpec& spec, std::string_view axis, bool swept) {
  if (!swept) return;
  const JsonValue* collision = nullptr;
  if (axis == "participation" || axis == "straggler_probability") {
    if (const auto* axes = spec.base.find("axes")) collision = axes->find(axis);
  } else if (axis == "quorum" || axis == "staleness_cap") {
    // Lives one level down, at base.async.{quorum, staleness_cap}.
    if (const auto* async = spec.base.find("async")) collision = async->find(axis);
  } else if (axis == "shards") {
    // Lives two levels down, at base.aggregator.hierarchy.shards.
    if (const auto* aggregator = spec.base.find("aggregator")) {
      if (aggregator->is_object()) {
        if (const auto* hierarchy = aggregator->find("hierarchy")) {
          collision = hierarchy->find(axis);
        }
      }
    }
  } else if (axis == "coreset_size") {
    // Lives three levels down, at base.aggregator.reduction.coreset.size.
    if (const auto* aggregator = spec.base.find("aggregator")) {
      if (aggregator->is_object()) {
        if (const auto* reduction = aggregator->find("reduction")) {
          if (const auto* coreset = reduction->find("coreset")) {
            collision = coreset->find("size");
          }
        }
      }
    }
  } else if (axis == "reduction_kind") {
    // Re-keys base.aggregator.reduction wholesale, so any base reduction
    // block conflicts (the base kind would be silently replaced).
    if (const auto* aggregator = spec.base.find("aggregator")) {
      if (aggregator->is_object()) collision = aggregator->find("reduction");
    }
  } else {
    collision = spec.base.find(axis);
  }
  if (collision != nullptr) {
    std::ostringstream os;
    os << "sweep: axis \"" << axis << "\" is also set in the base spec — remove one";
    throw std::invalid_argument(os.str());
  }
}

// ------------------------------ expansion -----------------------------------

void set_member(Members& members, std::string_view key, JsonValue value) {
  for (auto& [name, existing] : members) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  members.emplace_back(std::string(key), std::move(value));
}

/// Sets one key inside the spec's "axes" sub-object (creating it if the base
/// has none) — the participation / straggler axes live a level down.
void set_axes_member(Members& members, std::string_view key, double value) {
  Members axes_members;
  for (const auto& [name, existing] : members) {
    if (name == "axes") axes_members = existing.as_object();
  }
  set_member(axes_members, key, JsonValue::make_number(value));
  set_member(members, "axes", JsonValue::make_object(std::move(axes_members)));
}

/// Sets one key inside the spec's "async" sub-object (creating it if the
/// base has none — an absent async block becomes the default
/// quorum-or-deadline config) — the quorum / staleness_cap axes live a
/// level down.
void set_async_member(Members& members, std::string_view key, double value) {
  Members async_members;
  for (const auto& [name, existing] : members) {
    if (name == "async") async_members = existing.as_object();
  }
  set_member(async_members, key, JsonValue::make_number(value));
  set_member(members, "async", JsonValue::make_object(std::move(async_members)));
}

/// Sets one key inside "aggregator"/"hierarchy" (creating both levels if
/// absent — an absent base aggregator becomes a default hierarchy) — the
/// shards axis lives two levels down.  parse_sweep has already rejected a
/// non-object base aggregator.
void set_hierarchy_member(Members& members, std::string_view key, double value) {
  Members aggregator_members;
  for (const auto& [name, existing] : members) {
    if (name == "aggregator") aggregator_members = existing.as_object();
  }
  Members hierarchy_members;
  for (const auto& [name, existing] : aggregator_members) {
    if (name == "hierarchy") hierarchy_members = existing.as_object();
  }
  set_member(hierarchy_members, key, JsonValue::make_number(value));
  set_member(aggregator_members, "hierarchy",
             JsonValue::make_object(std::move(hierarchy_members)));
  set_member(members, "aggregator", JsonValue::make_object(std::move(aggregator_members)));
}

/// Sets "aggregator"/"reduction"/"coreset"/"size" (creating every level if
/// absent — an absent base aggregator becomes a default-rule coreset
/// reduction) — the coreset_size axis lives three levels down.  parse_sweep
/// has already rejected a non-object base aggregator.  Existing aggregator
/// members (e.g. a hierarchy block the shards axis writes) are preserved,
/// so the two axes compose into per-shard coresets.
void set_coreset_member(Members& members, double value) {
  Members aggregator_members;
  for (const auto& [name, existing] : members) {
    if (name == "aggregator") aggregator_members = existing.as_object();
  }
  Members reduction_members;
  for (const auto& [name, existing] : aggregator_members) {
    if (name == "reduction") reduction_members = existing.as_object();
  }
  Members coreset_members;
  for (const auto& [name, existing] : reduction_members) {
    if (name == "coreset") coreset_members = existing.as_object();
  }
  set_member(coreset_members, "size", JsonValue::make_number(value));
  set_member(reduction_members, "coreset", JsonValue::make_object(std::move(coreset_members)));
  set_member(aggregator_members, "reduction",
             JsonValue::make_object(std::move(reduction_members)));
  set_member(members, "aggregator", JsonValue::make_object(std::move(aggregator_members)));
}

/// Re-keys "aggregator"/"reduction" to {"<kind>": {inner config}} (creating
/// every level if absent) — the reduction_kind axis.  The inner config
/// object a coreset_size axis wrote earlier in the canonical order is
/// carried over under the new key, so the two axes compose (the size axis
/// picks k, the kind axis picks the construction).  parse_sweep has already
/// rejected a non-object base aggregator and a base reduction block.
void set_reduction_kind_member(Members& members, std::string_view kind) {
  Members aggregator_members;
  for (const auto& [name, existing] : members) {
    if (name == "aggregator") aggregator_members = existing.as_object();
  }
  Members reduction_members;
  for (const auto& [name, existing] : aggregator_members) {
    if (name == "reduction") reduction_members = existing.as_object();
  }
  Members inner;
  if (!reduction_members.empty()) inner = reduction_members.front().second.as_object();
  Members rekeyed;
  set_member(rekeyed, kind, JsonValue::make_object(std::move(inner)));
  set_member(aggregator_members, "reduction", JsonValue::make_object(std::move(rekeyed)));
  set_member(members, "aggregator", JsonValue::make_object(std::move(aggregator_members)));
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
  require_known_keys(sw, "sweep block",
                     {"aggregator", "mode", "precision", "f", "shards", "coreset_size",
                      "reduction_kind", "quorum", "staleness_cap", "seed",
                      "drop_probability", "participation", "straggler_probability", "faults",
                      "variants"});
  reject_duplicate_keys(sw, "sweep block");

  if (const auto* axis = sw.find("aggregator")) {
    spec.aggregator = parse_string_axis(*axis, "aggregator");
  }
  if (const auto* axis = sw.find("mode")) {
    spec.mode = parse_string_axis(*axis, "mode");
    for (const auto& mode : spec.mode) agg::agg_mode_from_string(mode);  // early validation
  }
  if (const auto* axis = sw.find("precision")) {
    spec.precision = parse_string_axis(*axis, "precision");
    for (const auto& precision : spec.precision) {
      agg::precision_from_string(precision);  // early validation
    }
  }
  if (const auto* axis = sw.find("f")) {
    spec.f = parse_int_axis(*axis, "f", 0, "f axis entries must be non-negative integers");
  }
  if (const auto* axis = sw.find("shards")) {
    spec.shards =
        parse_int_axis(*axis, "shards", 1, "shards axis entries must be integers >= 1");
    ABFT_REQUIRE(spec.aggregator.empty(),
                 "the shards axis cannot combine with an aggregator axis — the rule strings "
                 "would clobber the hierarchy object; use variants instead");
    const auto* base_aggregator = spec.base.find("aggregator");
    ABFT_REQUIRE(base_aggregator == nullptr ||
                     (base_aggregator->is_object() &&
                      base_aggregator->find("hierarchy") != nullptr),
                 "the shards axis needs the base aggregator to be a {\"hierarchy\": ...} "
                 "object (or absent, defaulting to one)");
  }
  if (const auto* axis = sw.find("coreset_size")) {
    spec.coreset_size = parse_int_axis(
        *axis, "coreset_size", 0,
        "coreset_size axis entries must be non-negative integers (0 = auto)");
    ABFT_REQUIRE(spec.aggregator.empty(),
                 "the coreset_size axis cannot combine with an aggregator axis — the rule "
                 "strings would clobber the reduction object; use variants instead");
    const auto* base_aggregator = spec.base.find("aggregator");
    ABFT_REQUIRE(base_aggregator == nullptr || base_aggregator->is_object(),
                 "the coreset_size axis needs the base aggregator to be an object "
                 "(or absent, defaulting to the default rule)");
  }
  if (const auto* axis = sw.find("reduction_kind")) {
    spec.reduction_kind = parse_string_axis(*axis, "reduction_kind");
    for (const auto& kind : spec.reduction_kind) {
      ABFT_REQUIRE(kind == "coreset" || kind == "sample",
                   "reduction_kind axis entries must be \"coreset\" or \"sample\"");
    }
    ABFT_REQUIRE(spec.aggregator.empty(),
                 "the reduction_kind axis cannot combine with an aggregator axis — the rule "
                 "strings would clobber the reduction object; use variants instead");
    const auto* base_aggregator = spec.base.find("aggregator");
    ABFT_REQUIRE(base_aggregator == nullptr || base_aggregator->is_object(),
                 "the reduction_kind axis needs the base aggregator to be an object "
                 "(or absent, defaulting to the default rule)");
  }
  if (const auto* axis = sw.find("quorum")) {
    spec.quorum = parse_int_axis(*axis, "quorum", 0,
                                 "quorum axis entries must be non-negative integers (0 = full "
                                 "roster)");
  }
  if (const auto* axis = sw.find("staleness_cap")) {
    spec.staleness_cap = parse_int_axis(*axis, "staleness_cap", 0,
                                        "staleness_cap axis entries must be non-negative "
                                        "integers");
  }
  if (const auto* axis = sw.find("seed")) spec.seed = parse_seed_axis(*axis);
  if (const auto* axis = sw.find("drop_probability")) {
    spec.drop_probability = parse_number_axis(*axis);
  }
  if (const auto* axis = sw.find("participation")) {
    spec.participation = parse_number_axis(*axis);
  }
  if (const auto* axis = sw.find("straggler_probability")) {
    spec.straggler_probability = parse_number_axis(*axis);
  }
  if (const auto* axis = sw.find("faults")) {
    std::vector<std::string> labels;
    for (const auto& preset : axis->as_array()) {
      require_known_keys(preset, "fault preset", {"label", "faults"});
      FaultPreset parsed{preset.at("label").as_string(), preset.at("faults")};
      ABFT_REQUIRE(parsed.faults.is_array(), "a fault preset's faults must be an array");
      labels.push_back(parsed.label);
      spec.faults.push_back(std::move(parsed));
    }
    ABFT_REQUIRE(!spec.faults.empty(), "sweep axis lists must be non-empty");
    reject_duplicate_labels(labels, "faults");
  }
  if (const auto* axis = sw.find("variants")) {
    std::vector<std::string> labels;
    for (const auto& variant : axis->as_array()) {
      require_known_keys(variant, "variant", {"label", "patch"});
      Variant parsed{variant.at("label").as_string(), variant.at("patch")};
      ABFT_REQUIRE(parsed.patch.is_object(), "a variant's patch must be an object");
      reject_duplicate_keys(parsed.patch, "variant patch \"" + parsed.label + "\"");
      labels.push_back(parsed.label);
      spec.variants.push_back(std::move(parsed));
    }
    ABFT_REQUIRE(!spec.variants.empty(), "sweep axis lists must be non-empty");
    reject_duplicate_labels(labels, "variants");
  }

  const bool any_axis = !spec.aggregator.empty() || !spec.mode.empty() ||
                        !spec.precision.empty() || !spec.f.empty() ||
                        !spec.shards.empty() || !spec.coreset_size.empty() ||
                        !spec.reduction_kind.empty() ||
                        !spec.quorum.empty() || !spec.staleness_cap.empty() ||
                        !spec.seed.empty() || !spec.drop_probability.empty() ||
                        !spec.participation.empty() || !spec.straggler_probability.empty() ||
                        !spec.faults.empty() || !spec.variants.empty();
  ABFT_REQUIRE(any_axis, "the sweep block must sweep at least one axis");

  reject_base_conflict(spec, "aggregator", !spec.aggregator.empty());
  reject_base_conflict(spec, "mode", !spec.mode.empty());
  reject_base_conflict(spec, "precision", !spec.precision.empty());
  reject_base_conflict(spec, "f", !spec.f.empty());
  reject_base_conflict(spec, "shards", !spec.shards.empty());
  reject_base_conflict(spec, "coreset_size", !spec.coreset_size.empty());
  reject_base_conflict(spec, "reduction_kind", !spec.reduction_kind.empty());
  reject_base_conflict(spec, "quorum", !spec.quorum.empty());
  reject_base_conflict(spec, "staleness_cap", !spec.staleness_cap.empty());
  reject_base_conflict(spec, "seed", !spec.seed.empty());
  reject_base_conflict(spec, "drop_probability", !spec.drop_probability.empty());
  reject_base_conflict(spec, "participation", !spec.participation.empty());
  reject_base_conflict(spec, "straggler_probability", !spec.straggler_probability.empty());
  reject_base_conflict(spec, "faults", !spec.faults.empty());
  return spec;
}

SweepSpec load_sweep_file(const std::string& path) {
  return parse_sweep(util::parse_json_file(path));
}

std::vector<ExpandedRun> expand_sweep(const SweepSpec& spec) {
  ABFT_REQUIRE(spec.base.is_object(), "sweep base must be a scenario object");

  // Active axes in canonical order; each knows how to apply one position
  // onto the merged member list and to name its value.  apply returns the
  // RAW human-readable value: it lands verbatim in the AxisCell (the CSV
  // layer quotes commas and quotes per RFC 4180), and the expansion loop
  // sanitizes it separately for the run-id token.  Sanitizing here used to
  // mangle comma-bearing fault/variant labels in the CSV cells themselves.
  struct Axis {
    std::string name;
    std::size_t size;
    std::function<std::string(std::size_t, Members&)> apply;  // returns raw value
  };
  std::vector<Axis> axes;
  if (!spec.aggregator.empty()) {
    axes.push_back({"aggregator", spec.aggregator.size(), [&](std::size_t i, Members& m) {
                      set_member(m, "aggregator", JsonValue::make_string(spec.aggregator[i]));
                      return spec.aggregator[i];
                    }});
  }
  if (!spec.mode.empty()) {
    axes.push_back({"mode", spec.mode.size(), [&](std::size_t i, Members& m) {
                      set_member(m, "mode", JsonValue::make_string(spec.mode[i]));
                      return spec.mode[i];
                    }});
  }
  if (!spec.precision.empty()) {
    axes.push_back({"precision", spec.precision.size(), [&](std::size_t i, Members& m) {
                      set_member(m, "precision", JsonValue::make_string(spec.precision[i]));
                      return spec.precision[i];
                    }});
  }
  if (!spec.f.empty()) {
    axes.push_back({"f", spec.f.size(), [&](std::size_t i, Members& m) {
                      set_member(m, "f", JsonValue::make_number(spec.f[i]));
                      return std::to_string(spec.f[i]);
                    }});
  }
  if (!spec.shards.empty()) {
    axes.push_back({"shards", spec.shards.size(), [&](std::size_t i, Members& m) {
                      set_hierarchy_member(m, "shards", spec.shards[i]);
                      return std::to_string(spec.shards[i]);
                    }});
  }
  if (!spec.coreset_size.empty()) {
    axes.push_back({"coreset_size", spec.coreset_size.size(), [&](std::size_t i, Members& m) {
                      set_coreset_member(m, spec.coreset_size[i]);
                      return std::to_string(spec.coreset_size[i]);
                    }});
  }
  if (!spec.reduction_kind.empty()) {
    axes.push_back(
        {"reduction_kind", spec.reduction_kind.size(), [&](std::size_t i, Members& m) {
           set_reduction_kind_member(m, spec.reduction_kind[i]);
           return spec.reduction_kind[i];
         }});
  }
  if (!spec.quorum.empty()) {
    axes.push_back({"quorum", spec.quorum.size(), [&](std::size_t i, Members& m) {
                      set_async_member(m, "quorum", spec.quorum[i]);
                      return std::to_string(spec.quorum[i]);
                    }});
  }
  if (!spec.staleness_cap.empty()) {
    axes.push_back({"staleness_cap", spec.staleness_cap.size(), [&](std::size_t i, Members& m) {
                      set_async_member(m, "staleness_cap", spec.staleness_cap[i]);
                      return std::to_string(spec.staleness_cap[i]);
                    }});
  }
  if (!spec.seed.empty()) {
    axes.push_back({"seed", spec.seed.size(), [&](std::size_t i, Members& m) {
                      set_member(m, "seed",
                                 JsonValue::make_number(static_cast<double>(spec.seed[i])));
                      return std::to_string(spec.seed[i]);
                    }});
  }
  if (!spec.drop_probability.empty()) {
    axes.push_back(
        {"drop_probability", spec.drop_probability.size(), [&](std::size_t i, Members& m) {
           set_member(m, "drop_probability", JsonValue::make_number(spec.drop_probability[i]));
           return number_token(spec.drop_probability[i]);
         }});
  }
  if (!spec.participation.empty()) {
    axes.push_back({"participation", spec.participation.size(), [&](std::size_t i, Members& m) {
                      set_axes_member(m, "participation", spec.participation[i]);
                      return number_token(spec.participation[i]);
                    }});
  }
  if (!spec.straggler_probability.empty()) {
    axes.push_back({"straggler_probability", spec.straggler_probability.size(),
                    [&](std::size_t i, Members& m) {
                      set_axes_member(m, "straggler_probability",
                                      spec.straggler_probability[i]);
                      return number_token(spec.straggler_probability[i]);
                    }});
  }
  if (!spec.faults.empty()) {
    axes.push_back({"faults", spec.faults.size(), [&](std::size_t i, Members& m) {
                      set_member(m, "faults", spec.faults[i].faults);
                      return spec.faults[i].label;
                    }});
  }
  if (!spec.variants.empty()) {
    axes.push_back({"variants", spec.variants.size(), [&](std::size_t i, Members& m) {
                      for (const auto& [key, value] : spec.variants[i].patch.as_object()) {
                        set_member(m, key, value);
                      }
                      return spec.variants[i].label;
                    }});
  }
  ABFT_REQUIRE(!axes.empty(), "the sweep block must sweep at least one axis");

  std::size_t total = 1;
  for (const auto& axis : axes) {
    ABFT_REQUIRE(axis.size > 0 && total <= 1000000 / axis.size,
                 "sweep grid exceeds 1e6 runs — split the spec");
    total *= axis.size;
  }

  std::vector<ExpandedRun> runs;
  runs.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    // Row-major decomposition: the LAST axis varies fastest.
    std::vector<std::size_t> position(axes.size());
    std::size_t remainder = index;
    for (std::size_t a = axes.size(); a-- > 0;) {
      position[a] = remainder % axes[a].size;
      remainder /= axes[a].size;
    }

    ExpandedRun run;
    Members members = spec.base.as_object();
    std::string run_id = pad_index(index, total);
    for (std::size_t a = 0; a < axes.size(); ++a) {
      std::string value = axes[a].apply(position[a], members);
      run_id += '_' + axes[a].name + '=' + sanitize_token(value);
      run.axes.push_back(AxisCell{axes[a].name, std::move(value)});
    }
    run.run_id = std::move(run_id);
    try {
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
