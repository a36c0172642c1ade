// abft_run — the scenario/sweep CLI: executes one declarative ScenarioSpec
// (src/abft/scenario/scenario.hpp for the schema) or one grid SweepSpec
// (src/abft/sweep/sweep.hpp) and reports the outcome.
//
//   abft_run spec.json                     run, print a human summary
//   abft_run spec.json --out=result.json   also write the machine summary
//   abft_run spec.json --csv               dump the estimate trace as CSV
//   abft_run spec.json --agg=cge --mode=fast --iterations=200 --seed=7
//                                          override spec fields inline
//   abft_run --sweep sweep.json            expand + run the grid, print a
//                                          summary table
//   abft_run --sweep sweep.json --csv=grid.csv --out=grid.json --threads=4
//                                          aggregated CSV/JSON result set,
//                                          runner width override
//   abft_run --compare a.json b.json --rtol=1e-9
//                                          run both specs (scenario or
//                                          sweep) and diff their outcomes
//                                          within tolerance; exit 1 on drift
//   abft_run --list                        known rules / drivers / faults
//
// Documents carrying a "sweep" block are auto-detected, so --sweep is
// optional but self-documenting.  The committed specs under specs/
// reproduce the paper's setups (fig2, table1, the sweep grids) and the CI
// smoke goldens.
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "abft/agg/registry.hpp"
#include "abft/scenario/scenario.hpp"
#include "abft/sweep/sweep.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: abft_run <spec.json> [--out=FILE] [--csv[=FILE]] [--agg=RULE] [--mode=exact|fast]\n"
        "                [--iterations=N] [--seed=N] [--threads=N] [--quiet]\n"
        "       abft_run --sweep <sweep.json> [--csv[=FILE]] [--out=FILE] [--threads=N]\n"
        "                [--quiet]\n"
        "       abft_run --compare <a.json> <b.json> [--rtol=X] [--threads=N]\n"
        "       abft_run --list\n";
}

void print_list() {
  std::cout << "drivers: dgd, dsgd, p2p, p2p_auth\n";
  std::cout << "problems: paper_regression, quadratic, random_regression (dgd/p2p); "
               "synthetic (dsgd)\n";
  std::cout << "aggregation rules:";
  for (const auto name : abft::agg::aggregator_names()) std::cout << ' ' << name;
  std::cout << "\n  or hierarchical: \"aggregator\": {\"hierarchy\": {\"shards\", \"leaf_rule\","
               " \"root_rule\", \"f_leaf\"}}\n"
               "fault kinds (dgd/p2p): gradient-reverse, random, zero, sign-flip-scale,\n"
               "  rotating, little-is-enough, mean-reverse, mimic-smallest, silent\n"
               "fault kinds (dsgd): label-flip, gradient-reverse\n"
               "p2p relay_strategy kinds: honest, equivocate, silent, fixed-value;\n"
               "  p2p_auth ds_strategy kinds: honest, equivocate, silent\n"
               "axes: participation, straggler_probability, perturbation_seed, churn\n"
               "async (dgd): quorum, deadline, staleness_cap, arrival {kind: uniform |\n"
               "  exponential, scale} — event-driven quorum-or-deadline rounds\n";
  std::cout << "sweep axes:";
  for (const auto name : abft::sweep::axis_names()) std::cout << ' ' << name;
  std::cout << '\n';
}

bool take_value(std::string_view arg, std::string_view flag, std::string* value) {
  if (arg.substr(0, flag.size()) != flag) return false;
  *value = std::string(arg.substr(flag.size()));
  return true;
}

/// Opens `path` and streams `write(out)` into it; false (with a message on
/// stderr) when the file cannot be created.
template <typename Writer>
bool write_file(const std::string& path, Writer&& write) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "abft_run: cannot write " << path << "\n";
    return false;
  }
  write(out);
  return true;
}

// ------------------------------- compare ------------------------------------

/// The comparable outcome of one spec execution: scalar summaries keyed by
/// run id ("" for a lone scenario).  wall_ms is deliberately absent — it is
/// the one column two correct runs never share.
struct OutcomeRow {
  double final_cost = 0.0;
  std::optional<double> distance;
  int eliminated = 0;
  int departed = 0;
};

std::map<std::string, OutcomeRow> execute_for_compare(const std::string& path, int threads) {
  std::map<std::string, OutcomeRow> rows;
  const auto json = abft::util::parse_json_file(path);
  if (abft::sweep::is_sweep_json(json)) {
    const auto outcome = abft::sweep::run_sweep(abft::sweep::parse_sweep(json), threads);
    for (const auto& run : outcome.runs) {
      rows[run.run_id] = OutcomeRow{run.result.final_cost, run.result.distance_to_reference,
                                    run.result.eliminated_agents, run.result.departed_agents};
    }
  } else {
    auto spec = abft::scenario::parse_scenario(json);
    if (threads > 0) spec.threads = threads;
    const auto result = abft::scenario::run_scenario(spec);
    rows[""] = OutcomeRow{result.final_cost, result.distance_to_reference,
                          result.eliminated_agents, result.departed_agents};
  }
  return rows;
}

// The shared nan-matches-nan contract (util::numbers_match) keeps --compare
// in lockstep with compare_sweep.py / compare_scenario.py / bench_diff.py.
using abft::util::numbers_match;

int compare_specs(const std::string& path_a, const std::string& path_b, double rtol,
                  int threads) {
  const auto rows_a = execute_for_compare(path_a, threads);
  const auto rows_b = execute_for_compare(path_b, threads);
  int mismatches = 0;
  auto complain = [&](const std::string& run, const std::string& what) {
    std::cout << "  " << (run.empty() ? "(scenario)" : run) << ": " << what << "\n";
    ++mismatches;
  };
  for (const auto& [run_id, a] : rows_a) {
    const auto found = rows_b.find(run_id);
    if (found == rows_b.end()) {
      complain(run_id, "only in " + path_a);
      continue;
    }
    const auto& b = found->second;
    if (!numbers_match(a.final_cost, b.final_cost, rtol)) {
      complain(run_id, "final_cost " + std::to_string(a.final_cost) + " vs " +
                           std::to_string(b.final_cost));
    }
    if (a.distance.has_value() != b.distance.has_value() ||
        (a.distance && !numbers_match(*a.distance, *b.distance, rtol))) {
      complain(run_id,
               "distance_to_reference " +
                   (a.distance ? std::to_string(*a.distance) : std::string("none")) + " vs " +
                   (b.distance ? std::to_string(*b.distance) : std::string("none")));
    }
    if (a.eliminated != b.eliminated) {
      complain(run_id, "eliminated " + std::to_string(a.eliminated) + " vs " +
                           std::to_string(b.eliminated));
    }
    if (a.departed != b.departed) {
      complain(run_id, "departed " + std::to_string(a.departed) + " vs " +
                           std::to_string(b.departed));
    }
  }
  for (const auto& [run_id, b] : rows_b) {
    if (!rows_a.count(run_id)) complain(run_id, "only in " + path_b);
  }
  if (mismatches > 0) {
    std::cout << "abft_run --compare: " << mismatches << " difference(s) between " << path_a
              << " and " << path_b << " (rtol " << rtol << ")\n";
    return 1;
  }
  std::cout << "abft_run --compare: " << path_a << " and " << path_b << " match ("
            << rows_a.size() << " run(s), rtol " << rtol << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> spec_paths;
  std::string out_path;
  std::string csv_path;
  bool sweep_requested = false;
  bool compare_requested = false;
  bool csv = false;
  bool quiet = false;
  std::string agg_override;
  std::string mode_override;
  std::string iterations_override;
  std::string seed_override;
  std::string threads_override;
  std::string rtol_text;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list") {
      print_list();
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    }
    if (arg == "--sweep") {
      sweep_requested = true;
    } else if (arg == "--compare") {
      compare_requested = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (take_value(arg, "--csv=", &csv_path)) {
      csv = true;
    } else if (take_value(arg, "--out=", &out_path) ||
               take_value(arg, "--agg=", &agg_override) ||
               take_value(arg, "--mode=", &mode_override) ||
               take_value(arg, "--iterations=", &iterations_override) ||
               take_value(arg, "--seed=", &seed_override) ||
               take_value(arg, "--threads=", &threads_override) ||
               take_value(arg, "--rtol=", &rtol_text)) {
      // handled
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "abft_run: unknown option " << arg << "\n";
      print_usage(std::cerr);
      return 2;
    } else {
      spec_paths.emplace_back(arg);
    }
  }

  try {
    const int threads = threads_override.empty() ? 0 : std::stoi(threads_override);

    if (compare_requested) {
      if (spec_paths.size() != 2) {
        std::cerr << "abft_run: --compare needs exactly two spec files\n";
        return 2;
      }
      if (csv || !csv_path.empty() || !out_path.empty() || !agg_override.empty() ||
          !mode_override.empty() || !iterations_override.empty() || !seed_override.empty() ||
          quiet || sweep_requested) {
        std::cerr << "abft_run: --compare takes only --rtol and --threads\n";
        return 2;
      }
      const double rtol = rtol_text.empty() ? 1e-12 : std::stod(rtol_text);
      return compare_specs(spec_paths[0], spec_paths[1], rtol, threads);
    }
    if (!rtol_text.empty()) {
      std::cerr << "abft_run: --rtol applies to --compare only\n";
      return 2;
    }

    if (spec_paths.size() != 1) {
      std::cerr << (spec_paths.empty() ? "abft_run: no spec file given\n"
                                       : "abft_run: more than one spec file given\n");
      print_usage(std::cerr);
      return 2;
    }
    const auto json = abft::util::parse_json_file(spec_paths.front());

    if (sweep_requested || abft::sweep::is_sweep_json(json)) {
      if (!agg_override.empty() || !mode_override.empty() || !iterations_override.empty() ||
          !seed_override.empty()) {
        std::cerr << "abft_run: spec-field overrides apply to scenario specs; edit the sweep's"
                     " base instead\n";
        return 2;
      }
      const auto outcome = abft::sweep::run_sweep(abft::sweep::parse_sweep(json), threads);
      if (csv && csv_path.empty()) {
        abft::sweep::write_sweep_csv(outcome, std::cout);
      } else if (!quiet) {
        abft::sweep::print_sweep(outcome, std::cout);
      }
      if (!csv_path.empty() && !write_file(csv_path, [&](std::ostream& out) {
            abft::sweep::write_sweep_csv(outcome, out);
          })) {
        return 1;
      }
      if (!out_path.empty() && !write_file(out_path, [&](std::ostream& out) {
            abft::sweep::write_sweep_json(outcome, out);
          })) {
        return 1;
      }
      return 0;
    }

    abft::scenario::ScenarioSpec spec = abft::scenario::parse_scenario(json);
    if (!agg_override.empty()) spec.aggregator = agg_override;
    if (!mode_override.empty()) spec.mode = abft::agg::agg_mode_from_string(mode_override);
    if (!iterations_override.empty()) spec.iterations = std::stoi(iterations_override);
    if (!seed_override.empty()) spec.seed = std::stoull(seed_override);
    if (threads > 0) spec.threads = threads;

    const auto result = abft::scenario::run_scenario(spec);
    if (csv && csv_path.empty()) {
      abft::scenario::write_trace_csv(result, std::cout);
    } else if (!quiet) {
      abft::scenario::print_result(result, std::cout);
    }
    if (!csv_path.empty() && !write_file(csv_path, [&](std::ostream& out) {
          abft::scenario::write_trace_csv(result, out);
        })) {
      return 1;
    }
    if (!out_path.empty() && !write_file(out_path, [&](std::ostream& out) {
          abft::scenario::write_result_json(result, out);
        })) {
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "abft_run: " << error.what() << "\n";
    return 1;
  }
}
