// bench_e2e — one measurement of one workload per process; run.py drives it.
//
//   bench_e2e rate --spec=FILE --seed=S --threads=T [--iterations=N]
//                  [--budget=SEC] [--min-reps=N]
//       one warm-up run at 10% length, then timed runs through the public
//       run_scenario/run_sweep until the budget is spent (at least min-reps
//       of them); between runs, set-up repetitions (parse the spec text, run
//       it with iterations 0) take a tenth of the time.  Every timed item is
//       followed by the calibration kernel for as long (see CalibratedTimer)
//   bench_e2e trace --spec=FILE --seed=S --threads=T [--iterations=N] [--spans=FILE]
//       an untraced reference run, then one traced run (tracing.hpp) of the
//       same workload; reports raw per-layer span statistics
//
// Each prints one JSON object on stdout.  Closed loop: every run is one
// simulated server/agent set whose rounds each wait for the previous one.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "outcome.hpp"
#include "traced_run.hpp"
#include "tracing.hpp"

namespace bench_e2e {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One repetition of a fixed kernel that no library change touches (about
/// 0.5 ms on a quiet core): sort 4,096 doubles, build a 3,000-key hash map,
/// then a miniature of the workloads' own loop -- 150 rounds of DGD over 12
/// least-squares agents in 3 dimensions, 2 of them reversing their
/// gradients, filtered by a coordinate-wise trimmed mean, the trajectory
/// kept.  It mixes what the workloads do: branchy code, small allocations,
/// short FP loops, a growing trace.
void calibration_rep() {
  static const std::vector<double> keys = [] {
    std::mt19937_64 rng(1);
    std::vector<double> values(4096);
    for (double& value : values) value = static_cast<double>(rng() >> 11);
    return values;
  }();
  static volatile double sink = 0.0;
  std::vector<double> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<std::uint32_t, std::uint32_t> table;
  std::uint32_t x = 12345;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    x = x * 1664525u + 1013904223u;
    table[x >> 12] += i;
  }

  constexpr int kAgents = 12;
  constexpr int kFaulty = 2;
  constexpr int kDim = 3;
  constexpr int kRowsPerAgent = 4;
  constexpr int kRounds = 150;
  std::mt19937_64 rng(3);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::vector<std::vector<double>> a(kAgents, std::vector<double>(kRowsPerAgent * kDim));
  std::vector<std::vector<double>> b(kAgents, std::vector<double>(kRowsPerAgent));
  for (auto& rows : a) {
    for (double& value : rows) value = normal(rng);
  }
  for (auto& targets : b) {
    for (double& value : targets) value = normal(rng);
  }
  std::vector<double> estimate(kDim, 0.0);
  std::vector<double> trajectory;
  std::vector<std::vector<double>> gradients(kAgents, std::vector<double>(kDim));
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kAgents; ++i) {
      std::fill(gradients[i].begin(), gradients[i].end(), 0.0);
      for (int r = 0; r < kRowsPerAgent; ++r) {
        double residual = -b[i][r];
        for (int k = 0; k < kDim; ++k) residual += a[i][r * kDim + k] * estimate[k];
        for (int k = 0; k < kDim; ++k) gradients[i][k] += residual * a[i][r * kDim + k];
      }
      if (i < kFaulty) {
        for (double& value : gradients[i]) value = -value;
      }
    }
    const double step = 0.05 / (1.0 + round);
    for (int k = 0; k < kDim; ++k) {
      std::vector<double> column(kAgents);
      for (int i = 0; i < kAgents; ++i) column[i] = gradients[i][k];
      std::sort(column.begin(), column.end());
      const double kept = std::accumulate(column.begin() + kFaulty, column.end() - kFaulty, 0.0);
      estimate[k] -= step * kept / (kAgents - 2 * kFaulty);
    }
    trajectory.insert(trajectory.end(), estimate.begin(), estimate.end());
  }
  sink = sink + sorted[sorted.size() / 2] + static_cast<double>(table.size()) + trajectory.back();
}

/// Runs calibration_rep() back to back for at least `seconds` (one rep at
/// least) and returns the mean time of one rep.
double calibrate_for(double seconds) {
  const auto start = Clock::now();
  int reps = 0;
  double elapsed = 0.0;
  do {
    calibration_rep();
    ++reps;
    elapsed = seconds_since(start);
  } while (elapsed < seconds);
  return elapsed / reps;
}

/// Times items back to back, each followed by the calibration kernel for as
/// long as the item took.  On a shared host the speed one thread gets
/// switches between fast and about 1.5x slower many times a second, and the
/// share of slow time drifts by tens of percent over minutes; the kernel,
/// sampling the same stretch of host time as the item at half the duty,
/// slows with it.  An item's reference is the mean kernel rep time of the
/// stretches just before and just after it; run.py divides by it.
class CalibratedTimer {
 public:
  CalibratedTimer() : last_(calibrate_for(kFirstStretchS)) {}

  struct Sample {
    double seconds;
    double calibration_s;
  };

  template <class Body>
  Sample time(Body&& body) {
    const double before = last_;
    const auto start = Clock::now();
    body();
    const double seconds = seconds_since(start);
    last_ = calibrate_for(seconds);
    return {seconds, 0.5 * (before + last_)};
  }

 private:
  static constexpr double kFirstStretchS = 0.1;
  double last_;
};

struct Options {
  std::string command;
  std::string spec_path;
  std::string spans_path;
  std::uint64_t seed = 1;
  int threads = 1;
  int iterations = -1;  // the spec's own
  double budget = 1.0;
  int min_reps = 1;
};

bool take_value(std::string_view arg, std::string_view flag, std::string* value) {
  if (arg.substr(0, flag.size()) != flag) return false;
  *value = std::string(arg.substr(flag.size()));
  return true;
}

Options parse_options(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing command (rate or trace)");
  Options options;
  options.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string value;
    if (take_value(arg, "--spec=", &options.spec_path) ||
        take_value(arg, "--spans=", &options.spans_path)) {
    } else if (take_value(arg, "--seed=", &value)) {
      options.seed = std::stoull(value);
    } else if (take_value(arg, "--threads=", &value)) {
      options.threads = std::stoi(value);
    } else if (take_value(arg, "--iterations=", &value)) {
      options.iterations = std::stoi(value);
    } else if (take_value(arg, "--budget=", &value)) {
      options.budget = std::stod(value);
    } else if (take_value(arg, "--min-reps=", &value)) {
      options.min_reps = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown option " + std::string(arg));
    }
  }
  if (options.spec_path.empty()) throw std::invalid_argument("--spec=FILE is required");
  if (options.threads < 1 || options.min_reps < 1) {
    throw std::invalid_argument("--threads and --min-reps must be >= 1");
  }
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

int spec_iterations(const Workload& workload) {
  if (!workload.is_sweep) return workload.scenario.iterations;
  return static_cast<int>(workload.sweep.base.number_or("iterations", 100));
}

/// One untraced run at 10% of the workload's length: page-faults the
/// buffers in and spins the thread pool up before anything is timed.
void warm_up(const std::string& text, const Options& options, const Workload& workload) {
  (void)run_untraced(parse_workload(text, options.seed,
                                    std::max(1, spec_iterations(workload) / 10),
                                    options.threads));
}

void write_list(std::ostream& os, const std::vector<double>& values) {
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ", ";
    write_number(os, values[i]);
  }
  os << "]";
}

void write_header(std::ostream& os, const Options& options) {
  os << "{\"command\": \"" << options.command << "\", \"seed\": " << options.seed
     << ", \"threads\": " << options.threads
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency();
}

/// Share of the measured time spent on set-up samples.  They are
/// interleaved with the timed runs so that both sample the same stretch of
/// host time (a process placed on a busy CPU for a second would otherwise
/// skew a block of set-up samples run first).
constexpr double kSetupShare = 0.1;
constexpr std::size_t kMinSetupSamples = 11;
/// One set-up sample repeats the set-up for at least this long and reports
/// the mean, so that a set-up of microseconds still spans many switches
/// between the host's fast and slow stretches.
constexpr double kMinSetupSampleS = 0.01;

int run_rate(const Options& options) {
  const std::string text = read_file(options.spec_path);
  const Workload workload =
      parse_workload(text, options.seed, options.iterations, options.threads);
  auto set_up = [&] {
    (void)run_untraced(parse_workload(text, options.seed, 0, options.threads));
  };
  warm_up(text, options, workload);
  set_up();

  CalibratedTimer timer;
  std::vector<CalibratedTimer::Sample> runs;
  std::vector<Outcome> outcomes;
  std::vector<CalibratedTimer::Sample> setups;
  auto sample_set_up = [&] {
    int reps = 0;
    auto sample = timer.time([&] {
      const auto start = Clock::now();
      do {
        set_up();
        ++reps;
      } while (seconds_since(start) < kMinSetupSampleS);
    });
    sample.seconds /= reps;
    setups.push_back(sample);
  };

  double setup_wall = 0.0;
  long long first_run_vmhwm_kb = 0;
  const auto start = Clock::now();
  while (static_cast<int>(runs.size()) < options.min_reps ||
         seconds_since(start) < options.budget) {
    runs.push_back(timer.time([&] { outcomes.push_back(run_untraced(workload)); }));
    if (runs.size() == 1) first_run_vmhwm_kb = peak_rss_kb();
    while (setup_wall < kSetupShare * seconds_since(start)) {
      const auto setup_start = Clock::now();
      sample_set_up();
      setup_wall += seconds_since(setup_start);
    }
  }
  while (setups.size() < kMinSetupSamples) sample_set_up();

  write_header(std::cout, options);
  std::cout << ", \"setups\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "{\"seconds\": ";
    write_number(std::cout, setups[i].seconds);
    std::cout << ", \"calibration_s\": ";
    write_number(std::cout, setups[i].calibration_s);
    std::cout << "}";
  }
  std::cout << "], ";
  write_outcome_members(std::cout, outcomes.front());
  std::cout << ", \"runs\": [";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "{\"seconds\": ";
    write_number(std::cout, runs[i].seconds);
    std::cout << ", \"calibration_s\": ";
    write_number(std::cout, runs[i].calibration_s);
    std::cout << ", \"digest\": \"" << hex_digest(outcomes[i].digest)
              << "\", \"finite\": " << (outcomes[i].finite ? "true" : "false") << "}";
  }
  std::cout << "], \"first_run_vmhwm_kb\": " << first_run_vmhwm_kb
            << ", \"vmhwm_kb\": " << peak_rss_kb() << "}\n";
  return 0;
}

void write_layer(std::ostream& os, Layer layer, const LayerStats& stats) {
  os << "\"" << layer_name(layer) << "\": {\"calls\": " << stats.calls
     << ", \"busy_ns\": " << stats.busy_ns << ", \"call_us_p50\": ";
  write_number(os, stats.call_us_p50);
  os << ", \"call_us_p90\": ";
  write_number(os, stats.call_us_p90);
  os << ", \"arg_sum\": " << stats.arg_sum << "}";
}

int run_trace(const Options& options) {
  const std::string text = read_file(options.spec_path);
  const auto parse_start = Clock::now();
  const Workload workload =
      parse_workload(text, options.seed, options.iterations, options.threads);
  const double parse_s = seconds_since(parse_start);
  warm_up(text, options, workload);

  // Untraced reference: the public entry point at the same width.
  Outcome reference;
  double untraced_s = 0.0;
  std::vector<double> run_ms;  // sweep: per-run wall_ms
  double expand_s = 0.0;
  const auto reference_start = Clock::now();
  if (workload.is_sweep) {
    const auto outcome = abft::sweep::run_sweep(workload.sweep);
    untraced_s = seconds_since(reference_start);
    reference = summarize(outcome);
    for (const auto& run : outcome.runs) run_ms.push_back(run.wall_ms);
    const auto expand_start = Clock::now();
    (void)abft::sweep::expand_sweep(workload.sweep);
    expand_s = seconds_since(expand_start);
  } else {
    reference = run_untraced(workload);
    untraced_s = seconds_since(reference_start);
  }

  const std::size_t hint =
      expected_spans(workload) / static_cast<std::size_t>(options.threads) * 5 / 4 + 4096;
  SpanRecorder recorder(hint);
  const TracedRun traced = run_traced(workload, recorder);
  const TraceSummary summary = summarize_spans(recorder);
  if (!options.spans_path.empty()) {
    std::ofstream spans(options.spans_path);
    if (!spans) throw std::invalid_argument("cannot write " + options.spans_path);
    write_spans_jsonl(recorder, spans);
  }

  write_header(std::cout, options);
  std::cout << ", ";
  write_outcome_members(std::cout, reference);
  std::cout << ", \"traced_digest\": \"" << hex_digest(traced.outcome.digest)
            << "\", \"traced_finite\": "
            << (traced.outcome.finite ? "true" : "false")
            << ", \"observes_rounds\": " << (traced.observes_rounds ? "true" : "false")
            << ", \"dim\": " << traced.dim
            << ", \"untraced_s\": ";
  write_number(std::cout, untraced_s);
  std::cout << ", \"traced_s\": ";
  write_number(std::cout, static_cast<double>(traced.call_ns) * 1e-9);
  std::cout << ", \"loop_s\": ";
  write_number(std::cout, static_cast<double>(traced.loop_ns) * 1e-9);
  std::cout << ", \"busy_all_s\": ";
  write_number(std::cout, static_cast<double>(summary.busy_all_ns) * 1e-9);
  std::cout << ", \"parse_s\": ";
  write_number(std::cout, parse_s);
  std::cout << ", \"expand_s\": ";
  write_number(std::cout, expand_s);
  std::cout << ", \"sweep_run_ms\": ";
  write_list(std::cout, run_ms);
  std::cout << ", \"layers\": {";
  for (int l = 0; l < kLayerCount; ++l) {
    if (l > 0) std::cout << ", ";
    write_layer(std::cout, static_cast<Layer>(l), summary.layers[l]);
  }
  std::cout << "}, \"vmhwm_kb\": " << peak_rss_kb() << "}\n";
  return 0;
}

}  // namespace
}  // namespace bench_e2e

int main(int argc, char** argv) {
  using namespace bench_e2e;
  try {
    const Options options = parse_options(argc, argv);
    if (options.command == "rate") return run_rate(options);
    if (options.command == "trace") return run_trace(options);
    throw std::invalid_argument("unknown command " + options.command);
  } catch (const std::exception& error) {
    std::cerr << "bench_e2e: " << error.what() << "\n";
    return 1;
  }
}
