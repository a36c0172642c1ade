// Microbenchmarks of every gradient filter across (n, d) shapes, charting
// the per-round server cost of aggregate_into in each mode and precision.
//
// The primary harness is built in (adaptive-iteration wall-clock timing) so
// the binary works without google-benchmark and always emits a
// machine-readable BENCH_agg.json:
//
//   {"meta": {"repeats": K},
//    "results": [{"rule", "path", "precision", "n", "d", "f", "ns_per_op",
//                 "iters"}, ...],
//    "speedups": {"<rule>/<n>x<d>": {"batched_ns", "fast_ns", "fast_speedup",
//                                    "f32_ns", "f32_speedup"}}}
//
// Paths: "batched" (aggregate_into, AggMode::exact),
// "fast" (aggregate_into, AggMode::fast — relaxed parity; measured at both
// precision "f64" and "f32", where rules without an f32 kernel rerun their
// f64 fast path),
// and optionally "pooled" (see --threads).  fast_speedup is
// batched_ns / fast_ns: what the relaxed-parity mode buys over the exact
// batched kernels; f32_speedup is fast_ns / f32_ns: what demoting the
// bandwidth-bound kernels to float32 buys on top of that.
//
// Every measurement is the MINIMUM of --repeats independent adaptive
// timings (warm-up excluded from each), so the committed BENCH_agg.json
// carries stable minima for the bench_diff.py gates rather than one noisy
// sample.
//
// Flags:
//   --quick       small shapes only (CI smoke)
//   --out=FILE    JSON destination (default BENCH_agg.json)
//   --repeats=K   independent timing repetitions per cell, min-of-K
//                 reported (default 3)
//   --threads=N   additionally measure a "pooled" path: the batched kernels
//                 dispatching coordinate/pair work over a persistent
//                 N-thread ThreadPool (worthwhile on multi-core hosts only;
//                 the default 1 keeps the JSON shape diff-stable)
//   --gbench ...  delegate to google-benchmark instead (when compiled in);
//                 its --benchmark_* flags pass through
// Any other flag, or a --threads/--repeats value that is not an integer
// >= 1, stops the bench with a message and exit status 2 before it writes
// any JSON.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "abft/agg/registry.hpp"
#include "abft/agg/threads.hpp"
#include "abft/util/rng.hpp"
#include "cli_flags.hpp"

#if defined(ABFT_HAVE_GBENCH)
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace abft;
using linalg::Vector;

std::vector<Vector> make_gradients(int n, int d, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Vector> gradients;
  gradients.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<double> coeffs(static_cast<std::size_t>(d));
    for (auto& c : coeffs) c = rng.normal();
    gradients.emplace_back(std::move(coeffs));
  }
  return gradients;
}

struct BenchResult {
  std::string rule;
  std::string path;       // "batched" | "fast" | "pooled"
  std::string precision;  // "f64" | "f32" (f32 only on the fast path)
  int n = 0;
  int d = 0;
  int f = 0;
  double ns_per_op = 0.0;
  long iters = 0;
};

struct SpeedupEntry {
  double batched_ns = 0.0;
  double fast_ns = 0.0;
  double f32_ns = 0.0;
};

/// Times fn() with adaptive iteration count: warm up once, then repeat until
/// both a minimum number of iterations and a minimum wall-clock budget are
/// met.  The clock is only read between mini-batches whose size doubles as
/// long as a batch stays under ~1/8 of the budget, so fast operations are
/// not inflated by per-iteration clock overhead.  Returns ns per call.
template <typename Fn>
double time_ns_per_op(Fn&& fn, long& iters_out, double min_seconds, long min_iters,
                      long max_iters) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up: first-call allocations land outside the timed region
  long iters = 0;
  long batch = 1;
  const auto start = clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(clock::now() - start).count();
  };
  double seconds = 0.0;
  do {
    const double before = seconds;
    for (long b = 0; b < batch; ++b) fn();
    iters += batch;
    seconds = elapsed();
    if (seconds - before < min_seconds / 8.0 && batch < max_iters) batch *= 2;
  } while (iters < max_iters && (iters < min_iters || seconds < min_seconds));
  iters_out = iters;
  return seconds * 1e9 / static_cast<double>(iters);
}

/// Min-of-K wrapper around time_ns_per_op: K independent adaptive timings
/// (each with its own warm-up call), reporting the fastest — the estimator
/// least contaminated by scheduler noise and frequency transitions on a
/// shared CI host.  iters_out reports the winning repetition's count.
template <typename Fn>
double min_ns_per_op(Fn&& fn, long& iters_out, double min_seconds, long min_iters,
                     long max_iters, int repeats) {
  double best = 0.0;
  long best_iters = 0;
  for (int r = 0; r < repeats; ++r) {
    long iters = 0;
    const double ns = time_ns_per_op(fn, iters, min_seconds, min_iters, max_iters);
    if (r == 0 || ns < best) {
      best = ns;
      best_iters = iters;
    }
  }
  iters_out = best_iters;
  return best;
}

struct Shape {
  int n;
  int d;
};

int run_builtin(bool quick, const std::string& out_path, int threads, int repeats) {
  const std::vector<Shape> shapes =
      quick ? std::vector<Shape>{{10, 10}, {10, 100}, {25, 200}}
            : std::vector<Shape>{{10, 10}, {10, 1000}, {50, 100}, {100, 1000}, {50, 10000}};
  // Time budget per measurement: enough for stable numbers on the big
  // shapes without letting the O(n^2 d) rules blow up total runtime.
  const double min_seconds = quick ? 0.02 : 0.10;
  const long min_iters = 3;
  // Generous: min_seconds is the effective stop for fast operations, and
  // slow ones stop at min_iters; this only backstops a broken clock.
  const long max_iters = quick ? 1000000 : 10000000;

  std::vector<BenchResult> results;
  std::map<std::string, SpeedupEntry> speedup_pairs;

  for (const auto name : agg::aggregator_names()) {
    const auto rule = agg::make_aggregator(name);
    for (const auto shape : shapes) {
      const int n = shape.n;
      const int d = shape.d;
      const int f = std::max(1, n / 5);
      agg::GradientBatch batch;
      batch.pack(make_gradients(n, d, 42));
      agg::AggregatorWorkspace workspace;
      Vector out;

      // Some rules reject certain (n, f) shapes (krum: n > 2f+2; bulyan:
      // n >= 4f+3); probe once and skip instead of aborting the binary.
      try {
        rule->aggregate_into(out, batch, f, workspace);
      } catch (const std::invalid_argument&) {
        continue;
      }

      const std::string key =
          std::string(name) + "/" + std::to_string(n) + "x" + std::to_string(d);

      // The result feeds the next model update in the real loop; each timed
      // call folds it into a sink so it cannot be optimized away.
      BenchResult batched{std::string(name), "batched", "f64", n, d, f, 0.0, 0};
      batched.ns_per_op = min_ns_per_op(
          [&] {
            rule->aggregate_into(out, batch, f, workspace);
            volatile double sink = out[0];
            (void)sink;
          },
          batched.iters, min_seconds, min_iters, max_iters, repeats);
      results.push_back(batched);

      agg::AggregatorWorkspace fast_ws;
      fast_ws.mode = agg::AggMode::fast;
      BenchResult fast{std::string(name), "fast", "f64", n, d, f, 0.0, 0};
      fast.ns_per_op = min_ns_per_op(
          [&] {
            rule->aggregate_into(out, batch, f, fast_ws);
            volatile double sink = out[0];
            (void)sink;
          },
          fast.iters, min_seconds, min_iters, max_iters, repeats);
      results.push_back(fast);

      agg::AggregatorWorkspace f32_ws;
      f32_ws.mode = agg::AggMode::fast;
      f32_ws.precision = agg::Precision::f32;
      BenchResult f32{std::string(name), "fast", "f32", n, d, f, 0.0, 0};
      f32.ns_per_op = min_ns_per_op(
          [&] {
            rule->aggregate_into(out, batch, f, f32_ws);
            volatile double sink = out[0];
            (void)sink;
          },
          f32.iters, min_seconds, min_iters, max_iters, repeats);
      results.push_back(f32);

      speedup_pairs[key] = {batched.ns_per_op, fast.ns_per_op, f32.ns_per_op};
      std::cout << key << "  batched " << static_cast<long>(batched.ns_per_op) << " ns/op"
                << "  fast " << static_cast<long>(fast.ns_per_op) << " ns/op ("
                << batched.ns_per_op / fast.ns_per_op << "x vs exact)"
                << "  f32 " << static_cast<long>(f32.ns_per_op) << " ns/op ("
                << fast.ns_per_op / f32.ns_per_op << "x vs f64 fast)";
      if (threads > 1) {
        agg::ThreadPool pool(threads);
        agg::AggregatorWorkspace pooled_ws;
        pooled_ws.pool = &pool;
        BenchResult pooled{std::string(name), "pooled", "f64", n, d, f, 0.0, 0};
        pooled.ns_per_op = min_ns_per_op(
            [&] {
              rule->aggregate_into(out, batch, f, pooled_ws);
              volatile double sink = out[0];
              (void)sink;
            },
            pooled.iters, min_seconds, min_iters, max_iters, repeats);
        results.push_back(pooled);
        std::cout << "  pooled(" << threads << ") " << static_cast<long>(pooled.ns_per_op)
                  << " ns/op";
      }
      std::cout << "\n";
    }
  }

  std::ofstream json(out_path);
  json << "{\n  \"meta\": {\"repeats\": " << repeats << "},\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"rule\": \"" << r.rule << "\", \"path\": \"" << r.path
         << "\", \"precision\": \"" << r.precision << "\", \"n\": " << r.n
         << ", \"d\": " << r.d << ", \"f\": " << r.f
         << ", \"ns_per_op\": " << r.ns_per_op << ", \"iters\": " << r.iters << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"speedups\": {\n";
  std::size_t written = 0;
  for (const auto& [key, entry] : speedup_pairs) {
    json << "    \"" << key << "\": {\"batched_ns\": " << entry.batched_ns
         << ", \"fast_ns\": " << entry.fast_ns
         << ", \"fast_speedup\": " << entry.batched_ns / entry.fast_ns
         << ", \"f32_ns\": " << entry.f32_ns
         << ", \"f32_speedup\": " << entry.fast_ns / entry.f32_ns << "}"
         << (++written < speedup_pairs.size() ? "," : "") << "\n";
  }
  json << "  }\n}\n";
  json.flush();
  if (!json) {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

#if defined(ABFT_HAVE_GBENCH)
void aggregate_benchmark(benchmark::State& state, const std::string& name) {
  const int n = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const int f = std::max(1, n / 5);
  const auto rule = agg::make_aggregator(name);
  agg::GradientBatch batch;
  batch.pack(make_gradients(n, d, 42));
  agg::AggregatorWorkspace workspace;
  Vector out;
  try {
    rule->aggregate_into(out, batch, f, workspace);
  } catch (const std::invalid_argument& error) {
    state.SkipWithError(error.what());
    return;
  }
  for (auto _ : state) {
    rule->aggregate_into(out, batch, f, workspace);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void register_all() {
  for (const auto name : agg::aggregator_names()) {
    const std::string title = "batched/" + std::string(name);
    auto* bench = benchmark::RegisterBenchmark(
        title.c_str(), [name = std::string(name)](benchmark::State& state) {
          aggregate_benchmark(state, name);
        });
    bench->Args({10, 10})->Args({10, 1000})->Args({50, 100})->Args({100, 1000})->Args(
        {50, 10000});
  }
}
#endif  // ABFT_HAVE_GBENCH

}  // namespace

int main(int argc, char** argv) {
  constexpr std::string_view kBench = "bench_agg_micro";
  constexpr std::string_view kUsage =
      "[--quick] [--out=FILE] [--repeats=K] [--threads=N] [--gbench [--benchmark_...]]";
  bool quick = false;
  bool use_gbench = false;
  bool gbench_flags = false;
  int threads = 1;
  int repeats = 3;
  std::string out_path = "BENCH_agg.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--gbench") {
      use_gbench = true;
    } else if (arg.starts_with("--benchmark_")) {
      gbench_flags = true;  // google-benchmark's own, read by benchmark::Initialize
    } else if (bench_cli::take_value(arg, "--out=", &value)) {
      out_path = value;
    } else if (bench_cli::take_value(arg, "--threads=", &value)) {
      threads = bench_cli::positive_count(kBench, "--threads", value, kUsage);
    } else if (bench_cli::take_value(arg, "--repeats=", &value)) {
      repeats = bench_cli::positive_count(kBench, "--repeats", value, kUsage);
    } else {
      bench_cli::fail(kBench, "unknown flag " + std::string(arg), kUsage);
    }
  }
  if (gbench_flags && !use_gbench) {
    bench_cli::fail(kBench, "--benchmark_ flags need --gbench", kUsage);
  }
  if (use_gbench) {
#if defined(ABFT_HAVE_GBENCH)
    register_all();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
#else
    std::cerr << "google-benchmark not compiled in; using the built-in harness\n";
#endif
  }
  return run_builtin(quick, out_path, threads, repeats);
}
