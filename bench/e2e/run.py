#!/usr/bin/env python3
"""End-to-end round-throughput benchmark over the workloads in manifest.json.

Configures and builds bench_e2e (bench/e2e/CMakeLists.txt) into build-e2e/ at
the checkout root, then runs every measurement as its own bench_e2e process,
one at a time, with at most min(4, nproc) threads.  Each run is a closed loop:
one simulated server/agent set whose rounds each wait for the previous one.

  python3 bench/e2e/run.py                     every workload, both passes
  python3 bench/e2e/run.py --quick             smoke: 10% of rounds, one timed
                                               run per thread count
  python3 bench/e2e/run.py --workload wide --seed 7 --seconds 10 --trace 0

  --seed S        workload seed; replaces the spec seed (seed.from for grid)
  --seconds N     measured seconds of the end-to-end pass (default 28)
  --trace 0|1     0: end-to-end metrics, single worker, tracing off;
                  1: per-layer metrics from the traced pass at 1, 2 and
                  min(4, nproc) threads (default: both passes, unless
                  --workload is given, which defaults to 0)
  --spans DIR     write the traced spans as DIR/<workload>.t<T>.jsonl
  --out FILE      append each result as one JSON line (compare.py input)
  --bin PATH      use this bench_e2e instead of building one
  --self-test     check that a perturbed expected value fails every run
  --record-expected
                  rewrite expected.json from runs at the default seed

Prints one `workload metric value unit` line per metric; the last line of
stdout is {"correct", "attempted", "failed", "metrics"}.  `attempted` counts
the timed and traced runs whose outputs were checked, `failed` those that
failed a check, so check_fail_ratio = failed / attempted.
"""

import argparse
import copy
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST = json.loads((HERE / "manifest.json").read_text())
EXPECTED_PATH = HERE / "expected.json"
DEFAULT_SECONDS = 28.0
THREADS = max(1, min(4, os.cpu_count() or 1))
PROCESS_TIMEOUT = 170

# Nominal time of one rep of bench_e2e's calibration kernel (about its time
# on a quiet core of the reference host): a reference second is the time in
# which the kernel runs 1 / CALIBRATION_S times.
CALIBRATION_S = 5e-4

# The traced pass runs this many times the spec's rounds, so every traced
# run sees at least 100 round boundaries.
TRACE_ROUNDS = 5

E2E_UNITS = {
    "rounds_per_s_1t": "rounds/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SHARES = ["agg.wall_share", "attack.wall_share", "opt.wall_share",
          "learn.grad_wall_share", "learn.eval_wall_share", "engine.rest_share"]

LAYER_UNITS = {
    "agg.wall_share": "fraction", "agg.call_us_p50": "us", "agg.call_us_p90": "us",
    "agg.rows_per_call": "rows", "agg.bytes_per_call": "bytes",
    "attack.wall_share": "fraction", "attack.call_us_p50": "us",
    "attack.calls_per_round": "calls",
    "opt.wall_share": "fraction", "opt.call_us_p50": "us", "opt.calls_per_round": "calls",
    "learn.grad_wall_share": "fraction", "learn.eval_wall_share": "fraction",
    "learn.grad_call_us_p50": "us",
    "engine.rest_share": "fraction", "engine.held_rounds": "count",
    "sim.messages_per_round": "messages", "p2p.messages_per_round": "messages",
    "async.quorum_fires": "count", "async.deadline_fires": "count",
    "async.stale_dropped": "count", "async.late_rows": "count",
    "async.useful_row_ratio": "fraction",
    "round.us_p50": "us", "round.us_p90": "us", "round.samples": "count",
    "scenario.parse_ms": "ms", "sweep.expand_ms": "ms", "sweep.pool_busy_share": "fraction",
    "sweep.run_ms_p50": "ms", "sweep.run_ms_p90": "ms", "sweep.runs": "count",
    "engine.parallel_rounds_per_s": "rounds/s", "engine.parallel_speedup": "x",
    "trace.overhead_pct": "%",
}
for _share in SHARES:
    for _suffix in ("_1t", "_2t"):
        LAYER_UNITS[_share + _suffix] = "fraction"


class BenchError(RuntimeError):
    pass


class Checks:
    """Output checks, one attempt per checked run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


# --------------------------------- build -----------------------------------

def build(build_dir):
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "check": True}
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], **quiet)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                    "-j", str(THREADS)], **quiet)
    return build_dir / "bench_e2e"


def run_bin(binary, command, spec, seed, threads, **options):
    args = [str(binary), command, f"--spec={spec}", f"--seed={seed}", f"--threads={threads}"]
    args += [f"--{key.replace('_', '-')}={value}" for key, value in options.items()
             if value is not None]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=PROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -------------------------------- helpers ----------------------------------

def spec_path(name):
    return HERE / MANIFEST["workloads"][name]["spec"]


LENGTHS = ("full", "trace", "quick")


def run_iterations(name, length):
    """Rounds per run: the spec's own ("full", the end-to-end pass), five
    times that ("trace") or 10% of it ("quick", both passes)."""
    doc = json.loads(spec_path(name).read_text())
    iterations = int(doc["base"]["iterations"] if "sweep" in doc else doc["iterations"])
    if length == "trace":
        return TRACE_ROUNDS * iterations
    if length == "quick":
        return max(1, iterations // 10)
    return iterations


def quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1) + 0.5)]


def close(actual, expected, rtol):
    if actual is None or expected is None:
        return actual is None and expected is None
    return abs(actual - expected) <= rtol * max(abs(actual), abs(expected))


class Run:
    """Settings shared by every measurement of one invocation."""

    def __init__(self, binary, seed, seconds, quick, expected, spans_dir=None):
        self.binary = binary
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.expected = expected
        self.spans_dir = spans_dir

    def length(self, trace):
        return "quick" if self.quick else "trace" if trace else "full"

    def expected_problems(self, name, result, length):
        """At the default seed, one process's outcome against expected.json."""
        if self.seed != MANIFEST["default_seed"]:
            return []
        expected = self.expected.get(name, {}).get(length)
        if expected is None:
            return ["no expected outputs recorded"]
        problems = []
        rtol = MANIFEST["workloads"][name]["rtol"]
        for key in ("final_dist", "final_cost"):
            if not close(result[key], expected[key], rtol):
                problems.append(f"{key} {result[key]!r} != expected {expected[key]!r}"
                                f" (rtol {rtol:g})")
        if result["counts"] != expected["counts"]:
            problems.append(f"counts {result['counts']} != expected {expected['counts']}")
        return problems


# ---------------------------- end-to-end pass ------------------------------

def reference_seconds(samples):
    """Median of the samples' times in reference seconds: each wall time
    divided by the calibration kernel's rep time around it, times the
    kernel's nominal rep time.  README.md ("Reference seconds") has the
    data."""
    return CALIBRATION_S * statistics.median(s["seconds"] / s["calibration_s"] for s in samples)


def measure_e2e(run, name, checks):
    """Single-worker throughput (median over many short runs) and set-up
    time, both in reference seconds, and the peak RSS after the first timed
    run, from one process.  `outputs["wall"]` keeps the uncalibrated
    medians."""
    length = run.length(trace=False)
    rate = run_bin(run.binary, "rate", spec_path(name), run.seed, 1,
                   iterations=run_iterations(name, length),
                   budget=0 if run.quick else run.seconds, min_reps=1 if run.quick else 5)

    reference = rate["runs"][0]["digest"]
    base = run.expected_problems(name, rate, length)
    for i, timed in enumerate(rate["runs"]):
        problems = list(base)
        if not timed["finite"]:
            problems.append("non-finite output")
        if timed["digest"] != reference:
            problems.append(f"digest {timed['digest']} != {reference} of the first run")
        checks.record(f"{name} t1 run {i}", problems)

    metrics = {
        "rounds_per_s_1t": rate["rounds"] / reference_seconds(rate["runs"]),
        "setup_s": reference_seconds(rate["setups"]),
        "peak_rss_mb": rate["first_run_vmhwm_kb"] / 1024,
    }
    outputs = {key: rate[key] for key in ("final_dist", "final_cost", "counts", "digest")}
    outputs["wall"] = {
        "rounds_per_s_1t": rate["rounds"] / statistics.median(r["seconds"] for r in rate["runs"]),
        "setup_s": statistics.median(s["seconds"] for s in rate["setups"]),
        "calibration_ms": 1e3 * statistics.median(r["calibration_s"] for r in rate["runs"]),
    }
    return metrics, outputs, [rate["threads"]]


# ------------------------------ traced pass --------------------------------

def layer_metrics(proc):
    layers = proc["layers"]
    loop_s = proc["loop_s"]
    rounds = proc["rounds"]
    counts = proc["counts"]

    def share(layer):
        return layers[layer]["busy_ns"] * 1e-9 / loop_s

    def per_round(layer):
        return layers[layer]["calls"] / rounds

    agg = layers["agg"]
    rows_per_call = agg["arg_sum"] / agg["calls"] if agg["calls"] else 0.0
    consumed = agg["arg_sum"]
    attempted_rows = consumed + counts["stale_dropped"]
    run_ms = proc["sweep_run_ms"]
    return {
        "agg.wall_share": share("agg"),
        "agg.call_us_p50": agg["call_us_p50"],
        "agg.call_us_p90": agg["call_us_p90"],
        "agg.rows_per_call": rows_per_call,
        "agg.bytes_per_call": rows_per_call * proc["dim"] * 8,
        "attack.wall_share": share("attack"),
        "attack.call_us_p50": layers["attack"]["call_us_p50"],
        "attack.calls_per_round": per_round("attack"),
        "opt.wall_share": share("opt"),
        "opt.call_us_p50": layers["opt"]["call_us_p50"],
        "opt.calls_per_round": per_round("opt"),
        "learn.grad_wall_share": share("learn_grad"),
        "learn.eval_wall_share": share("learn_eval"),
        "learn.grad_call_us_p50": layers["learn_grad"]["call_us_p50"],
        "engine.rest_share": 1.0 - proc["busy_all_s"] / loop_s,
        "engine.held_rounds": (rounds - layers["round"]["calls"]
                               if proc["observes_rounds"] else 0),
        "sim.messages_per_round": counts["messages_sent"] / rounds,
        "p2p.messages_per_round": counts["broadcast_messages"] / rounds,
        "async.quorum_fires": counts["quorum_fires"],
        "async.deadline_fires": counts["deadline_fires"],
        "async.stale_dropped": counts["stale_dropped"],
        "async.late_rows": counts["late_rows"],
        "async.useful_row_ratio": consumed / attempted_rows if attempted_rows else 0.0,
        "round.us_p50": layers["round"]["call_us_p50"],
        "round.us_p90": layers["round"]["call_us_p90"],
        "round.samples": layers["round"]["calls"],
        "scenario.parse_ms": proc["parse_s"] * 1e3,
        "sweep.expand_ms": proc["expand_s"] * 1e3,
        "sweep.pool_busy_share": (sum(run_ms) / (proc["threads"] * proc["untraced_s"] * 1e3)
                                  if run_ms else 0.0),
        "sweep.run_ms_p50": quantile(run_ms, 0.5),
        "sweep.run_ms_p90": quantile(run_ms, 0.9),
        "sweep.runs": len(run_ms),
        "trace.overhead_pct": 100.0 * (proc["traced_s"] / proc["untraced_s"] - 1.0),
    }


def measure_layers(run, name, checks):
    spec = spec_path(name)
    length = run.length(trace=True)
    iterations = run_iterations(name, length)
    thread_counts = sorted({1, min(2, THREADS), THREADS})
    procs = {}
    for threads in thread_counts:
        spans = None
        if run.spans_dir is not None:
            spans = run.spans_dir / f"{name}.t{threads}.jsonl"
        procs[threads] = run_bin(run.binary, "trace", spec, run.seed, threads,
                                 iterations=iterations, spans=spans)

    reference = procs[1]["digest"]
    per_threads = {threads: layer_metrics(proc) for threads, proc in procs.items()}
    for threads, proc in procs.items():
        problems = run.expected_problems(name, proc, length)
        if not (proc["finite"] and proc["traced_finite"]):
            problems.append("non-finite output")
        if proc["traced_digest"] != proc["digest"]:
            problems.append(f"traced digest {proc['traced_digest']} != untraced {proc['digest']}")
        if proc["digest"] != reference:
            problems.append(f"digest {proc['digest']} at t{threads} != {reference} at t1")
        if threads == 1:
            total = sum(per_threads[1][share] for share in SHARES)
            if abs(total - 1.0) > 0.01:
                problems.append(f"t1 layer shares sum to {total:.4f}, not 1 +- 0.01")
        checks.record(f"{name} trace t{threads}", problems)

    metrics = dict(per_threads[THREADS])
    for suffix, threads in (("_1t", 1), ("_2t", min(2, THREADS))):
        for share in SHARES:
            metrics[share + suffix] = per_threads[threads][share]
    # Untraced reference runs: throughput at THREADS workers and over one.
    parallel, single = (procs[t]["rounds"] / procs[t]["untraced_s"] for t in (THREADS, 1))
    metrics["engine.parallel_rounds_per_s"] = parallel
    metrics["engine.parallel_speedup"] = parallel / single
    outputs = {key: procs[1][key] for key in ("final_dist", "final_cost", "counts", "digest")}
    return metrics, outputs, thread_counts


# -------------------------------- reporting --------------------------------

def host_metadata(build_dir):
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind in ("Data", "Unified"):
                level = (index / "level").read_text().strip()
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    cache_vars = {}
    try:
        for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, value = line.split("=", 1)
                cache_vars[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache_vars.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                     timeout=30).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.SubprocessError):
            pass
    flags = " ".join(filter(None, [
        cache_vars.get("CMAKE_CXX_FLAGS", ""),
        cache_vars.get("CMAKE_CXX_FLAGS_" + cache_vars.get("CMAKE_BUILD_TYPE", "").upper(), ""),
        "-march=native" if cache_vars.get("ABFT_HAVE_MARCH_NATIVE") == "1" else ""]))
    return {"nproc": os.cpu_count(), "cpu": cpu, "caches": caches, "compiler": version,
            "flags": flags.strip()}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def print_metrics(name, metrics, units):
    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")


def measure(run, names, passes, out_path, build_dir):
    """Runs the passes over the workloads; returns (checks, metrics)."""
    checks = Checks()
    combined = {}
    host = host_metadata(build_dir)
    sha = git_sha()
    for name in names:
        for trace in passes:
            local = Checks()
            if trace:
                metrics, outputs, threads_used = measure_layers(run, name, local)
                units = LAYER_UNITS
            else:
                metrics, outputs, threads_used = measure_e2e(run, name, local)
                units = E2E_UNITS
            print_metrics(name, metrics, units)
            for problem in local.problems:
                print(f"check failed: {problem}", file=sys.stderr)
            checks.attempted += local.attempted
            checks.failed += local.failed
            checks.problems += local.problems
            reported = {metric: {"value": value, "unit": units[metric]}
                        for metric, value in metrics.items()}
            combined.setdefault(name, {}).update(reported)
            if out_path is not None:
                record = {
                    "workload": name, "seed": run.seed, "trace": trace,
                    "seconds": run.seconds, "quick": run.quick, "git_sha": sha, "host": host,
                    "threads": {"default": THREADS, "used": threads_used},
                    "correct": local.failed == 0, "attempted": local.attempted,
                    "failed": local.failed,
                    "check_fail_ratio": local.failed / local.attempted,
                    "metrics": reported, "outputs": outputs, "problems": local.problems,
                }
                with open(out_path, "a") as out:
                    out.write(json.dumps(record) + "\n")
    return checks, combined


def self_test(run):
    """A perturbed expected value must flip check_fail_ratio from 0 to 1."""
    name = "p2p"
    clean = Checks()
    measure_e2e(run, name, clean)
    perturbed = copy.deepcopy(run.expected)
    perturbed[name][run.length(trace=False)]["final_cost"] *= 1.0 + 1e-3
    broken = Checks()
    measure_e2e(Run(run.binary, run.seed, run.seconds, run.quick, perturbed), name, broken)
    clean_ratio = clean.failed / clean.attempted
    broken_ratio = broken.failed / broken.attempted
    print(f"self-test: check_fail_ratio {clean_ratio:g} as recorded, {broken_ratio:g} with"
          f" final_cost perturbed by 1e-3 ({broken.attempted} runs)")
    return clean_ratio == 0.0 and broken_ratio == 1.0


def record_expected(run):
    expected = {}
    for name in MANIFEST["workloads"]:
        expected[name] = {}
        for length in LENGTHS:
            result = run_bin(run.binary, "rate", spec_path(name), MANIFEST["default_seed"],
                             THREADS, iterations=run_iterations(name, length), budget=0,
                             min_reps=1)
            expected[name][length] = {
                key: result[key] for key in ("final_dist", "final_cost", "counts")}
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2) + "\n")
    print(f"wrote {EXPECTED_PATH}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MANIFEST["workloads"]))
    parser.add_argument("--seed", type=int, default=MANIFEST["default_seed"])
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--bin", type=Path)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.bin is not None:
            binary = args.bin.resolve()
        else:
            binary = build(ROOT / "build-e2e")
        expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
        if args.spans is not None:
            args.spans.mkdir(parents=True, exist_ok=True)
        run = Run(binary, args.seed, args.seconds, args.quick or args.self_test, expected,
                  args.spans)
        if args.record_expected:
            record_expected(run)
            return 0
        if args.self_test:
            return 0 if self_test(run) else 1
        if args.workload is not None:
            names, passes = [args.workload], [args.trace or 0]
        else:
            names = list(MANIFEST["workloads"])
            passes = [0, 1] if args.trace is None else [args.trace]
        checks, combined = measure(run, names, passes, args.out, binary.parent)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1

    if args.workload is not None:
        metrics = combined[args.workload]
    else:
        metrics = {f"{name}/{metric}": value for name, values in combined.items()
                   for metric, value in values.items()}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
