#!/usr/bin/env python3
"""Diff a fresh BENCH_agg.json against the committed baseline.

Usage: bench_diff.py <baseline.json> <current.json>
           [--threshold PCT] [--fail-threshold PCT] [--gate-paths P1,P2]

Matches results on (rule, path, precision, n, d) and reports ns/op deltas
beyond --threshold (default 25%, generous because CI machines are noisy).
Records without a "precision" field (every BENCH file written before the
f32 lane landed) match as "f64", so old committed baselines keep diffing
cleanly against new runs.

Robustness: a key present in only one of baseline/current, or a malformed
result record (missing/odd-typed fields), is WARNED about and skipped —
never a crash.  Only an unreadable or structurally invalid file (no usable
"results" list at all) is a hard error (exit 2).

Gating: by default the script is warn-only (exit 0).  With --fail-threshold
set, regressions at or beyond that percentage on the gated paths (default
"batched" — the exact-mode kernels with stable semantics) fail the run with
exit 1.  The relaxed-parity "fast" path and the host-dependent
"pooled" path are never gated: their numbers are reported for the log only.

The gate is normalized for host speed: the raw new/old ratios of the gated
entries are divided by their median before thresholding, so a CI runner
that is uniformly 2x slower (or faster) than the machine that produced the
committed baseline does not trip (or mask) the gate — only a kernel that
regressed RELATIVE to its peers does.  Raw deltas still drive the warnings.
"""

import argparse
import json
import math
import statistics
import sys


def warn(message):
    print(f"WARNING: {message}")


def load(path):
    """Returns {(rule, path, precision, n, d): ns_per_op} or None on a hard
    error."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"ERROR: cannot read {path}: {error}")
        return None
    results = doc.get("results") if isinstance(doc, dict) else None
    if not isinstance(results, list):
        print(f"ERROR: {path} has no 'results' list")
        return None
    out = {}
    skipped = 0
    for record in results:
        try:
            precision = record.get("precision", "f64")
            if not isinstance(precision, str):
                raise TypeError("precision must be a string")
            key = (record["rule"], record["path"], precision,
                   int(record["n"]), int(record["d"]))
            # An explicit null ns_per_op means "deliberately not measured at
            # this shape" (e.g. the O(n^2 d) flat baseline past its limit):
            # treat the entry as absent, not malformed.
            if record["ns_per_op"] is None:
                continue
            out[key] = float(record["ns_per_op"])
        except (AttributeError, KeyError, TypeError, ValueError):
            skipped += 1
    if skipped:
        warn(f"{path}: skipped {skipped} malformed result record(s)")
    return out


def describe(key):
    rule, path, precision, n, d = key
    return f"{rule}/{path}/{precision} n={n} d={d}"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="warn when |delta| exceeds this percentage")
    parser.add_argument("--fail-threshold", type=float, default=None,
                        help="exit 1 when a gated-path regression reaches this "
                             "percentage (default: warn-only)")
    parser.add_argument("--gate-paths", default="batched",
                        help="comma-separated result paths the fail gate applies "
                             "to (default: the exact-mode kernels)")
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    current = load(args.current)
    if baseline is None or current is None:
        return 2

    gate_paths = {p.strip() for p in args.gate_paths.split(",") if p.strip()}
    matched_keys = []
    regressions = []
    improvements = []
    nan_mismatches = []
    for key in sorted(baseline.keys() & current.keys()):
        old, new = baseline[key], current[key]
        # Non-finite values would sail through every comparison below (nan
        # fails <=, >= and abs() thresholds alike) and poison the gate's
        # median.  Both-nan is a match (same failure on both sides); a
        # one-sided nan is a real mismatch the gate must see.
        if not math.isfinite(old) and not math.isfinite(new):
            continue
        if not math.isfinite(old) or not math.isfinite(new):
            warn(f"{describe(key)}: non-finite on one side only "
                 f"({old} -> {new}), treated as a mismatch")
            nan_mismatches.append((key, old, new))
            continue
        if old <= 0:
            warn(f"{describe(key)}: non-positive baseline value {old}, skipped")
            continue
        matched_keys.append(key)
        delta = 100.0 * (new - old) / old
        if abs(delta) >= args.threshold:
            (regressions if delta > 0 else improvements).append((key, old, new, delta))

    # Host-speed-normalized gate: divide every gated ratio by the median
    # gated ratio, so only relative outliers fail.
    gate_failures = []
    speed_norm = 1.0
    if args.fail_threshold is not None:
        gated = [key for key in matched_keys if key[1] in gate_paths]
        if gated:
            speed_norm = statistics.median(current[key] / baseline[key] for key in gated)
            print(f"bench_diff: host speed normalization x{speed_norm:.3f} "
                  f"(median current/baseline over {len(gated)} gated entries)")
        for key in gated:
            normalized_delta = 100.0 * (current[key] / baseline[key] / speed_norm - 1.0)
            if normalized_delta >= args.fail_threshold:
                gate_failures.append((key, baseline[key], current[key], normalized_delta))

    for key, old, new, delta in regressions:
        print(f"WARNING: {describe(key)}: {old:.1f} -> {new:.1f} ns/op ({delta:+.1f}%)")
    for key, old, new, delta in improvements:
        print(f"improved: {describe(key)}: {old:.1f} -> {new:.1f} ns/op ({delta:+.1f}%)")

    only_old = baseline.keys() - current.keys()
    only_new = current.keys() - baseline.keys()
    for key in sorted(only_old):
        warn(f"baseline-only entry (not measured in current run): {describe(key)}")
    for key in sorted(only_new):
        warn(f"new entry absent from the baseline: {describe(key)}")

    matched = len(baseline.keys() & current.keys())
    mode = ("gate on " + ",".join(sorted(gate_paths)) +
            f" at +{args.fail_threshold:.0f}% (speed-normalized)"
            if args.fail_threshold is not None else "warn-only")
    print(f"bench_diff: {matched} matched entries, {len(regressions)} above "
          f"+{args.threshold:.0f}%, {len(improvements)} improved ({mode})")

    if gate_failures:
        for key, old, new, delta in gate_failures:
            print(f"FAIL: {describe(key)}: {old:.1f} -> {new:.1f} ns/op "
                  f"({delta:+.1f}% after speed normalization) exceeds the gate")
        return 1
    if nan_mismatches and args.fail_threshold is not None:
        for key, old, new in nan_mismatches:
            print(f"FAIL: {describe(key)}: non-finite on one side only ({old} -> {new})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
