#!/usr/bin/env python3
"""Compares a parent and a change result set of the end-to-end benchmark.

  python3 bench/e2e/compare.py BENCHMARK.json parent.jsonl change.jsonl

A result set is the JSON lines `run.py --out FILE` appends, one per workload
and pass.  Records of one workload pair up in file order (parent run i with
change run i), so run the two sides as alternating pairs with the same seeds.

For every workload and end-to-end metric of BENCHMARK.json the change is:
  improved    it wins at least 9 of every 10 pairs (ties count for neither,
              at least 10 pairs) and its median beats the parent's by more
              than the parent's interquartile range;
  worse       its median is worse than the parent's by more than the bound;
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the bound - unless every change run beats (or
              loses to) every parent run;
  unchanged   otherwise.
The failure shares (failed / attempted output checks) of both sides are
compared too.  Exits 1 when a metric got worse or the change fails a larger
share of its checks than the parent, else 0.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def group(records):
    """{workload: {"values": {metric: [...]}, "attempted": n, "failed": n}}."""
    grouped = defaultdict(lambda: {"values": defaultdict(list), "attempted": 0, "failed": 0})
    for record in records:
        entry = grouped[record["workload"]]
        entry["attempted"] += record.get("attempted", 0)
        entry["failed"] += record.get("failed", 0)
        for metric, value in record.get("metrics", {}).items():
            entry["values"][metric].append(value["value"] if isinstance(value, dict) else value)
    return grouped


def spread(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def classify(parent, change, better, bound):
    """Returns (label, relative gain of the change's median; positive = better)."""
    if len(parent) < 2 or len(change) < 2:
        return "unresolved", None
    sign = 1.0 if better == "higher" else -1.0
    p_med, p_q1, p_q3 = spread(parent)
    c_med, c_q1, c_q3 = spread(change)
    gain = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    claim = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
             and sign * (c_med - p_med) > p_q3 - p_q1)

    wide = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
               (c_q3 - c_q1) / abs(c_med) if c_med else 0.0) > bound
    if wide:
        if all_better:
            return "improved", gain
        if all_worse:
            return "worse", gain
        return "unresolved", gain
    if claim:
        return "improved", gain
    if gain < -bound:
        return "worse", gain
    return "unchanged", gain


def compare(benchmark, parent_records, change_records):
    """One row per workload: (workload, [(metric, label, gain)], parent share,
    change share)."""
    parent = group(parent_records)
    change = group(change_records)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        cells = []
        for metric in benchmark["end_to_end"]:
            label, gain = classify(parent[workload]["values"].get(metric["name"], []),
                                   change[workload]["values"].get(metric["name"], []),
                                   metric["better"], metric["bound"])
            cells.append((metric["name"], label, gain))

        def share(side):
            entry = side[workload]
            return entry["failed"], entry["attempted"]

        rows.append((workload, cells, share(parent), share(change)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmark")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    rows = compare(benchmark, load_records(args.parent), load_records(args.change))

    failing = False
    for workload, cells, (p_failed, p_attempted), (c_failed, c_attempted) in rows:
        parts = []
        for metric, label, gain in cells:
            shown = "" if gain is None else f" {100 * gain:+.1f}%"
            parts.append(f"{metric} {label}{shown}")
            failing = failing or label == "worse"
        p_share = p_failed / p_attempted if p_attempted else 0.0
        c_share = c_failed / c_attempted if c_attempted else 0.0
        if c_share > p_share:
            failing = True
        parts.append(f"failures {p_failed}/{p_attempted} -> {c_failed}/{c_attempted}")
        print(f"{workload}: " + ", ".join(parts))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
