#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and metric.

Usage:

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one subdirectory per workload, and in it one file
per run with run.py's standard output (its last line is the result):

    PARENT_DIR/nfs_create_stat/seed1.json, .../seed2.json, ...

Runs are paired by file name (run the two sides alternately, the same
seeds on both). For every workload x metric the script prints each
side's median and quartiles, the pairs the change won and lost, and a
verdict by the rule for a small sandbox:

  better      the change won at least 9/10 of the pairs (ties count for
              neither side) and the medians differ by more than the
              parent's own spread (its interquartile distance);
  worse       the same rule in the other direction, or the change's
              median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  anything else. "spread>bound" marks metrics whose parent
              spread exceeds the bound, which the runs cannot resolve.

Exits 1 when any end-to-end metric is worse, else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def load_set(root):
    """Returns {workload: {run name: {metric: value}}}."""
    runs = {}
    for workload in sorted(os.listdir(root)):
        wdir = os.path.join(root, workload)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            with open(os.path.join(wdir, name)) as f:
                lines = f.read().strip().splitlines()
            if not lines:
                continue
            result = json.loads(lines[-1])
            runs.setdefault(workload, {})[name] = {
                k: v["value"] for k, v in result["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """parent/change: paired value lists. Returns (verdict, wins, losses)."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = min(len(parent), len(change))
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    moved = abs(mc - mp) > spread
    if pairs and wins >= 0.9 * pairs and moved:
        return "better", wins, losses
    if pairs and losses >= 0.9 * pairs and moved:
        return "worse", wins, losses
    if bound is not None and mp and sign * (mc - mp) / abs(mp) < -bound:
        return "worse", wins, losses
    if bound is not None and mp and spread / abs(mp) > bound:
        return "unresolved spread>bound", wins, losses
    return "unresolved", wins, losses


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec, metrics = load_spec()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    parent, change = load_set(argv[1]), load_set(argv[2])
    any_worse = False
    header = "%-16s %-28s %12s %25s %12s %25s %8s %9s  %s" % (
        "workload", "metric", "parent", "parent q1..q3", "change",
        "change q1..q3", "change", "won/lost", "verdict")
    print(header)
    for workload in sorted(set(parent) & set(change)):
        names = sorted(set(parent[workload]) & set(change[workload]))
        if not names:
            continue
        keys = [k for k in metrics
                if all(k in parent[workload][n] and k in change[workload][n]
                       for n in names)]
        for key in keys:
            p = [parent[workload][n][key] for n in names]
            c = [change[workload][n][key] for n in names]
            m = metrics[key]
            v, wins, losses = verdict(p, c, m["better"], m.get("bound"))
            if v == "worse" and key in end_to_end:
                any_worse = True
            mp, mc = statistics.median(p), statistics.median(c)
            pq, cq = quartiles(p), quartiles(c)
            rel = "%+.1f%%" % (100 * (mc - mp) / abs(mp)) if mp else "n/a"
            print("%-16s %-28s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g "
                  "%8s %4d/%-4d  %s" % (workload, key, mp, pq[0], pq[1], mc,
                                        cq[0], cq[1], rel, wins, losses, v))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
