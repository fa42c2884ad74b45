#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by
workload.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

The sets are files written by sweep.py. For each metric x workload it prints
each set's median, quartiles (statistics.quantiles, n=4) and spread (the
distance between the quartiles as a share of the median). With one set it
marks every end-to-end spread against the metric's bound. With two:

  regression  NEW's median is worse than BASE's by more than the bound;
  unresolved  either spread exceeds the bound, unless every NEW run beats
              every BASE run;
  gain        NEW wins at least nine in ten runs paired by seed (ties count
              for neither side) and the medians differ by more than BASE's
              quartile distance;
  same        none of these.

Per-layer metrics have no bound and are printed without a verdict. The exit
code is 1 when any end-to-end pairing is a regression, else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    """{(workload, metric): {seed: value}} plus failed shares per workload."""
    values, failed = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            res = run["result"]
            failed.setdefault(run["workload"], set()).add(
                (res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault((run["workload"], name), {})[run["seed"]] = \
                    m["value"]
    return values, failed


def summary(vals):
    vals = sorted(vals)
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse(new, base, better):
    """Relative change of NEW against BASE, positive when NEW is worse."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def verdict(base, new, spec):
    bmed, bq1, bq3, bspread = summary(base.values())
    nmed, _, _, nspread = summary(new.values())
    bound, better = spec["bound"], spec["better"]
    if worse(nmed, bmed, better) > bound:
        return "regression"
    sign = 1 if better == "higher" else -1
    all_better = min(sign * v for v in new.values()) > \
        max(sign * v for v in base.values())
    if (bspread > bound or nspread > bound) and not all_better:
        return "unresolved"
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
    if seeds and wins >= 0.9 * len(seeds) and \
            sign * (nmed - bmed) > (bq3 - bq1):
        return "gain"
    return "same"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    base, base_failed = load(argv[1])
    new, new_failed = (load(argv[2]) if len(argv) == 3 else (None, None))
    regressions = 0
    fmt = "%-13s %-27s %14s %14s %14s %7s"
    print(fmt % ("workload", "metric", "median", "q1", "q3", "spread") +
          ("  bound  verdict" if specs else ""))
    for key in sorted(base):
        workload, metric = key
        spec = specs.get(metric)
        for label, data in (("base", base), ("new", new)):
            if data is None or key not in data:
                continue
            med, q1, q3, spread = summary(data[key].values())
            line = fmt % (workload if label == "base" else "  (new)", metric,
                          "%.6g" % med, "%.6g" % q1, "%.6g" % q3,
                          "%.1f%%" % (100 * spread))
            if spec and label == "base":
                line += "  %5.2f" % spec["bound"]
                if new is None:
                    line += "  " + ("ok" if spread <= spec["bound"] / 3 else
                                    "within bound" if spread <= spec["bound"]
                                    else "TOO WIDE")
            if spec and label == "new" and key in base:
                v = verdict(base[key], data[key], spec)
                regressions += v == "regression"
                line += "         " + v
            print(line)
    for workload, shares in sorted(base_failed.items()):
        ratios = {f / a for f, a in shares}
        line = "%s failed/attempted: %s" % (
            workload, ", ".join("%d/%d" % s for s in sorted(shares)))
        if len(ratios) > 1:
            line += "  (share differs between runs)"
        if new_failed and workload in new_failed:
            new_ratios = {f / a for f, a in new_failed[workload]}
            if new_ratios != ratios:
                line += "  (share differs from NEW: %s)" % ", ".join(
                    "%d/%d" % s for s in sorted(new_failed[workload]))
        print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
