#!/usr/bin/env python3
"""Runs the benchmark over several seeds and collects the results.

    python3 perfbench/sweep.py --out runs.jsonl [--workloads a,b] \
        [--seeds 1-10] [--seconds S] [--trace 0|1] [--small 1]

Each run is one `perfbench/run.py` process; every result is appended to
--out as one JSON line {"workload", "seed", "trace", "result"}. Workloads
and seconds default to BENCHMARK.json. compare.py reads these files.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=str(spec["run_seconds"]))
    parser.add_argument("--trace", default="0")
    parser.add_argument("--small", default="0")
    args = parser.parse_args()
    failures = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            if args.small == "1":
                cmd += ["--small", "1"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE)
            lines = proc.stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: run failed" % (workload, seed),
                      file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                failures += 1
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": int(args.trace),
                                    "result": result}) + "\n")
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (workload, seed, result["correct"], result["attempted"],
                   result["failed"]), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
