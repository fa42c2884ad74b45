#!/usr/bin/env python3
"""The benchmark's own tests: every workload in small mode, both modes.

    python3 perfbench/selftest.py

Each workload runs with --small 1 (seconds, not minutes) untraced and
traced. A run passes when it exits 0, reports correct, prints exactly the
metrics BENCHMARK.json declares for its mode with their units, and, traced,
when the per-layer self times plus unattributed_s add up to the scoring
phase's wall time. compare.py is checked on a synthetic pair of run sets.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are not self times of a span in the scoring phase.
NOT_SELF_TIMES = {"serve.self_s", "trace.scoring_wall_s", "trace.overhead_s",
                  "unattributed_s"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "5", "--trace", str(trace),
           "--small", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.decode().strip().splitlines()
    assert proc.returncode == 0 and lines, proc.stderr.decode()[-2000:]
    return json.loads(lines[-1])


def check_result(result, specs, trace):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["attempted"] >= 1 and result["failed"] >= 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in specs], sorted(metrics)
    for m in specs:
        value = metrics[m["name"]]["value"]
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        if not trace:
            assert value > 0, (m["name"], value)
    if trace:
        selfs = sum(v["value"] for k, v in metrics.items()
                    if k.endswith("_s") and k not in NOT_SELF_TIMES)
        wall = metrics["trace.scoring_wall_s"]["value"]
        total = selfs + metrics["unattributed_s"]["value"]
        assert abs(total - wall) <= 1e-6 * max(1.0, wall), (total, wall)
        assert metrics["unattributed_s"]["value"] < 0.1 * wall


def check_compare():
    def write(path, scale):
        with open(path, "w") as f:
            for seed in range(1, 11):
                value = scale * (100 + seed % 3)
                f.write(json.dumps({"workload": "w", "seed": seed, "trace": 0,
                                    "result": {"correct": True,
                                               "attempted": 10, "failed": 0,
                                               "metrics": {"points_per_s": {
                                                   "value": value,
                                                   "unit": "points/s"}}}})
                        + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        base, slow, fast = (os.path.join(tmp, n) for n in ("b", "s", "f"))
        write(base, 1.0)
        write(slow, 0.5)
        write(fast, 1.5)
        compare = os.path.join(HERE, "compare.py")
        out = subprocess.run([sys.executable, compare, base, slow],
                             stdout=subprocess.PIPE)
        assert out.returncode == 1 and b"regression" in out.stdout
        out = subprocess.run([sys.executable, compare, base, fast],
                             stdout=subprocess.PIPE)
        assert out.returncode == 0 and b"gain" in out.stdout
        out = subprocess.run([sys.executable, compare, base, base],
                             stdout=subprocess.PIPE)
        assert out.returncode == 0 and b"same" in out.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_compare()
    print("compare.py: ok")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            specs = bench["per_layer"] if trace else bench["end_to_end"]
            check_result(run(workload, trace), specs, trace)
            print("%s --trace %d: ok" % (workload, trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
