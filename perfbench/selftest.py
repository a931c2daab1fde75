"""Smoke test of the benchmark at tiny scale.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload through ``run.py --tiny`` untraced and traced, and
fails unless each run is correct, reproduces its pinned digest, and
prints every metric that BENCHMARK.json names with its unit.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": [w["name"] for w in spec["workloads"]]}


def main() -> int:
    want = declared()
    problems = []
    for workload in want["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"),
                   "--workload", workload, "--seconds", "1",
                   "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=170)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if "pinned_digest=yes" not in proc.stdout:
                problems.append(f"{label}: no pinned digest for its seed")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} runs failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics {got} != {want[trace]}")
            print(f"{label}: {result['attempted']} runs, "
                  f"{len(got)} metrics", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
