"""Write pinned.json: each workload's digest at its default and held-out
seeds, at full and tiny scale.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/capture.py

Re-capture only in a change that means to alter the simulated outcome
and says so; a benchmark run whose digest differs from the pinned one
counts as failed.
"""

import json
import os

from workloads import WORKLOADS

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "pinned.json")


def capture() -> dict:
    pinned = {}
    for scale, tiny in (("full", False), ("tiny", True)):
        pinned[scale] = {}
        for name, cls in WORKLOADS.items():
            digests = {}
            for seed in (cls.default_seed, cls.held_out_seed):
                workload = cls(tiny=tiny)
                outcome = workload.run(workload.build(seed))
                if outcome.errors:
                    raise SystemExit(f"{name} seed {seed}: {outcome.errors}")
                digests[str(seed)] = outcome.digest
                print(f"{scale} {name} seed={seed} {outcome.digest}",
                      flush=True)
            pinned[scale][name] = digests
    return pinned


if __name__ == "__main__":
    with open(PINNED, "w") as fh:
        json.dump(capture(), fh, indent=2, sort_keys=True)
        fh.write("\n")
