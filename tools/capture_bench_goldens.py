"""Capture the golden fingerprint digests that ``repro bench --check`` gates on.

Runs every :data:`repro.bench.scenarios.SCENARIOS` entry at quick and at
full scale in both kernel modes (C kernels, and the NumPy fallback under
``REPRO_NO_CKERNEL=1``), and writes the sha256 fingerprint digests to
``src/repro/bench/goldens.json`` only when both modes agree byte-for-byte.
Recapture only for an intended change to the simulated model, on a
known-good tree:

    PYTHONPATH=src python tools/capture_bench_goldens.py

``--emit`` prints this process's digests as JSON instead of writing;
the capture uses it to run the ``REPRO_NO_CKERNEL=1`` mode in a child
interpreter (the kernel gate is read once, at import).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from repro.bench.harness import GOLDENS_PATH, fingerprint_digest
from repro.bench.scenarios import SCENARIOS, run_scenario

SCALES = {"quick": True, "full": False}


def digests() -> dict:
    """``{scale: {scenario: digest}}`` in the current kernel mode."""
    return {scale: {name: fingerprint_digest(
                        run_scenario(name, quick=quick).fingerprint)
                    for name in SCENARIOS}
            for scale, quick in SCALES.items()}


def _no_ckernel_digests() -> dict:
    env = dict(os.environ, REPRO_NO_CKERNEL="1")
    out = subprocess.run([sys.executable, __file__, "--emit"], env=env,
                         check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--emit", action="store_true",
                    help="print this mode's digests as JSON; write nothing")
    args = ap.parse_args(argv)
    if args.emit:
        print(json.dumps(digests(), sort_keys=True))
        return 0
    modes = {"C kernels": digests(),
             "REPRO_NO_CKERNEL=1": _no_ckernel_digests()}
    golden = modes["C kernels"]
    bad = [f"{mode}: {scale}/{name}"
           for mode, got in modes.items()
           for scale in SCALES for name in SCENARIOS
           if got[scale][name] != golden[scale][name]]
    if bad:
        print("kernel modes disagree; refusing to write goldens:")
        print("\n".join(f"  {b}" for b in bad))
        return 1
    with open(GOLDENS_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(modes)} kernel modes agree on {len(SCENARIOS)} scenarios "
          f"x {len(SCALES)} scales; wrote {GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
