"""Host-time benchmark of the repro simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_groupby --seed 7 \
        --seconds 40 --trace 0

``--trace 0`` repeats untraced runs of the workload, each in a fresh
interpreter, for ``--seconds`` and reports the end-to-end metrics as
medians.  ``--trace 1`` makes one untraced, one traced and one profiled
run and reports the per-layer metrics.  Every run's outputs are checked
(README.md lists the checks); the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload at its default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes lives here (the C kernel cache too).
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
PINNED = os.path.join(BENCH, "pinned.json")

#: Fewest untraced samples behind a median, however short ``--seconds``.
MIN_SAMPLES = 3
#: Set-up-only samples taken besides each untraced repetition's own.
SETUP_SAMPLES = 5
#: Kill a repetition that runs longer than this (seconds).
REP_TIMEOUT = 150.0


def declared(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as
    BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def log(msg: str) -> None:
    print(msg, flush=True)


def rep(workload: str, seed: int, mode: str, tiny: bool,
        tmpdir: str, extra=()) -> dict:
    """Run one repetition in a fresh interpreter; ``{}`` if it failed."""
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=tmpdir)
    cmd = [sys.executable, os.path.join(BENCH, "rep.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           *(["--tiny"] if tiny else []), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        log(f"  {mode} run of {workload} timed out")
        return {}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"  {mode} run of {workload} exited with {proc.returncode}")
        return {}
    out = json.loads(lines[-1])
    out["rep_s"] = time.monotonic() - started
    return out


def check(sample: dict, pinned, first_digest) -> list:
    """Why a repetition failed; empty when it passed."""
    if not sample:
        return ["did not finish"]
    problems = list(sample["errors"])
    if pinned is not None and sample["digest"] != pinned:
        problems.append("digest differs from the pinned one")
    if first_digest is not None and sample["digest"] != first_digest:
        problems.append("digest differs from the first run's")
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(workload: str, seed: int, seconds: float, tiny: bool,
            pinned) -> tuple:
    """Untraced repetitions for ``seconds``: end-to-end metrics."""
    tmpdir = os.path.join(WORK, "tmp")
    samples, attempted, failed, digest = [], 0, 0, None
    began = time.monotonic()
    setups = [rep(workload, seed, "setup", tiny, tmpdir).get("setup_s")
              for _ in range(SETUP_SAMPLES)]
    while True:
        sample = rep(workload, seed, "plain", tiny, tmpdir)
        attempted += 1
        problems = check(sample, pinned, digest)
        if problems:
            failed += 1
            log(f"  FAILED {workload} seed={seed}: {'; '.join(problems)}")
        if sample:
            samples.append(sample)
            digest = digest or sample["digest"]
            log(f"  run {attempted}: wall_s {sample['wall_s']:.4f} "
                f"events {sample['events']}")
        elapsed = time.monotonic() - began
        typical = statistics.median(s["rep_s"] for s in samples) \
            if samples else 0.0
        if attempted >= MIN_SAMPLES and elapsed + typical > seconds:
            break
    if not samples:
        return {}, attempted, failed
    metrics = {}
    for name, unit in declared("end_to_end").items():
        values = [s[name] for s in samples]
        if name == "setup_s":
            values += [s for s in setups if s is not None]
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        log(f"  {name:12s} {med:10.4f} {unit:3s} (median of {len(values)};"
            f" quartiles {q1:.4f} .. {q3:.4f})")
    log(f"  {'error_rate':12s} {failed / attempted:10.4f}     "
        f"({failed} failed of {attempted} runs)")
    return metrics, attempted, failed


def trace_layers(workload: str, seed: int, tiny: bool, pinned) -> tuple:
    """One untraced, one traced and one profiled run: per-layer metrics."""
    tmpdir = os.path.join(WORK, "tmp")
    cold_dir = tempfile.mkdtemp(prefix="cold-", dir=WORK)
    try:
        cold = rep(workload, seed, "import", tiny, cold_dir)
    finally:
        shutil.rmtree(cold_dir, ignore_errors=True)
    plain = rep(workload, seed, "plain", tiny, tmpdir)
    spans_path = os.path.join(WORK, f"spans-{workload}-{seed}.txt")
    traced = rep(workload, seed, "traced", tiny, tmpdir,
                 ["--spans-out", spans_path])
    prof = rep(workload, seed, "profile", tiny, tmpdir)
    failed = 0
    base = plain.get("digest")
    for label, sample in (("untraced", plain), ("traced", traced),
                          ("profiled", prof)):
        problems = check(sample, pinned, base)
        if problems:
            failed += 1
            log(f"  FAILED {label} {workload} seed={seed}: "
                f"{'; '.join(problems)}")
    if not (cold and plain and traced and prof):
        return None, 3, failed

    spans = traced["spans"]
    counters = traced["counters"]
    layer_self = prof["layer_self_s"]
    total_self = sum(layer_self.values())
    share = {layer: s / total_self for layer, s in layer_self.items()}
    wall = plain["wall_s"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    net_calls = calls("Fabric.transfer")
    launches = counters.get("sched.launches", 0.0)
    declines = sum(counters.get(f"sched.{k}_declines", 0.0)
                   for k in ("throttle", "mem", "policy"))
    jobs = traced["jobs"]
    values = {
        "sim.events": plain["events"],
        "sim.host_us_per_event": wall / plain["events"] * 1e6,
        "sim.fluid.transfers": calls("FluidPipe.transfer"),
        "net.transfers": net_calls,
        "net.bytes": traced["net_bytes"],
        "net.us_per_transfer": (share["net"] * wall / net_calls * 1e6
                                if net_calls else 0.0),
        "core.scheduler.launches": launches,
        "core.scheduler.declines": declines,
        "core.scheduler.launch_ratio": (launches / (launches + declines)
                                        if launches + declines else 0.0),
        "core.scheduler.elb_vetoes": counters.get("elb.vetoes_total", 0.0),
        "core.scheduler.cad_delay_steps": sum(
            counters.get(f"cad.delay_{k}_total", 0.0)
            for k in ("increases", "decreases")),
        "core.engine.tasks": sum(j["tasks"] for j in jobs),
        "core.engine.shuffle_bytes": sum(j["shuffle_bytes"] for j in jobs),
        "storage.spill_bytes": sum(j["spill_bytes"] for j in jobs),
        "serve.jobs": calls("SlotPool.admit"),
        "serve.targets_calls": calls("FairSharePolicy.targets"),
        "serve.targets_s": spans.get("FairSharePolicy.targets",
                                     {}).get("total_s", 0.0),
        "obs.trace_overhead_pct": (traced["wall_s"] / wall - 1.0) * 100,
        "obs.profile_overhead_pct": (prof["wall_s"] / wall - 1.0) * 100,
        "setup.import_s": plain["import_s"],
        "setup.ckernel_build_s": cold["import_s"] - plain["import_s"],
        "setup.inputs_s": plain["inputs_s"],
    }
    for layer, s in share.items():
        values[f"{layer}.self_share"] = s
    per_layer = declared("per_layer")
    for name in per_layer:
        if name.startswith("model."):
            values[name] = plain["model"].get(name, 0.0)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in per_layer.items()}

    log(f"  span self time by layer (traced run, wall "
        f"{traced['wall_s']:.3f} s vs {wall:.3f} s untraced):")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        log(f"    {name:28s} {row['layer']:15s} calls {row['calls']:8d}"
            f"  self {row['self_s']:8.4f} s  total {row['total_s']:8.4f} s")
    log(f"  profile self share by layer (profiler overhead "
        f"{values['obs.profile_overhead_pct']:.1f}%):")
    for layer, s in sorted(share.items(), key=lambda kv: -kv[1]):
        log(f"    {layer:15s} {s:7.2%}")
    for name, m in metrics.items():
        log(f"  {name:32s} {m['value']:16.6g} {m['unit']}")
    return metrics, 3, failed


def host_stamp(kernel_mode: str) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "kernel_mode": kernel_mode,
            "loadavg_1m": os.getloadavg()[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test scale (see selftest.py)")
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2

    # Keep the C kernel cache inside the checkout; importing repro here
    # builds it once before any repetition is timed.  Repetitions run one
    # at a time, single-threaded: an idle BLAS thread pool only adds
    # noise, and a fixed hash seed keeps runs alike.
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ.update(TMPDIR=os.path.join(WORK, "tmp"), PYTHONHASHSEED="0",
                      OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    from repro.net import fastalloc
    from repro.sim import fastdrain
    kernel_mode = "c" if fastalloc.AVAILABLE and fastdrain.AVAILABLE \
        else "numpy"
    stamp = host_stamp(kernel_mode)
    log("host " + json.dumps(stamp, sort_keys=True))
    if kernel_mode != "c":
        log("NOTE: kernel_mode=numpy results are not comparable with "
            "kernel_mode=c results")

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"have {sorted(WORKLOADS)} or 'all'")
    with open(PINNED) as fh:
        pinned_all = json.load(fh)["tiny" if args.tiny else "full"]

    metrics, attempted, failed = {}, 0, 0
    for name in names:
        seed = WORKLOADS[name].default_seed if args.seed is None \
            else args.seed
        pinned = pinned_all.get(name, {}).get(str(seed))
        log(f"{name} seed={seed} trace={args.trace} kernel_mode="
            f"{kernel_mode} pinned_digest={'yes' if pinned else 'no'}")
        if args.trace:
            got, n, f = trace_layers(name, seed, args.tiny, pinned)
        else:
            got, n, f = measure(name, seed, args.seconds, args.tiny, pinned)
        if not got:
            print(f"perfbench: {name} produced no measurement",
                  file=sys.stderr)
            return 1
        attempted, failed = attempted + n, failed + f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
