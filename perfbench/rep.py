"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per sample; it prints one JSON
object as its last line.  Modes:

* ``plain``: untraced run, giving ``wall_s``, ``setup_s`` and
  ``peak_rss_mb``;
* ``traced``: the same run with telemetry attached and a span around
  each layer's public entry points;
* ``profile``: the same run under ``cProfile``, self time per layer;
* ``setup``: import repro, load the C kernels and build the inputs;
* ``import``: import repro and load the C kernels, nothing else.

Set-up times are CPU seconds (user + system) counted from the start of
this process, interpreter start-up included, plus those of any C
compiler it ran.  Unlike elapsed time, they do not count waiting on
the file system or for a busy host, which made set-up times unsteady.
"""

import argparse
import json
import resource
import sys
import time


def _cpu_s() -> float:
    """CPU seconds used so far by this process and its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("plain", "traced", "profile", "setup",
                             "import"))
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import repro  # noqa: F401  (loads both C kernels)
    from workloads import WORKLOADS
    out = {"import_s": _cpu_s()}
    if args.mode == "import":
        print(json.dumps(out))
        return 0

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    telemetry = tracer = profiler = None
    if args.mode == "traced":
        from repro.obs import Telemetry
        from tracing import SpanTracer
        telemetry = Telemetry()
        tracer = SpanTracer(telemetry.registry)
        tracer.install()
    inputs = workload.build(args.seed, telemetry)
    out["setup_s"] = _cpu_s()
    out["inputs_s"] = out["setup_s"] - out["import_s"]
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "profile":
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    t0 = time.perf_counter()
    outcome = workload.run(inputs)
    out["wall_s"] = time.perf_counter() - t0
    if profiler is not None:
        profiler.disable()
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["events"] = outcome.events
    out["digest"] = outcome.digest
    out["errors"] = outcome.errors
    out["model"] = outcome.model

    if tracer is not None:
        tracer.restore()
        from tracing import counter_totals
        out["spans"] = tracer.by_name()
        out["counters"] = counter_totals(telemetry.registry)
        out["net_bytes"] = tracer.net_bytes
        out["jobs"] = [{
            "tasks": len(r.all_tasks()),
            "shuffle_bytes": r.shuffle.fetched_bytes if r.shuffle else 0.0,
            "spill_bytes": (r.memory.spill_bytes_written
                            if r.memory else 0.0)}
            for r in tracer.job_results]
        if args.spans_out:
            tracer.write(args.spans_out)
    if profiler is not None:
        import pstats
        from tracing import profile_layer_self
        out["layer_self_s"] = profile_layer_self(
            pstats.Stats(profiler).stats)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
