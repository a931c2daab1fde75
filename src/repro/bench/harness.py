"""Benchmark harness: timing, the ``BENCH_*.json`` schema, and --check.

The harness times each scenario, then writes one ``BENCH_<name>.json``
per scenario in a stable schema so the repository's perf trajectory can
accumulate across commits (see DESIGN.md §8 for how to read it):

.. code-block:: json

    {
      "schema": 5,
      "name": "shuffle_wave",
      "quick": false,
      "unix_time": 1754000000.0,
      "optimized":  {"wall_s": ..., "events": ..., "events_per_s": ...,
                     "kernel_mode": "c", "sim_time_s": ...,
                     "metrics": {...}, "fingerprint_sha256": "..."},
      "check": {"ran": true, "passed": true},
      "telemetry": {"wall_s": ..., "events_per_s": ...,
                    "overhead_pct": 2.1, "fingerprint_matches": true},
      "spans": {"wall_s": ..., "events_per_s": ...,
                "overhead_pct": 3.0, "fingerprint_matches": true,
                "n_spans": 1234}
    }

``check.passed`` (``--check``) asserts the run's fingerprint digest
equals the committed golden in ``goldens.json`` for the scenario at
that scale: **byte-identical** simulation results (same completion
times, same bytes completed) to the tree the goldens were captured on.
Any behaviour drift — in an optimized kernel or in code every run
shares, like the scheduler — fails the check.  The goldens hold in both
kernel modes and for any ``PYTHONHASHSEED``; recapture them with
``tools/capture_bench_goldens.py`` only for an intended model change.

``telemetry`` (schema 2) times the optimized engine a second time with
a full observation bundle attached — gauges wired, run-log sink
installed, probe sampling — so the tracked perf trajectory also records
what observation *costs* (``overhead_pct``, vs the bare optimized wall)
and re-asserts per commit that it costs nothing in *behavior*
(``fingerprint_matches``).

Schema 3 adds:

* ``kernel_mode`` per timed run — ``"c"`` when both compiled kernels
  (:mod:`repro.net.fastalloc`, :mod:`repro.sim.fastdrain`) loaded and
  ``"numpy"`` when the engine fell back to vectorized python.  Numbers
  from different kernel modes are not comparable; the column makes that
  visible in the trajectory instead of silently mixing them.
* ``repro bench --profile`` — a cProfile'd second optimized run per
  scenario, written as ``PROFILE_<name>.pstats`` (load with
  :mod:`pstats` or snakeviz) plus a ``PROFILE_<name>.json`` top-N
  hot-function table for diffing across commits without tooling.
* ``repro bench --compare OLD`` — prints the events/s delta against a
  previous ``BENCH_*.json`` (or a directory of them), flagging drops
  greater than 5 % as ``REGRESSION``.  Informational only: the exit
  code stays 0 so noisy CI boxes don't flap, but the highlight makes
  drift impossible to miss in the log.

Schema 4 adds ``spans``: a fourth timed run that attaches the same
telemetry bundle *and* folds the event stream into the span tree +
critical path (:mod:`repro.obs.spans` / :mod:`repro.obs.critpath`)
inside the timing window — what a ``repro explain`` costs end to end
(``overhead_pct`` vs the bare optimized wall, ``n_spans`` assembled,
and ``fingerprint_matches`` re-asserting that explanation never
perturbs the simulation).

Schema 5 drops ``reference`` and ``speedup_events_per_s`` with the
reference engine they measured; ``--check`` compares against the
committed goldens instead.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.bench.scenarios import SCENARIOS, ScenarioResult, run_scenario
from repro.experiments.runner import map_parallel

__all__ = ["BenchReport", "bench_scenario", "kernel_mode",
           "profile_scenario", "load_compare", "run_bench", "main"]

SCHEMA_VERSION = 5

#: Committed per-scenario fingerprint digests ``--check`` compares against,
#: ``{"quick"|"full": {scenario: sha256}}`` (tools/capture_bench_goldens.py).
GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "goldens.json")


def kernel_mode() -> str:
    """Which inner-loop implementation produced a timed run's numbers.

    ``"c"`` — both compiled kernels (fabric allocator + fluid drain /
    fair share) loaded; ``"numpy"`` — the engine fell back to the
    vectorized python paths (no C compiler, or ``REPRO_NO_CKERNEL=1``).
    events/s from different modes are not comparable, so the column
    travels with every row.
    """
    from repro.net import fastalloc
    from repro.sim import fastdrain
    return "c" if (fastalloc.AVAILABLE and fastdrain.AVAILABLE) else "numpy"


@dataclass
class TimedRun:
    """One timed scenario execution."""

    mode: str
    wall_s: float
    result: ScenarioResult

    @property
    def events_per_s(self) -> float:
        return self.result.events / self.wall_s if self.wall_s > 0 else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "wall_s": round(self.wall_s, 6),
            "events": self.result.events,
            "events_per_s": round(self.events_per_s, 1),
            "kernel_mode": kernel_mode(),
            "sim_time_s": self.result.sim_time,
            "metrics": self.result.metrics,
            "fingerprint_sha256": fingerprint_digest(
                self.result.fingerprint),
        }


@dataclass
class BenchReport:
    """Everything measured for one scenario."""

    name: str
    quick: bool
    optimized: TimedRun
    check_ran: bool = False
    check_passed: Optional[bool] = None
    telemetry: Optional[TimedRun] = None
    telemetry_matches: Optional[bool] = None
    spans: Optional[TimedRun] = None
    spans_matches: Optional[bool] = None
    spans_count: int = 0

    @property
    def telemetry_overhead_pct(self) -> Optional[float]:
        if self.telemetry is None or self.optimized.wall_s <= 0:
            return None
        return (self.telemetry.wall_s - self.optimized.wall_s) \
            / self.optimized.wall_s * 100.0

    @property
    def spans_overhead_pct(self) -> Optional[float]:
        if self.spans is None or self.optimized.wall_s <= 0:
            return None
        return (self.spans.wall_s - self.optimized.wall_s) \
            / self.optimized.wall_s * 100.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "quick": self.quick,
            "unix_time": time.time(),
            "optimized": self.optimized.to_json(),
            "check": {"ran": self.check_ran, "passed": self.check_passed},
            "telemetry": (None if self.telemetry is None else {
                "wall_s": round(self.telemetry.wall_s, 6),
                "events_per_s": round(self.telemetry.events_per_s, 1),
                "overhead_pct": round(self.telemetry_overhead_pct, 2),
                "fingerprint_matches": self.telemetry_matches,
            }),
            "spans": (None if self.spans is None else {
                "wall_s": round(self.spans.wall_s, 6),
                "events_per_s": round(self.spans.events_per_s, 1),
                "overhead_pct": round(self.spans_overhead_pct, 2),
                "fingerprint_matches": self.spans_matches,
                "n_spans": self.spans_count,
            }),
        }


def fingerprint_digest(fingerprint: Any) -> str:
    """Stable digest of a scenario fingerprint for the JSON report."""
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


def load_goldens(quick: bool) -> Dict[str, str]:
    """The committed ``{scenario: digest}`` goldens at one scale."""
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)["quick" if quick else "full"]


def _timed(name: str, quick: bool) -> TimedRun:
    # Keep collector pauses out of the measurement window; the engine's
    # hot paths are largely about allocation behaviour.
    gc.collect()
    start = time.perf_counter()
    result = run_scenario(name, quick=quick)
    wall = time.perf_counter() - start
    return TimedRun("optimized", wall, result)


def _timed_telemetry(name: str, quick: bool,
                     probe_period: float = 0.25):
    """Time the optimized engine with a full telemetry bundle attached.

    Returns ``(TimedRun, Telemetry)`` — the bundle is handed back so the
    CLI can optionally export the captured trace/run log.  Gauge wiring
    and the bundle's construction happen inside the window on purpose:
    that setup is part of what observation costs.
    """
    from repro.obs.telemetry import Telemetry
    gc.collect()
    start = time.perf_counter()
    telemetry = Telemetry(probe_period=probe_period)
    result = run_scenario(name, quick=quick, telemetry=telemetry)
    wall = time.perf_counter() - start
    return TimedRun("telemetry", wall, result), telemetry


def _timed_spans(name: str, quick: bool, probe_period: float = 0.25):
    """Time the full explainer path: instrumented run + span assembly.

    The span tree and critical path are folded *inside* the window —
    this row answers "what does a ``repro explain`` cost end to end"
    and tracks the span recorder's events/s next to the raw engine's.
    Returns ``(TimedRun, n_spans)``.
    """
    from repro.obs.critpath import critical_path
    from repro.obs.spans import SpanRecorder
    from repro.obs.telemetry import Telemetry
    gc.collect()
    start = time.perf_counter()
    telemetry = Telemetry(probe_period=probe_period)
    result = run_scenario(name, quick=quick, telemetry=telemetry)
    rec = SpanRecorder.from_telemetry(telemetry)
    critical_path(rec)
    wall = time.perf_counter() - start
    return TimedRun("spans", wall, result), len(rec.spans)


def bench_scenario(name: str, quick: bool = False, check: bool = False,
                   telemetry: bool = True,
                   capture_dir: Optional[str] = None) -> BenchReport:
    """Benchmark one scenario; optionally check it against its golden.

    Unless disabled, a second timed run measures telemetry overhead and
    asserts the instrumented fingerprint matches the bare one.  With
    ``capture_dir``, that run's Chrome trace and run log are written to
    ``TRACE_<name>.json`` / ``LOG_<name>.jsonl`` there.
    """
    optimized = _timed(name, quick)
    report = BenchReport(name=name, quick=quick, optimized=optimized)
    if check:
        report.check_ran = True
        report.check_passed = (load_goldens(quick).get(name)
                               == fingerprint_digest(
                                   optimized.result.fingerprint))
    if telemetry:
        report.telemetry, bundle = _timed_telemetry(name, quick)
        report.telemetry_matches = (
            optimized.result.fingerprint
            == report.telemetry.result.fingerprint)
        if capture_dir is not None:
            from repro.obs.export import write_chrome_trace, write_runlog
            os.makedirs(capture_dir, exist_ok=True)
            bundle.meta.setdefault("job_name", f"bench:{name}")
            write_chrome_trace(
                os.path.join(capture_dir, f"TRACE_{name}.json"), bundle)
            write_runlog(
                os.path.join(capture_dir, f"LOG_{name}.jsonl"), bundle)
        report.spans, report.spans_count = _timed_spans(name, quick)
        report.spans_matches = (
            optimized.result.fingerprint == report.spans.result.fingerprint)
    return report


def profile_scenario(name: str, quick: bool = False, out_dir: str = ".",
                     top_n: int = 25) -> Dict[str, str]:
    """cProfile one optimized run; write pstats + a top-N JSON table.

    Two artifacts land in ``out_dir``: ``PROFILE_<name>.pstats`` (the
    full profile, for ``python -m pstats`` or snakeviz) and
    ``PROFILE_<name>.json`` — the ``top_n`` hottest functions by
    tottime, which diffs cleanly across commits and is what CI uploads.
    Runs single-process and separately from the timed runs: the
    profiler's tracing overhead must never contaminate the tracked
    events/s trajectory.
    """
    import cProfile
    gc.collect()
    prof = cProfile.Profile()
    prof.enable()
    try:
        run_scenario(name, quick=quick)
    finally:
        prof.disable()
    os.makedirs(out_dir, exist_ok=True)
    pstats_path = os.path.join(out_dir, f"PROFILE_{name}.pstats")
    prof.dump_stats(pstats_path)
    import pstats
    rows = []
    stats = pstats.Stats(prof)
    for (filename, line, func), (_cc, nc, tt, ct, _callers) in \
            stats.stats.items():
        rows.append({"file": filename, "line": line, "function": func,
                     "ncalls": nc, "tottime_s": round(tt, 6),
                     "cumtime_s": round(ct, 6)})
    rows.sort(key=lambda r: r["tottime_s"], reverse=True)
    json_path = os.path.join(out_dir, f"PROFILE_{name}.json")
    with open(json_path, "w") as fh:
        json.dump({"schema": 1, "name": name, "quick": quick,
                   "kernel_mode": kernel_mode(),
                   "sorted_by": "tottime_s", "top": rows[:top_n]},
                  fh, indent=2)
        fh.write("\n")
    return {"pstats": pstats_path, "json": json_path}


def load_compare(path: str) -> Dict[str, Dict[str, Any]]:
    """Read old ``BENCH_*.json`` report(s) for ``--compare``.

    Accepts either one report file or a directory of them; returns a
    ``{scenario_name: report_dict}`` map.  Any schema version works —
    only ``optimized.events_per_s`` is consulted.
    """
    paths = []
    if os.path.isdir(path):
        paths = [os.path.join(path, fn) for fn in sorted(os.listdir(path))
                 if fn.startswith("BENCH_") and fn.endswith(".json")]
    else:
        paths = [path]
    old: Dict[str, Dict[str, Any]] = {}
    for p in paths:
        with open(p) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "name" in doc and "optimized" in doc:
            old[doc["name"]] = doc
    return old


#: events/s drop (vs the --compare baseline) flagged as a regression.
REGRESSION_THRESHOLD_PCT = 5.0


def compare_line(report: BenchReport,
                 old: Dict[str, Any]) -> Optional[str]:
    """One ``--compare`` delta line for a scenario (None if no data)."""
    try:
        old_eps = float(old["optimized"]["events_per_s"])
    except (KeyError, TypeError, ValueError):
        return None
    if old_eps <= 0:
        return None
    new_eps = report.optimized.events_per_s
    delta_pct = (new_eps - old_eps) / old_eps * 100.0
    flag = ("  << REGRESSION"
            if delta_pct < -REGRESSION_THRESHOLD_PCT else "")
    return (f"  vs old: {old_eps:12,.0f} -> {new_eps:12,.0f} events/s "
            f"({delta_pct:+.1f}%){flag}")


def write_report(report: BenchReport, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{report.name}.json")
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_bench(scenarios: Optional[List[str]] = None, quick: bool = False,
              check: bool = False,
              out_dir: str = ".", jobs: int = 1,
              telemetry: bool = True,
              capture_dir: Optional[str] = None,
              profile: bool = False,
              compare: Optional[str] = None) -> List[BenchReport]:
    """Run the selected scenarios and write one ``BENCH_*.json`` each.

    ``jobs > 1`` fans scenarios out across a process pool (the same
    fan-out the experiment sweep runner uses).  Simulation results —
    and hence the ``--check`` identity verdicts — are unaffected, but
    the scenarios share the machine, so treat parallel wall-clock
    timings as smoke numbers, not the tracked perf trajectory.

    ``profile`` adds a cProfile'd extra run per scenario (sequential,
    in this process, after the timed run) writing ``PROFILE_<name>``
    artifacts next to the reports.  ``compare`` prints events/s deltas
    against old report(s) at that path, flagging >5 % drops.
    """
    names = scenarios if scenarios else list(SCENARIOS)
    old_reports = load_compare(compare) if compare else {}
    worker = functools.partial(bench_scenario, quick=quick, check=check,
                               telemetry=telemetry, capture_dir=capture_dir)
    reports_out = map_parallel(worker, names, jobs=jobs)
    reports = []
    for name, report in zip(names, reports_out):
        path = write_report(report, out_dir)
        line = (f"{name:14s} optimized {report.optimized.events_per_s:12,.0f}"
                f" events/s ({report.optimized.wall_s:.3f}s wall)")
        if report.check_ran:
            line += f" | check {'OK' if report.check_passed else 'FAILED'}"
        if report.telemetry is not None:
            match = "OK" if report.telemetry_matches else "DIVERGED"
            line += (f" | telemetry {report.telemetry_overhead_pct:+.1f}% "
                     f"({match})")
        if report.spans is not None:
            match = "OK" if report.spans_matches else "DIVERGED"
            line += (f" | spans {report.spans_overhead_pct:+.1f}% "
                     f"({match})")
        print(line)
        if name in old_reports:
            delta = compare_line(report, old_reports[name])
            if delta is not None:
                print(delta)
        print(f"  wrote {path}")
        if profile:
            artifacts = profile_scenario(name, quick=quick, out_dir=out_dir)
            print(f"  wrote {artifacts['pstats']} + {artifacts['json']}")
        reports.append(report)
    return reports


def main(args) -> int:
    """Entry point for ``repro bench`` (argparse namespace from the CLI)."""
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        print(f"--jobs must be >= 1, got {jobs}")
        return 2
    compare = getattr(args, "compare", None)
    if compare and not os.path.exists(compare):
        print(f"--compare path does not exist: {compare}")
        return 2
    reports = run_bench(scenarios=args.scenario or None, quick=args.quick,
                        check=args.check,
                        out_dir=args.out_dir, jobs=jobs,
                        telemetry=not getattr(args, "no_telemetry", False),
                        capture_dir=getattr(args, "capture_dir", None),
                        profile=getattr(args, "profile", False),
                        compare=compare)
    if args.check and not all(r.check_passed for r in reports):
        failed = [r.name for r in reports if not r.check_passed]
        print(f"CHECK FAILED: fingerprints differ from the committed "
              f"goldens ({'quick' if args.quick else 'full'} scale) "
              f"on: {', '.join(failed)}")
        return 1
    bad = [r.name for r in reports
           if r.telemetry is not None and not r.telemetry_matches]
    if bad:
        print(f"TELEMETRY CHECK FAILED: instrumented runs diverged "
              f"on: {', '.join(bad)}")
        return 1
    bad = [r.name for r in reports
           if r.spans is not None and not r.spans_matches]
    if bad:
        print(f"SPANS CHECK FAILED: explained runs diverged "
              f"on: {', '.join(bad)}")
        return 1
    return 0
