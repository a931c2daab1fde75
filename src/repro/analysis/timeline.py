"""Task-timeline analysis: Gantt rendering, utilization, exports.

The paper's per-task figures (8(c), 8(d), 10, 12) all derive from task
traces.  This module turns a :class:`~repro.core.metrics.JobResult` into:

* an ASCII Gantt chart of task execution per node (quick diagnosis of
  stragglers, idle slots, and phase boundaries in a terminal);
* per-node slot-utilization series;
* CSV/JSON exports for external plotting.

With the telemetry layer (PR 5), timeline analysis additionally works
from the *sampled* series of a structured run log
(:func:`phase_report` / :func:`phase_utilization`): instead of
reconstructing utilization from task endpoints, it averages the probe's
gauge samples — scheduler occupancy, device throughput, fabric rates —
inside each phase window, which is what ``repro report`` prints.
"""

from __future__ import annotations

import csv
import io
import json
from math import isnan, nan
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.core.metrics import JobResult, TaskRecord
from repro.obs.registry import parse_key
from repro.obs.runlog import window_mean

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.runlog import RunLog

__all__ = ["gantt", "slot_utilization", "to_csv", "to_json",
           "phase_boundaries", "phase_utilization", "phase_report"]

_PHASE_GLYPHS = {"compute": "c", "store": "s", "fetch": "f"}


def gantt(result: JobResult, width: int = 80,
          phases: Optional[Sequence[str]] = None) -> str:
    """Render one row per node; glyphs mark which phase occupied slots.

    Each column is a time bucket; the glyph is the phase with the most
    busy slot-time in that bucket on that node (uppercase when the node
    is at least half busy, lowercase otherwise, '.' when idle).
    """
    tasks = [t for t in result.all_tasks()
             if phases is None or t.phase in phases]
    if not tasks:
        return "(no tasks)"
    t_end = max(t.finished_at for t in tasks)
    if t_end <= 0:
        return "(zero-length job)"
    nodes = sorted({t.node for t in tasks})
    dt = t_end / width
    # busy[node][bucket][phase] = busy slot-seconds
    lines = []
    max_busy = _peak_slots(tasks)
    for node in nodes:
        buckets: List[Dict[str, float]] = [dict() for _ in range(width)]
        for t in (x for x in tasks if x.node == node):
            b0 = min(width - 1, int(t.started_at / dt))
            b1 = min(width - 1, int(max(t.started_at, t.finished_at - 1e-12)
                                    / dt))
            for b in range(b0, b1 + 1):
                lo = max(t.started_at, b * dt)
                hi = min(t.finished_at, (b + 1) * dt)
                if hi > lo:
                    buckets[b][t.phase] = buckets[b].get(t.phase, 0.0) + \
                        (hi - lo)
        row = []
        for b in range(width):
            if not buckets[b]:
                row.append(".")
                continue
            phase, busy = max(buckets[b].items(), key=lambda kv: kv[1])
            glyph = _PHASE_GLYPHS.get(phase, phase[0])
            utilization = busy / (dt * max_busy) if max_busy else 0.0
            row.append(glyph.upper() if utilization >= 0.5 else glyph)
        lines.append(f"node {node:3d} |{''.join(row)}|")
    header = (f"timeline 0 .. {t_end:.2f}s  "
              f"({', '.join(f'{g}={p}' for p, g in _PHASE_GLYPHS.items())}; "
              f"UPPER = >=50% busy)")
    return "\n".join([header] + lines)


def _peak_slots(tasks: Sequence[TaskRecord]) -> int:
    events = []
    for t in tasks:
        events.append((t.started_at, 1))
        events.append((t.finished_at, -1))
    events.sort()
    peak = run = 0
    for _, d in events:
        run += d
        peak = max(peak, run)
    return max(1, peak)


def slot_utilization(result: JobResult, node: int,
                     n_buckets: int = 50) -> np.ndarray:
    """Busy slot-seconds per time bucket for one node (all phases)."""
    tasks = [t for t in result.all_tasks() if t.node == node]
    t_end = max((t.finished_at for t in result.all_tasks()), default=0.0)
    out = np.zeros(n_buckets)
    if t_end <= 0:
        return out
    dt = t_end / n_buckets
    for t in tasks:
        b0 = min(n_buckets - 1, int(t.started_at / dt))
        b1 = min(n_buckets - 1, int(max(t.started_at,
                                        t.finished_at - 1e-12) / dt))
        for b in range(b0, b1 + 1):
            lo = max(t.started_at, b * dt)
            hi = min(t.finished_at, (b + 1) * dt)
            out[b] += max(0.0, hi - lo)
    return out


def phase_boundaries(result: JobResult) -> Dict[str, tuple]:
    """(start, end) per phase, for annotating plots."""
    return {name: (ph.start, ph.end) for name, ph in result.phases.items()}


def to_csv(result: JobResult) -> str:
    """Task trace as CSV (one row per task)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["task_id", "phase", "node", "queued_at", "started_at",
                     "finished_at", "duration", "wait", "bytes", "local"])
    for t in sorted(result.all_tasks(),
                    key=lambda x: (x.started_at, x.task_id)):
        writer.writerow([t.task_id, t.phase, t.node, t.queued_at,
                         t.started_at, t.finished_at, t.duration, t.wait,
                         t.bytes, t.local])
    return buf.getvalue()


# -- run-log (sampled series) analysis -------------------------------------
def _summed_series(log: "RunLog", metric: str) -> List[float]:
    """Sum a metric's labeled columns per sample row (NaN-skipping;
    NaN where no instance has a value)."""
    cols = [col for key, col in log.columns.items()
            if parse_key(key)[0] == metric]
    out: List[float] = []
    for i in range(len(log.times)):
        total, seen = 0.0, False
        for col in cols:
            v = col[i]
            if not isnan(v):
                total += v
                seen = True
        out.append(total if seen else nan)
    return out


def _window_delta(times: List[float], values: List[float],
                  t0: float, t1: float) -> float:
    """Increase of a monotone counter-style series across a window."""
    first = last = nan
    for t, v in zip(times, values):
        if isnan(v) or t > t1:
            continue
        if t < t0:
            first = v  # last sample at or before the window opens
        else:
            if isnan(first):
                first = v
            last = v
    if isnan(first) or isnan(last):
        return nan
    return last - first


def phase_utilization(log: "RunLog") -> Dict[str, Dict[str, float]]:
    """Per-phase utilization aggregates from a run log's sampled series.

    For each phase window (from ``phase-start``/``phase-end`` events):
    mean free scheduler slots and pending tasks, mean device queue depth,
    device read/write and network throughput averaged over the window
    (deltas of the monotone byte counters divided by the duration).
    """
    times = log.times
    free = _summed_series(log, "sched.free_slots")
    pending = _summed_series(log, "sched.pending_tasks")
    qd = _summed_series(log, "device.queue_depth")
    written = _summed_series(log, "device.bytes_written")
    read = _summed_series(log, "device.bytes_read")
    net = _summed_series(log, "fabric.bytes_completed")
    tx = _summed_series(log, "fabric.tx_bytes_per_s")
    out: Dict[str, Dict[str, float]] = {}
    for phase, (t0, t1) in sorted(log.phase_windows().items(),
                                  key=lambda kv: kv[1][0]):
        dur = max(t1 - t0, 1e-12)
        out[phase] = {
            "start": t0,
            "end": t1,
            "duration": t1 - t0,
            "free_slots": window_mean(times, free, t0, t1),
            "pending_tasks": window_mean(times, pending, t0, t1),
            "device_queue_depth": window_mean(times, qd, t0, t1),
            "device_write_bytes_per_s": _window_delta(times, written,
                                                      t0, t1) / dur,
            "device_read_bytes_per_s": _window_delta(times, read,
                                                     t0, t1) / dur,
            "net_bytes_per_s": _window_delta(times, net, t0, t1) / dur,
            "net_tx_rate_mean": window_mean(times, tx, t0, t1),
        }
    return out


def phase_report(log: "RunLog") -> str:
    """The ``repro report`` text summary of one structured run log."""
    MB = 1024.0 ** 2
    meta = log.meta
    head = (f"run: {meta.get('job_name', meta.get('workload', '?'))} "
            f"({meta.get('nodes', '?')} nodes, seed {meta.get('seed', '?')})"
            f" — {meta.get('job_time_s', 0.0):.2f}s, "
            f"{len(log.events)} events, {len(log.times)} samples")
    lines = [head]
    util = phase_utilization(log)
    if not util:
        lines.append("(no phase windows — was the run traced?)")
        return "\n".join(lines)

    def fmt(v: float, scale: float = 1.0) -> str:
        return "-" if isnan(v) else f"{v / scale:8.1f}"

    lines.append(f"{'phase':<10} {'window':<19} {'free':>8} {'pend':>8} "
                 f"{'dev-qd':>8} {'wr MB/s':>8} {'rd MB/s':>8} "
                 f"{'net MB/s':>8}")
    for phase, u in util.items():
        window = f"{u['start']:7.2f}s–{u['end']:7.2f}s"
        lines.append(
            f"{phase:<10} {window:<19} {fmt(u['free_slots'])} "
            f"{fmt(u['pending_tasks'])} {fmt(u['device_queue_depth'])} "
            f"{fmt(u['device_write_bytes_per_s'], MB)} "
            f"{fmt(u['device_read_bytes_per_s'], MB)} "
            f"{fmt(u['net_bytes_per_s'], MB)}")
    if log.events_of("launch"):
        # Job runs carry the full attempt stream: replace the flat
        # counter dump with the critical-path attribution (where the
        # wall-clock actually went) and the decision audit.
        from repro.obs.audit import audit_lines, build_audit
        from repro.obs.critpath import (attribution, bottleneck,
                                        critical_path)
        from repro.obs.spans import SpanRecorder
        rec = SpanRecorder.from_runlog(log)
        segs = critical_path(rec)
        attr = attribution(segs)
        total = sum(attr.values())
        lines.append("critical-path attribution:")
        for cat, secs in attr.items():
            share = (100.0 * secs / total) if total > 0 else 0.0
            lines.append(f"  {cat:<18s} {secs:10.3f}s  {share:5.1f}%")
        node, node_s, dev, dev_s = bottleneck(segs, log.meta)
        if node is not None:
            lines.append(f"  bottleneck: node {node} ({node_s:.3f}s), "
                         f"device {dev} ({dev_s:.3f}s)")
        lines.extend(audit_lines(build_audit(log.events)))
        return "\n".join(lines)
    summary = log.summary
    if summary:
        counters = summary.get("counters", {})
        launches = sum(v for k, v in counters.items()
                       if parse_key(k)[0] == "sched.launches")
        failures = sum(v for k, v in counters.items()
                       if parse_key(k)[0] == "sched.attempt_failures")
        lines.append(f"totals: {launches:.0f} task launches, "
                     f"{failures:.0f} attempt failures, "
                     f"{len(log.events_of('flow-start'))} traced flows")
    return "\n".join(lines)


def to_json(result: JobResult) -> str:
    """Full job result as JSON (metrics + per-task trace)."""
    payload = {
        "job_name": result.job_name,
        "job_time": result.job_time,
        "seed": result.seed,
        "phases": {
            name: {"start": ph.start, "end": ph.end,
                   "duration": ph.duration, "n_tasks": len(ph.tasks)}
            for name, ph in result.phases.items()
        },
        "node_intermediate": result.node_intermediate.tolist(),
        "node_task_counts": result.node_task_counts.tolist(),
        "tasks": [
            {"task_id": t.task_id, "phase": t.phase, "node": t.node,
             "queued_at": t.queued_at, "started_at": t.started_at,
             "finished_at": t.finished_at, "bytes": t.bytes,
             "local": t.local}
            for t in result.all_tasks()
        ],
    }
    return json.dumps(payload, indent=2)
