"""Reader for the JSONL run log written by :mod:`repro.obs.export`.

Loads the log back into columnar form for analysis
(:mod:`repro.analysis.timeline`) and the ``repro report`` summary:
``meta`` header, the ordered event list, the sampled series as a time
axis plus one column per gauge key, and the instrument-endpoint summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import nan
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["RunLog", "load_runlog", "window_mean"]


def window_mean(times: List[float], values: List[float],
                t0: float, t1: float) -> float:
    """Mean of ``values`` sampled at ``times`` within ``[t0, t1]``
    (NaN-skipping; NaN when the window holds no samples)."""
    total = 0.0
    count = 0
    for t, v in zip(times, values):
        if t0 <= t <= t1 and v == v:
            total += v
            count += 1
    return total / count if count else nan


@dataclass
class RunLog:
    """One parsed run log."""

    meta: Dict[str, Any] = field(default_factory=dict)
    #: ``{"t": ..., "kind": ..., ...payload}`` dicts in log order.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Sample time axis.
    times: List[float] = field(default_factory=list)
    #: Gauge key -> one value per entry of :attr:`times` (NaN = missing).
    columns: Dict[str, List[float]] = field(default_factory=dict)
    #: Instrument endpoints (the ``summary`` footer), if present.
    summary: Dict[str, Any] = field(default_factory=dict)

    def events_of(self, kind: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e.get("kind") == kind]

    def phase_windows(self) -> Dict[str, Tuple[float, float]]:
        """Phase name -> (start, end) from phase-start/phase-end events;
        a phase missing its end closes at the last known timestamp.

        Iterative phases carry a ``round`` in their payload; their
        windows are keyed ``store[2]``-style so rounds do not collide
        (without the suffix round N's end would close round 0's start).
        """
        out: Dict[str, Tuple[float, float]] = {}
        starts: Dict[str, float] = {}
        last_t = self.times[-1] if self.times else 0.0
        for e in self.events:
            last_t = max(last_t, float(e.get("t", 0.0)))
        for e in self.events:
            kind = e.get("kind")
            if kind not in ("phase-start", "phase-end"):
                continue
            name = e["phase"]
            if e.get("round") is not None:
                name = f"{name}[{e['round']}]"
            if kind == "phase-start":
                starts[name] = float(e["t"])
            elif name in starts:
                out[name] = (starts.pop(name), float(e["t"]))
        for name, t0 in starts.items():
            out[name] = (t0, last_t)
        return out

    def column(self, key: str) -> List[float]:
        return self.columns.get(key, [nan] * len(self.times))

    def window_mean(self, key: str, t0: float, t1: float) -> float:
        """Mean of a sampled column over ``[t0, t1]`` (see
        :func:`window_mean`)."""
        return window_mean(self.times, self.column(key), t0, t1)


def load_runlog(path: str) -> RunLog:
    log = RunLog()
    with open(path) as fh:
        rows = [ln.strip() for ln in fh]
    rows = [ln for ln in rows if ln]
    for i, raw in enumerate(rows):
        try:
            rec = json.loads(raw)
        except ValueError:
            if i == len(rows) - 1:
                # A torn final line (writer killed mid-record): salvage
                # everything before it.  Garbage anywhere else is a
                # corrupt log and stays an error.
                break
            raise
        typ = rec.get("type")
        if typ == "meta":
            log.meta = {k: v for k, v in rec.items() if k != "type"}
        elif typ == "event":
            log.events.append(
                {k: v for k, v in rec.items() if k != "type"})
        elif typ == "sample":
            n_prev = len(log.times)
            log.times.append(float(rec["t"]))
            values = rec.get("values", {})
            for key, val in values.items():
                col = log.columns.get(key)
                if col is None:
                    col = log.columns[key] = [nan] * n_prev
                col.append(nan if val is None else float(val))
            for key, col in log.columns.items():
                if len(col) <= n_prev:
                    col.append(nan)
        elif typ == "summary":
            log.summary = {k: v for k, v in rec.items() if k != "type"}
    return log
