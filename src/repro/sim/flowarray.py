"""The fluid-flow core shared by :class:`~repro.sim.fluid.FluidPipe` and
:class:`~repro.net.fabric.Fabric`.

Three pieces:

* :class:`FlowTable` — the columnar flow store.  Every table carries
  float64 ``remaining`` and ``rate`` columns; owners declare only their
  extra columns (the fabric's ``src``/``dst``/``cap``), all 8-byte so
  the C drain compacts them as raw words.  Appending a
  row is O(1) amortized — storage doubles when full instead of
  reallocating every column on every arrival (``np.append`` copies the
  whole array, which turns a shuffle wave's O(n) arrivals into O(n²)
  work).  :meth:`FlowTable.drain` is the one per-event drain: the C
  kernel (:mod:`repro.sim.fastdrain`) when it loaded — decrement,
  finish test and compaction of every column in one native pass —
  otherwise one vectorized NumPy pass.
* :class:`Flow` — one transfer in flight (completion event, tag, size).
* :class:`FlowSet` — the event skeleton both fluid models run on: the
  flow list, same-timestamp reallocation coalescing, the token-guarded
  completion-horizon timer, and the drain-and-complete step.  A
  subclass supplies only its rate policy (:meth:`FlowSet._allocate`)
  and what a completion means (:meth:`FlowSet._finished`).

Removal is **order-preserving** by design, not swap-removal: the
simulation's determinism contract schedules completion events in flow
order, and two flows finishing at the same timestamp must enqueue
their events in flow order, or downstream same-timestamp scheduling
decisions diverge.  A stable compaction keeps survivor order identical
to a boolean-mask rebuild while still avoiding per-arrival reallocation and
per-completion full-array copies of every column.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.sim import fastdrain

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.events import Event

__all__ = ["Flow", "FlowSet", "FlowTable"]

_MIN_CAPACITY = 16


class FlowTable:
    """Parallel preallocated columns with a live-length cursor.

    Parameters
    ----------
    extra:
        ``name=dtype`` pairs declaring columns beyond the fixed float64
        ``remaining`` and ``rate``; each dtype must be 8 bytes wide
        (``int64``, ``float64``).  Append order is ``remaining``,
        ``rate``, then the extras in declaration order.
    """

    __slots__ = ("n", "_capacity", "_names", "_extra", "_cols", "_fin",
                 "addr", "_p_fin", "_extra_ptrs", "_p_extra")

    def __init__(self, **extra: object) -> None:
        for name, dtype in extra.items():
            if np.dtype(dtype).itemsize != 8:
                raise ValueError(
                    f"column {name!r} must be 8 bytes wide, got {dtype}")
        self.n = 0
        self._capacity = 0
        self._extra: Tuple[str, ...] = tuple(extra)
        self._names: Tuple[str, ...] = ("remaining", "rate") + self._extra
        dtypes = {"remaining": np.float64, "rate": np.float64, **extra}
        self._cols: Dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dtype) for name, dtype in dtypes.items()}
        self._grow(_MIN_CAPACITY)

    def col(self, name: str) -> np.ndarray:
        """Live view of one column (no copy; length == ``n``)."""
        return self._cols[name][:self.n]

    def append(self, *values: float) -> int:
        """Append one row (values in append order); returns its index."""
        if len(values) != len(self._names):
            raise ValueError(
                f"expected {len(self._names)} values, got {len(values)}")
        n = self.n
        if n == self._capacity:
            self._grow(2 * n)
        cols = self._cols
        for name, value in zip(self._names, values):
            cols[name][n] = value
        self.n = n + 1
        return n

    def _grow(self, capacity: int) -> None:
        n = self.n
        for name, arr in self._cols.items():
            bigger = np.empty(capacity, dtype=arr.dtype)
            bigger[:n] = arr[:n]
            self._cols[name] = bigger
        self._fin = np.empty(capacity, dtype=np.int64)
        self._capacity = capacity
        # Raw data addresses for the C kernels: computing arr.ctypes.data
        # allocates a wrapper object per access, so the hot path reads
        # these cached integers (valid until the next reallocation).
        self.addr: Dict[str, int] = {
            name: arr.ctypes.data for name, arr in self._cols.items()}
        self._p_fin = self._fin.ctypes.data
        self._extra_ptrs = np.array([self.addr[name] for name in self._extra],
                                    dtype=np.uint64)
        self._p_extra = self._extra_ptrs.ctypes.data

    def drain(self, dt: float) -> List[int]:
        """Advance every row by ``dt`` and remove the finished ones.

        Applies ``remaining -= rate * dt`` (one multiply and one
        subtract per row), removes the rows left at ``<= 1e-6``
        order-preservingly, and returns their pre-removal indices in
        ascending order.  The C kernel and the NumPy fallback produce
        bit-identical columns (see ``_fastdrain.c``).
        """
        n = self.n
        raw = fastdrain.RAW_DRAIN
        if raw is not None:
            addr = self.addr
            k = raw(n, dt, addr["remaining"], addr["rate"], self._p_fin,
                    len(self._extra), self._p_extra)
            if k == 0:
                return []
            self.n = n - k
            return self._fin[:k].tolist()
        rem = self._cols["remaining"][:n]
        rem -= self._cols["rate"][:n] * dt
        fin = np.flatnonzero(rem <= 1e-6)
        if fin.size == 0:
            return []
        self._compact(fin)
        return fin.tolist()

    def horizon(self) -> float:
        """Time until the earliest row finishes at current rates
        (``math.inf`` when no row has a positive rate)."""
        n = self.n
        rate = self._cols["rate"][:n]
        positive = rate > 0
        if not positive.any():
            return math.inf
        return float((self._cols["remaining"][:n][positive]
                      / rate[positive]).min())

    def remove(self, indices: np.ndarray) -> None:
        """Remove the rows at ``indices`` (sorted ascending, unique),
        preserving the relative order of the survivors."""
        if len(indices):
            self._compact(indices)

    def _compact(self, indices: np.ndarray) -> None:
        """Drop ``indices`` from the live count, sliding the survivors
        down over the holes."""
        n = self.n
        m = n - len(indices)
        if m:
            keep = np.ones(n, dtype=bool)
            keep[indices] = False
            survivors = np.flatnonzero(keep)
            for arr in self._cols.values():
                # Fancy indexing materializes the gather before the
                # write, so the overlapping in-place assignment is safe.
                arr[:m] = arr[:n][survivors]
        self.n = m

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlowTable {self.n}/{self._capacity} rows, "
                f"cols={list(self._names)}>")


class Flow:
    """One transfer in flight through a :class:`FlowSet`.

    The authoritative ``remaining``/``rate`` live in the owner's
    :class:`FlowTable`; the object mirrors ``remaining`` at admission
    and completion and carries the completion event and tag.
    """

    __slots__ = ("size", "remaining", "rate", "cap", "done", "started_at",
                 "tag")

    def __init__(self, size: float, cap: float, done: "Event",
                 started_at: float, tag: Any) -> None:
        size = float(size)
        cap = float(cap)
        # Either would admit a flow that never completes.
        if not 0.0 <= size < math.inf:
            raise ValueError(
                f"transfer size must be finite and >= 0, got {size}")
        if not cap > 0.0:
            raise ValueError(f"rate cap must be positive, got {cap}")
        self.size = size
        self.remaining = size
        self.rate = 0.0
        self.cap = cap
        self.done = done
        self.started_at = started_at
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<{type(self).__name__} tag={self.tag!r} "
                f"{self.remaining:.0f}/{self.size:.0f}B @{self.rate:.0f}B/s>")


class FlowSet:
    """Flows sharing capacity, with rates piecewise-constant between
    flow events.

    At each event the set drains every flow up to the present
    (:meth:`_advance`), completes the finished ones in flow order, and —
    once per simulated instant — recomputes rates and re-arms a single
    timer for the earliest completion.

    Subclasses implement :meth:`_allocate` and :meth:`_finished`.

    Parameters
    ----------
    extra_columns:
        ``name=dtype`` columns the subclass keeps per flow besides
        ``remaining`` and ``rate`` (see :class:`FlowTable`).
    """

    def __init__(self, sim: "Simulator", **extra_columns: object) -> None:
        self.sim = sim
        self.flows: List[Flow] = []
        self._tab = FlowTable(**extra_columns)
        self._last_advance = sim.now
        self._timer_token = 0
        self._realloc_pending = False
        self.bytes_completed = 0.0

    @property
    def n_active(self) -> int:
        return len(self.flows)

    # -- subclass policy ----------------------------------------------------
    def _allocate(self) -> float:
        """Write every flow's rate into the ``rate`` column; return the
        time until the earliest completion (``math.inf`` if none)."""
        raise NotImplementedError

    def _finished(self, finished: Sequence[Flow]) -> None:
        """Complete ``finished`` (already removed, ascending flow order)."""
        raise NotImplementedError

    # -- skeleton -----------------------------------------------------------
    def _admit(self, flow: Flow, *extra: object) -> None:
        """Start ``flow`` (``extra``: its values for the extra columns)."""
        self._advance()
        self.flows.append(flow)
        self._tab.append(flow.remaining, 0.0, *extra)
        self._schedule_realloc()

    def _advance(self) -> None:
        """Apply current rates over the elapsed interval."""
        now = self.sim.now
        dt = now - self._last_advance
        self._last_advance = now
        if dt <= 0 or not self.flows:
            return
        fin = self._tab.drain(dt)
        if not fin:
            return
        flows = self.flows
        finished = [flows[i] for i in fin]
        if len(fin) == len(flows):
            flows.clear()
        else:
            for i in reversed(fin):
                del flows[i]
        for f in finished:
            f.remaining = 0.0
            self.bytes_completed += f.size
        self._finished(finished)

    def _schedule_realloc(self) -> None:
        """Coalesce all same-timestamp flow changes into one allocation.

        Chained transfers complete and immediately issue the next request
        at the same simulated instant; recomputing rates once per instant
        instead of once per change halves the allocator load (and
        evaluates a load-dependent capacity once, with the settled flow
        count).
        """
        if self._realloc_pending:
            return
        self._realloc_pending = True
        self.sim.schedule_callback(0.0, self._do_realloc)

    def _do_realloc(self) -> None:
        self._realloc_pending = False
        self._advance()   # collect completions from late same-time changes
        self._reallocate()

    def _reallocate(self) -> None:
        """Recompute rates and re-arm the completion timer."""
        horizon = self._allocate()
        self._timer_token += 1
        if math.isfinite(horizon):
            # Clamp so now+horizon strictly advances the clock even for
            # near-finished flows (otherwise a sub-ULP horizon respins the
            # timer at the same timestamp forever).
            self.sim.schedule_callback(max(horizon, 1e-9), self._on_timer,
                                       self._timer_token)

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return  # stale timer; a newer reallocation superseded it
        self._advance()
        self._schedule_realloc()
