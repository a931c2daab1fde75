"""Fluid-flow shared-bandwidth channels.

A :class:`FluidPipe` carries any number of concurrent flows that share its
capacity under max–min fairness with optional per-flow rate caps.  The
aggregate capacity may be a function of the number of active flows, which
is how concurrency-dependent device behaviour (e.g. SSD garbage-collection
interference) is expressed.

Rates are piecewise-constant between *flow events* (a flow starting or
finishing, or an explicit capacity change); at each event the pipe advances
all remaining-byte counters and reschedules the next completion.  This is
the standard flow-level (fluid) approximation used by network and storage
simulators: per-packet behaviour is abstracted away but contention,
fair-sharing, and completion-time dynamics are preserved.

Hot-path notes (see DESIGN.md §8/§12): the pipe keeps
``remaining``/``rate`` in columnar float64 arrays parallel to the flow
list, so the per-event drain is one C-kernel call
(:mod:`repro.sim.fastdrain`) or one vectorized NumPy pass instead of a
Python loop; finished flows are compacted out order-preservingly
(``list.remove`` per completion is O(n²) across a drain); the
sorted-cap order feeding :func:`fair_share` is cached between events
while the flow set is unchanged; same-timestamp reallocations are
coalesced behind a pending flag exactly as ``Fabric._schedule_realloc``
does; and :attr:`FluidPipe.load` reads an epoch-cached aggregate
(O(1) between flow events) instead of rescanning every flow.  The
pre-optimization per-flow loops survive only as a test oracle
(``tests/oracles.py``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

import numpy as np

from repro.sim import fastdrain
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["FluidPipe", "Flow", "fair_share"]


def fair_share(capacity: float, caps: Sequence[float],
               order: Optional[Sequence[int]] = None) -> List[float]:
    """Max–min fair allocation of ``capacity`` among flows with rate caps.

    Returns one rate per entry in ``caps``.  Uncapped flows should pass
    ``math.inf``.  The result is work-conserving: either every flow is at
    its cap or the full capacity is used.

    ``order`` is an optional precomputed ascending-cap processing order
    (the stable sort of ``range(len(caps))`` by cap); callers that
    reallocate repeatedly over an unchanged flow set pass their cached
    order to skip the O(n log n) sort.
    """
    n = len(caps)
    if n == 0:
        return []
    rates = [0.0] * n
    remaining = capacity
    # Process flows in ascending cap order; each round gives every unfixed
    # flow an equal share, fixing flows whose cap is below that share.
    if order is None:
        order = sorted(range(n), key=caps.__getitem__)
    unfixed = n
    for idx in order:
        share = remaining / unfixed
        give = min(caps[idx], share)
        rates[idx] = give
        remaining -= give
        unfixed -= 1
    return rates


class Flow:
    """One transfer through a :class:`FluidPipe`."""

    __slots__ = ("pipe", "size", "remaining", "rate", "cap", "done",
                 "started_at", "tag")

    def __init__(self, pipe: "FluidPipe", size: float, cap: float,
                 done: Event, tag: Any) -> None:
        self.pipe = pipe
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.cap = float(cap)
        self.done = done
        self.started_at = pipe.sim.now
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Flow tag={self.tag!r} {self.remaining:.0f}/{self.size:.0f}B"
                f" @{self.rate:.0f}B/s>")


class FluidPipe:
    """A shared-bandwidth channel with max–min fair sharing.

    Parameters
    ----------
    capacity:
        Aggregate bandwidth in bytes/second (ignored if ``capacity_fn``).
    capacity_fn:
        Optional ``f(n_active_flows) -> bytes_per_second``; re-evaluated at
        every flow event, enabling load-dependent aggregate throughput.
    """

    def __init__(self, sim: "Simulator", capacity: float,
                 name: str = "",
                 capacity_fn: Optional[Callable[[int], float]] = None) -> None:
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        self.sim = sim
        self.name = name
        self._capacity = float(capacity)
        self.capacity_fn = capacity_fn
        self.flows: List[Flow] = []
        self._last_advance = sim.now
        self._timer_token = 0
        self._realloc_pending = False
        # Cached ascending-cap processing order for fair_share, valid
        # while the flow set is unchanged (None = recompute).
        self._order: Optional[List[int]] = None
        self._caps_cache: List[float] = []
        # Columnar remaining/rate parallel to ``self.flows``: the
        # authoritative per-flow counters live here so the
        # drain is one kernel call; Flow objects mirror at completion
        # and :meth:`advance` boundaries, like Fabric's NetFlow.
        self._a_rem = np.empty(16)
        self._a_rate = np.empty(16)
        self._fin_buf = np.empty(16, dtype=np.int64)
        # Sorted-cap order mirrored as int64/float64 arrays for the C
        # fair-share kernel, rebuilt with the order cache.
        self._caps_arr = np.empty(0)
        self._order_arr = np.empty(0, dtype=np.int64)
        # Raw data addresses for the kernels: computing arr.ctypes.data
        # allocates a wrapper object per access, so the hot path caches
        # the integers (refreshed whenever a buffer is reallocated).
        self._refresh_ptrs()
        self._p_caps = 0
        self._p_order = 0
        # Epoch-cached load aggregates (valid while no flow event has
        # mutated the columns): total remaining bytes, total rate, and
        # the relative horizon to the earliest completion.
        self._sums_valid = False
        self._rem_sum = 0.0
        self._rate_sum = 0.0
        self._drain_horizon = math.inf
        self.bytes_completed = 0.0

    # -- public API -------------------------------------------------------
    @property
    def capacity(self) -> float:
        if self.capacity_fn is not None:
            return max(0.0, float(self.capacity_fn(len(self.flows))))
        return self._capacity

    @property
    def n_active(self) -> int:
        return len(self.flows)

    @property
    def load(self) -> float:
        """Total bytes still in flight, computed from elapsed time.

        Side-effect free: a read never mutates flow state or fires
        completion events (use :meth:`advance` for that).  Flows that
        would already have drained at the current rates contribute zero.

        Answered from an aggregate cached per flow event (remaining-sum,
        rate-sum, earliest-completion horizon), so repeated reads
        between events are O(1) instead of a full scan; only a read past
        the horizon — where per-flow clamping matters — falls back to
        one vectorized pass.
        """
        n = len(self.flows)
        if n == 0:
            return 0.0
        if not self._sums_valid:
            rem = self._a_rem[:n]
            rate = self._a_rate[:n]
            self._rem_sum = float(np.add.reduce(rem))
            self._rate_sum = float(np.add.reduce(rate))
            positive = rate > 0.0
            if positive.any():
                self._drain_horizon = float(
                    (rem[positive] / rate[positive]).min())
            else:
                self._drain_horizon = math.inf
            self._sums_valid = True
        dt = self.sim.now - self._last_advance
        if dt <= 0:
            return self._rem_sum
        if dt < self._drain_horizon:
            # Nothing can have clamped to zero yet, so the per-flow
            # clamp sum collapses to the cached linear form.
            return self._rem_sum - self._rate_sum * dt
        return float(np.maximum(
            self._a_rem[:n] - self._a_rate[:n] * dt, 0.0).sum())

    def advance(self) -> None:
        """Apply current rates up to the present, firing any completions.

        The explicit form of the state advancement every flow event
        performs implicitly; external observers that need exact flow
        state (rather than the computed :attr:`load`) call this first.
        """
        self._advance()
        # Mirror the authoritative columns back onto the Flow objects
        # for the observer (the implicit advances leave the objects at
        # their last completion-boundary values).
        n = len(self.flows)
        for f, r, rt in zip(self.flows, self._a_rem[:n], self._a_rate[:n]):
            f.remaining = float(r)
            f.rate = float(rt)

    def set_capacity(self, capacity: float) -> None:
        """Change the static capacity (takes effect immediately)."""
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        self._advance()
        self._capacity = float(capacity)
        self._reallocate()

    def poke(self) -> None:
        """Force a rate recomputation (e.g. after external state changed
        the value returned by ``capacity_fn``)."""
        self._advance()
        self._reallocate()

    def transfer(self, nbytes: float, cap: float = math.inf,
                 tag: Any = None) -> Event:
        """Start a flow of ``nbytes``; the returned event succeeds with the
        flow object when the last byte has been delivered."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        done = Event(self.sim, name=f"xfer:{self.name}")
        flow = Flow(self, nbytes, cap, done, tag)
        if nbytes == 0:
            done.succeed(flow)
            return done
        self._advance()
        n = len(self.flows)
        if n == self._a_rem.shape[0]:
            self._grow()
        self._a_rem[n] = flow.remaining
        self._a_rate[n] = 0.0
        self._sums_valid = False
        self.flows.append(flow)
        self._order = None
        self._schedule_realloc()
        return done

    def _grow(self) -> None:
        new_cap = self._a_rem.shape[0] * 2
        for name in ("_a_rem", "_a_rate"):
            old = getattr(self, name)
            bigger = np.empty(new_cap, dtype=old.dtype)
            bigger[:old.shape[0]] = old
            setattr(self, name, bigger)
        self._fin_buf = np.empty(new_cap, dtype=np.int64)
        self._refresh_ptrs()

    def _refresh_ptrs(self) -> None:
        self._p_rem = self._a_rem.ctypes.data
        self._p_rate = self._a_rate.ctypes.data
        self._p_fin = self._fin_buf.ctypes.data

    # -- internals ---------------------------------------------------------
    def _advance(self) -> None:
        """Apply current rates over the elapsed interval."""
        now = self.sim.now
        dt = now - self._last_advance
        self._last_advance = now
        if dt <= 0 or not self.flows:
            return
        # One decrement-and-compact pass over the columns: the C kernel
        # (or the vectorized NumPy fallback) replaces the former
        # per-flow Python loop; both produce bit-identical counters and
        # the same ascending finished order (see _fastdrain.c).
        flows = self.flows
        n = len(flows)
        self._sums_valid = False
        drain = fastdrain.RAW_DRAIN
        k = drain(n, dt, self._p_rem, self._p_rate,
                  self._p_fin) if drain is not None else -1
        if k == 0:
            return
        if k > 0:
            fin_list = self._fin_buf[:k].tolist()
        else:
            rem = self._a_rem[:n]
            rem -= self._a_rate[:n] * dt
            fin_idx = np.flatnonzero(rem <= 1e-6)
            if fin_idx.size == 0:
                return
            fin_list = fin_idx.tolist()
            if fin_idx.size < n:
                keep = np.ones(n, dtype=bool)
                keep[fin_idx] = False
                survivors = np.flatnonzero(keep)
                m = n - fin_idx.size
                self._a_rem[:m] = rem[survivors]
                self._a_rate[:m] = self._a_rate[:n][survivors]
        finished = [flows[i] for i in fin_list]
        if len(fin_list) == n:
            flows.clear()
        else:
            for i in reversed(fin_list):
                del flows[i]
        self._order = None
        for f in finished:
            f.remaining = 0.0
            self.bytes_completed += f.size
            f.done.succeed(f)

    def _schedule_realloc(self) -> None:
        """Coalesce all same-timestamp flow changes into one allocation.

        Chained transfers complete and immediately issue the next request
        at the same simulated instant; recomputing rates once per instant
        instead of once per change halves the allocator load (and calls
        ``capacity_fn`` once, with the settled flow count).
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
        """Recompute fair-share rates and reschedule the completion timer."""
        n = len(self.flows)
        horizon = math.inf
        if n:
            if self._order is None:
                caps = [f.cap for f in self.flows]
                order = sorted(range(n), key=caps.__getitem__)
                self._caps_cache = caps
                self._order = order
                self._caps_arr = np.array(caps)
                self._order_arr = np.array(order, dtype=np.int64)
                self._p_caps = self._caps_arr.ctypes.data
                self._p_order = self._order_arr.ctypes.data
            self._sums_valid = False
            fs = fastdrain.RAW_FAIR
            if fs is not None:
                # Fused C fair-share + horizon over the columns; Flow
                # objects do not mirror per event (advance() syncs them
                # at observer boundaries).
                horizon = fs(self.capacity, n, self._p_caps,
                             self._p_order, self._p_rem, self._p_rate)
            else:
                rates = fair_share(self.capacity, self._caps_cache,
                                   self._order)
                self._a_rate[:n] = rates
                rate = self._a_rate[:n]
                positive = rate > 0
                if positive.any():
                    # Same per-flow divisions as the C kernel; min is
                    # order-independent at the bit level.
                    horizon = float(
                        (self._a_rem[:n][positive] / rate[positive]).min())
        self._timer_token += 1
        token = self._timer_token
        if math.isfinite(horizon):
            # Clamp so now+horizon strictly advances the clock even for
            # near-finished flows (otherwise a sub-ULP horizon respins the
            # timer at the same timestamp forever).
            self.sim.schedule_callback(max(horizon, 1e-9),
                                       self._on_timer, token)

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return  # stale timer; a newer reallocation superseded it
        self._advance()
        self._schedule_realloc()
