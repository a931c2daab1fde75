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

Hot-path notes (see DESIGN.md §8/§12): the pipe is a
:class:`~repro.sim.flowarray.FlowSet` — the event skeleton it shares
with :class:`~repro.net.fabric.Fabric` — so per-flow
``remaining``/``rate`` live in a :class:`~repro.sim.flowarray.FlowTable`
and the per-event drain is one C-kernel call (:mod:`repro.sim.fastdrain`)
or one vectorized NumPy pass, same-timestamp reallocations are
coalesced, and finished flows are compacted out order-preservingly.
The pipe adds only its policy: the sorted-cap order feeding
:func:`fair_share` is cached between events while the flow set is
unchanged and fused with the horizon scan in the C kernel, and
:attr:`FluidPipe.load` reads an epoch-cached aggregate (O(1) between
flow events) instead of rescanning every flow.  The pre-optimization
per-flow loops survive only as a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

import numpy as np

from repro.sim import fastdrain
from repro.sim.events import Event
from repro.sim.flowarray import Flow, FlowSet

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




class FluidPipe(FlowSet):
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
        super().__init__(sim)
        self.name = name
        self._capacity = float(capacity)
        self.capacity_fn = capacity_fn
        # Cached ascending-cap processing order for fair_share, valid
        # while the flow set is unchanged (None = recompute), mirrored as
        # float64/int64 arrays (and their raw addresses) for the C
        # fair-share kernel.
        self._order: Optional[List[int]] = None
        self._caps_cache: List[float] = []
        self._caps_arr = np.empty(0)
        self._order_arr = np.empty(0, dtype=np.int64)
        self._p_caps = 0
        self._p_order = 0
        # Load aggregates (total remaining bytes, total rate, relative
        # horizon to the earliest completion), valid while
        # ``_sums_at == _last_advance``: every drain moves
        # ``_last_advance``, and admissions and reallocations reset
        # ``_sums_at``.
        self._sums_at: Optional[float] = None
        self._rem_sum = 0.0
        self._rate_sum = 0.0
        self._drain_horizon = math.inf

    # -- public API -------------------------------------------------------
    @property
    def capacity(self) -> float:
        if self.capacity_fn is not None:
            return max(0.0, float(self.capacity_fn(len(self.flows))))
        return self._capacity

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
        if not self.flows:
            return 0.0
        tab = self._tab
        if self._sums_at != self._last_advance:
            self._rem_sum = float(np.add.reduce(tab.col("remaining")))
            self._rate_sum = float(np.add.reduce(tab.col("rate")))
            self._drain_horizon = tab.horizon()
            self._sums_at = self._last_advance
        dt = self.sim.now - self._last_advance
        if dt <= 0:
            return self._rem_sum
        if dt < self._drain_horizon:
            # Nothing can have clamped to zero yet, so the per-flow
            # clamp sum collapses to the cached linear form.
            return self._rem_sum - self._rate_sum * dt
        return float(np.maximum(
            tab.col("remaining") - tab.col("rate") * dt, 0.0).sum())

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
        tab = self._tab
        for f, r, rt in zip(self.flows, tab.col("remaining"),
                            tab.col("rate")):
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
        flow = Flow(nbytes, cap, done, self.sim.now, tag)
        if nbytes == 0:
            done.succeed(flow)
            return done
        self._admit(flow)
        self._order = None
        self._sums_at = None
        return done

    # -- FlowSet policy -----------------------------------------------------
    def _finished(self, finished: Sequence[Flow]) -> None:
        self._order = None
        for f in finished:
            f.done.succeed(f)

    def _allocate(self) -> float:
        """Fair-share rates over the cached cap order; returns the horizon."""
        n = len(self.flows)
        if not n:
            return math.inf
        if self._order is None:
            caps = [f.cap for f in self.flows]
            order = sorted(range(n), key=caps.__getitem__)
            self._caps_cache = caps
            self._order = order
            self._caps_arr = np.array(caps)
            self._order_arr = np.array(order, dtype=np.int64)
            self._p_caps = self._caps_arr.ctypes.data
            self._p_order = self._order_arr.ctypes.data
        self._sums_at = None
        tab = self._tab
        fs = fastdrain.RAW_FAIR
        if fs is not None:
            # Fused C fair-share + horizon over the columns; Flow
            # objects do not mirror per event (advance() syncs them
            # at observer boundaries).
            return fs(self.capacity, n, self._p_caps, self._p_order,
                      tab.addr["remaining"], tab.addr["rate"])
        tab.col("rate")[:] = fair_share(self.capacity, self._caps_cache,
                                        self._order)
        # Same per-flow divisions as the C kernel; min is
        # order-independent at the bit level.
        return tab.horizon()
