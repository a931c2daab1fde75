"""Reference oracles for the simulator's optimized hot paths.

Each class subclasses a production type and overrides its hot methods
with the straightforward pre-optimization bodies: every timer is an
:class:`~repro.sim.events.Event` dispatched one :meth:`step` at a time,
fluid pipes advance and reallocate with per-flow Python loops, and the
fabric runs textbook full-width progressive filling.  The parity tests
drive the same workload through a production object and its oracle and
assert byte-identical results; none of this code ships in ``src/``.

Oracles compose: a fluid pipe or fabric oracle runs on a
:class:`ReferenceSimulator`, as the whole pre-optimization engine did.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.net.fabric import Fabric, NetFlow
from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.fluid import Flow, FluidPipe, fair_share

__all__ = ["ReferenceFabric", "ReferenceFluidPipe", "ReferenceSimulator"]


class ReferenceSimulator(Simulator):
    """Event loop without lightweight timers or batched timer drains."""

    def schedule_callback(self, delay: float, fn, *args: Any) -> None:
        self.schedule_callback_event(delay, fn, *args)

    def run(self, until: Optional[Union[float, Event]] = None) -> Any:
        if until is None:
            while len(self._queue) > self._daemons:
                self.step()
            return None

        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if len(self._queue) <= self._daemons:
                    raise self._deadlock(stop) from None
                self.step()
            if not stop.ok:
                stop.defuse()
                raise stop.value
            return stop.value

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(
                f"until={horizon} lies in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self._now = horizon
        return None


class ReferenceFluidPipe(FluidPipe):
    """Flow objects are authoritative; every change reallocates at once
    (no same-timestamp coalescing, no columns, no cached order)."""

    @property
    def load(self) -> float:
        dt = self.sim.now - self._last_advance
        if dt <= 0:
            return sum(f.remaining for f in self.flows)
        total = 0.0
        for f in self.flows:
            left = f.remaining - f.rate * dt
            if left > 0.0:
                total += left
        return total

    def advance(self) -> None:
        self._advance()

    def transfer(self, nbytes: float, cap: float = math.inf,
                 tag: Any = None) -> Event:
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        done = Event(self.sim, name=f"xfer:{self.name}")
        flow = Flow(nbytes, cap, done, self.sim.now, tag)
        if nbytes == 0:
            done.succeed(flow)
            return done
        self._advance()
        self.flows.append(flow)
        self._reallocate()
        return done

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_advance
        self._last_advance = now
        if dt <= 0 or not self.flows:
            return
        finished = []
        for f in self.flows:
            f.remaining -= f.rate * dt
            if f.remaining <= 1e-6:
                f.remaining = 0.0
                finished.append(f)
        for f in finished:
            self.flows.remove(f)
            self.bytes_completed += f.size
            f.done.succeed(f)

    def _reallocate(self) -> None:
        if self.flows:
            caps = [f.cap for f in self.flows]
            order = sorted(range(len(caps)), key=caps.__getitem__)
            rates = fair_share(self.capacity, caps, order)
            for f, r in zip(self.flows, rates):
                f.rate = r
        self._timer_token += 1
        token = self._timer_token
        horizon = math.inf
        for f in self.flows:
            if f.rate > 0:
                horizon = min(horizon, f.remaining / f.rate)
        if math.isfinite(horizon):
            self.sim.schedule_callback(max(horizon, 1e-9),
                                       self._on_timer, token)

    def _on_timer(self, token: int) -> None:
        if token != self._timer_token:
            return
        self._advance()
        self._reallocate()


class ReferenceFabric(Fabric):
    """Full-width progressive filling over all ``2 * n_nodes`` NIC
    channels (no compression, no C kernel), per-flow completion loops,
    and utilization summed per query instead of kept in accumulators.

    Flow state shares the production :class:`~repro.sim.flowarray.FlowTable`
    columns, so probes read ``_tab.col("rate")`` on either class.
    """

    def utilization(self, node: int) -> Dict[str, float]:
        if not self.flows:
            return {"tx": 0.0, "rx": 0.0}
        tab = self._tab
        rates = tab.col("rate")
        return {"tx": float(rates[tab.col("src") == node].sum()),
                "rx": float(rates[tab.col("dst") == node].sum())}

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_advance
        self._last_advance = now
        if dt <= 0 or not self.flows:
            return
        tab = self._tab
        remaining = tab.col("remaining")
        remaining -= tab.col("rate") * dt
        finished_mask = remaining <= 1e-6
        if not finished_mask.any():
            return
        survivors: List[NetFlow] = []
        for i, f in enumerate(self.flows):
            if finished_mask[i]:
                f.remaining = 0.0
                self.bytes_completed += f.size
                if self.sim._tracing:
                    self.sim.trace("flow-end", fid=f.fid, src=f.src,
                                   dst=f.dst, nbytes=f.size)
                self.sim.schedule_callback(self.latency, f.done.succeed, f)
            else:
                survivors.append(f)
        self.flows = survivors
        tab.remove(np.flatnonzero(finished_mask))

    def _allocate(self) -> float:
        self._assign_rates()
        return self._tab.horizon()

    def _assign_rates(self) -> None:
        """Vectorised progressive-filling max–min allocation.

        Iterations are bounded by the number of distinct binding
        constraints: each round saturates at least one NIC direction, the
        core, or a cap level (relative tolerances keep float error from
        stalling the loop).
        """
        tab = self._tab
        n_flows = tab.n
        if n_flows == 0:
            return
        src, dst, caps = tab.col("src"), tab.col("dst"), tab.col("cap")
        rates = np.zeros(n_flows)
        active = np.ones(n_flows, dtype=bool)
        tx_head = np.full(self.n_nodes, self.nic_bw)
        rx_head = np.full(self.n_nodes, self.nic_bw)
        core_head = self.bisection_bw
        nic_tol = 1e-7 * self.nic_bw
        finite_cap = np.isfinite(caps)
        cap_tol = np.where(finite_cap, 1e-7 * caps + 1e-12, 0.0)

        while active.any():
            tx_cnt = np.bincount(src[active], minlength=self.n_nodes)
            rx_cnt = np.bincount(dst[active], minlength=self.n_nodes)
            inc = math.inf
            tx_used = tx_cnt > 0
            if tx_used.any():
                inc = min(inc, float((tx_head[tx_used]
                                      / tx_cnt[tx_used]).min()))
            rx_used = rx_cnt > 0
            if rx_used.any():
                inc = min(inc, float((rx_head[rx_used]
                                      / rx_cnt[rx_used]).min()))
            n_active = int(active.sum())
            if core_head is not None:
                inc = min(inc, core_head / n_active)
            margins = caps[active] - rates[active]
            inc = min(inc, float(margins.min()))
            if not math.isfinite(inc) or inc < 0:
                inc = 0.0
            # Raise the water level for every unfixed flow.
            rates[active] += inc
            tx_head -= inc * tx_cnt
            rx_head -= inc * rx_cnt
            if core_head is not None:
                core_head -= inc * n_active
            # Freeze flows that hit their cap or a saturated constraint.
            sat_tx = tx_head <= nic_tol
            sat_rx = rx_head <= nic_tol
            frozen = ((finite_cap & (caps - rates <= cap_tol))
                      | sat_tx[src] | sat_rx[dst])
            if core_head is not None and \
                    core_head <= 1e-7 * (self.bisection_bw or 1.0):
                frozen = np.ones(n_flows, dtype=bool)
            newly = active & frozen
            if not newly.any():
                break  # no progress possible: freeze the rest as-is
            active &= ~frozen

        tab.col("rate")[:] = rates
        for f, r in zip(self.flows, rates):
            f.rate = float(r)
