"""Flow-level network fabric with global max–min fairness.

Every transfer is a fluid flow constrained by three capacities: the
sender's NIC transmit channel, the receiver's NIC receive channel (the
fabric is full duplex, as InfiniBand is), and an optional core/bisection
limit.  Rates are assigned by progressive filling (the classic max–min
algorithm): all unfixed flows grow together; whenever a constraint
saturates — or a flow reaches its own rate cap — the affected flows are
frozen and filling continues with the rest.

This is the standard fidelity level for datacenter-scale simulation:
packets are abstracted away, but contention, fair sharing, stragglers and
incast behaviour are preserved.  Shuffles put thousands of concurrent
flows on the fabric, and a rate recomputation happens at every flow
arrival and departure, so the reallocation is the measured hot spot.

Hot-path notes (see DESIGN.md §8): the fabric is a
:class:`~repro.sim.flowarray.FlowSet`, the event skeleton it shares
with :class:`~repro.sim.fluid.FluidPipe`.  Flow state lives in a
:class:`~repro.sim.flowarray.FlowTable` — amortized-doubling
preallocated columns behind a live-length cursor, with ``src``/``dst``/
``cap`` beside the shared ``remaining``/``rate`` — so an arrival is an
O(1) write, and a departure is the shared drain (one C call that also
compacts every column, when the kernel loaded).  The fabric adds only
its policy: progressive filling, completion latency, and per-node
utilization.  Each reallocation is one native call
(:mod:`repro.net.fastalloc`: endpoint compression, progressive filling
and completion horizon over fabric-owned scratch), with a NumPy
fallback.  :meth:`Fabric.utilization` is computed on read — two
bincounts over the live table, cached until the next allocation or
completion — because only telemetry probes and tests read it.  The
pre-optimization allocator survives only as a test oracle
(``tests/oracles.py``); ``repro bench --check`` gates on committed
fingerprint digests.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.net import fastalloc
from repro.sim.events import Event
from repro.sim.flowarray import Flow, FlowSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Fabric", "NetFlow"]

GB = 1024.0 ** 3
#: Above this many fabric nodes the NumPy allocator compresses the
#: channel set to the endpoints that actually carry flows, so a
#: mostly-idle 10,000-node fabric pays O(active), not O(n_nodes), per
#: flow event (the C kernel always compresses).  Idle channels are
#: exact no-ops in the water-level loop (head stays at nic_bw: +inf in
#: the unmasked division falls out of the min, count 0 makes the
#: decrement a no-op, and nic_bw never crosses the 1e-7*nic_bw
#: saturation tolerance), so dropping them is bit-identical — below the
#: threshold the dense form is cheaper.
_COMPACT_NODES = 256


class NetFlow(Flow):
    """One transfer in flight through the fabric.

    Adds the endpoints and a fabric-assigned flow id to :class:`Flow`.
    ``rate`` is *not* mirrored per reallocation (that was an O(flows)
    Python loop per flow event); read ``Fabric._tab.col("rate")`` for
    live rates.
    """

    __slots__ = ("src", "dst", "fid")

    def __init__(self, src: int, dst: int, size: float, cap: float,
                 done: Event, started_at: float, tag: Any) -> None:
        super().__init__(size, cap, done, started_at, tag)
        self.src = src
        self.dst = dst
        #: Fabric-assigned flow id, stable for the flow's lifetime —
        #: correlates flow-start/flow-end trace events (async spans in
        #: the Chrome-trace export).
        self.fid = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<NetFlow {self.src}->{self.dst} "
                f"{self.remaining:.0f}/{self.size:.0f}B @{self.rate:.0f}B/s>")


class Fabric(FlowSet):
    """An ``n_nodes`` fabric with per-NIC tx/rx capacities.

    Parameters
    ----------
    nic_bw:
        Per-direction NIC bandwidth in bytes/second (IB QDR ≈ 4 GB/s).
    bisection_bw:
        Optional aggregate core capacity; ``None`` means non-blocking.
    latency:
        One-way propagation + software latency added to every transfer.
    """

    def __init__(self, sim: "Simulator", n_nodes: int,
                 nic_bw: float = 4.0 * GB,
                 bisection_bw: Optional[float] = None,
                 latency: float = 20e-6,
                 small_flow_bytes: float = 64 * 1024.0) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        if nic_bw <= 0:
            raise ValueError("nic_bw must be positive")
        if bisection_bw is not None and bisection_bw <= 0:
            raise ValueError(
                f"bisection_bw must be positive or None, got {bisection_bw}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        super().__init__(sim, src=np.int64, dst=np.int64, cap=np.float64)
        self.n_nodes = n_nodes
        self.nic_bw = float(nic_bw)
        self.bisection_bw = bisection_bw
        self.latency = float(latency)
        #: Transfers at or below this size skip the fluid allocator and
        #: complete after latency + line-rate serialisation: they carry
        #: negligible load but would otherwise trigger a global rate
        #: recomputation each (control messages, tiny shuffle slices).
        self.small_flow_bytes = float(small_flow_bytes)
        #: Per-node (tx, rx) byte rates, computed on the first
        #: :meth:`utilization` read after the rates change.
        self._util: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._flow_seq = 0
        # C kernel scratch, owned here and reused by every call so no
        # call allocates: the channel map (all -1 between calls) and
        # amortized-doubling per-flow buffers, with cached raw addresses.
        self._chmap = np.full(2 * n_nodes, -1, dtype=np.int64)
        self._p_chmap = self._chmap.ctypes.data
        self._grow_scratch(64)
        # NumPy fallback scratch over the 2*n_nodes NIC channels (tx
        # slots 0..n-1, rx slots n..2n-1), reused across reallocations so
        # the per-round cost is ufunc dispatch, not allocation.
        # On giant fabrics (> _COMPACT_NODES) the allocator runs over the
        # compressed active-endpoint set, so scratch starts small and
        # grows to the observed active width instead of 2 * n_nodes.
        width = 2 * n_nodes if n_nodes <= _COMPACT_NODES else 64
        self._ab_heads = np.empty(width)
        self._ab_q = np.empty(width)
        self._ab_tmp = np.empty(width)
        self._ab_sat = np.empty(width, dtype=bool)
        self._ab_ones = np.ones(64)
        # Compression scratch (giant fabrics): a node-presence bitmap
        # plus an old-id -> compressed-id lookup table.  flatnonzero on
        # the bitmap yields the same ascending unique endpoint set as
        # np.unique over src+dst, and table lookup the same positions as
        # searchsorted, in O(n + m) with no sorting — at shuffle scale
        # (thousands of flows) the sort was costlier than the allocator.
        if n_nodes > _COMPACT_NODES:
            self._present = np.zeros(n_nodes, dtype=bool)
            self._inv = np.empty(n_nodes, dtype=np.int64)
            self._iota = np.arange(n_nodes, dtype=np.int64)

    def _grow_scratch(self, rows: int) -> None:
        """Size the kernel's per-flow scratch for ``rows`` flows."""
        self._scratch_rows = rows
        self._iscr = np.empty(7 * rows, dtype=np.int64)
        self._dscr = np.empty(2 * rows)
        self._p_iscr = self._iscr.ctypes.data
        self._p_dscr = self._dscr.ctypes.data

    # -- public API -----------------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: float,
                 cap: float = math.inf, tag: Any = None) -> Event:
        """Move ``nbytes`` from node ``src`` to node ``dst``.

        Returns an event succeeding with the :class:`NetFlow` when the
        last byte (plus propagation latency) has arrived.  A loopback
        transfer (``src == dst``) completes after latency only — intra-node
        moves cost memory bandwidth, modelled elsewhere.
        """
        for n in (src, dst):
            if not 0 <= n < self.n_nodes:
                raise ValueError(f"node {n} outside fabric of {self.n_nodes}")
        if nbytes < 0:
            raise ValueError(f"negative transfer {nbytes}")
        done = Event(self.sim, name=f"net:{src}->{dst}")
        flow = NetFlow(src, dst, nbytes, cap, done, self.sim.now, tag)
        self._flow_seq += 1
        flow.fid = self._flow_seq
        if src == dst or nbytes <= self.small_flow_bytes:
            wire = 0.0 if src == dst else nbytes / min(self.nic_bw, cap)
            self.sim.schedule_callback(self.latency + wire,
                                       self._finish_direct, flow)
            return done
        # Direct (loopback / tiny) transfers above are deliberately not
        # traced: they are control-message noise at shuffle scale.
        if self.sim._tracing:
            self.sim.trace("flow-start", fid=flow.fid, src=src, dst=dst,
                           nbytes=nbytes)
        self._admit(flow, src, dst, flow.cap)
        return done

    def _finish_direct(self, flow: NetFlow) -> None:
        flow.remaining = 0.0
        self.bytes_completed += flow.size
        flow.done.succeed(flow)

    def utilization(self, node: int) -> Dict[str, float]:
        """Current tx/rx byte rates at ``node``.

        The per-node sums are bincounts over the live flow table, cached
        until the next allocation or completion.  An admission between
        those adds a zero-rate row, which leaves every sum bitwise
        unchanged.
        """
        util = self._util
        if util is None:
            tab = self._tab
            rate = tab.col("rate")
            util = self._util = (
                np.bincount(tab.col("src"), rate, self.n_nodes),
                np.bincount(tab.col("dst"), rate, self.n_nodes))
        return {"tx": float(util[0][node]), "rx": float(util[1][node])}

    # -- FlowSet policy --------------------------------------------------------
    def _finished(self, finished: Sequence[NetFlow]) -> None:
        # Completion events enqueue in ascending flow order, so
        # same-timestamp downstream scheduling is deterministic.
        schedule = self.sim.schedule_callback
        latency = self.latency
        tracing = self.sim._tracing
        for f in finished:
            if tracing:
                self.sim.trace("flow-end", fid=f.fid, src=f.src, dst=f.dst,
                               nbytes=f.size)
            # Tail latency: the last byte still needs to propagate.
            schedule(latency, f.done.succeed, f)
        self._util = None

    def _allocate(self) -> float:
        """Rates and completion horizon in one kernel call (compression,
        progressive filling and the horizon scan), else the NumPy path."""
        self._util = None
        tab = self._tab
        kernel = fastalloc.RAW_ALLOCATE
        if kernel is None:
            self._assign_rates()
            return tab.horizon()
        m = tab.n
        if m > self._scratch_rows:
            self._grow_scratch(2 * m)
        addr = tab.addr
        bisection = self.bisection_bw
        return kernel(m, addr["src"], addr["dst"], addr["cap"],
                      addr["remaining"], addr["rate"], self.n_nodes,
                      self.nic_bw, 0.0 if bisection is None else bisection,
                      bisection is not None, self._p_chmap, self._p_iscr,
                      self._p_dscr)

    def _assign_rates(self) -> None:
        """NumPy fallback: progressive filling over a compressed active set.

        Same algorithm and same float sequences as the textbook
        full-width progressive filling (kept as the oracle
        ``ReferenceFabric`` in ``tests/oracles.py``), restructured
        around three exact identities so each round costs ~a dozen
        ufunc dispatches on shrinking arrays instead of ~three dozen on
        full-width ones:

        * Every still-active flow has received the identical sequence of
          water-level increments, so per-flow rates collapse to one
          scalar ``level`` (the fold ``((0 + inc_1) + inc_2) + ...`` is
          exactly what ``rates[active] += inc`` performs elementwise);
          a flow's final rate is the level at its freeze round.
        * tx and rx NIC channels live in one ``2 * n_nodes`` array
          (rx slots offset by ``n_nodes``): one bincount and one
          masked division replace the per-direction pairs, and the min
          over the union equals the reference's min-of-mins bitwise.
        * Frozen flows are compacted out of the working set each round;
          bincount and min are order-independent at the bit level, so
          compression cannot perturb any intermediate value.

        Rates are scattered to original flow positions through ``idx``,
        so the published rate vector matches the reference elementwise.

        When the C kernel (:mod:`repro.net.fastalloc`) compiled, the
        whole reallocation runs in one native call — same arithmetic,
        same bits — and this NumPy loop is the fallback.
        """
        tab = self._tab
        if tab.n == 0:
            return
        src = tab.col("src")
        dst = tab.col("dst")
        if self.n_nodes > _COMPACT_NODES:
            # Compress the channel set to the endpoints actually carrying
            # flows (bit-identical: see _COMPACT_NODES), so the loop
            # allocates and iterates over O(active) channels regardless
            # of fabric size.
            n_ch, src, dst = self._compress_endpoints(src, dst)
        else:
            n_ch = self.n_nodes
        tab.col("rate")[:] = self._assign_rates_numpy(n_ch, src, dst)

    def _compress_endpoints(self, src: np.ndarray, dst: np.ndarray):
        """Active endpoint count + compressed flow indices, in O(n + m)."""
        present = self._present
        present[src] = True
        present[dst] = True
        u = np.flatnonzero(present)
        present[u] = False  # reset scratch for the next call
        inv = self._inv
        inv[u] = self._iota[:u.size]
        return u.size, inv[src], inv[dst]

    def _assign_rates_numpy(self, n: int, src: np.ndarray,
                            dst: np.ndarray) -> np.ndarray:
        """Pure-NumPy fast allocator (see :meth:`_assign_rates`).

        ``n`` is the channel-set node count and ``src``/``dst`` index
        into it — the full fabric below :data:`_COMPACT_NODES`, the
        compressed active-endpoint set above it.
        """
        tab = self._tab
        m = tab.n
        caps = tab.col("cap")
        nn2 = 2 * n
        if self._ab_heads.size < nn2:
            self._ab_heads = np.empty(nn2)
            self._ab_q = np.empty(nn2)
            self._ab_tmp = np.empty(nn2)
            self._ab_sat = np.empty(nn2, dtype=bool)
        heads = self._ab_heads[:nn2]
        heads[:] = self.nic_bw
        q = self._ab_q[:nn2]
        tmp = self._ab_tmp[:nn2]
        sat = self._ab_sat[:nn2]
        ones = self._ab_ones
        if ones.size < 2 * m:
            self._ab_ones = ones = np.ones(max(2 * m, 2 * ones.size))
        # Endpoint matrix: row 0 = tx slot (src), row 1 = rx slot (dst+n).
        ep = np.empty((2, m), dtype=np.int64)
        ep[0] = src
        np.add(dst, n, out=ep[1])
        idx = np.arange(m)
        out = np.empty(m)
        level = 0.0
        core_head = self.bisection_bw
        nic_tol = 1e-7 * self.nic_bw
        finite_cap = np.isfinite(caps)
        has_caps = bool(finite_cap.any())
        if has_caps:
            c = caps.copy()
            ctol = np.where(finite_cap, 1e-7 * caps + 1e-12, 0.0)
            fin = finite_cap.copy()
        # Hoisted ufuncs: the loop runs ~a dozen times per reallocation
        # and its cost is dispatch, not data.
        bincount = np.bincount
        divide = np.divide
        multiply = np.multiply
        subtract = np.subtract
        less_equal = np.less_equal
        minreduce = np.minimum.reduce
        count_nonzero = np.count_nonzero
        isfinite = math.isfinite
        inf = np.inf
        # Plain (unmasked) division: idle channels have head=nic_bw>0 and
        # count 0, giving +inf; saturated channels are parked at
        # head=+inf below, also giving +inf — both fall out of the min
        # exactly as the reference's used-channel mask drops them.
        old_err = np.seterr(divide="ignore")
        try:
            while True:
                m_cur = ep.shape[1]
                # Weighted bincount returns float64 directly: exact
                # integer counts without a per-round int->float cast.
                cnt = bincount(ep.ravel(), ones[:2 * m_cur], nn2)
                divide(heads, cnt, out=q)
                inc = float(minreduce(q))
                if core_head is not None:
                    inc = min(inc, core_head / m_cur)
                if has_caps:
                    inc = min(inc, float(minreduce(c - level)))
                if not isfinite(inc) or inc < 0:
                    inc = 0.0
                level += inc
                multiply(cnt, inc, out=tmp)
                subtract(heads, tmp, out=heads)
                if core_head is not None:
                    core_head -= inc * m_cur
                # Channels saturating *this* round: parked channels sit at
                # +inf and idle ones at nic_bw, so only live crossings
                # match — and an already-saturated channel has no active
                # flows left to freeze, making fresh == newly-freezing.
                less_equal(heads, nic_tol, out=sat)
                if core_head is not None and \
                        core_head <= 1e-7 * (self.bisection_bw or 1.0):
                    fr = np.ones(m_cur, dtype=bool)
                else:
                    fr = None
                    if has_caps:
                        # Post-increment margins, as the reference's
                        # ``caps - rates`` freeze check sees them.
                        fr = (c - level) <= ctol
                        fr &= fin
                    if sat.any():
                        heads[sat] = inf
                        g = sat[ep]
                        if fr is None:
                            fr = g[0] | g[1]
                        else:
                            fr |= g[0]
                            fr |= g[1]
                    if fr is None:
                        break  # no progress possible: freeze rest as-is
                nf = count_nonzero(fr)
                if nf == 0:
                    break  # no progress possible: freeze rest as-is
                out[idx[fr]] = level
                if nf == m_cur:
                    idx = idx[:0]
                    break
                keep = ~fr
                ep = ep[:, keep]
                idx = idx[keep]
                if has_caps:
                    c = c[keep]
                    ctol = ctol[keep]
                    fin = fin[keep]
        finally:
            np.seterr(**old_err)
        if idx.size:
            out[idx] = level
        return out
