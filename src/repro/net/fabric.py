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
incast behaviour are preserved.  The allocator is fully vectorised with
NumPy — shuffles put thousands of concurrent flows on the fabric, and a
rate recomputation happens at every flow arrival and departure (see the
profiling guidance in the repository's HPC coding guides: vectorise the
measured hotspot, nothing else).

Hot-path notes (see DESIGN.md §8): the fabric is a
:class:`~repro.sim.flowarray.FlowSet`, the event skeleton it shares
with :class:`~repro.sim.fluid.FluidPipe`.  Flow state lives in a
:class:`~repro.sim.flowarray.FlowTable` — amortized-doubling
preallocated columns behind a live-length cursor, with ``src``/``dst``/
``cap`` beside the shared ``remaining``/``rate`` — so an arrival is an
O(1) write instead of five ``np.append`` full-array copies, and a
departure is the shared drain (the C kernel when it loaded) plus an
order-preserving compaction.  The fabric adds only its policy:
progressive filling, completion latency, and per-node tx/rx rate
accumulators maintained at reallocation so :meth:`Fabric.utilization`
is an O(1) read.  The pre-optimization
allocator survives only as a test oracle (``tests/oracles.py``);
``repro bench --check`` gates on committed fingerprint digests.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

import numpy as np

from repro.net import fastalloc
from repro.sim.events import Event
from repro.sim.flowarray import Flow, FlowSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["Fabric", "NetFlow"]

GB = 1024.0 ** 3
_EPS = 1e-9
#: Above this many fabric nodes the allocator compresses the channel set
#: to the endpoints that actually carry flows (np.unique + searchsorted)
#: and the per-node rate refresh scatters over touched nodes only, so a
#: mostly-idle 10,000-node fabric pays O(active), not O(n_nodes), per
#: flow event.  Idle channels are exact no-ops in the water-level loop
#: (head stays at nic_bw: +inf in the unmasked division falls out of the
#: min, count 0 makes the decrement a no-op, and nic_bw never crosses
#: the 1e-7*nic_bw saturation tolerance), so dropping them is
#: bit-identical — below the threshold the dense form is cheaper.
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
        # Per-node rate accumulators, refreshed at every reallocation and
        # compaction, so ``utilization`` is an O(1) read.
        self._tx_rate = np.zeros(n_nodes)
        self._rx_rate = np.zeros(n_nodes)
        # Allocator scratch over the 2*n_nodes NIC channels (tx slots
        # 0..n-1, rx slots n..2n-1), reused across reallocations so the
        # per-round cost is ufunc dispatch, not allocation.
        # On giant fabrics (> _COMPACT_NODES) the allocator runs over the
        # compressed active-endpoint set, so scratch starts small and
        # grows to the observed active width instead of 2 * n_nodes.
        width = 2 * n_nodes if n_nodes <= _COMPACT_NODES else 64
        self._ab_heads = np.empty(width)
        self._ab_q = np.empty(width)
        self._ab_tmp = np.empty(width)
        self._ab_sat = np.empty(width, dtype=bool)
        self._ab_ones = np.ones(64)
        #: Nodes whose tx/rx accumulators are currently nonzero-scattered
        #: (compact refresh path): the next refresh zeroes exactly these.
        self._touched = np.empty(0, dtype=np.int64)
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
        self._flow_seq = 0

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
        """Current tx/rx byte rates at ``node`` (an O(1) accumulator read)."""
        return {"tx": float(self._tx_rate[node]),
                "rx": float(self._rx_rate[node])}

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
        self._refresh_node_rates()

    def _allocate(self) -> float:
        self._assign_rates()
        return self._tab.horizon()

    def _zero_node_rates(self) -> None:
        """Clear the accumulators, touching only scattered-to nodes on
        giant fabrics."""
        if self.n_nodes > _COMPACT_NODES:
            t = self._touched
            if t.size:
                self._tx_rate[t] = 0.0
                self._rx_rate[t] = 0.0
                self._touched = t[:0]
        else:
            self._tx_rate[:] = 0.0
            self._rx_rate[:] = 0.0

    def _refresh_node_rates(self, u: Optional[np.ndarray] = None,
                            cs: Optional[np.ndarray] = None,
                            cd: Optional[np.ndarray] = None) -> None:
        """Rebuild the O(1) per-node tx/rx rate accumulators.

        On fabrics above :data:`_COMPACT_NODES` the weighted bincounts
        run over the compressed endpoint set (``u`` ascending active
        nodes, ``cs``/``cd`` the flows' positions in it — recomputed
        here when the caller didn't already have them) and scatter to
        exactly those nodes, zeroing only the previously-touched set:
        per-flow-event cost is O(active endpoints), never O(n_nodes).
        np.bincount sums weights sequentially in input order, so the
        compact sums are bitwise the dense per-node sums.
        """
        tab = self._tab
        if tab.n == 0:
            self._zero_node_rates()
            return
        rates = tab.col("rate")
        if self.n_nodes > _COMPACT_NODES:
            if u is None:
                u, cs, cd = self._compress_endpoints(tab.col("src"),
                                                     tab.col("dst"))
            t = self._touched
            if t.size:
                self._tx_rate[t] = 0.0
                self._rx_rate[t] = 0.0
            self._tx_rate[u] = np.bincount(cs, weights=rates,
                                           minlength=u.size)
            self._rx_rate[u] = np.bincount(cd, weights=rates,
                                           minlength=u.size)
            self._touched = u
            return
        self._tx_rate = np.bincount(tab.col("src"), weights=rates,
                                    minlength=self.n_nodes)
        self._rx_rate = np.bincount(tab.col("dst"), weights=rates,
                                    minlength=self.n_nodes)

    def _assign_rates(self) -> None:
        """Byte-identical progressive filling over a compressed active set.

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

        When the optional C kernel (:mod:`repro.net.fastalloc`) compiled,
        the whole multi-round loop runs in one native call — same
        arithmetic, same bits — and this NumPy loop is the fallback.
        """
        tab = self._tab
        m = tab.n
        if m == 0:
            self._zero_node_rates()
            return
        rate = tab.col("rate")
        src = tab.col("src")
        dst = tab.col("dst")
        if self.n_nodes > _COMPACT_NODES:
            # Compress the channel set to the endpoints actually carrying
            # flows (bit-identical: see _COMPACT_NODES).  The C kernel
            # and the NumPy loop both then allocate and iterate over
            # O(active) channels regardless of fabric size.
            u, cs, cd = self._compress_endpoints(src, dst)
            n_ch = u.size
        else:
            u = None
            cs, cd, n_ch = src, dst, self.n_nodes
        if not (fastalloc.AVAILABLE and fastalloc.assign_rates(
                n_ch, cs, cd, tab.col("cap"), self.nic_bw,
                self.bisection_bw, rate)):
            rate[:] = self._assign_rates_numpy(n_ch, cs, cd)
        self._refresh_node_rates(u, cs, cd)

    def _compress_endpoints(self, src: np.ndarray, dst: np.ndarray):
        """Active endpoint set + compressed flow indices, in O(n + m)."""
        present = self._present
        present[src] = True
        present[dst] = True
        u = np.flatnonzero(present)
        present[u] = False  # reset scratch for the next call
        inv = self._inv
        inv[u] = self._iota[:u.size]
        return u, inv[src], inv[dst]

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
