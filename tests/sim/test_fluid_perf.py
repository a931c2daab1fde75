"""FluidPipe hot-path contracts and ``fair_share`` properties.

Covers the satellite guarantees from the perf PR: ``load`` is a pure
read, ``advance()`` is the explicit mutation point, the coalesced
reallocation path is observably identical to the reference oracle
(:class:`tests.oracles.ReferenceFluidPipe`), and ``fair_share``
satisfies the max–min properties (work-conservation, cap-respect,
permutation invariance) under Hypothesis-generated inputs.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.fluid import FluidPipe, fair_share
from tests.oracles import ReferenceFluidPipe, ReferenceSimulator

_CAP = st.one_of(st.floats(min_value=0.1, max_value=1e6),
                 st.just(math.inf))


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class TestFairShareProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e7),
           st.lists(_CAP, min_size=1, max_size=12))
    def test_work_conserving_and_cap_respecting(self, capacity, caps):
        rates = fair_share(capacity, caps)
        assert len(rates) == len(caps)
        for r, c in zip(rates, caps):
            assert r <= c * (1 + 1e-12) + 1e-9  # never above its cap
            assert r >= -1e-9                   # never negative
        # Work conservation: capacity is exhausted unless every flow is
        # cap-limited first.
        total_cap = sum(c for c in caps if math.isfinite(c))
        expect = capacity if any(math.isinf(c) for c in caps) \
            else min(capacity, total_cap)
        assert _close(sum(rates), expect)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e7),
           st.lists(_CAP, min_size=2, max_size=10),
           st.randoms(use_true_random=False))
    def test_permutation_invariance(self, capacity, caps, rng):
        """A flow's rate depends on its cap, not its position."""
        rates = fair_share(capacity, caps)
        perm = list(range(len(caps)))
        rng.shuffle(perm)
        rates_p = fair_share(capacity, [caps[p] for p in perm])
        for i, p in enumerate(perm):
            assert _close(rates_p[i], rates[p])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e7),
           st.lists(_CAP, min_size=1, max_size=10))
    def test_precomputed_order_is_exact(self, capacity, caps):
        """Passing the cached sort order changes nothing, bit for bit."""
        order = sorted(range(len(caps)), key=caps.__getitem__)
        assert fair_share(capacity, caps, order) == fair_share(capacity, caps)

    def test_empty(self):
        assert fair_share(100.0, []) == []

    def test_bottleneck_shared_equally(self):
        rates = fair_share(90.0, [math.inf, math.inf, math.inf])
        assert rates == [30.0, 30.0, 30.0]

    def test_capped_flow_redistributes(self):
        # The capped flow takes 10; the others split the remaining 80.
        rates = fair_share(90.0, [10.0, math.inf, math.inf])
        assert rates == [10.0, 40.0, 40.0]


class TestLoadIsPure:
    def test_load_mid_flight_does_not_mutate(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        pipe.transfer(1000.0, tag="a")
        sim.run(until=4.0)
        before = [f.remaining for f in pipe.flows]
        assert pipe.load == 600.0  # 1000 - 100 B/s * 4 s
        assert [f.remaining for f in pipe.flows] == before  # untouched
        assert pipe.load == 600.0  # repeatable

    def test_load_excludes_already_drained(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        done = []
        pipe.transfer(100.0, tag="a").add_callback(lambda e: done.append(e))
        # Peek past the completion horizon without advancing the pipe.
        sim.run(until=0.5)
        pipe._last_advance = -1.0  # pretend 1.5s elapsed at 100 B/s
        assert pipe.load == 0.0
        assert not done  # a pure read never fires completions

    def test_advance_fires_completions(self):
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        done = []
        pipe.transfer(100.0, tag="a").add_callback(lambda e: done.append(e))
        sim.run(until=2.0)
        pipe.advance()
        assert done and pipe.n_active == 0


def _drive_chained(n_chains=6, depth=4, sim_cls=Simulator,
                   pipe_cls=FluidPipe):
    """A chained-transfer workload; returns (tag -> completion time)."""
    sim = sim_cls()
    pipe = pipe_cls(sim, capacity=1000.0,
                    capacity_fn=lambda n: 1000.0 / (1 + 0.1 * n))
    times = {}

    def start(chain, hop):
        ev = pipe.transfer(500.0 + 37.0 * chain, cap=400.0 + 10.0 * hop,
                           tag=(chain, hop))
        def fin(e, chain=chain, hop=hop):
            times[(chain, hop)] = sim.now
            if hop + 1 < depth:
                start(chain, hop + 1)
        ev.add_callback(fin)

    for chain in range(n_chains):
        start(chain, 0)
    sim.run()
    return times


class TestCoalescingParity:
    def test_optimized_matches_reference(self):
        """Same completion times, byte for byte, as the oracle."""
        optimized = _drive_chained()
        reference = _drive_chained(sim_cls=ReferenceSimulator,
                                   pipe_cls=ReferenceFluidPipe)
        assert optimized == reference

    def test_drain_order_preserved(self):
        """Same-timestamp completions fire in arrival order."""
        sim = Simulator()
        pipe = FluidPipe(sim, capacity=100.0)
        order = []
        for k in range(5):
            pipe.transfer(100.0, tag=k).add_callback(
                lambda e, k=k: order.append(k))
        sim.run()
        assert order == list(range(5))
