"""Allocator parity: C kernel vs NumPy fast path vs the reference oracle.

All three implementations of the fabric's reallocation must produce
byte-identical results: the compiled kernel (compression, progressive
filling and horizon in one call), the NumPy fallback, and the
full-width textbook loop kept as :class:`tests.oracles.ReferenceFabric`.
The NumPy runs also switch the shared drain to its NumPy branch, so C
(allocator + drain) == NumPy == oracle covers both drain branches on
the fabric.  These tests drive randomized fabric workloads — a dense
8-node one and a sparse one above ``_COMPACT_NODES``, where the NumPy
path compresses endpoints — under each implementation and compare
completion times, mid-simulation per-flow rates, and per-node
utilization with exact equality — no tolerances.  Utilization is also
read at every flow-completion instant, before and after the drain and
before the coalesced reallocation, which pins the on-read cache's
invalidation.  ``REPRO_NO_CKERNEL=1`` gating is checked in a subprocess
because the kernel loads at import time.
"""

import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.net import fastalloc
from repro.net.fabric import _COMPACT_NODES, Fabric
from repro.sim import Simulator, fastdrain
from tests.oracles import ReferenceFabric, ReferenceSimulator

#: Workload shapes for :func:`_drive`: dense (every node busy) and
#: sparse above ``_COMPACT_NODES`` (few active endpoints, compressed).
DENSE = dict(n_nodes=8, n_flows=40, bisection_bw=550.0)
SPARSE = dict(n_nodes=320, n_flows=60, bisection_bw=1500.0)
needs_kernel = pytest.mark.skipif(not fastalloc.AVAILABLE,
                                  reason="C kernel unavailable on this "
                                         "machine")


def _drive(n_nodes=8, n_flows=40, bisection_bw=550.0, seed=1234,
           fabric_cls=Fabric, sim_cls=Simulator):
    """Randomized fabric workload; returns everything observable.

    ``small_flow_bytes=0`` routes every transfer through the allocator
    (the default threshold would complete these sub-KB flows directly).
    """
    sim = sim_cls()
    fab = fabric_cls(sim, n_nodes, nic_bw=100.0, bisection_bw=bisection_bw,
                     latency=1e-3, small_flow_bytes=0.0)
    times = {}
    samples = []
    at_completions = []
    rng = random.Random(seed)

    def util():
        return tuple((fab.utilization(nd)["tx"], fab.utilization(nd)["rx"])
                     for nd in range(n_nodes))

    advance = fab._advance

    def probed_advance():
        # The read before the drain fills the utilization cache, so a
        # completion that failed to invalidate it would read stale here.
        n, before = len(fab.flows), util()
        advance()
        if len(fab.flows) < n:
            at_completions.append((sim.now, before, util()))

    fab._advance = probed_advance

    for k in range(n_flows):
        src = rng.randrange(n_nodes)
        dst = rng.randrange(n_nodes)
        size = 50.0 + 400.0 * rng.random()
        cap = math.inf if rng.random() < 0.5 else 10.0 + 60.0 * rng.random()
        ev = fab.transfer(src, dst, size, cap=cap, tag=k)
        ev.add_callback(lambda e, k=k: times.__setitem__(k, sim.now))

    def probe(k):
        rates = tuple(sorted(zip((f.tag for f in fab.flows),
                                 fab._tab.col("rate").tolist())))
        samples.append((sim.now, rates, util()))
        if k < 25:
            sim.schedule_callback(0.13, probe, k + 1)

    sim.schedule_callback(0.05, probe, 0)
    sim.run()
    return times, samples, at_completions


def _numpy_mode(monkeypatch):
    """Both fabric kernels off: the NumPy allocator and the NumPy drain."""
    monkeypatch.setattr(fastalloc, "RAW_ALLOCATE", None)
    monkeypatch.setattr(fastdrain, "RAW_DRAIN", None)


def _numpy_matches_reference(monkeypatch, shape):
    _numpy_mode(monkeypatch)
    numpy_out = _drive(**shape)
    reference_out = _drive(**shape, fabric_cls=ReferenceFabric,
                           sim_cls=ReferenceSimulator)
    times, samples, at_completions = numpy_out
    assert len(times) == shape["n_flows"]
    assert any(rates for _t, rates, _u in samples)  # flows seen
    assert len(at_completions) > 5  # completion instants were probed
    assert numpy_out == reference_out


def _ckernel_matches_numpy(monkeypatch, shape):
    kernel_out = _drive(**shape)
    _numpy_mode(monkeypatch)
    numpy_out = _drive(**shape)
    assert kernel_out == numpy_out


class TestThreeWayParity:
    def test_numpy_matches_reference(self, monkeypatch):
        _numpy_matches_reference(monkeypatch, DENSE)

    def test_numpy_matches_reference_compressed(self, monkeypatch):
        assert SPARSE["n_nodes"] > _COMPACT_NODES
        _numpy_matches_reference(monkeypatch, SPARSE)

    @needs_kernel
    def test_ckernel_matches_numpy(self, monkeypatch):
        _ckernel_matches_numpy(monkeypatch, DENSE)

    @needs_kernel
    def test_ckernel_matches_numpy_compressed(self, monkeypatch):
        _ckernel_matches_numpy(monkeypatch, SPARSE)


def _allocate_both_modes(monkeypatch, n_nodes):
    """Reallocate one mid-simulation state in both modes: rates array vs
    array, and the returned completion horizon."""
    sim = Simulator()
    fab = Fabric(sim, n_nodes, nic_bw=100.0, bisection_bw=400.0)
    rng = random.Random(7)
    for k in range(25):
        cap = math.inf if k % 3 else 20.0 + 5.0 * k
        fab.transfer(rng.randrange(6), rng.randrange(n_nodes),
                     1e6 + 1e4 * k, cap=cap, tag=k)
    checked = []

    def check():
        # Rates are recomputed from scratch, so both modes see the same
        # input; they must agree bit for bit.
        kernel_horizon = fab._allocate()
        kernel_rates = fab._tab.col("rate").copy()
        with monkeypatch.context() as m:
            m.setattr(fastalloc, "RAW_ALLOCATE", None)
            numpy_horizon = fab._allocate()
        assert kernel_rates.tobytes() == fab._tab.col("rate").tobytes()
        assert kernel_horizon == numpy_horizon
        assert math.isfinite(kernel_horizon)
        checked.append(fab._tab.n)
        # The channel map is all -1 again after every kernel call.
        assert (fab._chmap == -1).all()

    sim.schedule_callback(0.01, check)
    sim.run(until=0.02)
    assert checked and checked[0] > 0  # the probe saw live flows


@needs_kernel
def test_kernel_matches_numpy_allocator_directly(monkeypatch):
    _allocate_both_modes(monkeypatch, 6)


@needs_kernel
def test_kernel_matches_numpy_allocator_compressed(monkeypatch):
    _allocate_both_modes(monkeypatch, 300)


def test_no_ckernel_env_gate(tmp_path):
    """REPRO_NO_CKERNEL=1 must disable the kernel at import time."""
    env = dict(os.environ, REPRO_NO_CKERNEL="1",
               PYTHONPATH=os.path.join(os.getcwd(), "src"))
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.net import fastalloc; print(fastalloc.AVAILABLE)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


class TestUtilizationAccumulators:
    """``Fabric.utilization`` (computed on read) against per-flow sums."""

    def test_idle_fabric_is_zero(self):
        sim = Simulator()
        fab = Fabric(sim, 4, nic_bw=100.0)
        assert fab.utilization(0) == {"tx": 0.0, "rx": 0.0}

    def test_accumulators_match_per_flow_sum(self):
        sim = Simulator()
        fab = Fabric(sim, 4, nic_bw=100.0)
        for src, dst in [(0, 1), (0, 2), (3, 1)]:
            fab.transfer(src, dst, 1e6, tag=(src, dst))
        checked = []

        def check():
            # Authoritative per-flow rates live in the columns (NetFlow
            # objects do not mirror rate per reallocation).
            rates = fab._tab.col("rate")
            for nd in range(4):
                u = fab.utilization(nd)
                assert u["tx"] == sum(
                    float(r) for f, r in zip(fab.flows, rates)
                    if f.src == nd)
                assert u["rx"] == sum(
                    float(r) for f, r in zip(fab.flows, rates)
                    if f.dst == nd)
            checked.append(True)

        sim.schedule_callback(0.01, check)
        sim.run(until=0.02)
        assert checked
