"""Allocator parity: C kernel vs NumPy fast path vs the reference oracle.

All three implementations of the progressive-filling max–min allocator
must produce byte-identical results: the compiled kernel, the NumPy
fast path, and the full-width textbook loop kept as
:class:`tests.oracles.ReferenceFabric`.  These tests drive a randomized
fabric workload under each implementation and compare completion times,
mid-simulation per-flow rates, and per-node utilization accumulators
with exact equality — no tolerances.  ``REPRO_NO_CKERNEL=1`` gating is
checked in a subprocess because the kernel loads at import time.
"""

import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.net import fastalloc
from repro.net.fabric import Fabric
from repro.sim import Simulator
from tests.oracles import ReferenceFabric, ReferenceSimulator


def _drive(n_nodes=8, n_flows=40, seed=1234, fabric_cls=Fabric,
           sim_cls=Simulator):
    """Randomized fabric workload; returns everything observable.

    ``small_flow_bytes=0`` routes every transfer through the allocator
    (the default threshold would complete these sub-KB flows directly).
    """
    sim = sim_cls()
    fab = fabric_cls(sim, n_nodes, nic_bw=100.0, bisection_bw=550.0,
                     latency=1e-3, small_flow_bytes=0.0)
    times = {}
    samples = []
    rng = random.Random(seed)

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
        util = tuple((fab.utilization(nd)["tx"], fab.utilization(nd)["rx"])
                     for nd in range(n_nodes))
        samples.append((sim.now, rates, util))
        if k < 25:
            sim.schedule_callback(0.13, probe, k + 1)

    sim.schedule_callback(0.05, probe, 0)
    sim.run()
    return times, samples


class TestThreeWayParity:
    def test_numpy_matches_reference(self, monkeypatch):
        monkeypatch.setattr(fastalloc, "AVAILABLE", False)
        numpy_out = _drive()
        reference_out = _drive(fabric_cls=ReferenceFabric,
                               sim_cls=ReferenceSimulator)
        assert any(rates for _t, rates, _u in numpy_out[1])  # flows seen
        assert numpy_out == reference_out

    @pytest.mark.skipif(not fastalloc.AVAILABLE,
                        reason="C kernel unavailable on this machine")
    def test_ckernel_matches_numpy(self, monkeypatch):
        kernel_out = _drive()
        monkeypatch.setattr(fastalloc, "AVAILABLE", False)
        numpy_out = _drive()
        assert kernel_out == numpy_out


@pytest.mark.skipif(not fastalloc.AVAILABLE,
                    reason="C kernel unavailable on this machine")
def test_kernel_matches_numpy_allocator_directly():
    """Compare raw allocator outputs mid-simulation, array vs array."""
    sim = Simulator()
    fab = Fabric(sim, 6, nic_bw=100.0, bisection_bw=400.0)
    rng = random.Random(7)
    for k in range(25):
        cap = math.inf if k % 3 else 20.0 + 5.0 * k
        fab.transfer(rng.randrange(6), rng.randrange(6),
                     1e6, cap=cap, tag=k)
    checked = []

    def check():
        # Kernel wrote tab["rate"]; the NumPy path recomputes from
        # scratch.  They must agree bit for bit.
        if fab._tab.n:
            expected = fab._assign_rates_numpy(
                fab.n_nodes, fab._tab.col("src"), fab._tab.col("dst"))
            assert np.array_equal(expected, fab._tab.col("rate"))
            checked.append(fab._tab.n)

    sim.schedule_callback(0.01, check)
    sim.run(until=0.02)
    assert checked  # the probe actually saw live flows


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
            # objects no longer mirror rate per reallocation).
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
