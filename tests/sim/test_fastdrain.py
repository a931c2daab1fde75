"""C drain / fair-share kernel parity (hypothesis-driven).

The perf claim is that three implementations of the fluid-flow inner
loops — the per-flow Python loop kept as
:class:`tests.oracles.ReferenceFluidPipe`, the vectorized NumPy
fallback of :meth:`FlowTable.drain`, and the C kernel — are
**bit-for-bit** interchangeable.
These tests drive all of them against a transparent Python model with
adversarial rates, sizes, and near-threshold epsilons, and compare with
exact equality — never tolerances.  ``repro bench --check`` gates both
kernel modes on the same golden fingerprints of the macro scenarios.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FluidPipe, Simulator
from repro.sim import fastdrain
from repro.sim.flowarray import FlowTable
from repro.sim.fluid import fair_share
from tests.oracles import ReferenceFluidPipe, ReferenceSimulator

# Adversarial magnitudes: tiny values straddling the 1e-6 finish
# threshold, everyday byte counts, and huge transfers.
_sizes = st.floats(min_value=1e-9, max_value=1e12, allow_nan=False,
                   allow_infinity=False)
_rates = st.floats(min_value=0.0, max_value=1e12, allow_nan=False,
                   allow_infinity=False)
_dts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                 allow_infinity=False)


def _model_drain(remaining, rate, dt):
    """The reference semantics, in the most transparent form possible."""
    finished, surv_rem, surv_rate = [], [], []
    for i in range(len(remaining)):
        left = remaining[i] - rate[i] * dt
        if left <= 1e-6:
            finished.append(i)
        else:
            surv_rem.append(left)
            surv_rate.append(rate[i])
    return finished, surv_rem, surv_rate


def _check_table_drain(flows, dt):
    """Run :meth:`FlowTable.drain` over a table with extra int64 and
    float64 columns and compare it with the model: finished indices,
    survivor ``remaining``/``rate`` bitwise, extras in survivor order."""
    tab = FlowTable(key=np.int64, weight=np.float64)
    for i, (size, rate) in enumerate(flows):
        tab.append(size, rate, 1000 + i, size * 0.5)
    finished = tab.drain(dt)
    model_fin, surv_rem, surv_rate = _model_drain(
        [f[0] for f in flows], [f[1] for f in flows], dt)
    assert finished == model_fin                     # ascending, exact
    assert tab.n == len(flows) - len(finished)
    assert tab.col("remaining").tobytes() == np.array(
        surv_rem, dtype=np.float64).tobytes()        # bitwise survivors
    assert tab.col("rate").tobytes() == np.array(
        surv_rate, dtype=np.float64).tobytes()
    survivors = [i for i in range(len(flows)) if i not in set(model_fin)]
    assert tab.col("key").tolist() == [1000 + i for i in survivors]
    assert tab.col("weight").tobytes() == np.array(
        [flows[i][0] * 0.5 for i in survivors], dtype=np.float64).tobytes()


class TestDrainParity:
    """The shared drain (:meth:`FlowTable.drain`) in both kernel branches."""

    @pytest.mark.skipif(not fastdrain.AVAILABLE,
                        reason="C kernel unavailable on this machine")
    @given(st.lists(st.tuples(_sizes, _rates), min_size=0, max_size=64),
           _dts)
    @settings(max_examples=200, deadline=None)
    def test_c_kernel_matches_python_model(self, flows, dt):
        assert fastdrain.RAW_DRAIN is not None
        _check_table_drain(flows, dt)

    @given(st.lists(st.tuples(_sizes, _rates), min_size=0, max_size=64),
           _dts)
    @settings(max_examples=200, deadline=None)
    def test_numpy_fallback_matches_python_model(self, flows, dt):
        with mock.patch.object(fastdrain, "RAW_DRAIN", None):
            _check_table_drain(flows, dt)


class TestFairShareParity:
    @pytest.mark.skipif(not fastdrain.AVAILABLE,
                        reason="C kernel unavailable on this machine")
    @given(st.lists(st.tuples(
               st.one_of(st.just(math.inf),
                         st.floats(min_value=1e-6, max_value=1e9,
                                   allow_nan=False)),
               _sizes), min_size=1, max_size=64),
           st.floats(min_value=1e-3, max_value=1e12, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_fused_kernel_matches_python_fair_share(self, flows, capacity):
        caps = [f[0] for f in flows]
        remaining = [f[1] for f in flows]
        n = len(flows)
        order = sorted(range(n), key=caps.__getitem__)
        expected = fair_share(capacity, caps, order)
        horizon_py = math.inf
        for r, rem in zip(expected, remaining):
            if r > 0:
                horizon_py = min(horizon_py, rem / r)
        caps_arr = np.array(caps, dtype=np.float64)
        order_arr = np.array(order, dtype=np.int64)
        rem_arr = np.array(remaining, dtype=np.float64)
        rates_out = np.empty(n, dtype=np.float64)
        horizon_c = fastdrain.RAW_FAIR(
            capacity, n, caps_arr.ctypes.data, order_arr.ctypes.data,
            rem_arr.ctypes.data, rates_out.ctypes.data)
        assert rates_out.tobytes() == np.array(
            expected, dtype=np.float64).tobytes()    # bitwise rates
        assert horizon_c == horizon_py               # inf == inf is fine


class TestLoadAggregateParity:
    """`FluidPipe.load` answers from an incremental aggregate; the
    reference oracle rescans every flow.  The aggregate reorders the float
    summation (one subtract of `rate_sum*dt` instead of per-flow
    subtracts), so parity here is near-exact rather than bitwise —
    unlike everything the fingerprint check covers, `load` is a pure
    observer and feeds no simulation decisions."""

    @given(st.lists(st.tuples(
               st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
               st.floats(min_value=1e-3, max_value=1e8, allow_nan=False)),
               min_size=1, max_size=20),
           st.lists(st.floats(min_value=0.0, max_value=8.0,
                              allow_nan=False),
                    min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_load_reads_match_reference(self, arrivals, probe_times):
        def drive(sim, pipe_cls):
            pipe = pipe_cls(sim, capacity=1e6)
            for delay, size in arrivals:
                sim.schedule_callback(
                    delay, lambda s=size: pipe.transfer(s))
            reads = []
            for t in probe_times:
                sim.schedule_callback(
                    t, lambda: reads.append((sim.now, pipe.load)))
            sim.run()
            return reads

        optimized = drive(Simulator(), FluidPipe)
        reference = drive(ReferenceSimulator(), ReferenceFluidPipe)
        assert len(optimized) == len(reference)
        for (t_opt, load_opt), (t_ref, load_ref) in zip(optimized,
                                                        reference):
            assert t_opt == t_ref
            assert load_opt == pytest.approx(load_ref, rel=1e-9,
                                             abs=1e-6)


class TestEndToEndPipeParity:
    """Optimized FluidPipe vs the reference oracle, whole runs."""

    @staticmethod
    def _drive(schedule, capacity, sim_cls=Simulator, pipe_cls=FluidPipe):
        sim = sim_cls()
        pipe = pipe_cls(sim, capacity=capacity)
        completions = []

        def start(k, size, cap):
            ev = pipe.transfer(size, cap=cap, tag=k)
            ev.add_callback(lambda e, k=k: completions.append((k, sim.now)))

        for k, (delay, size, cap) in enumerate(schedule):
            sim.schedule_callback(delay, start, k, size, cap)
        sim.run()
        return tuple(completions), pipe.bytes_completed

    @given(st.lists(st.tuples(
               st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
               st.floats(min_value=1e-3, max_value=1e9, allow_nan=False),
               st.one_of(st.just(math.inf),
                         st.floats(min_value=0.5, max_value=1e6,
                                   allow_nan=False))),
               min_size=1, max_size=25),
           st.floats(min_value=1.0, max_value=1e9, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_optimized_run_is_byte_identical_to_reference(self, schedule,
                                                          capacity):
        optimized = self._drive(schedule, capacity)
        reference = self._drive(schedule, capacity, ReferenceSimulator,
                                ReferenceFluidPipe)
        assert optimized == reference
