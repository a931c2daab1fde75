"""Lightweight timer path: determinism contract and Event-API compat.

``schedule_callback`` pushes a bare ``(when, prio, seq, fn, args)`` heap
entry — no Event, no closure.  These tests pin the contract that makes
that safe: same-timestamp dispatch stays (priority, FIFO) ordered across
a mix of lightweight timers and Event-based entries, and callers that
need an Event still get one via ``schedule_callback_event``.
"""

from repro.sim import Simulator
from repro.sim.events import Event
from tests.oracles import ReferenceSimulator


class TestLightweightTimers:
    def test_schedule_callback_returns_none(self):
        sim = Simulator()
        assert sim.schedule_callback(1.0, lambda: None) is None

    def test_callback_runs_with_args(self):
        sim = Simulator()
        got = []
        sim.schedule_callback(0.5, got.append, 42)
        sim.run()
        assert got == [42]
        assert sim.now == 0.5

    def test_same_timestamp_fifo_order(self):
        sim = Simulator()
        order = []
        for k in range(8):
            sim.schedule_callback(1.0, order.append, k)
        sim.run()
        assert order == list(range(8))

    def test_fifo_across_timers_and_events(self):
        """Timers and Event entries at one timestamp interleave in the
        exact order they were scheduled (shared seq counter)."""
        sim = Simulator()
        order = []
        sim.schedule_callback(1.0, order.append, "t0")
        ev = sim.timeout(1.0, name="e1")
        ev.add_callback(lambda e: order.append("e1"))
        sim.schedule_callback(1.0, order.append, "t2")
        sim.run()
        assert order == ["t0", "e1", "t2"]

    def test_events_dispatched_counts_timers(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule_callback(0.1, lambda: None)
        sim.run()
        assert sim.events_dispatched == 5

    def test_chained_timers_advance_time(self):
        sim = Simulator()
        ticks = []

        def tick(k):
            ticks.append(sim.now)
            if k < 3:
                sim.schedule_callback(1.0, tick, k + 1)

        sim.schedule_callback(1.0, tick, 0)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0, 4.0]


class TestEventAPICompat:
    def test_schedule_callback_event_returns_event(self):
        sim = Simulator()
        got = []
        ev = sim.schedule_callback_event(1.0, got.append, 7)
        assert isinstance(ev, Event)
        sim.run()
        assert got == [7]
        assert ev.triggered

    def test_modes_agree_on_timestamps(self):
        """Lightweight timers vs the all-Event reference loop."""
        def drive(sim):
            stamps = []

            def tick(k):
                stamps.append((k, sim.now))
                if k < 5:
                    sim.schedule_callback(0.1 + 1e-7 * k, tick, k + 1)

            sim.schedule_callback(0.0, tick, 0)
            sim.run()
            return stamps, sim.events_dispatched

        optimized = drive(Simulator())
        reference = drive(ReferenceSimulator())
        assert optimized == reference  # byte-identical times and counts


class TestTraceGate:
    def test_tracing_flag_off_by_default(self):
        sim = Simulator()
        assert sim._tracing is False

    def test_enable_trace_sets_flag(self):
        sim = Simulator()
        sim.enable_trace(capacity=16)
        assert sim._tracing is True
        sim.trace("kind", detail=1)
        assert len(sim.trace_events()) == 1
