"""The simulation event loop."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Dict, Generator, Iterable, List, \
    Optional, Union

from repro.sim.events import NORMAL, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.trace import TraceEvent

__all__ = ["Simulator", "EmptySchedule", "SimulationDeadlock"]


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class SimulationDeadlock(RuntimeError):
    """``run(until=event)`` ran dry before the event triggered.

    Subclasses :class:`RuntimeError` for backward compatibility, but
    carries forensics instead of a bare message:

    * ``waiting_for`` — the event that never triggered;
    * ``diagnostics`` — one snapshot dict per registered provider
      (stage runners report pending tasks, free slots, armed timers);
    * ``trace_tail`` — the last traced events, when tracing was enabled.
    """

    def __init__(self, waiting_for: Event,
                 diagnostics: List[Dict[str, Any]],
                 trace_tail: List[TraceEvent]) -> None:
        self.waiting_for = waiting_for
        self.diagnostics = diagnostics
        self.trace_tail = trace_tail
        lines = [f"simulation ran dry before {waiting_for!r} triggered"]
        if diagnostics:
            lines.append("diagnostics:")
            for snap in diagnostics:
                fields = ", ".join(f"{k}={v!r}" for k, v in snap.items())
                lines.append(f"  - {fields}")
        if trace_tail:
            lines.append(f"last {len(trace_tail)} trace events:")
            lines.extend(f"  {ev}" for ev in trace_tail)
        super().__init__("\n".join(lines))


class Simulator:
    """A priority-queue driven discrete-event simulator.

    Time is a float in arbitrary units (this package uses seconds).
    Events scheduled at equal timestamps run in (priority, FIFO) order,
    which makes runs fully deterministic.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: list = []
        self._seq = 0
        self._trace: Optional[deque] = None
        #: Cached ``trace-enabled`` flag: hot loops read this plain
        #: attribute before packing trace arguments, so disabled tracing
        #: costs one attribute load instead of a kwargs dict per call.
        self._tracing = False
        #: Unbounded trace consumers (the telemetry run log); every
        #: :meth:`trace` event is handed to each sink after the ring.
        self._trace_sinks: List[Callable[[TraceEvent], None]] = []
        #: Ring events dropped to make room for newer ones — consumers
        #: of :meth:`trace_events` can tell a complete history from a
        #: truncated one.
        self.trace_evictions = 0
        #: Daemon (observer-only) timer entries currently queued; these
        #: never count as pending simulation work, so a schedule holding
        #: only daemons is "run dry" for deadlock purposes.
        self._daemons = 0
        self._diagnostics: List[Callable[[], Dict[str, Any]]] = []
        #: Events + lightweight timers dispatched by :meth:`step` so far
        #: (the numerator of the benchmark harness's events/sec metric).
        #: Daemon timers are excluded: observation must not inflate the
        #: measured simulation work.
        self.events_dispatched = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- tracing & forensics ----------------------------------------------
    @property
    def trace_enabled(self) -> bool:
        return self._trace is not None

    def enable_trace(self, capacity: int = 512) -> None:
        """Start recording :class:`TraceEvent` records (ring buffer)."""
        self._trace = deque(maxlen=capacity)
        self._tracing = True

    def add_trace_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        """Register an unbounded trace consumer (the telemetry run log).

        Sinks receive every traced event; unlike the ring they never
        drop.  A registered sink enables tracing.
        """
        self._trace_sinks.append(sink)
        self._tracing = True

    def remove_trace_sink(self, sink: Callable[[TraceEvent], None]) -> None:
        """Detach a sink; tracing stays on only if the ring or another
        sink still wants events."""
        try:
            self._trace_sinks.remove(sink)
        except ValueError:
            pass
        self._tracing = bool(self._trace_sinks) or self._trace is not None

    def trace(self, kind: str, **data: Any) -> None:
        """Record one trace event; a no-op unless tracing is enabled."""
        ring = self._trace
        if ring is None and not self._trace_sinks:
            return
        ev = TraceEvent(self._now, kind, data)
        if ring is not None:
            if ring.maxlen is not None and len(ring) == ring.maxlen:
                self.trace_evictions += 1
            ring.append(ev)
        for sink in self._trace_sinks:
            sink(ev)

    def trace_events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Recorded events, optionally filtered by kind."""
        if self._trace is None:
            return []
        return [e for e in self._trace if kind is None or e.kind == kind]

    def add_diagnostic(self, provider: Callable[[], Dict[str, Any]]) -> None:
        """Register a state-snapshot callable for deadlock reports."""
        self._diagnostics.append(provider)

    def remove_diagnostic(self,
                          provider: Callable[[], Dict[str, Any]]) -> None:
        """Deregister a diagnostic provider (no-op if absent).

        Long-lived simulators (the multi-job serving cluster) would
        otherwise accumulate one provider per completed stage forever.
        """
        try:
            self._diagnostics.remove(provider)
        except ValueError:
            pass

    def _deadlock(self, waiting_for: Event) -> SimulationDeadlock:
        snapshots: List[Dict[str, Any]] = []
        for provider in self._diagnostics:
            try:
                snapshots.append(provider())
            except Exception as exc:  # pragma: no cover - defensive
                snapshots.append({"diagnostic_error": repr(exc)})
        tail = list(self._trace)[-20:] if self._trace is not None else []
        return SimulationDeadlock(waiting_for, snapshots, tail)

    # -- event factories --------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def schedule_callback(self, delay: float, fn, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` sim-time units.

        A lightweight alternative to spawning a process for fire-and-forget
        work (timers, rate reallocation, monitoring ticks).  This is the
        single most-scheduled operation in a run — every reallocation,
        CAD tick, and flow completion goes through it — so it pushes a
        bare ``(when, priority, seq, fn, args)`` heap entry instead of
        allocating an :class:`Event` plus a closure per timer.  The
        (time, priority, FIFO) ordering contract is unchanged: one
        sequence number is consumed per call, exactly as the event path
        consumes one per enqueue.  Callers that need a waitable handle
        use :meth:`schedule_callback_event` instead.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._queue,
                       (self._now + delay, NORMAL, self._seq, fn, args))

    def schedule_daemon(self, delay: float, fn, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay``, as an *observer-only* timer.

        Daemon timers exist for telemetry probes: they fire on the sim
        clock but are never counted as pending simulation work, so

        * ``run(until=None)`` terminates once only daemons remain (a
          self-rearming probe cannot keep the loop alive);
        * ``run(until=event)`` still raises :class:`SimulationDeadlock`
          when only daemons remain (a probe cannot mask a lost wakeup);
        * :attr:`events_dispatched` is not inflated by observation.

        The contract: a daemon callback must only *read* simulation
        state (and may re-arm itself via :meth:`schedule_daemon`); it
        must never schedule non-daemon work or mutate simulated state.
        ``delay`` must be strictly positive so self-rearming daemons
        always advance the clock.
        """
        if delay <= 0:
            raise ValueError(f"daemon delay must be positive, got {delay}")
        self._seq += 1
        self._daemons += 1
        heapq.heappush(self._queue,
                       (self._now + delay, NORMAL, self._seq, fn, args, True))

    def schedule_callback_event(self, delay: float, fn, *args: Any) -> Event:
        """Like :meth:`schedule_callback`, but returns a waitable
        :class:`Event` that succeeds (with ``None``) when the callback
        runs — for callers that need to observe or compose the timer."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ev = Event(self, name=getattr(fn, "__name__", "callback"))
        ev._ok = True
        ev._value = None
        ev.add_callback(lambda _e: fn(*args))
        self._enqueue(ev, NORMAL, delay=delay)
        return ev

    # -- scheduling --------------------------------------------------------
    def _enqueue(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Queue a triggered event for callback processing."""
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Timestamp of the next event, or +inf when the schedule is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled entry (an event or a bare timer).

        The heap holds 4-tuples ``(when, prio, seq, event)`` for events,
        5-tuples ``(when, prio, seq, fn, args)`` for lightweight timers,
        and 6-tuples with a trailing flag for daemon timers; ``seq`` is
        unique, so heap comparisons never reach the payload and all
        shapes order by the same (time, priority, FIFO) contract.
        """
        try:
            entry = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        when = entry[0]
        if when < self._now:  # pragma: no cover - defensive
            raise RuntimeError("event scheduled in the past")
        self._now = when
        if len(entry) == 6:
            # Observer-only daemon: dispatched outside the events/sec
            # accounting so telemetry cannot perturb the benchmark.
            self._daemons -= 1
            entry[3](*entry[4])
            return
        self.events_dispatched += 1
        if len(entry) == 5:
            entry[3](*entry[4])
            return
        event = entry[3]
        event._process()
        # Surface undefused failures: a failed event nobody waited on is a bug.
        if event.triggered and not event.ok and not event.defused():
            raise event.value

    def run(self, until: Optional[Union[float, Event]] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the schedule is empty;
        * a float — run until simulated time reaches that value;
        * an :class:`Event` — run until the event is processed and return
          its value (raising its exception if it failed).

        The optimized loop inlines :meth:`step`'s dispatch with hoisted
        locals and *batches the timer drain*: after dispatching one
        lightweight ``(when, prio, seq, fn, args)`` timer it keeps
        popping while the heap head is another timer at the very same
        timestamp, skipping the per-entry loop bookkeeping.  That is
        behavior-preserving because same-shape entries already ran
        back-to-back in (priority, FIFO) order, a timer callback can
        never process the ``until`` event itself (events are 4-tuples),
        and daemons are 6-tuples so observation never rides the batch.
        Dispatch counts accumulate in a local and flush to
        :attr:`events_dispatched` before any daemon runs (probes sample
        it) and on loop exit.  :meth:`step` keeps the one-at-a-time
        form.
        """
        queue = self._queue
        pop = heapq.heappop
        pending = Event._PENDING
        batch = 0
        try:
            if until is None:
                # Stop once only observer daemons remain: a self-rearming
                # probe must not keep the simulation alive forever.
                while len(queue) > self._daemons:
                    entry = pop(queue)
                    when = entry[0]
                    self._now = when
                    sz = len(entry)
                    if sz == 5:
                        batch += 1
                        entry[3](*entry[4])
                        while queue:
                            head = queue[0]
                            if head[0] != when or len(head) != 5:
                                break
                            pop(queue)
                            batch += 1
                            head[3](*head[4])
                    elif sz == 4:
                        batch += 1
                        event = entry[3]
                        event._process()
                        if (event._value is not pending and not event._ok
                                and not event._defused):
                            raise event.value
                    else:
                        self.events_dispatched += batch
                        batch = 0
                        self._daemons -= 1
                        entry[3](*entry[4])
                return None

            if isinstance(until, Event):
                stop = until
                while not stop.processed:
                    if len(queue) <= self._daemons:
                        # Run dry (possibly up to armed probes, which
                        # cannot make progress happen): a lost wakeup.
                        raise self._deadlock(stop) from None
                    entry = pop(queue)
                    when = entry[0]
                    self._now = when
                    sz = len(entry)
                    if sz == 5:
                        batch += 1
                        entry[3](*entry[4])
                        while queue:
                            head = queue[0]
                            if head[0] != when or len(head) != 5:
                                break
                            pop(queue)
                            batch += 1
                            head[3](*head[4])
                    elif sz == 4:
                        batch += 1
                        event = entry[3]
                        event._process()
                        if (event._value is not pending and not event._ok
                                and not event._defused):
                            raise event.value
                    else:
                        self.events_dispatched += batch
                        batch = 0
                        self._daemons -= 1
                        entry[3](*entry[4])
                if not stop.ok:
                    stop.defuse()
                    raise stop.value
                return stop.value

            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon} lies in the past (now={self._now})")
            while queue and queue[0][0] <= horizon:
                entry = pop(queue)
                when = entry[0]
                self._now = when
                sz = len(entry)
                if sz == 5:
                    batch += 1
                    entry[3](*entry[4])
                    while queue:
                        head = queue[0]
                        if head[0] != when or len(head) != 5:
                            break
                        pop(queue)
                        batch += 1
                        head[3](*head[4])
                elif sz == 4:
                    batch += 1
                    event = entry[3]
                    event._process()
                    if (event._value is not pending and not event._ok
                            and not event._defused):
                        raise event.value
                else:
                    self.events_dispatched += batch
                    batch = 0
                    self._daemons -= 1
                    entry[3](*entry[4])
            self._now = horizon
            return None
        finally:
            self.events_dispatched += batch
