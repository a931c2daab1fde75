"""The stage runner: offer-based task scheduling over simulated nodes.

One :class:`StageRunner` executes one stage (a set of tasks) to
completion.  Slots (one per core) are offered to the policy whenever they
free; the policy picks a task or declines (delay scheduling / ELB veto),
in which case the runner re-offers when the policy's retry time arrives
or when cluster state changes.  Offers sweep free nodes round-robin, one
task per node per pass, so initial assignment is even — the behaviour
ELB's description assumes.

Fault tolerance follows Spark semantics: a failed task attempt is
re-queued (up to ``max_attempt_failures`` times); with speculation
enabled, straggling attempts get one backup copy and the first finisher
wins while the loser is interrupted.

With a :class:`~repro.core.faults.NodeLiveness` attached, the runner
also survives whole-node faults (DESIGN.md §9): dead nodes are never
offered, a crash abandons the node's in-flight attempts (through the
same CAD ``on_abandon`` path as speculation losers) and purges queued
tasks pinned to it (their input died with the node — the engine recovers
them through lineage), and a restart re-offers, closing the lost-wakeup
class PR 1 fixed for timers.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, \
    Set, Tuple

from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.sim import simtime
from repro.sim.events import Event, Interrupt
from repro.core.cad import CongestionAwareDispatcher
from repro.core.metrics import FailureRecord, TaskRecord
from repro.core.policies import SchedulingPolicy
from repro.core.speculation import SpeculativeExecution, TaskAttemptFailure
from repro.core.task import SimTask, TaskQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.faults import NodeLiveness
    from repro.core.memory import MemoryGate
    from repro.sim.core import Simulator

__all__ = ["StageRunner", "StageFailed"]


class StageFailed(Exception):
    """A task exhausted its attempt budget."""


class StageRunner:
    """Runs one stage's tasks across the cluster under a policy."""

    def __init__(self, sim: "Simulator", n_nodes: int, cores_per_node: int,
                 tasks: Sequence[SimTask], policy: SchedulingPolicy,
                 throttler: Optional[CongestionAwareDispatcher] = None,
                 speculation: Optional[SpeculativeExecution] = None,
                 task_overhead: float = 0.0,
                 max_attempt_failures: int = 3,
                 on_complete: Optional[Callable[[SimTask, int, TaskRecord],
                                                None]] = None,
                 liveness: Optional["NodeLiveness"] = None,
                 failure_log: Optional[List[FailureRecord]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 slots: Optional[Sequence[int]] = None,
                 slot_listener: Optional[Callable[[int], None]] = None,
                 memory: Optional["MemoryGate"] = None
                 ) -> None:
        self.sim = sim
        self.n_nodes = n_nodes
        self.policy = policy
        self.throttler = throttler
        #: Memory admission gate (DESIGN.md §13); ``None`` = unmanaged.
        #: Same offer/decline integration points as the CAD throttler:
        #: consulted per node in the offer sweep, notified at launch and
        #: at attempt exit.  Declines are re-offered by completions here
        #: and by heap releases anywhere (the gate subscribes to the
        #: shared ClusterMemory when the engine attaches it).
        self.memory = memory
        self.liveness = liveness
        self.failure_log = failure_log
        #: Pinned tasks abandoned because their node died with their data.
        self.tasks_lost: List[SimTask] = []
        #: Fault-killed attempts re-queued without burning a failure.
        self.crash_requeues = 0
        self.speculation = speculation
        if speculation is not None:
            speculation.total_tasks = len(tasks)
        self.task_overhead = task_overhead
        self.max_attempt_failures = max_attempt_failures
        self.on_complete = on_complete
        self.queue = TaskQueue(tasks)
        for t in tasks:
            t.queued_at = sim.now
        # Slot capacity: by default every core of every node belongs to
        # this stage (the single-job engine).  Under the multi-job serve
        # layer the stage starts with its job's *leased* entitlement and
        # capacity arrives/leaves mid-stage via add/remove_capacity.
        if slots is None:
            self.free_slots = [cores_per_node] * n_nodes
        else:
            if len(slots) != n_nodes:
                raise ValueError(
                    f"slots has {len(slots)} entries for {n_nodes} nodes")
            self.free_slots = [int(s) for s in slots]
        #: Scheduler frontier (DESIGN.md §12): the ascending-sorted list
        #: of nodes with at least one free slot, maintained at the four
        #: slot-mutation sites on 0↔positive transitions.  The optimized
        #: :meth:`_free_nodes` reads it instead of scanning all
        #: ``n_nodes`` — on a mostly-busy (or mostly-irrelevant) large
        #: cluster the offer sweep then costs O(frontier), and a node
        #: with no free capacity costs nothing at all.
        self._frontier: List[int] = [n for n in range(n_nodes)
                                     if self.free_slots[n] > 0]
        #: Called with a node id whenever a *revoked* slot physically
        #: frees (its running task exited after remove_capacity had
        #: already reduced the entitlement) — the serve layer's hook for
        #: returning the core to the shared pool.
        self.slot_listener = slot_listener
        self._owed_slots: Dict[int, int] = {}
        self.records: List[TaskRecord] = []
        self._remaining = len(tasks)
        self._finished: Set[int] = set()
        self._failures: Dict[int, int] = {}
        #: task_id -> list of (node, started_at, attempt process)
        self._attempts: Dict[int, List[Tuple[int, float, object]]] = {}
        self.done = Event(sim, name="stage-done")
        # Instrumentation (pure recording; a disabled registry hands back
        # no-op instruments, so there are no ``if metrics`` hot-path
        # branches and nothing to allocate per event).
        metrics = metrics if metrics is not None else NULL_REGISTRY
        labels = {"phase": tasks[0].phase if tasks else "empty"}
        self._m_launches = metrics.counter("sched.launches", labels)
        self._m_spec = metrics.counter("sched.speculative_launches", labels)
        self._m_completions = metrics.counter("sched.completions", labels)
        self._m_failures = metrics.counter("sched.attempt_failures", labels)
        self._m_requeues = metrics.counter("sched.crash_requeues", labels)
        self._m_duration = metrics.histogram("sched.task_duration_s", labels)
        # Decision counters (audit visibility: every declined offer by
        # gate — CAD throttle, memory gate, policy/ELB decline).
        self._m_throttles = metrics.counter("sched.throttle_declines",
                                            labels)
        self._m_mem_declines = metrics.counter("sched.mem_declines", labels)
        self._m_declines = metrics.counter("sched.policy_declines", labels)
        self._retry_token = 0
        self._retry_deadline: Optional[float] = None
        sim.add_diagnostic(self.diagnostic_snapshot)
        # Deregister at stage end (success or failure): on a long-lived
        # simulator the diagnostic list must not grow per stage forever.
        self.done.add_callback(
            lambda _ev: sim.remove_diagnostic(self.diagnostic_snapshot))
        if self._remaining == 0:
            self.done.succeed(self.records)

    # -- public -----------------------------------------------------------------
    def run(self) -> Event:
        """Start offering; returns the stage-completion event."""
        if self._remaining > 0:
            self._offer()
        return self.done

    # -- dynamic capacity (slot leasing) ----------------------------------------
    def add_capacity(self, node: int, k: int = 1) -> None:
        """Grant ``k`` more slots on ``node`` (executor handoff arrived)."""
        if k <= 0:
            return
        owed = self._owed_slots.get(node, 0)
        if owed > 0:
            # New capacity first pays down revocation debt: a granted
            # core and an owed core cancel out without waiting for the
            # running task to exit.
            pay = min(owed, k)
            self._owed_slots[node] = owed - pay
            k -= pay
            if self.slot_listener is not None:
                for _ in range(pay):
                    self.slot_listener(node)
        if k > 0:
            if self.free_slots[node] == 0:
                insort(self._frontier, node)
            self.free_slots[node] += k
            if not self.done.triggered:
                self._offer()

    def remove_capacity(self, node: int, k: int = 1) -> int:
        """Revoke up to ``k`` slots on ``node``.

        Idle slots are reclaimed immediately (the return value); the
        remainder is *owed* — each running task that exits on ``node``
        repays one owed slot (reported through ``slot_listener``) instead
        of re-entering this stage's free pool.
        """
        if k <= 0:
            return 0
        reclaimed = min(self.free_slots[node], k)
        self.free_slots[node] -= reclaimed
        if reclaimed > 0 and self.free_slots[node] == 0:
            self._frontier.remove(node)
        if k > reclaimed:
            self._owed_slots[node] = \
                self._owed_slots.get(node, 0) + (k - reclaimed)
        return reclaimed

    def _release_slot(self, node: int) -> None:
        """A task exited on ``node``: repay revocation debt first."""
        if self._owed_slots.get(node, 0) > 0:
            self._owed_slots[node] -= 1
            if self.slot_listener is not None:
                self.slot_listener(node)
        else:
            if self.free_slots[node] == 0:
                insort(self._frontier, node)
            self.free_slots[node] += 1

    # -- liveness ---------------------------------------------------------------
    def _alive(self, node: int) -> bool:
        return self.liveness is None or self.liveness.alive(node)

    def _free_nodes(self) -> List[int]:
        """Nodes with a free slot, excluding dead ones.

        Reads the maintained frontier (the ascending order a full
        O(n_nodes) scan would produce; ``tests/core/test_frontier.py``
        checks the two agree) and consults the liveness mask only when
        some node is actually dead.  Always returns a fresh list —
        callers (and policies) may reorder it freely.
        """
        live = self.liveness
        if live is not None and live.n_dead > 0:
            mask = live.mask
            return [n for n in self._frontier if mask[n]]
        return list(self._frontier)

    def on_node_crash(self, node: int) -> None:
        """The node died: abandon its in-flight attempts and purge queued
        tasks pinned to it — their input data no longer exists, so
        re-queueing would deadlock; the engine recovers them via lineage."""
        if self.done.triggered:
            return
        for attempts in list(self._attempts.values()):
            for n, _started, proc, _task in list(attempts):
                if n == node and proc.is_alive:
                    proc.interrupt("node-crash")
        while True:
            task = self.queue.pop_pinned(node)
            if task is None:
                break
            self._lose_task(task)
        self._offer()

    def on_executor_loss(self, node: int) -> None:
        """The executor died but the node (and its data) survives: every
        in-flight attempt there is abandoned and re-queued."""
        if self.done.triggered:
            return
        for attempts in list(self._attempts.values()):
            for n, _started, proc, _task in list(attempts):
                if n == node and proc.is_alive:
                    proc.interrupt("executor-loss")
        self._offer()

    def on_node_restart(self, node: int) -> None:
        """A restarted node is fresh capacity: re-offer, or its slots
        would sit idle until some unrelated event happened to sweep."""
        if not self.done.triggered:
            self._offer()

    def _lose_task(self, task: SimTask) -> None:
        self.tasks_lost.append(task)
        if self.sim._tracing:
            self.sim.trace("task-lost", task=task.task_id, node=task.pinned)
        self._remaining -= 1
        if self._remaining == 0 and not self.done.triggered:
            self.done.succeed(self.records)

    def _recover_attempt(self, task: SimTask, cause: str) -> None:
        """Re-queue an attempt killed by a fault — or declare the task
        lost when it is pinned to a node that died with its input."""
        if task.task_id in self._finished or self._attempts.get(task.task_id):
            return  # a twin attempt survives elsewhere
        if task.pinned is not None and not self._alive(task.pinned):
            self._lose_task(task)
            return
        self.crash_requeues += 1
        self._m_requeues.inc()
        task.taken = False
        task.queued_at = self.sim.now
        self.queue.push(task)

    # -- offer loop -------------------------------------------------------------
    def _offer(self) -> None:
        """Sweep free nodes, one launch per node per pass, until no
        assignment is possible; then arm a retry timer if needed."""
        if self.done.triggered:
            return
        now = self.sim.now
        if self.sim._tracing:
            self.sim.trace("offer", free_slots=list(self.free_slots),
                           pending=len(self.queue))
        while len(self.queue) > 0:
            free = self._free_nodes()
            if not free:
                return
            order = self.policy.node_order(free)
            launched_any = False
            throttle_retry: Optional[float] = None
            for node in order:
                if len(self.queue) == 0:
                    # Nothing left to place: the remaining nodes in this
                    # pass could only ever continue (no trace, no state
                    # change), so stop sweeping them.  On a huge, mostly
                    # free cluster this is the difference between an
                    # O(queue) and an O(nodes) pass.
                    break
                if self.free_slots[node] <= 0:
                    continue
                if self.throttler is not None and \
                        not self.throttler.ready(node, now):
                    self._m_throttles.inc()
                    t = self.throttler.retry_at(node)
                    if not simtime.reached(now, t):
                        # Pacing gate: ready() declined with the same
                        # reached() test, so t is strictly future and a
                        # timer can be armed.
                        throttle_retry = t if throttle_retry is None \
                            else min(throttle_retry, t)
                        if self.sim._tracing:
                            self.sim.trace("throttle", node=node,
                                           reason="pacing", retry_at=t,
                                           **self._throttle_state(node))
                    else:
                        # Blocked on concurrency; the next completion or
                        # abandoned attempt on the node re-offers.
                        if self.sim._tracing:
                            self.sim.trace("throttle", node=node,
                                           reason="concurrency",
                                           **self._throttle_state(node))
                    continue
                if self.memory is not None and \
                        not self.memory.can_launch(node):
                    # Not enough free heap for a launch (rigid: one ideal
                    # heap; elastic: the shrink floor).  Re-offered by a
                    # completion here or a heap release anywhere.
                    self._m_mem_declines.inc()
                    if self.sim._tracing:
                        gate = self.memory
                        self.sim.trace(
                            "mem-decline", node=node,
                            free=gate.memory.free(node),
                            demand=gate.ideal,
                            elastic=gate.elastic,
                            floor=(gate.min_frac * gate.ideal
                                   if gate.elastic else gate.ideal))
                    continue
                task = self.policy.select(node, self.queue, now)
                if task is None:
                    self._m_declines.inc()
                    if self.sim._tracing:
                        # decline_info is a pure read re-deriving the
                        # decision's justifying state (reason + numbers)
                        # for the audit log.
                        self.sim.trace(
                            "decline", node=node,
                            **self.policy.decline_info(node, self.queue,
                                                       now))
                    continue
                self._launch(task, node)
                launched_any = True
            if not launched_any:
                retry = self.policy.next_retry(self.queue, now)
                if throttle_retry is not None:
                    retry = throttle_retry if retry is None \
                        else min(retry, throttle_retry)
                if retry is not None and retry > now:
                    self._arm_retry(retry)
                break
        self._maybe_speculate()

    def _throttle_state(self, node: int) -> Dict[str, object]:
        """CAD state justifying a throttle decision (tracing only)."""
        thr = self.throttler
        return {"delay": thr.delay,
                "in_flight": thr._in_flight.get(node, 0),
                "target": thr.target_concurrency,
                "window_avg": thr._window_avg,
                "baseline": thr._baseline}

    def _arm_retry(self, when: float) -> None:
        self._retry_token += 1
        token = self._retry_token
        self._retry_deadline = when
        if self.sim._tracing:
            self.sim.trace("retry-armed", at=when, token=token)
        self.sim.schedule_callback(simtime.delay_until(self.sim.now, when),
                                   self._on_retry, token)

    def _on_retry(self, token: int) -> None:
        stale = token != self._retry_token
        if self.sim._tracing:
            self.sim.trace("retry-fired", token=token, stale=stale)
        if not stale:
            self._retry_deadline = None
            self._offer()

    # -- speculation -------------------------------------------------------------
    def _maybe_speculate(self) -> None:
        spec = self.speculation
        if spec is None or len(self.queue) > 0 or not spec.active():
            return
        now = self.sim.now
        while True:
            free = self._free_nodes()
            if self.memory is not None:
                # Backup copies obey the memory gate like any launch.
                free = [n for n in free if self.memory.can_launch(n)]
            if not free:
                break
            straggler = self._pick_straggler(now)
            if straggler is None:
                break
            task, _ = straggler
            # LATE places the backup away from the straggling attempt's
            # node — that node is the presumed cause of the slowness.
            busy_node = self._attempts[task.task_id][0][0]
            others = [n for n in free if n != busy_node]
            node = others[0] if others else free[0]
            spec.copies_launched += 1
            self._launch(task, node, speculative=True)
        self._arm_speculation_check()

    def _arm_speculation_check(self) -> None:
        """Re-check when the earliest running attempt would cross the
        straggler threshold (completions alone won't wake us up)."""
        spec = self.speculation
        threshold = spec.threshold() if spec is not None else None
        if threshold is None:
            return
        if not self._free_nodes():
            return
        now = self.sim.now
        horizon = None
        for task_id, attempts in self._attempts.items():
            if task_id in self._finished or len(attempts) != 1:
                continue
            if attempts[0][3].pinned is not None:
                continue
            crossing = attempts[0][1] + threshold
            if not simtime.reached(now, crossing) and \
                    (horizon is None or crossing < horizon):
                horizon = crossing
        if horizon is not None:
            self._spec_token = getattr(self, "_spec_token", 0) + 1
            token = self._spec_token
            if self.sim._tracing:
                self.sim.trace("spec-armed", at=horizon, token=token)
            self.sim.schedule_callback(
                simtime.delay_until(now, simtime.next_after(now, horizon)),
                self._on_spec_check, token)

    def _on_spec_check(self, token: int) -> None:
        if token == getattr(self, "_spec_token", 0) and \
                not self.done.triggered:
            self._maybe_speculate()

    def _pick_straggler(self, now: float) -> Optional[Tuple[SimTask, float]]:
        spec = self.speculation
        assert spec is not None
        best: Optional[Tuple[SimTask, float]] = None
        for task_id, attempts in self._attempts.items():
            if task_id in self._finished or len(attempts) != 1:
                continue
            task, started = attempts[0][3], attempts[0][1]
            if task.pinned is not None:
                continue  # a pinned task's data exists only on its node
            elapsed = now - started
            if spec.is_straggler(elapsed):
                if best is None or elapsed > best[1]:
                    best = (task, elapsed)
        return best

    # -- launching ----------------------------------------------------------------
    def _launch(self, task: SimTask, node: int,
                speculative: bool = False) -> None:
        self.free_slots[node] -= 1
        if self.free_slots[node] == 0:
            self._frontier.remove(node)
        self._m_launches.inc()
        if speculative:
            self._m_spec.inc()
        if self.throttler is not None:
            self.throttler.on_launch(node, self.sim.now)
        if self.memory is not None:
            self.memory.on_launch(task, node)
        if self.sim._tracing:
            self.sim.trace("launch", task=task.task_id, node=node,
                           speculative=speculative, phase=task.phase,
                           queued=task.queued_at)
        proc = self.sim.process(self._run_task(task, node, speculative),
                                name=f"task:{task.phase}#{task.task_id}")
        self._attempts.setdefault(task.task_id, []).append(
            (node, self.sim.now, proc, task))

    def _run_task(self, task: SimTask, node: int, speculative: bool = False):
        started = self.sim.now
        interrupted = False
        interrupt_cause = None
        failed = False
        try:
            if self.task_overhead > 0:
                yield self.sim.timeout(self.task_overhead)
            inner = self.sim.process(task.body(node))
            # Defuse: if this wrapper is interrupted (lost speculation
            # race) the orphaned body may still fail later; that must not
            # crash the simulation.
            inner.defuse()
            yield inner
        except Interrupt as exc:
            interrupted = True
            interrupt_cause = exc.cause
        except TaskAttemptFailure:
            failed = True
        finally:
            if self.memory is not None:
                self.memory.on_release(task, node)
            self._release_slot(node)
            self._forget_attempt(task.task_id, node, started)

        if interrupted:
            # The attempt never completes: release its in-flight count
            # ourselves, or a throttled node blocked on concurrency
            # would wait forever for a completion that cannot come.
            if self.throttler is not None:
                self.throttler.on_abandon(node)
            if self.sim._tracing:
                self.sim.trace("interrupt", task=task.task_id, node=node,
                               cause=interrupt_cause)
            if interrupt_cause in ("node-crash", "executor-loss"):
                self._recover_attempt(task, interrupt_cause)
            self._offer()
            return
        if failed:
            if self.throttler is not None:
                self.throttler.on_abandon(node)
            self._handle_failure(task, node)
            self._offer()
            return
        if task.task_id in self._finished:
            # A speculative copy lost the race after its twin finished
            # between our completion and the interrupt; drop the result.
            self._offer()
            return

        finished = self.sim.now
        self._finished.add(task.task_id)
        if self.sim._tracing:
            self.sim.trace("complete", task=task.task_id, node=node,
                           speculative=speculative)
        record = TaskRecord(task_id=task.task_id, phase=task.phase,
                            node=node, queued_at=task.queued_at,
                            started_at=started, finished_at=finished,
                            bytes=task.bytes, local=task.local)
        self.records.append(record)
        duration = finished - started
        self._m_completions.inc()
        self._m_duration.observe(duration)
        self.policy.on_complete(task, node, duration)
        if self.throttler is not None:
            if self.sim._tracing:
                # Observe whether this completion moved the CAD delay so
                # the audit log records the feedback step with the state
                # that justified it (identical on_complete call either
                # way — tracing reads, never steers).
                thr = self.throttler
                before = thr.delay
                thr.on_complete(duration, node)
                if thr.delay != before:
                    self.sim.trace(
                        "cad-step", node=node,
                        step=("increase" if thr.delay > before
                              else "decrease"),
                        prev=before, delay=thr.delay,
                        window_avg=thr._window_avg,
                        baseline=thr._baseline,
                        trigger_ratio=thr.trigger_ratio)
            else:
                self.throttler.on_complete(duration, node)
        if self.speculation is not None:
            self.speculation.on_complete(duration)
            if speculative:
                # Only a finish *by the backup copy* is a win for
                # speculation; the original attempt winning the race
                # (with its twin still alive) is not.
                self.speculation.copies_won += 1
            self._interrupt_copies(task.task_id)
        if self.on_complete is not None:
            self.on_complete(task, node, record)
        self._remaining -= 1
        if self._remaining == 0:
            self.done.succeed(self.records)
        else:
            self._offer()

    def _forget_attempt(self, task_id: int, node: int,
                        started: float) -> None:
        attempts = self._attempts.get(task_id)
        if not attempts:
            return
        attempts[:] = [a for a in attempts
                       if not (a[0] == node and a[1] == started)]
        if not attempts:
            del self._attempts[task_id]

    def _interrupt_copies(self, task_id: int) -> None:
        for node, started, proc, task in self._attempts.get(task_id, []):
            if proc.is_alive:
                proc.interrupt("speculative twin finished")

    def _handle_failure(self, task: SimTask, node: int) -> None:
        count = self._failures.get(task.task_id, 0) + 1
        self._failures[task.task_id] = count
        self._m_failures.inc()
        if self.sim._tracing:
            self.sim.trace("failure", task=task.task_id, node=node,
                           count=count)
        if self.failure_log is not None:
            self.failure_log.append(FailureRecord(
                phase=task.phase, task_id=task.task_id, attempt=count,
                node=node, at=self.sim.now))
        if count > self.max_attempt_failures:
            if not self.done.triggered:
                self.done.fail(StageFailed(
                    f"task {task.phase}#{task.task_id} failed "
                    f"{count} times"))
            return
        # Re-queue for another attempt, Spark-style.
        task.taken = False
        task.queued_at = self.sim.now
        self.queue.push(task)

    @property
    def attempt_failures(self) -> int:
        return sum(self._failures.values())

    # -- forensics & invariants ---------------------------------------------------
    def diagnostic_snapshot(self) -> Dict[str, object]:
        """State summary for :class:`~repro.sim.core.SimulationDeadlock`."""
        running = {tid: [a[0] for a in attempts]
                   for tid, attempts in self._attempts.items()}
        snap: Dict[str, object] = {
            "stage": "done" if self.done.triggered else "running",
            "pending_tasks": [t.task_id for t in self.queue.pending()],
            "free_slots": list(self.free_slots),
            "running_attempts": running,
            "remaining": self._remaining,
            "armed_retry_deadline": self._retry_deadline,
            "armed_retry_token": self._retry_token,
        }
        if self.liveness is not None:
            snap["dead_nodes"] = self.liveness.dead_nodes()
            snap["tasks_lost"] = [t.task_id for t in self.tasks_lost]
        if any(self._owed_slots.values()):
            snap["owed_slots"] = {n: k for n, k in self._owed_slots.items()
                                  if k > 0}
        if self.memory is not None:
            mem = self.memory.memory
            snap["memory"] = {
                "heap_bytes": mem.heap_bytes,
                "exec_used": list(mem.exec_used),
                "exec_count": list(mem.exec_count),
                "declines": self.memory.declines,
            }
        violation = self.wakeup_invariant_violation()
        if violation is not None:
            snap["invariant_violation"] = violation
        return snap

    def wakeup_invariant_violation(self) -> Optional[str]:
        """Check: *any pending task with a free slot implies an armed
        wakeup or a state-changing event in flight.*

        Returns a description of the violation, or ``None`` when the
        invariant holds.  A violated invariant at a quiescent point (no
        events left in the simulator between offers) is exactly a lost
        wakeup: pending work, capacity to run it, and nothing that will
        ever re-offer.
        """
        if self.done.triggered or len(self.queue) == 0:
            return None
        free = self._free_nodes()
        if not free:
            if self.liveness is not None and not self.liveness.any_alive() \
                    and not self._attempts:
                return ("pending tasks with every node dead and no restart "
                        "scheduled — the cluster cannot finish the stage")
            return None
        if self._attempts:
            return None  # a running attempt's exit always re-offers
        if self._retry_deadline is not None:
            return None  # an armed wakeup timer will re-offer
        if self.memory is not None and self.memory.memory.has_outstanding():
            # Another job's task holds heap: its release notifies our
            # gate, which re-offers.  (With nothing outstanding anywhere
            # the gate's progress guarantee admits, so a memory decline
            # can never be the last word.)
            return None
        pending = [t.task_id for t in self.queue.pending()]
        return (f"pending tasks {pending} with free slots on nodes {free} "
                f"but no armed wakeup and no running attempts")
