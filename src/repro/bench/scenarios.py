"""Benchmark scenarios for the simulation engine's measured hot paths.

Each scenario is a self-contained function that builds a fresh
:class:`~repro.sim.core.Simulator`, drives one hot-path-heavy workload
to completion, and returns a :class:`ScenarioResult` holding throughput
inputs (dispatched events, final sim time) plus a *fingerprint* — the
exact simulation outcome (completion times, bytes completed) whose
digest ``repro bench --check`` compares against the committed goldens.

Scenarios deliberately mirror the paper's stress regimes: a
full-Hyperion-scale shuffle wave (101 nodes, thousands of concurrent
fabric flows), an SSD spill storm through a concurrency-degraded
:class:`~repro.sim.fluid.FluidPipe`, an end-to-end Fig-8-style GroupBy
job, and pure event-loop timer churn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.spec import hyperion
from repro.cluster.variability import LognormalSpeed
from repro.core.engine import EngineOptions, run_job
from repro.core.faults import FaultPlan
from repro.net import Fabric
from repro.obs import wiring as obs_wiring
from repro.obs.telemetry import Telemetry
from repro.sim import FluidPipe, Simulator
from repro.workloads import groupby_spec

__all__ = ["SCENARIOS", "ScenarioResult", "run_scenario"]

GB = 1024.0 ** 3
MB = 1024.0 ** 2


@dataclass
class ScenarioResult:
    """One scenario execution's outcome and throughput inputs."""

    #: Events + timers dispatched by the simulator during the scenario.
    events: int
    #: Final simulated time (seconds).
    sim_time: float
    #: Exact simulation outcome; its digest is checked against a golden.
    fingerprint: Any
    #: Scenario-specific scalar metrics for the JSON report.
    metrics: Dict[str, float] = field(default_factory=dict)


def _shuffle_wave(quick: bool,
                  telemetry: Optional[Telemetry] = None) -> ScenarioResult:
    """Full-scale reduce-side shuffle wave on the fabric.

    Every node runs a reducer fetching one partition slice from every
    other node with a bounded fetch window, the way shuffle waves hit
    the fabric in the paper's 101-node runs: thousands of flows total,
    hundreds concurrent, a global rate recomputation per arrival and
    departure.
    """
    n_nodes = 24 if quick else 101
    window = 2 if quick else 4
    sim = Simulator()
    fab = Fabric(sim, n_nodes=n_nodes, nic_bw=4 * GB, latency=20e-6)
    if telemetry is not None:
        obs_wiring.register_fabric(telemetry.registry, fab)
        telemetry.bind(sim)
    completions: List[Tuple[Tuple[int, int], float]] = []

    def issue(reducer: int, pending: List[int]) -> None:
        if not pending:
            return
        sender = pending.pop()
        # Slight size variation keeps completion times distinct so the
        # flow set churns instead of draining in lockstep.
        size = 24 * MB + (sender * 131 + reducer * 17) % 4096 * 1024.0
        ev = fab.transfer(sender, reducer, size, tag=(sender, reducer))

        def on_done(e, reducer=reducer, pending=pending):
            completions.append((e.value.tag, sim.now))
            issue(reducer, pending)

        ev.add_callback(on_done)

    for reducer in range(n_nodes):
        senders = [s for s in range(n_nodes) if s != reducer]
        # Rotate so reducers start on distinct senders (wave skew).
        senders = senders[reducer % len(senders):] + \
            senders[:reducer % len(senders)]
        senders.reverse()
        for _ in range(window):
            issue(reducer, senders)
    sim.run()
    return ScenarioResult(
        events=sim.events_dispatched,
        sim_time=sim.now,
        fingerprint=(tuple(completions), fab.bytes_completed),
        metrics={"n_flows": float(n_nodes * (n_nodes - 1)),
                 "bytes_completed": fab.bytes_completed})


def _shuffle_wave_10x(quick: bool,
                      telemetry: Optional[Telemetry] = None
                      ) -> ScenarioResult:
    """Reduce-side shuffle wave at 10x Hyperion scale (1,010 nodes).

    Same fetch-chain structure as ``shuffle_wave`` but each reducer
    pulls from a bounded, deterministically-spread sender set instead of
    every peer — at this node count the bottleneck under test is the
    allocator's and calendar's scaling with *fabric size*, not raw flow
    count.  Above ``_COMPACT_NODES`` the allocator runs over the
    compressed active-endpoint set instead of scanning all 2 * n_nodes
    channels per water-level round.
    """
    n_nodes = 253 if quick else 1010
    fan = 8 if quick else 12
    window = 2
    sim = Simulator()
    fab = Fabric(sim, n_nodes=n_nodes, nic_bw=4 * GB, latency=20e-6)
    if telemetry is not None:
        obs_wiring.register_fabric(telemetry.registry, fab)
        telemetry.bind(sim)
    completions: List[Tuple[Tuple[int, int], float]] = []

    def issue(reducer: int, pending: List[int]) -> None:
        if not pending:
            return
        sender = pending.pop()
        size = 12 * MB + (sender * 131 + reducer * 17) % 4096 * 1024.0
        ev = fab.transfer(sender, reducer, size, tag=(sender, reducer))

        def on_done(e, reducer=reducer, pending=pending):
            completions.append((e.value.tag, sim.now))
            issue(reducer, pending)

        ev.add_callback(on_done)

    for reducer in range(n_nodes):
        # Deterministic sender spread, sender != reducer guaranteed
        # (offset < n_nodes - 1), offsets distinct for this fan-out.
        senders = [(reducer + 1 + (k * 83) % (n_nodes - 1)) % n_nodes
                   for k in range(fan)]
        senders.reverse()
        for _ in range(window):
            issue(reducer, senders)
    sim.run()
    return ScenarioResult(
        events=sim.events_dispatched,
        sim_time=sim.now,
        fingerprint=(tuple(completions), fab.bytes_completed),
        metrics={"n_flows": float(n_nodes * fan),
                 "n_nodes": float(n_nodes),
                 "bytes_completed": fab.bytes_completed})


def _idle_giant(quick: bool,
                telemetry: Optional[Telemetry] = None) -> ScenarioResult:
    """10,000-node idle-heavy smoke: O(active) must mean idle is free.

    A small shuffle wave (first 101 nodes) plus one sparse ELB-scheduled
    stage run across the *entire* cluster — so the frontier, the cached
    cluster average, and the compressed fabric channel set all face four
    orders of magnitude more nodes than active work.  The acceptance bar
    (ISSUE 7): per-event wall cost within 2x of the 101-node scenario,
    i.e. the 9,899 idle nodes cost nothing per event.
    """
    from repro.core.elb import EnhancedLoadBalancer
    from repro.core.policies import LocalityFirstPolicy
    from repro.core.scheduler import StageRunner
    from repro.core.task import SimTask
    from repro.core.volumes import NodeVolumes

    n_nodes = 1000 if quick else 10_000
    active = 24 if quick else 101
    fan = 8 if quick else 10
    n_tasks = 100 if quick else 600
    sim = Simulator()
    fab = Fabric(sim, n_nodes=n_nodes, nic_bw=4 * GB, latency=20e-6)
    if telemetry is not None:
        obs_wiring.register_fabric(telemetry.registry, fab)
        telemetry.bind(sim)
    completions: List[Tuple[Tuple[int, int], float]] = []

    def issue(reducer: int, pending: List[int]) -> None:
        if not pending:
            return
        sender = pending.pop()
        size = 8 * MB + (sender * 131 + reducer * 17) % 2048 * 1024.0
        ev = fab.transfer(sender, reducer, size, tag=(sender, reducer))

        def on_done(e, reducer=reducer, pending=pending):
            completions.append((e.value.tag, sim.now))
            issue(reducer, pending)

        ev.add_callback(on_done)

    for reducer in range(active):
        senders = [(reducer + 1 + (k * 83) % (active - 1)) % active
                   for k in range(fan)]
        senders.reverse()
        for _ in range(2):
            issue(reducer, senders)

    # One sparse stage over the full cluster: short tasks, ELB balance
    # bookkeeping per completion — every offer pass walks the frontier.
    vols = NodeVolumes(n_nodes)

    def make_body(tid: int):
        dur = 0.004 + (tid * 13 % 97) * 1e-4

        def body(node: int, dur=dur):
            yield sim.timeout(dur)

        return body

    tasks = [SimTask(tid, "sparse", make_body(tid), nbytes=1.0)
             for tid in range(n_tasks)]
    policy = EnhancedLoadBalancer(LocalityFirstPolicy(), vols)

    def on_task_done(task, node, record):
        vols[node] += 1.0 + float(task.task_id % 7)

    runner = StageRunner(sim, n_nodes, cores_per_node=2, tasks=tasks,
                         policy=policy, on_complete=on_task_done)
    runner.run()
    sim.run()
    records = tuple(sorted(
        (r.task_id, r.node, r.started_at, r.finished_at)
        for r in runner.records))
    return ScenarioResult(
        events=sim.events_dispatched,
        sim_time=sim.now,
        fingerprint=(tuple(completions), fab.bytes_completed, records,
                     tuple(float(v) for v in vols)),
        metrics={"n_nodes": float(n_nodes),
                 "n_flows": float(active * fan),
                 "n_tasks": float(n_tasks),
                 "elb_vetoes": float(policy.vetoes),
                 "bytes_completed": fab.bytes_completed})


def _ssd_spill(quick: bool,
               telemetry: Optional[Telemetry] = None) -> ScenarioResult:
    """SSD-spill storm through a concurrency-degraded FluidPipe.

    Many writers push chained spill blocks through one pipe whose
    aggregate capacity decays with queue depth (the GC-interference
    shape of Fig. 8d): every completion immediately issues the next
    block at the same instant, the worst case for reallocation churn.
    """
    writers = 48 if quick else 192
    blocks = 12 if quick else 48
    sim = Simulator()
    pipe = FluidPipe(sim, capacity=0.0, name="spill",
                     capacity_fn=lambda n: 387 * MB / (1.0 + 0.02 * n))
    if telemetry is not None:
        obs_wiring.register_pipe(telemetry.registry, pipe)
        telemetry.bind(sim)
    completions: List[Tuple[Tuple[int, int], float]] = []

    def chain(writer: int, k: int) -> None:
        size = 8 * MB + (writer * 37 + k * 11) % 1024 * 1024.0
        cap = 64 * MB if (writer + k) % 3 else math.inf
        ev = pipe.transfer(size, cap=cap, tag=(writer, k))

        def on_done(e, writer=writer, k=k):
            completions.append((e.value.tag, sim.now))
            if k + 1 < blocks:
                chain(writer, k + 1)

        ev.add_callback(on_done)

    for writer in range(writers):
        chain(writer, 0)
    sim.run()
    return ScenarioResult(
        events=sim.events_dispatched,
        sim_time=sim.now,
        fingerprint=(tuple(completions), pipe.bytes_completed),
        metrics={"n_flows": float(writers * blocks),
                 "bytes_completed": pipe.bytes_completed})


def _fig08_job(quick: bool,
               telemetry: Optional[Telemetry] = None) -> ScenarioResult:
    """End-to-end Fig-8-style GroupBy with intermediate data on SSD."""
    n_nodes = 4 if quick else 8
    data = (4 if quick else 24) * GB
    spec = groupby_spec(data, shuffle_store="ssd")
    options = EngineOptions(seed=7)
    cluster = Cluster(hyperion(n_nodes),
                      speed_model=LognormalSpeed(sigma=0.18),
                      seed=options.seed)
    result = run_job(spec, options=options, cluster=cluster,
                     telemetry=telemetry)
    tasks = tuple(sorted(
        (t.phase, t.task_id, t.node, t.started_at, t.finished_at)
        for t in result.all_tasks()))
    fingerprint = (result.job_time,
                   tuple(sorted(result.dissection().items())),
                   tasks,
                   tuple(float(x) for x in result.node_intermediate))
    return ScenarioResult(
        events=cluster.sim.events_dispatched,
        sim_time=result.job_time,
        fingerprint=fingerprint,
        metrics={"job_time_s": result.job_time,
                 "n_tasks": float(len(tasks))})


def _spill_pressure(quick: bool,
                    telemetry: Optional[Telemetry] = None
                    ) -> ScenarioResult:
    """GroupBy under executor-heap scarcity with elastic admission
    (DESIGN.md §13).

    Heaps at 40% of the Spark allotment force the memory gate to shrink
    tasks; shrunk attempts spill through the SSD page-cache/device path
    alongside the shuffle traffic.  The fingerprint covers the full task
    schedule, per-attempt heap decisions, and the spill counters, so
    ``--check`` proves memory elasticity deterministic and kernel-mode
    independent.
    """
    from repro.core.memory import MemoryConfig
    n_nodes = 4 if quick else 8
    data = (4 if quick else 24) * GB
    spec = groupby_spec(data, shuffle_store="ssd")
    options = EngineOptions(seed=13, memory=MemoryConfig(
        mem_frac=0.4, elastic=True, spill_store="ssd",
        spill_ratio=0.5, spill_gamma=1.5))
    cluster = Cluster(hyperion(n_nodes),
                      speed_model=LognormalSpeed(sigma=0.18),
                      seed=options.seed)
    result = run_job(spec, options=options, cluster=cluster,
                     telemetry=telemetry)
    mem = result.memory
    tasks = tuple(sorted(
        (t.phase, t.task_id, t.node, t.started_at, t.finished_at)
        for t in result.all_tasks()))
    fingerprint = (result.job_time,
                   tuple(sorted(result.dissection().items())),
                   tasks,
                   (mem.tasks_shrunk, mem.grants_declined,
                    mem.min_granted_frac, mem.spill_events,
                    mem.spill_bytes_written, mem.spill_bytes_read),
                   tuple(float(x) for x in result.node_intermediate))
    return ScenarioResult(
        events=cluster.sim.events_dispatched,
        sim_time=result.job_time,
        fingerprint=fingerprint,
        metrics={"job_time_s": result.job_time,
                 "tasks_shrunk": float(mem.tasks_shrunk),
                 "spill_gb": mem.spill_bytes_written / GB})


def _node_crash(quick: bool,
                telemetry: Optional[Telemetry] = None) -> ScenarioResult:
    """Mid-store node crash, lineage recovery, restart (DESIGN.md §9).

    A node dies while its pinned ShuffleMapTasks are writing: its
    memory-resident map outputs are lost, dependent fetches gate on the
    re-materialisation, and the node later rejoins empty.  The
    fingerprint covers the recovery bookkeeping as well as the task
    schedule, so ``--check`` proves fault handling itself is
    deterministic and kernel-mode independent.
    """
    n_nodes = 4 if quick else 8
    data = (2 if quick else 12) * GB
    plan = (FaultPlan.single_crash(node=1, at=0.911, restart_at=1.2)
            if quick else
            FaultPlan.single_crash(node=2, at=1.1, restart_at=3.0))
    spec = groupby_spec(data, shuffle_store="ssd")
    options = EngineOptions(seed=11, fault_plan=plan)
    cluster = Cluster(hyperion(n_nodes), seed=options.seed)
    result = run_job(spec, options=options, cluster=cluster,
                     telemetry=telemetry)
    rec = result.recovery
    tasks = tuple(sorted(
        (t.phase, t.task_id, t.node, t.started_at, t.finished_at)
        for t in result.all_tasks()))
    fingerprint = (result.job_time,
                   tasks,
                   (rec.node_crashes, rec.node_restarts,
                    rec.tasks_recomputed, rec.bytes_recomputed,
                    rec.bytes_restored, rec.crash_requeues,
                    rec.tasks_lost, rec.recovery_time),
                   tuple(float(x) for x in result.node_intermediate))
    return ScenarioResult(
        events=cluster.sim.events_dispatched,
        sim_time=result.job_time,
        fingerprint=fingerprint,
        metrics={"job_time_s": result.job_time,
                 "tasks_recomputed": float(rec.tasks_recomputed),
                 "bytes_recomputed": rec.bytes_recomputed,
                 "recovery_time_s": rec.recovery_time})


def _stream_sustained(quick: bool,
                      telemetry: Optional[Telemetry] = None
                      ) -> ScenarioResult:
    """Continuous two-tenant job stream on one warm cluster (serve layer).

    Poisson arrivals, fair-share slot leasing with a moving executor
    handoff, per-job cleanup between jobs — the multi-job machinery end
    to end.  The fingerprint covers every job's arrival, first core
    grant, and completion, so ``--check`` proves the inter-job scheduler
    (and the warm-cluster teardown it depends on) deterministic and
    kernel-mode independent.
    """
    from repro.serve import StreamServer, Tenant
    tenants = (Tenant("etl", weight=2.0, quota=1.0),
               Tenant("adhoc", weight=1.0, quota=0.5))
    server = StreamServer(
        tenants,
        arrival_rate=0.5 if quick else 0.3,
        n_jobs=8 if quick else 24,
        policy="fair",
        base_gb=2.0 if quick else 6.0,
        seed=5,
        moving_delay=0.25,
        cluster_spec=hyperion(4 if quick else 8),
        speed_model=LognormalSpeed(sigma=0.18),
        telemetry=telemetry)
    result = server.run()
    outcomes = tuple(sorted(
        (o.tenant, o.index, o.workload, o.scale_gb,
         o.arrived_at, o.first_grant_at, o.finished_at)
        for o in result.outcomes))
    fingerprint = (result.makespan, outcomes)
    lats = [o.latency for o in result.outcomes]
    return ScenarioResult(
        events=server.last_events_dispatched,
        sim_time=result.makespan,
        fingerprint=fingerprint,
        metrics={"n_jobs": float(len(result.outcomes)),
                 "makespan_s": result.makespan,
                 "latency_mean_s": sum(lats) / len(lats)})


def _timer_churn(quick: bool,
                 telemetry: Optional[Telemetry] = None) -> ScenarioResult:
    """Pure event-loop churn: chained lightweight timers.

    Measures the per-dispatch cost of ``schedule_callback`` — the single
    most-allocated operation in a run — with no fluid machinery attached.
    """
    chains = 200 if quick else 1000
    depth = 100 if quick else 400
    sim = Simulator()
    if telemetry is not None:
        telemetry.registry.gauge("sim.queue_depth",
                                 lambda: float(len(sim._queue)))
        telemetry.bind(sim)
    ticks: List[float] = []

    def tick(chain: int, k: int) -> None:
        if k >= depth:
            ticks.append(sim.now)
            return
        sim.schedule_callback(1e-4 + 1e-7 * ((chain * 7 + k) % 13),
                              tick, chain, k + 1)

    for chain in range(chains):
        sim.schedule_callback(1e-6 * chain, tick, chain, 0)
    sim.run()
    return ScenarioResult(
        events=sim.events_dispatched,
        sim_time=sim.now,
        fingerprint=(tuple(ticks), sim.events_dispatched),
        metrics={"n_timers": float(chains * depth)})


SCENARIOS: Dict[str, Callable[[bool], ScenarioResult]] = {
    "shuffle_wave": _shuffle_wave,
    "shuffle_wave_10x": _shuffle_wave_10x,
    "idle_giant": _idle_giant,
    "ssd_spill": _ssd_spill,
    "fig08_job": _fig08_job,
    "spill_pressure": _spill_pressure,
    "node_crash": _node_crash,
    "stream_sustained": _stream_sustained,
    "timer_churn": _timer_churn,
}


def run_scenario(name: str, quick: bool = False,
                 telemetry: Optional[Telemetry] = None) -> ScenarioResult:
    """Execute one named scenario in the currently active engine mode.

    With a ``telemetry`` bundle attached, the scenario's simulator is
    instrumented (gauges + run-log sink + probe) — the harness uses this
    to measure instrumentation overhead and assert the fingerprint is
    unchanged by observation.
    """
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; have {sorted(SCENARIOS)}") from None
    result = fn(quick, telemetry)
    if telemetry is not None:
        telemetry.finish()
    return result
