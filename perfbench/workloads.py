"""The benchmark's three workloads, built from a seed through repro's public API.

Each workload turns a seed into inputs (``build``, timed as set-up),
drives them to completion (``run``, timed as ``wall_s``) and returns an
:class:`Outcome`: the simulator event count, the correctness errors
found, the exact simulated outcome as a fingerprint, and the simulated
figures reported as ``model.*``.  See README.md for why these three.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro import Cluster, EngineOptions, LognormalSpeed, hyperion, run_job
from repro.core import MemoryConfig
from repro.net import Fabric
from repro.obs import Telemetry
from repro.serve import StreamServer, Tenant
from repro.sim import Simulator
from repro.workloads import groupby_spec

GB = 1024.0 ** 3
MB = 1024.0 ** 2


@dataclass
class Outcome:
    """What one run of a workload produced."""

    events: int
    fingerprint: Any
    errors: List[str] = field(default_factory=list)
    model: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return hashlib.sha256(repr(self.fingerprint).encode()).hexdigest()


def _job_fingerprint(result) -> tuple:
    """Completion schedule, phase dissection and ``node_intermediate``."""
    tasks = tuple(sorted(
        (t.phase, int(t.task_id), int(t.node), float(t.started_at),
         float(t.finished_at)) for t in result.all_tasks()))
    return (float(result.job_time),
            tuple(sorted((k, float(v))
                         for k, v in result.dissection().items())),
            tasks,
            tuple(float(x) for x in result.node_intermediate))


class PaperGroupBy:
    """One optimized GroupBy job (Fig 13/14 configuration, half scale)."""

    name = "paper_groupby"
    default_seed = 7
    held_out_seed = 8

    def __init__(self, tiny: bool = False) -> None:
        self.nodes, self.data_gb = (4, 8) if tiny else (48, 720)

    def build(self, seed: int, telemetry: Optional[Telemetry] = None):
        spec = groupby_spec(self.data_gb * GB, shuffle_store="ssd")
        options = EngineOptions(seed=seed, elb=True, cad=True)
        cluster = Cluster(hyperion(self.nodes),
                          speed_model=LognormalSpeed(sigma=0.18), seed=seed)
        return spec, options, cluster, telemetry

    def run(self, inputs) -> Outcome:
        spec, options, cluster, telemetry = inputs
        result = run_job(spec, options=options, cluster=cluster,
                         telemetry=telemetry)
        if telemetry is not None:
            telemetry.finish(result)
        errors = []
        n_map, n_red = spec.n_map_tasks, spec.reducers(cluster.total_cores)
        expected = {"compute": n_map, "store": n_map, "fetch": n_red}
        for phase, n in expected.items():
            ph = result.phases.get(phase)
            ids = [t.task_id for t in ph.tasks] if ph is not None else []
            if len(ids) != n or len(set(ids)) != n:
                errors.append(f"{phase}: {len(ids)} completions of "
                              f"{len(set(ids))} tasks, expected {n} once each")
        sh = result.shuffle
        if sh is None or sum(sh.per_iteration_stored) != sh.fetched_bytes:
            errors.append("shuffle: stored bytes != fetched bytes")
        job_s = float(result.job_time)
        model = {"model.job_s": job_s, "model.makespan_s": job_s,
                 "model.latency_p50_s": job_s, "model.latency_p75_s": job_s}
        for phase in ("compute", "store", "fetch"):
            model[f"model.phase_s.{phase}"] = float(result.phase_time(phase))
        return Outcome(cluster.sim.events_dispatched,
                       _job_fingerprint(result), errors, model)


class ShuffleFabric:
    """Reduce-side fetch chains of a 1,010-node shuffle through the fabric.

    Every reducer fetches from ``fan`` distinct senders, keeping
    ``window`` fetches in flight; each completion issues the reducer's
    next fetch.
    """

    name = "shuffle_fabric"
    default_seed = 1
    held_out_seed = 2
    window = 2

    def __init__(self, tiny: bool = False) -> None:
        self.nodes, self.fan = (64, 6) if tiny else (1010, 12)

    def build(self, seed: int, telemetry: Optional[Telemetry] = None):
        rng = np.random.default_rng(seed)
        # Seeded distinct sender offsets shared by all reducers, so every
        # node also sends exactly ``fan`` fetches: a balanced wave.
        offsets = 1 + rng.choice(self.nodes - 1, size=self.fan,
                                 replace=False)
        plan = []
        for reducer in range(self.nodes):
            senders = (reducer + offsets) % self.nodes
            # Whole KiB sizes keep the byte sums exact in float64.
            sizes = 12 * MB + rng.integers(0, 4096, size=self.fan) * 1024.0
            plan.append(list(zip(senders.tolist(), sizes.tolist())))
        sim = Simulator()
        fabric = Fabric(sim, n_nodes=self.nodes, nic_bw=4 * GB,
                        latency=20e-6)
        return sim, fabric, plan, telemetry

    def run(self, inputs) -> Outcome:
        sim, fabric, plan, telemetry = inputs
        if telemetry is not None:
            telemetry.bind(sim)
        issued = sum(size for fetches in plan for _, size in fetches)
        n_flows = sum(len(fetches) for fetches in plan)
        completions, latencies = [], []

        def issue(reducer: int, pending: list) -> None:
            if not pending:
                return
            sender, size = pending.pop()
            ev = fabric.transfer(sender, reducer, size, tag=(sender, reducer))

            def on_done(e, reducer=reducer, pending=pending, at=sim.now):
                completions.append((e.value.tag, sim.now))
                latencies.append(sim.now - at)
                issue(reducer, pending)

            ev.add_callback(on_done)

        for reducer, fetches in enumerate(plan):
            for _ in range(self.window):
                issue(reducer, fetches)
        sim.run()
        if telemetry is not None:
            telemetry.finish()
        errors = []
        tags = {tag for tag, _ in completions}
        if len(completions) != n_flows or len(tags) != n_flows:
            errors.append(f"{len(completions)} completions of {len(tags)} "
                          f"flows, expected {n_flows} once each")
        if fabric.bytes_completed != issued:
            errors.append(f"bytes_completed {fabric.bytes_completed!r} != "
                          f"issued {issued!r}")
        model = {"model.makespan_s": float(sim.now),
                 "model.latency_p50_s": float(np.quantile(latencies, 0.50)),
                 "model.latency_p75_s": float(np.quantile(latencies, 0.75))}
        fingerprint = (tuple((tag, float(t)) for tag, t in completions),
                       float(fabric.bytes_completed))
        return Outcome(sim.events_dispatched, fingerprint, errors, model)


class ServeStream:
    """Two-tenant fair-share Poisson job stream with elastic memory."""

    name = "serve_stream"
    default_seed = 5
    held_out_seed = 6

    def __init__(self, tiny: bool = False) -> None:
        if tiny:
            self.nodes, self.jobs, self.rate, self.base_gb = 4, 8, 0.5, 2.0
        else:
            self.nodes, self.jobs, self.rate, self.base_gb = 8, 48, 0.3, 6.0

    def build(self, seed: int, telemetry: Optional[Telemetry] = None):
        tenants = (Tenant("etl", weight=2.0),
                   Tenant("adhoc", weight=1.0, quota=0.5))
        memory = MemoryConfig(mem_frac=0.4, elastic=True, spill_store="ssd")
        return StreamServer(
            tenants, arrival_rate=self.rate, n_jobs=self.jobs,
            policy="fair", base_gb=self.base_gb, seed=seed,
            moving_delay=0.25, cluster_spec=hyperion(self.nodes),
            speed_model=LognormalSpeed(sigma=0.18),
            options=EngineOptions(memory=memory), telemetry=telemetry)

    def run(self, server: StreamServer) -> Outcome:
        result = server.run()
        if server.telemetry is not None:
            server.telemetry.finish()
        outcomes = sorted(result.outcomes, key=lambda o: (o.tenant, o.index))
        errors = []
        keys = {(o.tenant, o.index) for o in outcomes}
        if len(outcomes) != self.jobs or len(keys) != self.jobs:
            errors.append(f"{len(outcomes)} outcomes of {len(keys)} jobs, "
                          f"expected {self.jobs} once each")
        late = [o for o in outcomes if not o.finished_at >= o.arrived_at]
        if late:
            errors.append(f"{len(late)} jobs finished before arriving")
        latencies = [o.latency for o in outcomes]
        # p75 is the highest percentile with at least ten of 48 jobs above.
        model = {"model.makespan_s": float(result.makespan),
                 "model.latency_p50_s": float(np.quantile(latencies, 0.50)),
                 "model.latency_p75_s": float(np.quantile(latencies, 0.75))}
        fingerprint = (float(result.makespan), tuple(
            (o.tenant, o.index, o.workload, float(o.scale_gb),
             float(o.arrived_at), float(o.first_grant_at),
             float(o.finished_at)) for o in outcomes))
        return Outcome(server.last_events_dispatched, fingerprint, errors,
                       model)


WORKLOADS = {w.name: w for w in (PaperGroupBy, ShuffleFabric, ServeStream)}
