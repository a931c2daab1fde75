"""Instrument wiring: points a registry's gauges at live components.

Each ``register_*`` helper creates pure-read gauges over one component's
existing state — the load/congestion signals the paper's own mechanisms
consume (per-node intermediate bytes for ELB §VI-A, device pressure for
CAD §VI-B, fabric utilization for §V-B) plus scheduler occupancy.  All
reads go through state the components already keep (the fabric sums
per-node utilization over its flow table on read, cached until its
rates change); wiring never adds bookkeeping to a hot path.

Metric naming scheme (DESIGN.md §10): dotted ``component.quantity``
names with ``{node=...}``-style labels, e.g.
``engine.intermediate_bytes{node=3}``, ``cad.delay_s``,
``fabric.tx_bytes_per_s{node=0}``, ``device.queue_depth{node=1,vol=ssd}``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.core.cad import CongestionAwareDispatcher
    from repro.core.elb import EnhancedLoadBalancer
    from repro.core.memory import ClusterMemory
    from repro.net.fabric import Fabric
    from repro.storage.device import BlockDevice

__all__ = ["register_engine", "register_cluster", "register_elb",
           "register_cad", "register_fabric", "register_device",
           "register_memory", "register_pipe"]


def register_engine(registry: MetricsRegistry, engine) -> None:
    """Per-node engine state: intermediate/store bytes, scheduler slots.

    Free-slot gauges read through ``engine._active_runner`` so they keep
    working across the per-stage runner churn without re-registration.
    """
    n = engine.cluster.n_nodes
    inter = engine.node_intermediate
    store = engine.node_store_bytes
    for node in range(n):
        registry.gauge("engine.intermediate_bytes",
                       lambda i=node: inter[i], {"node": node})
        registry.gauge("engine.store_bytes",
                       lambda i=node: store[i], {"node": node})
        registry.gauge(
            "sched.free_slots",
            lambda i=node, e=engine: float(e._active_runner.free_slots[i])
            if e._active_runner is not None else 0.0,
            {"node": node})
    registry.gauge(
        "sched.pending_tasks",
        lambda e=engine: float(len(e._active_runner.queue))
        if e._active_runner is not None else 0.0)


def register_cluster(registry: MetricsRegistry, cluster: "Cluster") -> None:
    """Fabric + every node-local storage device."""
    register_fabric(registry, cluster.fabric)
    for node_id, node in enumerate(cluster.nodes):
        for vol_name, vol in node.volumes.items():
            register_device(registry, vol.device,
                            {"node": node_id, "vol": vol_name})


def register_elb(registry: MetricsRegistry,
                 elb: "EnhancedLoadBalancer") -> None:
    registry.gauge("elb.vetoes", lambda: float(elb.vetoes))
    registry.gauge(
        "elb.saturated_nodes",
        lambda: float(sum(1 for node in range(len(elb.node_intermediate))
                          if elb.saturated(node))))


def register_cad(registry: MetricsRegistry,
                 cad: "CongestionAwareDispatcher") -> None:
    registry.gauge("cad.delay_s", lambda: cad.delay)
    registry.gauge("cad.in_flight",
                   lambda: float(sum(cad._in_flight.values())))
    registry.gauge("cad.increases", lambda: float(cad.increases))
    registry.gauge("cad.decreases", lambda: float(cad.decreases))


def register_memory(registry: MetricsRegistry,
                    memory: "ClusterMemory") -> None:
    """Per-node executor-heap pressure (DESIGN.md §13): free heap plus
    the execution / storage (cache) region reservations."""
    for node in range(memory.n_nodes):
        registry.gauge("mem.heap_free",
                       lambda i=node: memory.free(i), {"node": node})
        registry.gauge("mem.exec_reserved",
                       lambda i=node: memory.exec_used[i], {"node": node})
        registry.gauge("mem.cache_reserved",
                       lambda i=node: memory.cache_used[i], {"node": node})


def register_fabric(registry: MetricsRegistry, fabric: "Fabric") -> None:
    registry.gauge("fabric.active_flows", lambda: float(fabric.n_active))
    registry.gauge("fabric.bytes_completed",
                   lambda: fabric.bytes_completed)
    for node in range(fabric.n_nodes):
        registry.gauge("fabric.tx_bytes_per_s",
                       lambda i=node: fabric.utilization(i)["tx"],
                       {"node": node})
        registry.gauge("fabric.rx_bytes_per_s",
                       lambda i=node: fabric.utilization(i)["rx"],
                       {"node": node})


def register_pipe(registry: MetricsRegistry, pipe,
                  labels: dict = None) -> None:
    """A bare :class:`~repro.sim.fluid.FluidPipe` (bench scenarios)."""
    registry.gauge("pipe.active_flows",
                   lambda: float(pipe.n_active), labels)
    registry.gauge("pipe.bytes_completed",
                   lambda: pipe.bytes_completed, labels)


def register_device(registry: MetricsRegistry, device: "BlockDevice",
                    labels: dict) -> None:
    registry.gauge("device.queue_depth",
                   lambda: float(device.queue_depth), labels)
    registry.gauge("device.bytes_written",
                   lambda: device.bytes_written, labels)
    registry.gauge("device.bytes_read",
                   lambda: device.bytes_read, labels)
    registry.gauge("device.used_bytes",
                   lambda: device.used_bytes, labels)
