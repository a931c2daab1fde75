"""Declarative cluster and node specifications.

The :func:`hyperion` preset mirrors the paper's testbed (§III-A): 100
worker nodes (one further node hosts the Spark master / HDFS NameNode),
two 2.6 GHz 8-core Xeon E5-2670 per node (16 cores), 64 GB RAM of which
30 GB is given to Spark and 32 GB to a RAMDisk, one 128 GB SATA SSD
(387/507 MB/s write/read), InfiniBand QDR (32 Gb/s), and a 47 GB/s Lustre
file system.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

GB = 1024.0 ** 3
MB = 1024.0 ** 2

__all__ = ["NodeSpec", "ClusterSpec", "hyperion", "GB", "MB"]


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one compute node."""

    cores: int = 16
    ram_bytes: float = 64 * GB
    spark_mem_bytes: float = 30 * GB
    ramdisk_bytes: float = 32 * GB
    #: Space actually available for shuffle/HDFS data on the RAMDisk; the
    #: rest is consumed by inputs, HDFS overhead, and the OS.  The paper
    #: reports the HDFS/RAMDisk configuration topping out around 1.2 TB
    #: of intermediate data cluster-wide (12 GB/node average, with the
    #: imbalanced distribution of Fig 12 spiking hot nodes to ~2x that);
    #: experiments honour that documented limit explicitly
    #: (HDFS_RAMDISK_MAX_BYTES), while the per-node quota here only
    #: guards against outright impossible configurations.
    ramdisk_usable_bytes: float = 24 * GB
    ramdisk_read_bw: float = 4.0 * GB
    ramdisk_write_bw: float = 2.5 * GB
    ssd_bytes: float = 128 * GB
    ssd_read_bw: float = 507 * MB
    ssd_write_bw: float = 387 * MB
    ssd_clean_pool_bytes: float = 8 * GB
    memory_copy_bw: float = 3.0 * GB
    page_cache_bytes: float = 9 * GB
    #: Dirty-byte throttle: buffered writes beyond this back up to device
    #: speed.  ~7 GB/node puts the paper's SSD-vs-RAMDisk crossover
    #: between the 600 GB and 800 GB cluster-wide data points (Fig 8(a)).
    page_cache_dirty_bytes: float = 7 * GB

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.ram_bytes <= 0:
            raise ValueError("ram_bytes must be positive")
        if self.ramdisk_usable_bytes > self.ramdisk_bytes:
            raise ValueError(
                f"ramdisk_usable_bytes ({self.ramdisk_usable_bytes / GB:g} "
                f"GB) exceeds the RAMDisk itself ({self.ramdisk_bytes / GB:g}"
                f" GB): usable space is what remains after inputs and OS "
                f"overhead, it cannot outgrow the device")
        if self.ramdisk_bytes + self.spark_mem_bytes > self.ram_bytes:
            raise ValueError(
                f"ramdisk_bytes + spark_mem_bytes "
                f"({self.ramdisk_bytes / GB:g} + "
                f"{self.spark_mem_bytes / GB:g} GB) exceed ram_bytes "
                f"({self.ram_bytes / GB:g} GB): the RAMDisk and the Spark "
                f"heap are both carved out of the node's physical RAM")
        if self.page_cache_dirty_bytes > self.page_cache_bytes:
            raise ValueError(
                f"page_cache_dirty_bytes ({self.page_cache_dirty_bytes / GB:g}"
                f" GB) exceeds page_cache_bytes "
                f"({self.page_cache_bytes / GB:g} GB): the dirty throttle "
                f"is a limit on cached pages, it cannot exceed the cache")


@dataclass(frozen=True)
class ClusterSpec:
    """Description of the whole system."""

    n_nodes: int = 100
    node: NodeSpec = field(default_factory=NodeSpec)
    nic_bw: float = 4.0 * GB          # IB QDR, 32 Gb/s
    bisection_bw: Optional[float] = None
    net_latency: float = 20e-6
    lustre_aggregate_bw: float = 47 * GB
    lustre_n_oss: int = 16
    lustre_mds_ops_per_s: float = 30_000.0
    lustre_lock_revoke_latency: float = 5e-3
    lustre_open_latency: float = 0.5e-3

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.nic_bw <= 0:
            raise ValueError("nic_bw must be positive")
        if self.bisection_bw is not None and self.bisection_bw <= 0:
            raise ValueError(f"bisection_bw must be positive or None "
                             f"(non-blocking), got {self.bisection_bw}")
        for name in ("net_latency", "lustre_lock_revoke_latency",
                     "lustre_open_latency"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0 seconds, got {getattr(self, name)}")

    def scaled(self, n_nodes: int) -> "ClusterSpec":
        """A copy with a different node count; shared-resource capacities
        that scale with machine count (Lustre bandwidth, MDS throughput)
        are scaled proportionally so per-node contention is preserved."""
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        ratio = n_nodes / self.n_nodes
        return replace(
            self,
            n_nodes=n_nodes,
            lustre_aggregate_bw=self.lustre_aggregate_bw * ratio,
            lustre_mds_ops_per_s=self.lustre_mds_ops_per_s * ratio,
            lustre_n_oss=max(1, round(self.lustre_n_oss * ratio)),
            bisection_bw=(self.bisection_bw * ratio
                          if self.bisection_bw is not None else None),
        )


def hyperion(n_nodes: int = 100) -> ClusterSpec:
    """The paper's LLNL Hyperion testbed, optionally scaled down.

    Scaling keeps *per-node* shares of the Lustre file system constant,
    so contention behaviour at 20 nodes matches the shape at 100.
    """
    base = ClusterSpec()
    if n_nodes == base.n_nodes:
        return base
    return base.scaled(n_nodes)
