"""The Lustre filesystem facade: MDS + LDLM + OSS pool + clients."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Optional

from repro.sim.events import Event
from repro.sim.fluid import FluidPipe
from repro.lustre.client import LustreClient
from repro.lustre.oss import OSSPool
from repro.storage.device import GB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = ["LustreFileSystem"]


class LustreFileSystem:
    """POSIX-ish parallel filesystem with distributed lock management.

    Consistency model (paper §II-A): a client updating a file holds its
    extent write lock and may cache dirty data.  Any other client reading
    the file triggers a lock revocation — the holder must flush the dirty
    extent to the OSSes (through the *shared* OSS pool) before the reader
    may proceed from the OSSes.  Reads by the lock holder itself are
    served from its local cache.
    """

    def __init__(self, sim: "Simulator", n_nodes: int,
                 aggregate_bw: float = 47 * GB,
                 n_oss: int = 16,
                 mds_ops_per_s: float = 30_000.0,
                 open_latency: float = 0.5e-3,
                 revoke_latency: float = 5e-3,
                 memory_bw: float = 3.0 * GB,
                 client_cache_bytes: float = 16 * GB,
                 client_dirty_limit: float = 1 * GB) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if mds_ops_per_s <= 0:
            raise ValueError("mds_ops_per_s must be positive")
        for name, value in (("open_latency", open_latency),
                            ("revoke_latency", revoke_latency)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        self.sim = sim
        self.n_nodes = n_nodes
        self.open_latency = float(open_latency)
        self.revoke_latency = float(revoke_latency)
        self.oss = OSSPool(sim, aggregate_bw, n_oss=n_oss)
        # The MDS is a rate-limited op server; concurrent metadata
        # operations share its throughput (processor sharing).
        self.mds_pipe = FluidPipe(sim, mds_ops_per_s, name="mds")
        self.clients: List[LustreClient] = [
            LustreClient(sim, self.oss, node_id=i, memory_bw=memory_bw,
                         cache_bytes=client_cache_bytes,
                         dirty_limit_bytes=client_dirty_limit)
            for i in range(n_nodes)
        ]
        # LDLM write-lock table: file -> holding node.
        self.locks: Dict[Hashable, int] = {}
        # File size table (metadata for reads of whole files).
        self.sizes: Dict[Hashable, float] = {}
        # Statistics.
        self.n_mds_ops = 0
        self.n_revokes = 0

    # -- metadata ------------------------------------------------------------
    def _mds_op(self) -> Event:
        self.n_mds_ops += 1

        def go():
            yield self.sim.timeout(self.open_latency)
            yield self.mds_pipe.transfer(1.0)

        return self.sim.process(go(), name="mds.op")

    def size_of(self, file_id: Hashable) -> float:
        return self.sizes.get(file_id, 0.0)

    def lock_holder(self, file_id: Hashable) -> Optional[int]:
        return self.locks.get(file_id)

    # -- data path -------------------------------------------------------------
    def write(self, node_id: int, nbytes: float, file_id: Hashable) -> Event:
        """Append ``nbytes`` to ``file_id`` from ``node_id``."""
        self._check_node(node_id)
        if nbytes < 0:
            raise ValueError(f"negative write {nbytes}")

        def go():
            yield self._mds_op()  # open/create + size update
            holder = self.locks.get(file_id)
            if holder is not None and holder != node_id:
                yield self._revoke(file_id)
            self.locks[file_id] = node_id
            self.sizes[file_id] = self.sizes.get(file_id, 0.0) + nbytes
            yield self.clients[node_id].write(nbytes, file_id)
            return nbytes

        return self.sim.process(go(), name="lustre.write")

    def read(self, node_id: int, nbytes: float, file_id: Hashable,
             of_total: Optional[float] = None) -> Event:
        """Read ``nbytes`` of ``file_id`` at ``node_id``.

        Same-node reads hit the holder's cache; cross-node reads revoke
        the write lock, forcing the holder's flush first.  ``of_total``
        marks the read as a slice of a file of that size so the holder's
        cache-hit fraction pipelines exactly like :meth:`read_local` and
        the node-local volumes do (the lustre-shared fetch path used to
        omit it, making partial reads inconsistent across fetch modes).
        """
        self._check_node(node_id)
        if nbytes < 0:
            raise ValueError(f"negative read {nbytes}")

        def go():
            yield self._mds_op()
            holder = self.locks.get(file_id)
            if holder == node_id:
                yield self.clients[node_id].read_local(nbytes, file_id,
                                                       of_total=of_total)
            else:
                if holder is not None:
                    yield self._revoke(file_id)
                yield self.oss.read(nbytes)
            return nbytes

        return self.sim.process(go(), name="lustre.read")

    def read_local(self, node_id: int, nbytes: float, file_id: Hashable,
                   of_total: Optional[float] = None) -> Event:
        """Read strictly through the local client cache (the Lustre-local
        shuffle path, where the writer itself serves fetch requests)."""
        self._check_node(node_id)
        return self.clients[node_id].read_local(nbytes, file_id,
                                                of_total=of_total)

    def unlink(self, file_id: Hashable) -> None:
        """Delete a file: drop its lock, size entry and cached pages.

        Metadata-only from the simulation's point of view (no timed MDS
        op — deletes happen between jobs, off the measured path), but
        essential on a long-lived cluster: the lock and size tables, and
        every client's cache, would otherwise grow per job forever.
        """
        self.locks.pop(file_id, None)
        self.sizes.pop(file_id, None)
        for client in self.clients:
            client.drop_file(file_id)

    def split_file(self, file_id: Hashable, parts: list) -> None:
        """Re-key one file into equally sized subfiles (same lock holder)."""
        holder = self.locks.pop(file_id, None)
        size = self.sizes.pop(file_id, 0.0)
        for p in parts:
            self.sizes[p] = size / len(parts)
            if holder is not None:
                self.locks[p] = holder
        if holder is not None:
            self.clients[holder].split_file(file_id, parts)

    # -- LDLM ---------------------------------------------------------------------
    def _revoke(self, file_id: Hashable) -> Event:
        holder = self.locks.pop(file_id, None)
        self.n_revokes += 1

        def go():
            yield self.sim.timeout(self.revoke_latency)
            if holder is not None:
                yield self.clients[holder].flush_file(file_id)

        return self.sim.process(go(), name="ldlm.revoke")

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(
                f"node {node_id} outside cluster of {self.n_nodes}")
