"""Tests for the Lustre model: OSS pool, clients, LDLM revocation."""

import pytest

from repro.lustre import LustreFileSystem, OSSPool
from repro.sim import Simulator

GB = 1024.0 ** 3
MB = 1024.0 ** 2


@pytest.fixture
def sim():
    return Simulator()


def make_fs(sim, n_nodes=4, **kw):
    kw.setdefault("aggregate_bw", 1 * GB)
    kw.setdefault("open_latency", 0.0)
    kw.setdefault("revoke_latency", 0.01)
    kw.setdefault("client_dirty_limit", 10 * GB)  # generous by default
    return LustreFileSystem(sim, n_nodes, **kw)


class TestOSSPool:
    def test_reads_and_writes_share_one_pool(self, sim):
        oss = OSSPool(sim, aggregate_bw=100 * MB)
        w = oss.write(100 * MB)
        r = oss.read(100 * MB)
        sim.run(until=sim.all_of([w, r]))
        # 200 MB through a shared 100 MB/s pool.
        assert sim.now == pytest.approx(2.0, rel=1e-2)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            OSSPool(sim, aggregate_bw=0)
        oss = OSSPool(sim, aggregate_bw=1 * GB)
        with pytest.raises(ValueError):
            oss.write(-1)


class TestWritePath:
    def test_write_within_grant_is_fast(self, sim):
        fs = make_fs(sim, client_dirty_limit=1 * GB)
        done = fs.write(0, 100 * MB, "shuffle_0_0")
        sim.run(until=done)
        # Absorbed at memory speed (3 GB/s), much faster than OSS pool.
        assert sim.now < 0.1

    def test_write_beyond_grant_throttles_to_oss(self, sim):
        fs = make_fs(sim, client_dirty_limit=64 * MB,
                     aggregate_bw=100 * MB)
        done = fs.write(0, 512 * MB, "big")
        sim.run(until=done)
        # (512-64) MB must go through the 100 MB/s OSS pool (shared with
        # background writeback of the fast 64 MB).
        assert sim.now > 3.0
        assert fs.clients[0].bytes_throttled == pytest.approx(448 * MB)

    def test_writes_record_lock_holder_and_size(self, sim):
        fs = make_fs(sim)
        sim.run(until=fs.write(2, 10 * MB, "f"))
        assert fs.lock_holder("f") == 2
        assert fs.size_of("f") == pytest.approx(10 * MB)

    def test_appends_accumulate_size(self, sim):
        fs = make_fs(sim)
        sim.run(until=fs.write(0, 10 * MB, "f"))
        sim.run(until=fs.write(0, 5 * MB, "f"))
        assert fs.size_of("f") == pytest.approx(15 * MB)


class TestReadPath:
    def test_holder_reads_own_data_from_cache(self, sim):
        fs = make_fs(sim, aggregate_bw=10 * MB)  # painfully slow OSS
        sim.run(until=fs.write(0, 100 * MB, "f"))
        start = sim.now
        sim.run(until=fs.read(0, 100 * MB, "f"))
        # Served from local client cache at memory speed, not 10 MB/s OSS.
        assert sim.now - start < 0.2
        assert fs.n_revokes == 0

    def test_cross_node_read_triggers_revocation(self, sim):
        fs = make_fs(sim)
        sim.run(until=fs.write(0, 100 * MB, "f"))
        sim.run(until=fs.read(1, 100 * MB, "f"))
        assert fs.n_revokes == 1
        assert fs.clients[0].forced_flushes >= 0  # flushed (or already clean)
        assert fs.lock_holder("f") is None

    def test_revocation_forces_flush_before_read(self, sim):
        """The Lustre-shared pathology: remote read waits for the holder's
        dirty data to reach the OSSes, then reads it back from them."""
        fs = make_fs(sim, aggregate_bw=100 * MB, client_dirty_limit=10 * GB)
        sim.run(until=fs.write(0, 200 * MB, "f"))
        t0 = sim.now
        sim.run(until=fs.read(1, 200 * MB, "f"))
        elapsed = sim.now - t0
        # At least: remaining flush of ~200 MB + read of 200 MB at 100 MB/s
        # (writeback may have progressed a little before the read arrived).
        assert elapsed > 2.0

    def test_second_remote_read_no_second_revoke(self, sim):
        fs = make_fs(sim)
        sim.run(until=fs.write(0, 50 * MB, "f"))
        sim.run(until=fs.read(1, 50 * MB, "f"))
        sim.run(until=fs.read(2, 50 * MB, "f"))
        assert fs.n_revokes == 1

    def test_read_local_path_never_revokes(self, sim):
        fs = make_fs(sim)
        sim.run(until=fs.write(0, 50 * MB, "f"))
        sim.run(until=fs.read_local(0, 50 * MB, "f"))
        assert fs.n_revokes == 0

    def test_mds_ops_counted(self, sim):
        fs = make_fs(sim)
        sim.run(until=fs.write(0, MB, "a"))
        sim.run(until=fs.read(0, MB, "a"))
        assert fs.n_mds_ops == 2

    def test_mds_is_a_throughput_bottleneck(self):
        """Many tiny operations queue at the MDS."""

        def run(ops_per_s):
            s = Simulator()
            fs = LustreFileSystem(s, 2, aggregate_bw=100 * GB,
                                  mds_ops_per_s=ops_per_s,
                                  open_latency=0.0)
            done = [fs.write(0, 1.0, f"f{i}") for i in range(200)]
            s.run(until=s.all_of(done))
            return s.now

        assert run(100.0) > 10 * run(100000.0)

    def test_node_bounds_checked(self, sim):
        fs = make_fs(sim, n_nodes=2)
        with pytest.raises(ValueError):
            fs.write(5, MB, "f")
        with pytest.raises(ValueError):
            fs.read(-1, MB, "f")

    @pytest.mark.parametrize("field", ["open_latency", "revoke_latency"])
    def test_negative_latency_rejected(self, sim, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            make_fs(sim, **{field: -1.0})


class TestClientCache:
    def test_clean_cache_evicts_lru(self, sim):
        fs = make_fs(sim, client_cache_bytes=150 * MB,
                     client_dirty_limit=10 * GB)
        c = fs.clients[0]
        sim.run(until=fs.write(0, 100 * MB, "old"))
        sim.run()  # writeback makes it clean
        sim.run(until=fs.write(0, 100 * MB, "new"))
        sim.run()
        assert c.clean_total <= 150 * MB + 1.0
        assert c.cached_bytes_of("new") == pytest.approx(100 * MB)
        assert c.cached_bytes_of("old") < 100 * MB

    def test_flush_file_idempotent_when_clean(self, sim):
        fs = make_fs(sim)
        sim.run(until=fs.write(0, 10 * MB, "f"))
        sim.run()  # background flush completes
        ev = fs.clients[0].flush_file("f")
        assert ev.triggered  # nothing dirty -> immediate
