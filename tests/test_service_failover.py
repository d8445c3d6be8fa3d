"""Process-level failover acceptance: kill -9 the arbiter, lose nothing.

These tests spawn real OS processes through the supervisor (each
component is its own ``python -m repro serve`` subprocess), so SIGKILL
is an actual crash — no in-process cleanup, no shared state, just a
dead socket and whatever hit the disk.  They are the slowest tests in
the suite (a few seconds each) and the PR's acceptance criterion:

* the standby takes over within its lease after the primary dies;
* every write acknowledged to any client survives into the certified
  merged history and the converged replica image — zero
  acknowledged-write loss across the crash.
"""

import asyncio
import signal

import pytest

from repro.service import clock
from repro.service.bench import BenchOptions, run_bench
from repro.service.certify import certify_run
from repro.service.client import KVClient
from repro.service.cluster import build_cluster_config
from repro.service.supervisor import Supervisor, sync_request


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


# ---------------------------------------------------------------------------
class TestKillMinusNine:
    def test_failover_within_lease_and_zero_acked_loss(self, tmp_path):
        """The headline drill, step by step (not via the bench loop)."""
        config = build_cluster_config(
            str(tmp_path), 2, num_standbys=1, seed=3,
            heartbeat_interval=0.05, lease_timeout=0.4,
        )
        supervisor = Supervisor(config)
        supervisor.start()
        try:
            supervisor.wait_ready()

            async def body():
                kv = KVClient(config, 0)
                try:
                    for i in range(5):
                        await kv.put(100 + i, i + 1)
                    supervisor.kill("arbiter-0", sig=signal.SIGKILL)
                    assert not supervisor.alive("arbiter-0")
                    killed_at = clock.monotonic()
                    # Writes must keep committing through the takeover;
                    # the client's retry budget spans the lease.
                    for i in range(5, 10):
                        await kv.put(100 + i, i + 1)
                    resumed_after = clock.monotonic() - killed_at
                    reads = await kv.txn([("r", 100 + i) for i in range(10)])
                finally:
                    await kv.close()
                return resumed_after, reads

            resumed_after, reads = run(body())
            # Takeover budget: standby patience (lease x index) + poll +
            # fence + the first post-fence commit.  4x lease is the
            # acceptance bound; typical is ~1-2x.
            assert resumed_after < 4 * config.lease_timeout + 2.0
            assert reads == {str(100 + i): i + 1 for i in range(10)}
            status = sync_request(
                config.arbiters[1].host, config.arbiters[1].port, "status"
            )
            assert status["active"]
            assert status["takeovers"] == 1
            assert status["epoch"] >= 2
        finally:
            supervisor.shutdown()
        result = certify_run(str(tmp_path), seed=3)
        assert result.ok, result.payload()
        assert result.acked_writes == 10  # the read-only batch is ack-free
        assert not result.lost_acks

    def test_bench_failover_drill_certifies(self, tmp_path):
        """The same drill through the open-loop bench (what CI runs)."""
        payload = run(
            run_bench(
                BenchOptions(
                    service_dir=str(tmp_path),
                    clients=3,
                    nodes=2,
                    standbys=1,
                    duration=4.0,
                    rate=12.0,
                    kill_primary_at=1.2,
                    seed=7,
                )
            )
        )
        assert payload["failover"]["takeovers"] == 1
        assert payload["failover"]["killed_primary_at_s"] == pytest.approx(
            1.2, abs=0.5
        )
        # Commits resumed: the largest gap in the 5s after the kill is
        # far below the window length (i.e. the stream restarted).
        assert payload["failover"]["max_commit_stall_s"] < 3.0
        assert payload["committed"] > 0
        assert payload["certification"]["ok"], payload["certification"]
        assert payload["certification"]["lost_acks"] == []

    def test_node_crash_loses_only_unacked_work(self, tmp_path):
        """Killing a *node* mid-run: acked writes still certify.

        The dead replica's snapshot is absent (it was SIGKILLed), so
        convergence is judged over the survivors; every acknowledged
        write must still be present.
        """
        config = build_cluster_config(
            str(tmp_path), 2, num_standbys=1, seed=9,
        )
        supervisor = Supervisor(config)
        supervisor.start()
        try:
            supervisor.wait_ready()

            async def body():
                kv = KVClient(config, 1)  # home node 1 (the survivor)
                try:
                    for i in range(4):
                        await kv.put(200 + i, i + 1)
                    supervisor.kill("node0", sig=signal.SIGKILL)
                    # The survivor keeps serving its own session's reads.
                    assert await kv.get(200) == 1
                finally:
                    await kv.close()

            run(body())
        finally:
            supervisor.shutdown()
        result = certify_run(str(tmp_path), seed=9)
        assert result.sc_ok
        assert result.acked_ok and not result.lost_acks
        assert result.snapshots == 1  # only node1 exited cleanly


# ---------------------------------------------------------------------------
class TestFaultyWire:
    def test_drop_dup_faults_certify(self, tmp_path):
        payload = run(
            run_bench(
                BenchOptions(
                    service_dir=str(tmp_path),
                    clients=2,
                    nodes=2,
                    standbys=0,
                    duration=2.5,
                    rate=8.0,
                    faults="drop,dup",
                    fault_rate=0.02,
                    seed=21,
                )
            ),
            timeout=180,
        )
        assert payload["certification"]["ok"], payload["certification"]
        assert payload["faults"]["spelling"] == "drop,dup"


# ---------------------------------------------------------------------------
class TestBenchContracts:
    LEASE = 0.4

    def bench(self, tmp_path, name, **overrides):
        options = BenchOptions(
            service_dir=str(tmp_path / name),
            clients=3,
            nodes=2,
            standbys=1,
            duration=4.0,
            rate=15.0,
            seed=7,
            lease_timeout=self.LEASE,
            **overrides,
        )
        return run(run_bench(options), timeout=180)

    def test_throughput_and_failover(self, tmp_path):
        """Two clean runs and one with the primary SIGKILLed mid-load.

        The socket path sustains a usable commit rate and every run
        certifies (SC + contracts + convergence + zero acked-write loss);
        the standby takes over exactly once, and the commit stream's
        largest stall stays within a small multiple of the lease.  A live
        run is not deterministic, so the clean contract is held twice.
        """
        clean = self.bench(tmp_path, "clean")
        failover = self.bench(tmp_path, "failover", kill_primary_at=1.5)
        again = self.bench(tmp_path, "again")
        # The throughput floor is conservative: 3 clients at 15 batch/s
        # for 4 s is 180 offered; even a loaded machine lands a third.
        for payload in (clean, failover, again):
            assert payload["certification"]["ok"], payload["certification"]
            assert payload["certification"]["lost_acks"] == []
            assert payload["committed"] >= 60
            assert payload["errors"] == 0
        assert clean["failover"]["takeovers"] == 0
        assert failover["failover"]["takeovers"] == 1
        # Standby patience + poll + fence, not a drift toward the run length.
        assert failover["failover"]["max_commit_stall_s"] < 8 * self.LEASE
