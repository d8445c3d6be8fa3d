"""In-process service cluster: the full commit path on real sockets.

Runs nodes and arbiters as asyncio tasks inside one event loop (real
TCP on loopback, no subprocesses), drives client batches through the
chunk-commit protocol, and certifies the merged history.  Process-level
crash drills live in test_service_failover.py; this file owns protocol
correctness at asyncio speed.
"""

import asyncio

import pytest

from repro.errors import ServiceError
from repro.service.arbiter_server import ArbiterServer
from repro.service.certify import certify_run
from repro.service.client import KVClient
from repro.service.cluster import build_cluster_config
from repro.service.node import NodeServer


class Cluster:
    """Harness: servers as tasks in the current loop, clients attached."""

    def __init__(self, config):
        self.config = config
        self.nodes = [NodeServer(config, i) for i in range(len(config.nodes))]
        self.arbiters = [
            ArbiterServer(config, i) for i in range(len(config.arbiters))
        ]
        self.tasks = []
        self.clients = []

    async def __aenter__(self):
        for server in self.arbiters + self.nodes:
            self.tasks.append(asyncio.ensure_future(server.serve()))
        # serve() binds before on_start returns; one tick is enough for
        # the listen sockets to exist.
        await asyncio.sleep(0.05)
        return self

    async def client(self, index):
        kv = KVClient(self.config, index)
        self.clients.append(kv)
        return kv

    async def __aexit__(self, *exc):
        for kv in self.clients:
            await kv.close()
        # Nodes first: their shutdown hook writes the store snapshot.
        for server in self.nodes + self.arbiters:
            server.request_shutdown()
        await asyncio.gather(*self.tasks, return_exceptions=True)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


@pytest.fixture
def config(tmp_path):
    return build_cluster_config(str(tmp_path), 2, num_standbys=0, seed=5)


# ---------------------------------------------------------------------------
class TestCommitPath:
    def test_write_then_read_same_session(self, config):
        async def body():
            async with Cluster(config) as cluster:
                kv = await cluster.client(0)
                await kv.put(10, 111)
                assert await kv.get(10) == 111

        run(body())

    def test_writes_visible_across_nodes(self, config):
        async def body():
            async with Cluster(config) as cluster:
                kv0 = await cluster.client(0)  # home node 0
                kv1 = await cluster.client(1)  # home node 1
                await kv0.put(77, 1234)
                # The ack means every replica applied, so a different
                # session on a different home node must see the write.
                assert await kv1.get(77) == 1234

        run(body())

    def test_batch_is_atomic(self, config):
        async def body():
            async with Cluster(config) as cluster:
                kv0 = await cluster.client(0)
                kv1 = await cluster.client(1)
                await kv0.txn([("w", 1, 5), ("w", 2, 6)])
                reads = await kv1.txn([("r", 1), ("r", 2)])
                assert reads == {"1": 5, "2": 6}

        run(body())

    def test_duplicate_client_seq_not_reexecuted(self, config):
        async def body():
            async with Cluster(config) as cluster:
                kv = await cluster.client(0)
                await kv.put(3, 40)
                # Re-send the same (client, client_seq) directly: the node
                # must serve the cached result, not commit a second chunk.
                first = await kv._client.request(
                    "txn", client=kv.proc, client_seq=1,
                    ops=[["w", 3, 40]],
                )
                assert first["committed"]
                seq_before = first["seq"]
                again = await kv._client.request(
                    "txn", client=kv.proc, client_seq=1,
                    ops=[["w", 3, 40]],
                )
                assert again["seq"] == seq_before

        run(body())

    def test_contended_hot_key_last_writer_wins_consistently(self, config):
        async def body():
            async with Cluster(config) as cluster:
                kvs = [await cluster.client(i) for i in range(4)]
                await asyncio.gather(*[
                    kv.txn([("w", 5, 100 + i), ("w", 50 + i, i)])
                    for i, kv in enumerate(kvs)
                ])
                values = await asyncio.gather(*[kv.get(5) for kv in kvs])
                # All sessions agree on the serialization winner.
                assert len(set(values)) == 1
                assert values[0] in {100, 101, 102, 103}

        run(body())

    def test_unknown_op_kind_rejected_client_side(self, config):
        async def body():
            async with Cluster(config) as cluster:
                kv = await cluster.client(0)
                with pytest.raises(ServiceError):
                    await kv.txn([("x", 1)])

        run(body())


# ---------------------------------------------------------------------------
class TestLiveCertification:
    def test_run_certifies_end_to_end(self, config, tmp_path):
        async def body():
            async with Cluster(config) as cluster:
                kvs = [await cluster.client(i) for i in range(3)]
                for round_index in range(5):
                    await asyncio.gather(*[
                        kv.txn([
                            ("r", 5),
                            ("w", 5, round_index * 10 + i),
                            ("w", 100 + i, round_index),
                        ])
                        for i, kv in enumerate(kvs)
                    ])

        run(body())
        result = certify_run(str(tmp_path), seed=5)
        assert result.sc_ok, result.sc_reason
        assert result.contracts.ok, result.contracts.failing_components
        assert result.convergence_ok, result.convergence_detail
        assert result.acked_ok and not result.lost_acks
        assert result.chunks == 15
        assert result.snapshots == 2
        assert result.ok

    def test_merged_trace_passes_cli_checker(self, config, tmp_path):
        async def body():
            async with Cluster(config) as cluster:
                kv = await cluster.client(0)
                await kv.put(1, 2)
                await kv.put(2, 3)

        run(body())
        certify_run(str(tmp_path), seed=5)
        from repro.contracts.checker import check_trace
        from repro.replay.schema import read_trace

        trace = read_trace(str(tmp_path / "merged.trace.jsonl"))
        report = check_trace(trace)
        assert report.ok, report.failing_components

    def test_read_only_batches_certify(self, config, tmp_path):
        async def body():
            async with Cluster(config) as cluster:
                kv0 = await cluster.client(0)
                kv1 = await cluster.client(1)
                await kv0.put(9, 90)
                for _ in range(3):
                    assert await kv1.get(9) == 90

        run(body())
        result = certify_run(str(tmp_path), seed=5)
        assert result.ok


class TestCommitIds:
    """Commit ids name one attempt cluster-wide; the arbiter trusts them."""

    def test_node_attempt_ids_never_collide(self, config):
        """Node ``i`` numbers attempts ``i + n * len(nodes)``: disjoint ranges."""
        nodes = [NodeServer(config, i) for i in range(len(config.nodes))]
        try:
            ids = [
                [node._new_attempt(0, seq, []).id for seq in range(1, 6)]
                for node in nodes
            ]
        finally:
            for node in nodes:
                node.records.close()
        for index, node_ids in enumerate(ids):
            assert all(i % len(nodes) == index for i in node_ids), ids
        assert len({i for node_ids in ids for i in node_ids}) == 5 * len(nodes)

    def test_read_only_grant_is_not_cached(self, config):
        """A reused read-only id is arbitrated again, not served a stale grant."""
        arbiter = ArbiterServer(config, 0)
        try:
            epoch = arbiter.core.epoch
            read = {"epoch": epoch, "proc": 100, "r_keys": [5], "read_only": True}
            assert arbiter._handle_commit({**read, "commit_id": 7})["granted"]
            write = {"epoch": epoch, "proc": 101, "w_keys": [5], "commit_id": 8}
            assert arbiter._handle_commit(write)["seq"] == 1
            # W = {5} is now committing: the read must be denied under its
            # old id exactly as under a fresh one.
            for commit_id in (7, 9):
                response = arbiter._handle_commit({**read, "commit_id": commit_id})
                assert not response["granted"], (commit_id, response)
                assert "collides" in response["reason"]
        finally:
            arbiter.records.close()
