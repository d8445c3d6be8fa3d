"""A replica node: client sessions are processors, batches are chunks.

Each node holds a full copy of the key-value store and hosts a range of
client sessions.  A client batch executes speculatively against the
local replica (reads from applied state, writes buffered), producing
the chunk's R/W key sets; the node then requests permission to commit
from the arbiter exactly like a simulated processor's commit engine:

1. **Arbitrate** — send ``commit`` with the W/R signatures' key sets and
   the node's current epoch.  Denials (W collision, serial degraded
   mode, stale epoch) back off and re-execute; a re-execution is a
   fresh *attempt* with a fresh chunk id, so the arbiter never sees two
   meanings for one commit id.
2. **Propagate** — a granted write chunk owns commit sequence *seq*.
   The committer broadcasts the write-set to every replica (itself
   included); replicas apply updates in **contiguous seq order**,
   buffering holes, and only acknowledge an update once applied.
   Applying a W squashes every in-flight attempt whose R∪W signature
   collides with it — bulk disambiguation, exactly as in the simulator.
3. **Release** — when every replica acked, the committer releases the W
   at the arbiter and only then acknowledges the client.  An
   acknowledged write is therefore applied at *every* replica, which is
   what makes "zero acknowledged-write loss" hold across arbiter
   crashes: anything the client saw acked survives on every node.

A chunk granted-then-squashed (its grant raced a conflicting delivery)
still owns its seq: the committer broadcasts a **no-op** filler so the
contiguous apply order never stalls on an abandoned hole, releases, and
re-executes.

Failover appears to a node as three messages: ``poll`` (report applied
frontier and in-flight granted chunks to the new incarnation),
``fence`` (adopt the new epoch, squash requested attempts, void the
sequence holes no survivor owns), and thereafter grants stamped with
the new lease.  A node never adopts an epoch from a grant response —
only the fence carries the void set that makes the cut consistent.

Every protocol transition lands in the node's record log (see
:mod:`~repro.service.records` for the global sort keys) before its
network effect is visible, so the merged live trace replays through the
same contract checkers as a simulated run.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ProgramError, ServiceError, TransportError
from repro.params import SignatureConfig
from repro.service import clock
from repro.service.cluster import ClusterConfig
from repro.service.records import (
    DELIVER,
    EXPAND,
    GRANT,
    RecordLog,
    SERIALIZE,
)
from repro.service.server import ServiceServer
from repro.service.transport import FailoverClient, RetryPolicy, ServiceClient
from repro.signatures.base import Signature
from repro.signatures.factory import SignatureFactory

#: Upper bound on squash/denial re-executions of one client batch.
MAX_ATTEMPTS = 10_000

#: How long an ``update`` handler waits for its sequence gap to fill
#: before NACKing (the sender retries); kept short so a stalled hole
#: does not hold peer connections hostage.
APPLY_WAIT_FRACTION = 0.25


@dataclass
class _Attempt:
    """One execution attempt of a client batch (one chunk candidate)."""

    id: int
    client: int  # client processor id (CLIENT_PROC_BASE + session index)
    client_seq: int
    reads: Dict[int, int]
    writes: Dict[int, int]
    rows: List[List[int]]  # [is_store, key, value] per op, program order
    r_keys: List[int]
    w_keys: List[int]
    sig: Signature  # R∪W footprint, squash detection vs delivered Ws
    frontier: int  # applied_upto when the reads were taken
    squashed: bool = False
    voided: bool = False


@dataclass
class _GrantedCommit:
    """A granted write chunk between grant and release (poll-reported)."""

    attempt: _Attempt
    seq: int
    epoch: int
    noop: bool
    released: bool = False


class NodeServer(ServiceServer):
    """One replica process: KV store, client sessions, commit pipeline."""

    def __init__(self, config: ClusterConfig, index: int):
        endpoint = config.nodes[index]
        name = f"node{index}"
        super().__init__(name, endpoint.host, endpoint.port)
        self.config = config
        self.index = index
        self.epoch = 1
        self.store: Dict[int, int] = {}
        self.applied_upto = 0
        self.records = RecordLog(config.record_path(name))
        self._factory = SignatureFactory(SignatureConfig(exact=True))
        self._policy = RetryPolicy(
            attempts=config.retry_attempts,
            base=config.retry_base,
            cap=config.retry_cap,
            timeout=config.request_timeout,
        )
        self._arbiter = FailoverClient(
            config.arbiter_endpoints(), self._policy, name=f"{name}->arb"
        )
        self._peers: Dict[int, List[ServiceClient]] = {}
        self._peer_rr = 0
        # Commit pipeline state.
        #: Attempt (commit) ids: node ``index`` uses ``index + n * len(nodes)``
        #: for n = 1, 2, ..., so ids of different nodes never collide.
        self._next_attempt = index + len(config.nodes)
        self._inflight: Dict[int, _Attempt] = {}  # squash window (requested)
        self._granted: Dict[int, _GrantedCommit] = {}  # grant..release
        self._pending: Dict[int, dict] = {}  # buffered updates by seq
        self._voids: Set[int] = set()
        self._applied_commits: Set[int] = set()
        self._buffered_commits: Dict[int, int] = {}  # commit_id -> seq
        self._apply_waiters: List[asyncio.Event] = []
        self._max_seq_seen = 0
        # Client session bookkeeping.
        self._txn_futures: Dict[Tuple[int, int], asyncio.Future] = {}
        self._done: Dict[int, Tuple[int, dict]] = {}
        self._op_base: Dict[int, int] = {}
        self._ro_counter = 0
        #: While a takeover is in progress (between a recovery poll and
        #: its fence) applies freeze, so nothing commits into the old
        #: epoch after the new incarnation snapshotted our state.
        self._quiesced_until = 0.0

    # ------------------------------------------------------------------
    # Request dispatch (ServiceServer hook)
    # ------------------------------------------------------------------
    async def handle(self, method: str, msg: dict) -> dict:
        if method == "txn":
            return await self._handle_txn(msg)
        if method == "update":
            return await self._handle_update(msg)
        if method == "poll":
            return self._handle_poll()
        if method == "fence":
            return self._handle_fence(msg)
        if method == "ping":
            return {"role": "node", "index": self.index, "epoch": self.epoch}
        if method == "status":
            return self._handle_status()
        if method == "snapshot":
            return {"store": {str(k): v for k, v in sorted(self.store.items())},
                    "applied_upto": self.applied_upto, "epoch": self.epoch}
        if method == "shutdown":
            self.request_shutdown()
            return {"stopping": True}
        return {"error": f"unknown method {method!r}"}

    def _handle_status(self) -> dict:
        return {
            "role": "node",
            "index": self.index,
            "epoch": self.epoch,
            "applied_upto": self.applied_upto,
            "keys": len(self.store),
            "inflight": len(self._inflight),
            "granted": len(self._granted),
            "buffered": len(self._pending),
            "voids": len(self._voids),
        }

    async def on_shutdown(self) -> None:
        import json
        import os

        # Drain in-flight commits so every emitted delivery has its
        # serialize record on disk before the snapshot freezes the run.
        deadline = clock.monotonic() + 2.0
        while self._granted and clock.monotonic() < deadline:
            await asyncio.sleep(0.01)
        snapshot = {
            "store": {str(k): v for k, v in sorted(self.store.items())},
            "applied_upto": self.applied_upto,
            "epoch": self.epoch,
        }
        path = self.config.snapshot_path(f"node{self.index}")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, sort_keys=True)
        self.records.close()
        await self._arbiter.close()
        for pool in self._peers.values():
            for client in pool:
                await client.close()

    # ------------------------------------------------------------------
    # Client transactions
    # ------------------------------------------------------------------
    async def _handle_txn(self, msg: dict) -> dict:
        client = int(msg["client"])
        client_seq = int(msg["client_seq"])
        done = self._done.get(client)
        if done is not None and done[0] == client_seq:
            return dict(done[1])  # idempotent client retry
        if done is not None and client_seq < done[0]:
            return {"error": f"stale client_seq {client_seq} (done {done[0]})"}
        key = (client, client_seq)
        future = self._txn_futures.get(key)
        if future is None:
            future = asyncio.ensure_future(
                self._run_txn(client, client_seq, list(msg["ops"]))
            )
            self._txn_futures[key] = future
        try:
            result = await asyncio.shield(future)
        finally:
            if future.done():
                self._txn_futures.pop(key, None)
        self._done[client] = (client_seq, result)
        return dict(result)

    def _execute(self, ops: List[list]) -> Tuple[Dict[int, int], Dict[int, int], List[List[int]]]:
        """Run a batch against applied state; synchronous, hence atomic."""
        reads: Dict[int, int] = {}
        writes: Dict[int, int] = {}
        rows: List[List[int]] = []
        for op in ops:
            kind = op[0]
            key = int(op[1])
            if kind == "r":
                value = writes.get(key, self.store.get(key, 0))
                reads[key] = value
                rows.append([False, key, value])
            elif kind == "w":
                value = int(op[2])
                writes[key] = value
                rows.append([True, key, value])
            else:
                raise ProgramError(f"unknown txn op kind {kind!r}")
        return reads, writes, rows

    def _new_attempt(self, client: int, client_seq: int, ops: List[list]) -> _Attempt:
        reads, writes, rows = self._execute(ops)
        r_keys = sorted(reads)
        w_keys = sorted(writes)
        attempt = _Attempt(
            id=self._next_attempt,
            client=client,
            client_seq=client_seq,
            reads=reads,
            writes=writes,
            rows=rows,
            r_keys=r_keys,
            w_keys=w_keys,
            sig=self._factory.from_addresses(r_keys + w_keys),
            frontier=self.applied_upto,
        )
        self._next_attempt += len(self.config.nodes)
        self._inflight[attempt.id] = attempt
        return attempt

    async def _run_txn(self, client: int, client_seq: int, ops: List[list]) -> dict:
        backoff = self._policy
        rng = self._rng  # from ServiceServer, seeded per component
        for attempt_no in range(MAX_ATTEMPTS):
            attempt = self._new_attempt(client, client_seq, ops)
            read_only = not attempt.writes
            try:
                response = await self._arbiter.request(
                    "commit",
                    commit_id=attempt.id,
                    proc=client,
                    chunk=attempt.id,
                    w_keys=attempt.w_keys,
                    r_keys=attempt.r_keys,
                    epoch=self.epoch,
                    read_only=read_only,
                )
            except TransportError:
                self._inflight.pop(attempt.id, None)
                raise
            if not response.get("granted"):
                self._inflight.pop(attempt.id, None)
                await asyncio.sleep(backoff.backoff(min(attempt_no, 5), rng))
                continue
            grant_epoch = int(response["epoch"])
            if grant_epoch < self.epoch or (
                grant_epoch == self.epoch
                and clock.monotonic() < self._quiesced_until
            ):
                # A grant from a dead (or dying) incarnation: either it
                # predates an epoch we already adopted, or it landed
                # inside a takeover window, where the coming fence voids
                # any seq no poll reported.  Acting on it would commit
                # state the rest of the cluster discards; abandon the
                # attempt and re-arbitrate against whoever wins.
                self._inflight.pop(attempt.id, None)
                await asyncio.sleep(backoff.backoff(min(attempt_no, 5), rng))
                continue
            if read_only:
                self._inflight.pop(attempt.id, None)
                if attempt.squashed:
                    continue  # values were invalidated mid-request
                return self._finish_read_only(attempt, grant_epoch)
            result = await self._commit_write(attempt, grant_epoch, int(response["seq"]))
            if result is not None:
                return result
            # Granted-then-squashed (or voided): the seq was filled with a
            # no-op (or voided by a fence); re-execute the batch.
        raise ServiceError(
            f"client {client} txn {client_seq} exceeded {MAX_ATTEMPTS} attempts"
        )

    def _finish_read_only(self, attempt: _Attempt, epoch: int) -> dict:
        """Serialize a read-only chunk at the replica frontier it observed."""
        self._ro_counter += 1
        major = attempt.frontier + 0.5
        tail = (self.index, self._ro_counter)
        tick = self.records.tick()
        self.records.append(
            "chunk.grant",
            (epoch, major, GRANT) + tail,
            p=attempt.client,
            t=tick,
            commit=attempt.id,
            epoch=[epoch],
        )
        self._emit_serialize(attempt, epoch, (epoch, major, SERIALIZE) + tail)
        return {
            "committed": True,
            "reads": {str(k): v for k, v in sorted(attempt.reads.items())},
            "seq": None,
            "epoch": epoch,
        }

    def _emit_serialize(self, attempt: _Attempt, epoch: int, gkey: tuple) -> None:
        base = self._op_base.get(attempt.client, 0)
        rows = [
            [bool(row[0]), int(row[1]), int(row[2]), base + i]
            for i, row in enumerate(attempt.rows)
        ]
        self._op_base[attempt.client] = base + len(rows)
        self.records.append(
            "commit.serialize",
            gkey,
            p=attempt.client,
            commit=attempt.id,
            chunk=attempt.id,
            client_seq=attempt.client_seq,
            epoch=[epoch],
            ops=rows,
            w_lines=attempt.w_keys,
            r_lines=attempt.r_keys,
        )

    async def _commit_write(
        self, attempt: _Attempt, epoch: int, seq: int
    ) -> Optional[dict]:
        """Propagate a granted write chunk; ``None`` means re-execute."""
        self._max_seq_seen = max(self._max_seq_seen, seq)
        noop = attempt.squashed
        self._inflight.pop(attempt.id, None)
        granted = _GrantedCommit(attempt=attempt, seq=seq, epoch=epoch, noop=noop)
        self._granted[attempt.id] = granted
        update = {
            "commit_id": attempt.id,
            "seq": seq,
            "committer": attempt.client,
            "origin": self.index,
            "writes": {str(k): v for k, v in sorted(attempt.writes.items())},
            "w_keys": attempt.w_keys,
            "epoch": epoch,
            "noop": noop,
        }
        try:
            delivered = await self._broadcast_update(update, granted)
            if delivered:
                if not noop:
                    # Emitted only now, after every replica applied: a
                    # commit voided by a takeover fence mid-broadcast
                    # leaves no serialize record for the replay to
                    # observe.  The gkey still sorts these before the
                    # commit's deliveries regardless of when they hit
                    # disk.
                    self._emit_serialize(
                        attempt, epoch, (epoch, seq, SERIALIZE, 0, 0)
                    )
                    self.records.append(
                        "dir.expand",
                        (epoch, seq, EXPAND, 0, 0),
                        committer=attempt.client,
                        dir=0,
                        invalidation_list=list(range(len(self.config.nodes))),
                    )
                await self._release(attempt.id, epoch)
        finally:
            self._granted.pop(attempt.id, None)
        if noop or not delivered:
            return None
        return {
            "committed": True,
            "reads": {str(k): v for k, v in sorted(attempt.reads.items())},
            "seq": seq,
            "epoch": epoch,
        }

    async def _release(self, commit_id: int, epoch: int) -> None:
        response = await self._arbiter.request(
            "release", commit_id=commit_id, epoch=epoch
        )
        if not response.get("ok"):
            raise ServiceError(f"release of commit {commit_id} refused: {response}")

    # ------------------------------------------------------------------
    # Update propagation
    # ------------------------------------------------------------------
    def _peer_client(self, peer: int) -> ServiceClient:
        pool = self._peers.get(peer)
        if pool is None:
            host, port = self.config.node_endpoints()[peer]
            pool = [
                ServiceClient(host, port, self._policy, name=f"node{self.index}->node{peer}.{i}")
                for i in range(4)
            ]
            self._peers[peer] = pool
        self._peer_rr = (self._peer_rr + 1) % len(pool)
        return pool[self._peer_rr]

    async def _broadcast_update(self, update: dict, granted: _GrantedCommit) -> bool:
        """Deliver to every replica (self included); True once all applied.

        False means the commit was voided by a takeover fence mid-flight
        (its grant postdated the recovery poll): no replica applied it,
        no replica ever will, and the attempt must re-execute.
        """
        tasks = [
            asyncio.ensure_future(self._send_update(peer, update, granted))
            for peer in range(len(self.config.nodes))
            if peer != self.index
        ]
        local_ok = await self._deliver_local(update, granted)
        remote = await asyncio.gather(*tasks)
        return local_ok and all(remote)

    async def _send_update(
        self, peer: int, update: dict, granted: _GrantedCommit
    ) -> bool:
        rounds = max(self._policy.attempts * 4, 40)
        for attempt in range(rounds):
            if granted.attempt.voided:
                return False
            client = self._peer_client(peer)
            try:
                response = await client.request("update", **update)
            except TransportError:
                response = {}
            if response.get("applied"):
                return True
            if response.get("voided"):
                granted.attempt.voided = True
                return False
            await asyncio.sleep(self._policy.backoff(min(attempt, 5), self._rng))
        raise ServiceError(
            f"update seq {update['seq']} never applied at node{peer} "
            f"after {rounds} rounds"
        )

    async def _deliver_local(self, update: dict, granted: _GrantedCommit) -> bool:
        rounds = max(self._policy.attempts * 4, 40)
        for _ in range(rounds):
            response = await self._handle_update(dict(update))
            if response.get("applied"):
                return True
            if response.get("voided") or granted.attempt.voided:
                granted.attempt.voided = True
                return False
            await asyncio.sleep(self._policy.base)
        raise ServiceError(
            f"update seq {update['seq']} never applied locally at "
            f"node{self.index} after {rounds} rounds"
        )

    async def _handle_update(self, msg: dict) -> dict:
        commit_id = int(msg["commit_id"])
        seq = int(msg["seq"])
        self._max_seq_seen = max(self._max_seq_seen, seq)
        if commit_id in self._applied_commits:
            return {"applied": True, "duplicate": True}
        if seq in self._voids or seq <= self.applied_upto:
            # The fence voided this hole (or something else owned the
            # seq); the sender's grant died with the old incarnation.
            return {"applied": False, "voided": True}
        if commit_id not in self._buffered_commits:
            self._buffered_commits[commit_id] = seq
            self._pending[seq] = msg
            self._drain()
        if commit_id in self._applied_commits:
            return {"applied": True}
        # Wait briefly for the gap below us to fill; NACK on timeout so
        # the sender retries instead of monopolizing the connection.
        wait = max(0.01, self.config.request_timeout * APPLY_WAIT_FRACTION)
        event = asyncio.Event()
        self._apply_waiters.append(event)
        try:
            await asyncio.wait_for(event.wait(), wait)
        except asyncio.TimeoutError:
            pass
        if commit_id in self._applied_commits:
            return {"applied": True}
        if seq in self._voids:
            self._buffered_commits.pop(commit_id, None)
            self._pending.pop(seq, None)
            return {"applied": False, "voided": True}
        return {"applied": False, "stalled": self.applied_upto}

    def _drain(self) -> None:
        """Apply buffered updates and skip voids, in contiguous seq order."""
        if clock.monotonic() < self._quiesced_until:
            return  # takeover in progress; the fence will drain us
        progressed = False
        while True:
            nxt = self.applied_upto + 1
            if nxt in self._voids:
                self._voids.discard(nxt)
                self.applied_upto = nxt
                progressed = True
                continue
            update = self._pending.pop(nxt, None)
            if update is None:
                break
            self._apply(update)
            self.applied_upto = nxt
            progressed = True
        if progressed:
            waiters, self._apply_waiters = self._apply_waiters, []
            for event in waiters:
                event.set()

    def _apply(self, update: dict) -> None:
        commit_id = int(update["commit_id"])
        self._applied_commits.add(commit_id)
        self._buffered_commits.pop(commit_id, None)
        if update.get("noop"):
            return
        writes = {int(k): int(v) for k, v in update["writes"].items()}
        for key, value in sorted(writes.items()):
            self.store[key] = value
        w_keys = [int(k) for k in update["w_keys"]]
        w_sig = self._factory.from_addresses(w_keys)
        w_set = set(w_keys)
        sig_conflicts: List[int] = []
        true_conflicts: List[int] = []
        victims: List[_Attempt] = []
        for attempt in sorted(self._inflight.values(), key=lambda a: a.id):
            if attempt.squashed:
                continue
            if not w_sig.disjoint(attempt.sig):
                sig_conflicts.append(attempt.id)
                victims.append(attempt)
                if w_set & (set(attempt.r_keys) | set(attempt.w_keys)):
                    true_conflicts.append(attempt.id)
        epoch = int(update["epoch"])
        seq = int(update["seq"])
        tick = self.records.tick()
        self.records.append(
            "inv.deliver",
            (epoch, seq, DELIVER, self.index, 0),
            p=self.index,
            t=tick,
            commit=commit_id,
            committer=int(update["committer"]),
            w_lines=w_keys,
            sig_conflicts=sig_conflicts,
            true_conflicts=true_conflicts,
        )
        for j, attempt in enumerate(victims):
            attempt.squashed = True
            self.records.append(
                "chunk.squash",
                (epoch, seq, DELIVER, self.index, 1 + j),
                p=self.index,
                t=tick,
                chunk=attempt.id,
                reason="conflict",
            )

    # ------------------------------------------------------------------
    # Failover: poll and fence
    # ------------------------------------------------------------------
    def _handle_poll(self) -> dict:
        # Freeze applies until the fence arrives: a proxy-delayed grant
        # from the dead incarnation must not commit here after the new
        # one snapshotted our frontier, or replicas would diverge on a
        # seq the fence voids elsewhere.  The window self-expires in
        # case the takeover itself dies.
        self._quiesced_until = clock.monotonic() + 4 * self.config.lease_timeout
        inflight = [
            {
                "commit_id": g.attempt.id,
                "seq": g.seq,
                "proc": g.attempt.client,
                "chunk": g.attempt.id,
                "w_keys": g.attempt.w_keys,
                "epoch": g.epoch,
                "noop": g.noop,
            }
            for g in sorted(self._granted.values(), key=lambda g: g.seq)
            if not g.released
        ]
        buffered = max(self._pending) if self._pending else 0
        return {
            "role": "node",
            "index": self.index,
            "epoch": self.epoch,
            "applied_upto": self.applied_upto,
            "max_seq": max(self.applied_upto, self._max_seq_seen, buffered),
            "inflight": inflight,
        }

    def _handle_fence(self, msg: dict) -> dict:
        epoch = int(msg["epoch"])
        next_seq = int(msg["next_seq"])
        live = {int(s) for s in msg["live"]}
        if epoch <= self.epoch:
            return {"fenced": False, "epoch": self.epoch}
        self.epoch = epoch
        # Sequence holes no survivor owns died with the old incarnation.
        voided = []
        for seq in range(self.applied_upto + 1, next_seq):
            if seq in live or seq in self._pending:
                continue
            self._voids.add(seq)
            voided.append(seq)
        # Requested attempts re-enter under the new epoch: their pending
        # grant (if any) died with the old arbiter, and conservatively
        # squashing them keeps the epoch cut simple and safe.
        for attempt in self._inflight.values():
            attempt.squashed = True
        # A grant that arrived after our poll response was never
        # re-admitted: its seq is void everywhere, so the attempt must
        # not broadcast, release, or ack.
        for granted in self._granted.values():
            if granted.epoch < epoch and granted.seq not in live:
                granted.attempt.voided = True
                granted.attempt.squashed = True
        self._quiesced_until = 0.0
        self._drain()
        return {"fenced": True, "epoch": self.epoch, "voided": voided}
