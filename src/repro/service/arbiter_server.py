"""The arbiter service: grants over sockets, epoch-fenced failover.

One process per configured arbiter endpoint wraps one
:class:`~repro.core.arbiter.Arbiter`.  The primary (index 0) starts
active at epoch 1; standbys answer ``not-active`` (clients rotate) and
ping the arbiters ahead of them every heartbeat interval.  When no
lower-index arbiter has answered as active for a full lease timeout,
the standby runs the takeover:

1. **Poll** every node over the control plane (never through the fault
   proxy) for its epoch, applied frontier, highest sequence seen, and
   unreleased granted commits.
2. **Adopt** the highest epoch observed anywhere and ``crash()`` the
   core — the bump lands the new incarnation one past every lease the
   dead primary could have issued.
3. **Readmit** every surviving commit into the rebuilt W list
   (reconstruction = serial degraded mode until they drain) and pick
   ``next_seq`` above every sequence any node has seen.
4. **Fence** every node with the new epoch, the survivor (live) set,
   and ``next_seq``; nodes void the sequence holes nobody owns.  A node
   that cannot be fenced fails the takeover with
   :class:`~repro.errors.FailoverError` and the whole attempt retries —
   serving with an unfenced node would split the cluster.
5. Go active.  Normal overlapped commit resumes once the survivors
   release (``arb.recovered``).

Writer fencing is the converse guard: an active arbiter that sees a
request stamped with a *higher* epoch has been superseded and
deactivates itself (``fenced``), so a paused-not-dead primary can never
issue grants that race its successor's.

Idempotency: grants of write commits are cached by commit id until
their release, so a retried ``commit`` re-reads the same sequence
number instead of consuming a second one; a read-only grant takes no
sequence number and is not cached; duplicate releases are tolerated by
the core.  Commit ids are unique cluster-wide (see
:class:`~repro.service.node.NodeServer`), so a cached grant can only be
the answer to its own request.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.errors import FailoverError, TransportError
from repro.params import BulkSCConfig, SignatureConfig
from repro.service import clock
from repro.core.arbiter import Arbiter
from repro.service.cluster import ClusterConfig
from repro.service.records import GRANT, RECOVERY_MAJOR, RecordLog
from repro.service.server import ServiceServer
from repro.service.transport import RetryPolicy, ServiceClient
from repro.signatures.factory import SignatureFactory

#: Logical recovery target in the merged trace: the arbiter *service*,
#: spanning incarnations, matching the simulator's recovery records.
RECOVERY_TARGET = "arbiter0"


class ArbiterServer(ServiceServer):
    """One arbiter process (primary or standby)."""

    def __init__(self, config: ClusterConfig, index: int):
        endpoint = config.arbiters[index]
        name = f"arbiter-{index}"
        super().__init__(name, endpoint.host, endpoint.port)
        self.config = config
        self.index = index
        self.core = Arbiter(
            BulkSCConfig(
                signature=SignatureConfig(exact=True),
                rsig_optimization=False,  # requests always carry both sigs
            )
        )
        self.active = index == 0
        self.next_seq = 1
        self.records = RecordLog(config.record_path(name))
        self._factory = SignatureFactory(SignatureConfig(exact=True))
        self._grant_cache: Dict[int, dict] = {}
        self._watch_task: Optional[asyncio.Task] = None
        self._seen_epoch = 1
        self._takeovers = 0
        self._policy = RetryPolicy(
            attempts=config.retry_attempts,
            base=config.retry_base,
            cap=config.retry_cap,
            timeout=config.request_timeout,
        )
        self.core.on_recovered = self._on_recovered

    # ------------------------------------------------------------------
    async def on_start(self) -> None:
        if not self.active:
            self._watch_task = asyncio.ensure_future(self._watch_primary())

    async def on_shutdown(self) -> None:
        if self._watch_task is not None:
            self._watch_task.cancel()
        self.records.close()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def handle(self, method: str, msg: dict) -> dict:
        if method == "commit":
            return self._handle_commit(msg)
        if method == "release":
            return self._handle_release(msg)
        if method == "ping" or method == "status":
            return self._handle_status()
        if method == "shutdown":
            self.request_shutdown()
            return {"stopping": True}
        return {"error": f"unknown method {method!r}"}

    def _handle_status(self) -> dict:
        return {
            "role": "arbiter",
            "index": self.index,
            "active": self.active,
            "epoch": self.core.epoch,
            "mode": self.core.mode.value,
            "next_seq": self.next_seq,
            "pending": self.core.pending_count,
            "takeovers": self._takeovers,
        }

    def _check_fenced(self, msg: dict) -> Optional[dict]:
        """Writer fencing: a higher-epoch request means we were superseded."""
        msg_epoch = int(msg.get("epoch", 0))
        self._seen_epoch = max(self._seen_epoch, msg_epoch)
        if not self.active:
            return {"error": "not-active"}
        if msg_epoch > self.core.epoch:
            self.active = False
            return {"error": "fenced"}
        return None

    def _handle_commit(self, msg: dict) -> dict:
        fenced = self._check_fenced(msg)
        if fenced is not None:
            return fenced
        commit_id = int(msg["commit_id"])
        cached = self._grant_cache.get(commit_id)
        if cached is not None:
            return dict(cached)  # idempotent retry: same seq, same lease
        if int(msg.get("epoch", 0)) < self.core.epoch:
            # The node missed the fence (or its request predates it):
            # its speculative state is stamped with a dead lease.
            return {"granted": False, "reason": "stale epoch", "error": "stale-epoch"}
        proc = int(msg["proc"])
        w_keys = [int(k) for k in msg.get("w_keys", [])]
        r_keys = [int(k) for k in msg.get("r_keys", [])]
        w_sig = self._factory.from_addresses(w_keys)
        r_sig = self._factory.from_addresses(r_keys)
        now = clock.monotonic()
        decision = self.core.decide(proc, w_sig, r_sig, now)
        if not decision.granted:
            return {"granted": False, "reason": decision.reason}
        epoch = self.core.epoch
        if bool(msg.get("read_only")) or not w_keys:
            # Read-only (empty W) chunks consume no sequence number and
            # never enter the W list; the node records their grant at
            # the replica frontier they observed.
            return {"granted": True, "seq": None, "epoch": epoch}
        seq = self.next_seq
        self.next_seq += 1
        self.core.admit(commit_id, proc, w_sig, now)
        # Durable before the response: a grant some node acts on must
        # exist in the merged trace even if we are killed right after.
        self.records.append(
            "chunk.grant",
            (epoch, seq, GRANT, 0, 0),
            p=proc,
            commit=commit_id,
            chunk=int(msg.get("chunk", commit_id)),
            epoch=[epoch],
            seq=seq,
        )
        response = {"granted": True, "seq": seq, "epoch": epoch}
        self._grant_cache[commit_id] = response
        return dict(response)

    def _handle_release(self, msg: dict) -> dict:
        fenced = self._check_fenced(msg)
        if fenced is not None:
            return fenced
        commit_id = int(msg["commit_id"])
        self.core.release(
            commit_id, clock.monotonic(), epoch=int(msg.get("epoch", 0)) or None
        )
        self._grant_cache.pop(commit_id, None)
        return {"released": True, "mode": self.core.mode.value}

    def _on_recovered(self, now: float) -> None:
        self.records.append(
            "arb.recovered",
            (self.core.epoch, RECOVERY_MAJOR, 2, 0, 0),
            target=RECOVERY_TARGET,
            epoch=self.core.epoch,
        )

    # ------------------------------------------------------------------
    # Standby: heartbeat watch and takeover
    # ------------------------------------------------------------------
    async def _watch_primary(self) -> None:
        """Ping lower-index arbiters; take over when none answers active.

        Standby *k* waits ``k`` lease timeouts before acting, so when
        several standbys exist the lowest-index survivor wins and the
        others observe its promotion instead of racing it.
        """
        interval = self.config.heartbeat_interval
        patience = self.config.lease_timeout * self.index
        last_alive = clock.monotonic()
        while not self.active:
            await asyncio.sleep(interval)
            alive = await self._ping_predecessors()
            now = clock.monotonic()
            if alive:
                last_alive = now
                continue
            if now - last_alive < patience:
                continue
            try:
                await self._take_over()
            except (FailoverError, TransportError):
                # A node was unreachable mid-takeover: serving now would
                # split the cluster.  Back off and retry from scratch —
                # the predecessor may also have come back meanwhile.
                last_alive = clock.monotonic()

    async def _ping_predecessors(self) -> bool:
        for i in range(self.index):
            endpoint = self.config.arbiters[i]
            try:
                response = await asyncio.wait_for(
                    self._ping_once(endpoint.host, endpoint.port),
                    self.config.heartbeat_interval * 2,
                )
            except (OSError, asyncio.TimeoutError):
                continue
            epoch = int(response.get("epoch", 0))
            self._seen_epoch = max(self._seen_epoch, epoch)
            if response.get("active"):
                return True
        return False

    async def _ping_once(self, host: str, port: int) -> dict:
        from repro.service.transport import request_once

        return await request_once(
            host, port, "ping", timeout=self.config.heartbeat_interval * 2
        )

    async def _take_over(self) -> None:
        """Epoch-fenced failover: poll, adopt+crash, readmit, fence, serve."""
        now = clock.monotonic()
        polls = await self._poll_nodes()
        old_epoch = max(
            [self._seen_epoch, self.core.epoch]
            + [int(p.get("epoch", 0)) for p in polls]
        )
        self.core.adopt_epoch(old_epoch)
        self.core.crash(now)
        new_epoch = self.core.epoch
        self.records.append(
            "arb.crash",
            (new_epoch, RECOVERY_MAJOR, 0, 0, 0),
            target=RECOVERY_TARGET,
            epoch=new_epoch,
        )
        self.core.begin_reconstruction(now)
        survivors: Dict[int, dict] = {}
        for poll in polls:
            for entry in poll.get("inflight", []):
                survivors.setdefault(int(entry["commit_id"]), entry)
        live: List[int] = []
        for commit_id, entry in sorted(survivors.items()):
            w_sig = self._factory.from_addresses(
                [int(k) for k in entry.get("w_keys", [])]
            )
            self.core.readmit(commit_id, int(entry["proc"]), w_sig, now)
            self._grant_cache[commit_id] = {
                "granted": True,
                "seq": int(entry["seq"]),
                "epoch": int(entry["epoch"]),
            }
            live.append(int(entry["seq"]))
        highest = max(
            [int(p.get("max_seq", 0)) for p in polls]
            + [int(p.get("applied_upto", 0)) for p in polls]
            + live
            + [self.next_seq - 1]
        )
        self.next_seq = highest + 1
        await self._fence_nodes(new_epoch, live)
        self.records.append(
            "arb.reconstruct",
            (new_epoch, RECOVERY_MAJOR, 1, 0, 0),
            target=RECOVERY_TARGET,
            epoch=new_epoch,
        )
        self._takeovers += 1
        self.active = True
        # No survivors means reconstruction is vacuously drained and
        # normal overlapped commit resumes immediately.
        self.core.finish_reconstruction_if_drained(clock.monotonic())

    async def _poll_nodes(self) -> List[dict]:
        """Poll every node (control plane); all must answer or we abort."""
        polls: List[dict] = []
        for i, (host, port) in enumerate(self.config.node_endpoints(via_proxy=False)):
            response = await self._control_request(host, port, "poll", f"node{i}")
            polls.append(response)
        return polls

    async def _fence_nodes(self, epoch: int, live: List[int]) -> None:
        for i, (host, port) in enumerate(self.config.node_endpoints(via_proxy=False)):
            response = await self._control_request(
                host,
                port,
                "fence",
                f"node{i}",
                epoch=epoch,
                next_seq=self.next_seq,
                live=live,
            )
            if not response.get("fenced"):
                raise FailoverError(
                    f"node{i} rejected fence to epoch {epoch}: {response}"
                )

    async def _control_request(
        self, host: str, port: int, method: str, who: str, **params: object
    ) -> dict:
        client = ServiceClient(
            host, port, self._policy, name=f"arbiter-{self.index}->{who}"
        )
        try:
            response = await client.request(method, **params)
        except TransportError as exc:
            raise FailoverError(
                f"takeover blocked: {who} unreachable for {method!r} ({exc})"
            ) from exc
        finally:
            await client.close()
        if response.get("error"):
            raise FailoverError(
                f"takeover blocked: {who} answered {method!r} with {response}"
            )
        return response


__all__ = ["ArbiterServer", "RECOVERY_TARGET"]
