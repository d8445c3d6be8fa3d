"""Reconnecting request/response clients with bounded retries.

Every leg of the service speaks through a :class:`ServiceClient`: one
logical peer, one TCP connection at a time, automatic reconnect, a
per-request timeout, and exponential backoff **with jitter** between
attempts.  A request that exhausts its budget raises a typed
:class:`~repro.errors.TransportError` — the caller decides whether that
is fatal (a client txn) or survivable (a retried release).

Retried requests are only safe because every server method is
idempotent: commit grants are cached by commit id, updates are deduped
by commit id at the victim, releases of already-released commits are
tolerated, and client txns are deduped by ``(client, client_seq)``.
The retry loop therefore *re-sends the same request verbatim*; it never
invents a new identity for it.

On a per-attempt timeout the connection is torn down and rebuilt rather
than reused — a late response to attempt *n* must not be matched to
attempt *n+1*, and killing the socket kills every stale frame with it.

:class:`FailoverClient` wraps one :class:`ServiceClient` per endpoint
(arbiter primary + standby) and rotates on connection failure or a
``not-active`` answer, which is how nodes find the new incarnation
after a takeover without any coordination beyond the protocol itself.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.engine.rng import derive_seed
from repro.errors import FrameError, RequestTimeoutError, TransportError
from repro.service.wire import read_frame, write_frame


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry parameters shared by every service leg."""

    attempts: int = 10
    #: First backoff sleep, seconds; doubles each attempt up to ``cap``.
    base: float = 0.02
    cap: float = 0.5
    #: Jitter fraction: each sleep is scaled by ``1 + U(-jitter, +jitter)``
    #: so peers retrying the same dead endpoint do not do so in lockstep.
    jitter: float = 0.5
    #: Per-attempt request timeout, seconds.
    timeout: float = 2.0

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry ``attempt`` (0-based), jittered."""
        sleep = min(self.cap, self.base * (2.0 ** attempt))
        return sleep * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class ServiceClient:
    """A reconnecting request/response client for one endpoint.

    One outstanding request at a time (an :class:`asyncio.Lock`
    serializes callers); responses are matched by id, and frames with a
    stale id — a late answer surviving from a retried attempt on the
    same connection — are discarded.
    """

    def __init__(
        self,
        host: str,
        port: int,
        policy: Optional[RetryPolicy] = None,
        name: str = "",
    ):
        self.host = host
        self.port = port
        self.policy = policy or RetryPolicy()
        self.name = name or f"{host}:{port}"
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._next_id = 1
        self._lock = asyncio.Lock()
        # Timing jitter only — never feeds results; keyed on the client's
        # name (never its port) so every process draws the same jitter.
        self._rng = random.Random(derive_seed(0, f"client/{name}"))

    # ------------------------------------------------------------------
    async def _connect(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._reader is None or self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        return self._reader, self._writer

    def _teardown(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = None
        self._writer = None

    async def close(self) -> None:
        self._teardown()

    # ------------------------------------------------------------------
    async def request(
        self,
        method: str,
        timeout: Optional[float] = None,
        **params: object,
    ) -> dict:
        """Send ``method`` and return the peer's response object.

        Retries transport failures (refused, reset, timed out, garbage
        frames) with jittered exponential backoff up to the policy's
        attempt budget, then raises :class:`RequestTimeoutError` (if the
        last failure was a timeout) or :class:`TransportError`.  Error
        *responses* are returned, not raised — the peer answered; what
        it said is protocol, not transport.
        """
        budget = timeout if timeout is not None else self.policy.timeout
        async with self._lock:
            last_error: Optional[BaseException] = None
            for attempt in range(self.policy.attempts):
                if attempt:
                    await asyncio.sleep(self.policy.backoff(attempt - 1, self._rng))
                request_id = self._next_id
                self._next_id += 1
                message = {"id": request_id, "method": method}
                message.update(params)
                try:
                    reader, writer = await self._connect()
                    await write_frame(writer, message)
                    response = await asyncio.wait_for(
                        self._read_matching(reader, request_id), budget
                    )
                    return response
                except (OSError, FrameError, asyncio.TimeoutError) as exc:
                    last_error = exc
                    self._teardown()
            if isinstance(last_error, asyncio.TimeoutError):
                raise RequestTimeoutError(
                    f"{self.name}: {method!r} timed out after "
                    f"{self.policy.attempts} attempts of {budget}s"
                )
            raise TransportError(
                f"{self.name}: {method!r} failed after {self.policy.attempts} "
                f"attempts: {last_error}"
            )

    async def _read_matching(
        self, reader: asyncio.StreamReader, request_id: int
    ) -> dict:
        while True:
            response = await read_frame(reader)
            if response is None:
                raise FrameError(f"{self.name}: connection closed awaiting response")
            if response.get("id") == request_id:
                return response
            # A stale answer from an earlier attempt on this connection;
            # skip it and keep reading.


class FailoverClient:
    """Requests against a redundant endpoint set (arbiter primary+standby).

    Tries the currently-preferred endpoint first; a transport failure or
    an explicit ``not-active`` / ``fenced`` answer rotates to the next.
    The *overall* budget spans endpoints, sized so a takeover window
    (lease timeout + reconstruction) fits inside it.
    """

    #: Response errors that mean "ask the other incarnation".
    ROTATE_ERRORS = ("not-active", "fenced")

    def __init__(
        self,
        endpoints: List[Tuple[str, int]],
        policy: Optional[RetryPolicy] = None,
        name: str = "",
        rounds: int = 40,
    ):
        if not endpoints:
            raise TransportError("FailoverClient needs at least one endpoint")
        # Per-endpoint clients get a single-attempt policy: failover, not
        # the endpoint client, owns the retry schedule.
        base = policy or RetryPolicy()
        self.policy = base
        self.rounds = rounds
        self._clients = [
            ServiceClient(
                host,
                port,
                RetryPolicy(
                    attempts=1,
                    base=base.base,
                    cap=base.cap,
                    jitter=base.jitter,
                    timeout=base.timeout,
                ),
                name=f"{name or 'failover'}[{index}]",
            )
            for index, (host, port) in enumerate(endpoints)
        ]
        self._preferred = 0
        self._rng = random.Random(derive_seed(len(endpoints), f"failover/{name}"))

    @property
    def preferred_endpoint(self) -> Tuple[str, int]:
        client = self._clients[self._preferred]
        return (client.host, client.port)

    async def close(self) -> None:
        for client in self._clients:
            await client.close()

    async def request(
        self, method: str, timeout: Optional[float] = None, **params: object
    ) -> dict:
        last: Optional[str] = None
        for attempt in range(self.rounds):
            index = (self._preferred + attempt) % len(self._clients)
            client = self._clients[index]
            try:
                response = await client.request(method, timeout=timeout, **params)
            except TransportError as exc:
                last = str(exc)
            else:
                if response.get("error") in self.ROTATE_ERRORS:
                    last = str(response.get("error"))
                else:
                    self._preferred = index
                    return response
            await asyncio.sleep(self.policy.backoff(min(attempt, 6), self._rng))
        raise TransportError(
            f"{method!r} failed against every endpoint after "
            f"{self.rounds} rounds (last: {last})"
        )


async def request_once(
    host: str, port: int, method: str, timeout: float = 2.0, **params: object
) -> dict:
    """One-shot request on a fresh connection (no retries)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_frame(writer, {"id": 1, "method": method, **params})
        response = await asyncio.wait_for(read_frame(reader), timeout)
        if response is None:
            raise FrameError(f"{host}:{port} closed without answering")
        return response
    finally:
        writer.close()


def endpoint_map(responses: Dict[str, dict]) -> Dict[str, object]:
    """Flatten a {name: response} poll into a compact diagnostic dict."""
    return {
        name: {k: v for k, v in sorted(resp.items()) if k not in ("id", "ok")}
        for name, resp in sorted(responses.items())
    }
