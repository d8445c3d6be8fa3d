"""Frame-aware TCP fault proxies: network faults on live sockets.

Each configured endpoint can be fronted by a proxy; data-plane legs
(client→node, node→node, node→arbiter) connect to the proxy port, so a
seeded adversary sits on every wire without the servers knowing.  The
proxy is *frame*-aware — it decodes and re-encodes whole length-prefixed
frames — so a dropped message is a cleanly lost request or response,
never a truncated byte stream masquerading as peer corruption.

The fault vocabulary deliberately reuses the simulator's
:class:`~repro.faults.plan.FaultKind` spellings:

``drop``       lose a frame (the sender times out and retries)
``delay``      deliver a frame late (cycle bounds scaled to seconds)
``dup``        deliver a frame twice (exercises idempotent handling)
``partition``  blackhole *all* frames in wall-clock windows; connections
               stay open and simply go silent, as real partitions do

Determinism: every leg draws from its own RNG seeded by
``(seed, leg name)``, so two runs with the same cluster seed shape the
same per-frame fault pattern (wall-clock partition windows excepted —
they are windows, not draws).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.engine.rng import derive_seed
from repro.errors import ConfigError, FrameError
from repro.faults.plan import FaultKind, FaultPlan
from repro.service import clock
from repro.service.cluster import ClusterConfig
from repro.service.wire import read_frame, write_frame

#: Wall-clock seconds per simulator cycle when scaling a FaultPlan's
#: delay bounds (cycles) onto the wire: 20..400 cycles -> 20..400 ms.
CYCLE_SECONDS = 0.001


@dataclass(frozen=True)
class WireFaults:
    """Per-frame fault probabilities plus partition windows, in seconds."""

    drop_rate: float = 0.0
    delay_rate: float = 0.0
    delay_min: float = 0.0
    delay_max: float = 0.0
    dup_rate: float = 0.0
    #: ``(start_offset, duration)`` windows relative to proxy start.
    partitions: Tuple[Tuple[float, float], ...] = ()

    @classmethod
    def from_plan(
        cls,
        plan: FaultPlan,
        partitions: Tuple[Tuple[float, float], ...] = (),
        cycle_seconds: float = CYCLE_SECONDS,
    ) -> "WireFaults":
        """Project a simulator fault plan onto the wire.

        Only the message kinds that exist on a socket apply; storm and
        squash faults are protocol-internal and are ignored here.
        """
        kwargs: Dict[str, float] = {}
        for spec in plan.specs:
            if spec.kind is FaultKind.DROP:
                kwargs["drop_rate"] = spec.rate
            elif spec.kind is FaultKind.DELAY:
                kwargs["delay_rate"] = spec.rate
                kwargs["delay_min"] = spec.min_delay * cycle_seconds
                kwargs["delay_max"] = spec.max_delay * cycle_seconds
            elif spec.kind is FaultKind.DUP:
                kwargs["dup_rate"] = spec.rate
        return cls(partitions=tuple(partitions), **kwargs)

    def validate(self) -> None:
        for name in ("drop_rate", "delay_rate", "dup_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.delay_min < 0 or self.delay_max < self.delay_min:
            raise ConfigError("delay bounds must satisfy 0 <= min <= max")
        for start, duration in self.partitions:
            if start < 0 or duration <= 0:
                raise ConfigError(
                    f"partition window ({start}, {duration}) must have "
                    "start >= 0 and duration > 0"
                )


def parse_partitions(specs: List[str]) -> Tuple[Tuple[float, float], ...]:
    """Parse CLI ``START:DURATION`` partition windows (seconds)."""
    windows = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 2:
            raise ConfigError(
                f"partition spec {spec!r} must be START:DURATION (seconds)"
            )
        try:
            windows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"partition spec {spec!r} is not numeric") from None
    return tuple(windows)


class FaultProxy:
    """One proxy: listens on a front port, forwards to one endpoint."""

    def __init__(
        self,
        name: str,
        front: Tuple[str, int],
        back: Tuple[str, int],
        faults: WireFaults,
        seed: int = 0,
    ):
        faults.validate()
        self.name = name
        self.front = front
        self.back = back
        self.faults = faults
        # Adversary stream: deliberately seeded (reproducible chaos),
        # never feeds protocol results.
        self._rng = random.Random(derive_seed(seed, name))
        self.stats: Dict[str, int] = {
            "frames": 0, "drop": 0, "delay": 0, "dup": 0, "partition": 0,
        }
        self._server: Optional[asyncio.base_events.Server] = None
        self._started_at = 0.0
        self._tasks: List[asyncio.Task] = []

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.front[0], self.front[1]
        )
        self._started_at = clock.monotonic()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()

    def _partitioned(self) -> bool:
        offset = clock.monotonic() - self._started_at
        return any(
            start <= offset < start + duration
            for start, duration in self.faults.partitions
        )

    def frame_fault(self) -> Tuple[int, Optional[float]]:
        """Roll one frame's faults: ``(copies, delay)``.

        ``copies`` is 0 for a dropped frame and 2 for a duplicated one;
        ``delay`` is the extra latency in seconds, or ``None``.
        """
        if self._rng.random() < self.faults.drop_rate:
            return 0, None
        delay = None
        if self._rng.random() < self.faults.delay_rate:
            span = self.faults.delay_max - self.faults.delay_min
            delay = self.faults.delay_min + span * self._rng.random()
        return (2 if self._rng.random() < self.faults.dup_rate else 1), delay

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            up_reader, up_writer = await asyncio.open_connection(*self.back)
        except OSError:
            writer.close()
            return
        pumps = [
            asyncio.ensure_future(self._pump(reader, up_writer)),
            asyncio.ensure_future(self._pump(up_reader, writer)),
        ]
        self._tasks.extend(pumps)
        try:
            await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for pump in pumps:
                pump.cancel()
            writer.close()
            up_writer.close()

    async def _pump(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Forward whole frames one way, rolling faults per frame."""
        while True:
            try:
                frame = await read_frame(reader)
            except FrameError:
                return
            if frame is None:
                return
            self.stats["frames"] += 1
            if self._partitioned():
                self.stats["partition"] += 1
                continue  # blackholed: the connection stays open, silent
            copies, delay = self.frame_fault()
            if not copies:
                self.stats["drop"] += 1
                continue
            if delay is not None:
                self.stats["delay"] += 1
                await asyncio.sleep(delay)
            if copies > 1:
                self.stats["dup"] += 1
            try:
                for _ in range(copies):
                    await write_frame(writer, frame)
            except (OSError, ConnectionError):
                return


class ProxyFleet:
    """Every proxy for a cluster, run inside one process.

    Proxies are deliberately *not* colocated with the servers they
    front: killing an arbiter must not take its wire adversary down
    with it.
    """

    def __init__(self, config: ClusterConfig, faults: WireFaults):
        self.config = config
        self.proxies: List[FaultProxy] = []
        pairs = [
            (f"node{i}", endpoint) for i, endpoint in enumerate(config.nodes)
        ] + [
            (f"arbiter-{i}", endpoint)
            for i, endpoint in enumerate(config.arbiters)
        ]
        for name, endpoint in pairs:
            if not endpoint.proxy_port:
                continue
            self.proxies.append(
                FaultProxy(
                    f"proxy:{name}",
                    (endpoint.host, endpoint.proxy_port),
                    (endpoint.host, endpoint.port),
                    faults,
                    seed=config.seed,
                )
            )
        if not self.proxies:
            raise ConfigError("cluster has no proxy ports; rebuild with proxies")

    async def run(self) -> None:
        for proxy in self.proxies:
            await proxy.start()
        try:
            while True:  # until the supervisor terminates the process
                await asyncio.sleep(3600)
        finally:
            for proxy in self.proxies:
                await proxy.stop()

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {proxy.name: dict(proxy.stats) for proxy in self.proxies}


__all__ = [
    "CYCLE_SECONDS",
    "FaultProxy",
    "ProxyFleet",
    "WireFaults",
    "parse_partitions",
]
