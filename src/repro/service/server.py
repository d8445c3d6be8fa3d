"""Shared asyncio server scaffolding for service processes.

One :class:`ServiceServer` owns one listening socket.  Each connection
gets a reader loop that spawns a task per request — a handler blocked
on its *own* outbound requests (a node committing a chunk talks to the
arbiter and every peer) must never stop the connection from draining
further requests, or the mesh deadlocks.  Responses are written under a
per-connection lock and simply echo the request id; out-of-order
completion is expected and the client matches by id.

Handler exceptions are answered as ``{"ok": false, "error": ...}``
rather than tearing the connection: a protocol error on one request is
not a transport error for the connection's other users.
"""

from __future__ import annotations

import asyncio
import random
from typing import Optional, Set

from repro.engine.rng import derive_seed
from repro.errors import FrameError, ReproError
from repro.service.wire import read_frame, write_frame


class ServiceServer:
    """Base class: socket lifecycle, per-request dispatch, shutdown."""

    def __init__(self, name: str, host: str, port: int):
        self.name = name
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopping = asyncio.Event()
        self._conn_tasks: Set[asyncio.Task] = set()
        # Timing jitter only (backoff spreading); never feeds results.
        # Keyed on the component name, never its port.
        self._rng = random.Random(derive_seed(0, f"server/{name}"))

    # ------------------------------------------------------------------
    async def handle(self, method: str, msg: dict) -> dict:  # pragma: no cover
        raise NotImplementedError

    async def on_start(self) -> None:
        """Hook: runs once the socket is listening."""

    async def on_shutdown(self) -> None:
        """Hook: runs after the socket closed, before :meth:`serve` returns."""

    def request_shutdown(self) -> None:
        self._stopping.set()

    # ------------------------------------------------------------------
    async def serve(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        await self.on_start()
        try:
            await self._stopping.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            await self.on_shutdown()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    msg = await read_frame(reader)
                except FrameError:
                    break
                if msg is None:
                    break
                task = asyncio.ensure_future(
                    self._dispatch(msg, writer, write_lock)
                )
                pending.add(task)
                self._conn_tasks.add(task)
                task.add_done_callback(pending.discard)
                task.add_done_callback(self._conn_tasks.discard)
        finally:
            writer.close()

    async def _dispatch(
        self, msg: dict, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        request_id = msg.get("id")
        method = str(msg.get("method", ""))
        try:
            payload = await self.handle(method, msg)
            response = {"id": request_id, "ok": "error" not in payload}
            response.update(payload)
        except ReproError as exc:
            response = {
                "id": request_id,
                "ok": False,
                "error": type(exc).__name__,
                "detail": str(exc),
            }
        except asyncio.CancelledError:
            return
        try:
            async with write_lock:
                await write_frame(writer, response)
        except (OSError, ConnectionError):
            pass  # peer went away; its retry will re-ask someone listening
