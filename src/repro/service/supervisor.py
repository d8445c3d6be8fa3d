"""Process supervision: spawn, probe, kill -9, and collect the cluster.

The supervisor is deliberately synchronous — it manages operating-system
processes, not protocol state.  Every component runs as its own
``python -m repro serve --role <role> --index <i> --cluster <file>``
subprocess so that killing one (the arbiter, say, with ``SIGKILL``)
models a real crash: no shared interpreter, no in-process cleanup, just
a dead socket and whatever the victim had already flushed to disk.

Readiness and liveness probes speak one raw frame over a fresh blocking
socket (no asyncio here: probes must work from inside pytest, from the
CLI, and from the bench loop alike).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.service.cluster import ClusterConfig

_LEN = struct.Struct(">I")


def sync_request(
    host: str, port: int, method: str, timeout: float = 2.0, **params: object
) -> dict:
    """One blocking request on a fresh socket (probe-grade, no retries)."""
    message = {"id": 1, "method": method}
    message.update(params)
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall(_LEN.pack(len(payload)) + payload)
        header = _recv_exact(sock, _LEN.size)
        (length,) = _LEN.unpack(header)
        body = _recv_exact(sock, length)
    return json.loads(body.decode("utf-8"))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise ServiceError("peer closed mid-frame during probe")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


class Supervisor:
    """Spawns and tracks one cluster's worth of service processes."""

    def __init__(self, config: ClusterConfig, fault_args: Optional[List[str]] = None):
        self.config = config
        self.fault_args = list(fault_args or [])
        self.procs: Dict[str, subprocess.Popen] = {}
        self._logs: List[object] = []
        self.config_path = config.save()

    # ------------------------------------------------------------------
    def _spawn(self, component: str, role: str, index: int,
               extra: Optional[List[str]] = None) -> None:
        log_path = os.path.join(self.config.service_dir, f"{component}.log")
        log = open(log_path, "a", encoding="utf-8")
        self._logs.append(log)
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--role", role, "--index", str(index),
            "--cluster", self.config_path,
        ] + (extra or [])
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.procs[component] = subprocess.Popen(
            argv, stdout=log, stderr=subprocess.STDOUT, env=env
        )

    def start(self) -> None:
        """Launch proxies (if configured), arbiters, then nodes."""
        if self.config.via_proxy:
            self._spawn("proxy", "proxy", 0, extra=self.fault_args)
        for i in range(len(self.config.arbiters)):
            self._spawn(f"arbiter-{i}", "arbiter", i)
        for i in range(len(self.config.nodes)):
            self._spawn(f"node{i}", "node", i)

    # ------------------------------------------------------------------
    def wait_ready(self, timeout: float = 15.0) -> None:
        """Block until every server answers ping on its *real* port."""
        deadline = time.monotonic() + timeout  # detlint: ok[DET003] — OS process probe deadline
        targets: List[Tuple[str, str, int]] = []
        for i, endpoint in enumerate(self.config.nodes):
            targets.append((f"node{i}", endpoint.host, endpoint.port))
        for i, endpoint in enumerate(self.config.arbiters):
            targets.append((f"arbiter-{i}", endpoint.host, endpoint.port))
        pending = dict((name, (host, port)) for name, host, port in targets)
        while pending:
            for name in list(pending):
                host, port = pending[name]
                try:
                    response = sync_request(host, port, "ping", timeout=1.0)
                except (OSError, ServiceError):
                    continue
                if response.get("role"):
                    del pending[name]
            if not pending:
                break
            if time.monotonic() > deadline:  # detlint: ok[DET003] — OS process probe deadline
                raise ServiceError(
                    f"cluster not ready after {timeout}s; waiting on "
                    f"{sorted(pending)}"
                )
            # A refused loopback connect costs microseconds, so a short
            # pause counts the cluster ready within a few ms of its last
            # server answering.
            time.sleep(0.005)

    # ------------------------------------------------------------------
    def kill(self, component: str, sig: int = signal.SIGKILL) -> None:
        """Deliver a crash (default ``kill -9``) to one component."""
        proc = self.procs.get(component)
        if proc is None:
            raise ServiceError(f"unknown component {component!r}")
        proc.send_signal(sig)
        proc.wait(timeout=10)

    def alive(self, component: str) -> bool:
        proc = self.procs.get(component)
        return proc is not None and proc.poll() is None

    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = 10.0) -> Dict[str, int]:
        """Graceful stop: nodes first (they snapshot), then arbiters.

        Returns the exit code of every component that was still running.
        """
        order = (
            [f"node{i}" for i in range(len(self.config.nodes))]
            + [f"arbiter-{i}" for i in range(len(self.config.arbiters))]
        )
        for i, endpoint in enumerate(self.config.nodes):
            self._polite_stop(endpoint.host, endpoint.port)
        for i, endpoint in enumerate(self.config.arbiters):
            self._polite_stop(endpoint.host, endpoint.port)
        codes: Dict[str, int] = {}
        for component in order + ["proxy"]:
            proc = self.procs.get(component)
            if proc is None:
                continue
            if component == "proxy":
                proc.terminate()  # proxies have no shutdown protocol
            try:
                codes[component] = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    codes[component] = proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    codes[component] = proc.wait(timeout=5)
        for log in self._logs:
            log.close()
        self._logs.clear()
        return codes

    def _polite_stop(self, host: str, port: int) -> None:
        try:
            sync_request(host, port, "shutdown", timeout=2.0)
        except (OSError, ServiceError):
            pass  # already dead (possibly on purpose)


__all__ = ["Supervisor", "sync_request"]
