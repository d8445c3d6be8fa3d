"""Cluster topology: who listens where, and with what timing contract.

A :class:`ClusterConfig` is the one JSON document every process reads:
node and arbiter endpoints, optional fault-proxy front ports, the
heartbeat/lease timing that defines failover, and the retry budget
every leg shares.  The supervisor writes it once
(``<dir>/cluster.json``); components are then spawned as
``python -m repro serve --role <role> --index <i> --cluster <file>``.

Client-facing traffic (client→node, node→arbiter, node→node) flows
through the *proxied* ports when a fault proxy is configured, so wire
faults hit every data leg; the control plane the standby uses for
polls and fences talks to the real ports — takeover must not itself be
blackholed by the experiment it is recovering from (in a deployment
this is the usual separate control network).
"""

from __future__ import annotations

import json
import os
import socket
from dataclasses import asdict, dataclass, replace
from typing import List, Optional, Tuple

from repro.errors import ConfigError

#: Offset separating client "processor" ids from node ids in the merged
#: trace: deliveries are recorded against nodes, serializations against
#: client sessions, and the two id spaces must never collide.
CLIENT_PROC_BASE = 100


@dataclass(frozen=True)
class Endpoint:
    """One listening socket, plus its optional fault-proxy front."""

    host: str
    port: int
    #: Port of the fault proxy fronting this endpoint (0 = none).
    proxy_port: int = 0

    def connect_port(self, via_proxy: bool) -> int:
        return self.proxy_port if (via_proxy and self.proxy_port) else self.port

    def to_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict) -> "Endpoint":
        return cls(str(obj["host"]), int(obj["port"]), int(obj.get("proxy_port", 0)))


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a service process needs to join the cluster."""

    service_dir: str
    nodes: Tuple[Endpoint, ...]
    arbiters: Tuple[Endpoint, ...]  # primary first, then standbys
    #: Standby pings the primary this often, seconds.
    heartbeat_interval: float = 0.05
    #: Missed-heartbeat window after which the standby takes over.
    lease_timeout: float = 0.4
    #: Per-attempt request timeout for data-plane requests.
    request_timeout: float = 1.0
    retry_attempts: int = 10
    retry_base: float = 0.02
    retry_cap: float = 0.25
    #: Whether data-plane legs connect through fault-proxy fronts.
    via_proxy: bool = False
    seed: int = 0

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.nodes:
            raise ConfigError("cluster needs at least one node")
        if not self.arbiters:
            raise ConfigError("cluster needs at least one arbiter")
        if self.heartbeat_interval <= 0 or self.lease_timeout <= 0:
            raise ConfigError("heartbeat interval and lease timeout must be > 0")
        if self.lease_timeout < 2 * self.heartbeat_interval:
            raise ConfigError(
                "lease timeout must cover at least two heartbeat intervals "
                f"({self.lease_timeout} < 2*{self.heartbeat_interval})"
            )

    # ------------------------------------------------------------------
    @property
    def primary(self) -> Endpoint:
        return self.arbiters[0]

    @property
    def standbys(self) -> Tuple[Endpoint, ...]:
        return self.arbiters[1:]

    def arbiter_endpoints(self, via_proxy: Optional[bool] = None) -> List[Tuple[str, int]]:
        via = self.via_proxy if via_proxy is None else via_proxy
        return [(a.host, a.connect_port(via)) for a in self.arbiters]

    def node_endpoints(self, via_proxy: Optional[bool] = None) -> List[Tuple[str, int]]:
        via = self.via_proxy if via_proxy is None else via_proxy
        return [(n.host, n.connect_port(via)) for n in self.nodes]

    def record_path(self, component: str) -> str:
        return os.path.join(self.service_dir, f"{component}.rec.jsonl")

    def snapshot_path(self, component: str) -> str:
        return os.path.join(self.service_dir, f"{component}.snapshot.json")

    def with_proxy(self, **changes: object) -> "ClusterConfig":
        return replace(self, **changes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def to_obj(self) -> dict:
        obj = asdict(self)
        obj["nodes"] = [n.to_obj() for n in self.nodes]
        obj["arbiters"] = [a.to_obj() for a in self.arbiters]
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> "ClusterConfig":
        fields = dict(obj)
        fields["nodes"] = tuple(Endpoint.from_obj(n) for n in obj["nodes"])
        fields["arbiters"] = tuple(Endpoint.from_obj(a) for a in obj["arbiters"])
        config = cls(**fields)
        config.validate()
        return config

    def save(self, path: Optional[str] = None) -> str:
        self.validate()
        path = path or os.path.join(self.service_dir, "cluster.json")
        os.makedirs(self.service_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_obj(), fh, sort_keys=True, indent=1)
        return path

    @classmethod
    def load(cls, path: str) -> "ClusterConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_obj(json.load(fh))


def pick_free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve ``count`` distinct ephemeral ports (bind-then-close).

    The classic TOCTOU race is acceptable here: ports are picked
    immediately before spawning the cluster, and a clash surfaces as a
    bind failure at startup, not silent corruption.
    """
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def build_cluster_config(
    service_dir: str,
    num_nodes: int,
    num_standbys: int = 1,
    host: str = "127.0.0.1",
    with_proxies: bool = False,
    seed: int = 0,
    **timing: float,
) -> ClusterConfig:
    """Allocate ports and assemble a local cluster layout."""
    total = num_nodes + 1 + num_standbys
    ports = pick_free_ports(total * (2 if with_proxies else 1), host=host)
    real, fronts = ports[:total], ports[total:]

    def endpoint(i: int) -> Endpoint:
        return Endpoint(host, real[i], fronts[i] if with_proxies else 0)

    nodes = tuple(endpoint(i) for i in range(num_nodes))
    arbiters = tuple(endpoint(num_nodes + i) for i in range(1 + num_standbys))
    config = ClusterConfig(
        service_dir=service_dir,
        nodes=nodes,
        arbiters=arbiters,
        via_proxy=with_proxies,
        seed=seed,
        **timing,  # type: ignore[arg-type]
    )
    config.validate()
    return config
