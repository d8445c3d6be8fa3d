"""The frame-aware fault proxy against a live loopback echo server."""

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError, RequestTimeoutError
from repro.service.cluster import build_cluster_config, pick_free_ports
from repro.service.faultproxy import FaultProxy, ProxyFleet, WireFaults
from repro.service.server import ServiceServer
from repro.service.transport import RetryPolicy, ServiceClient


class EchoServer(ServiceServer):
    """Counts requests; echoes params back."""

    def __init__(self, host, port):
        super().__init__("echo", host, port)
        self.seen = 0

    async def handle(self, method, msg):
        self.seen += 1
        return {"echo": msg.get("value")}


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def with_proxy(faults, body, seed=0):
    host = "127.0.0.1"
    back_port, front_port = pick_free_ports(2)
    server = EchoServer(host, back_port)
    server_task = asyncio.ensure_future(server.serve())
    proxy = FaultProxy("proxy:test", (host, front_port), (host, back_port),
                       faults, seed=seed)
    await asyncio.sleep(0.05)
    await proxy.start()
    try:
        return await body(host, front_port, server, proxy)
    finally:
        await proxy.stop()
        server.request_shutdown()
        await asyncio.gather(server_task, return_exceptions=True)


class TestFaultProxy:
    def test_clean_proxy_passes_frames_through(self):
        async def body(host, port, server, proxy):
            client = ServiceClient(host, port, RetryPolicy(timeout=2.0))
            try:
                for i in range(5):
                    response = await client.request("echo", value=i)
                    assert response["echo"] == i
            finally:
                await client.close()
            assert proxy.stats["frames"] == 10  # 5 requests + 5 responses
            assert proxy.stats["drop"] == 0

        run(with_proxy(WireFaults(), body))

    def test_total_drop_exhausts_retry_budget(self):
        async def body(host, port, server, proxy):
            client = ServiceClient(
                host, port,
                RetryPolicy(attempts=3, base=0.01, cap=0.02, timeout=0.2),
            )
            try:
                with pytest.raises(RequestTimeoutError):
                    await client.request("echo", value=1)
            finally:
                await client.close()
            assert proxy.stats["drop"] >= 3  # every attempt's request died

        run(with_proxy(WireFaults(drop_rate=1.0), body))

    def test_dup_reaches_server_twice_but_client_sees_one_reply(self):
        async def body(host, port, server, proxy):
            client = ServiceClient(host, port, RetryPolicy(timeout=2.0))
            try:
                response = await client.request("echo", value=9)
                assert response["echo"] == 9
            finally:
                await client.close()
            # Request duplicated on the way in; at least one duplicate
            # happened somewhere (request or response leg).
            assert proxy.stats["dup"] >= 1
            assert server.seen >= 2

        run(with_proxy(WireFaults(dup_rate=1.0), body))

    def test_delay_fault_still_delivers(self):
        async def body(host, port, server, proxy):
            client = ServiceClient(host, port, RetryPolicy(timeout=5.0))
            try:
                response = await client.request("echo", value=4)
                assert response["echo"] == 4
            finally:
                await client.close()
            assert proxy.stats["delay"] >= 1

        run(with_proxy(
            WireFaults(delay_rate=1.0, delay_min=0.02, delay_max=0.05), body
        ))

    def test_partition_window_blackholes_then_heals(self):
        async def body(host, port, server, proxy):
            client = ServiceClient(
                host, port,
                RetryPolicy(attempts=2, base=0.01, cap=0.02, timeout=0.15),
            )
            healed = ServiceClient(
                host, port, RetryPolicy(attempts=20, base=0.02, timeout=1.0)
            )
            try:
                with pytest.raises(RequestTimeoutError):
                    await client.request("echo", value=1)  # inside the window
                await asyncio.sleep(0.6)  # window over
                response = await healed.request("echo", value=2)
                assert response["echo"] == 2
            finally:
                await client.close()
                await healed.close()
            assert proxy.stats["partition"] >= 1

        run(with_proxy(WireFaults(partitions=((0.0, 0.5),)), body))

    def test_same_seed_same_fault_pattern(self):
        async def pattern(seed):
            rolls = []

            async def body(host, port, server, proxy):
                client = ServiceClient(
                    host, port,
                    RetryPolicy(attempts=2, base=0.01, timeout=0.1),
                )
                try:
                    for i in range(6):
                        try:
                            await client.request("echo", value=i)
                            rolls.append("ok")
                        except RequestTimeoutError:
                            rolls.append("drop")
                finally:
                    await client.close()

            await with_proxy(WireFaults(drop_rate=0.5), body, seed=seed)
            return rolls

        first = run(pattern(42))
        second = run(pattern(42))
        assert first == second
        assert "drop" in first and "ok" in first

    def test_fault_pattern_is_the_same_in_every_process(self):
        """Per-frame draws depend on (seed, name), not on PYTHONHASHSEED."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = (
            "from repro.service.faultproxy import FaultProxy, WireFaults\n"
            "faults = WireFaults(drop_rate=0.2, delay_rate=0.3,"
            " delay_min=0.001, delay_max=0.01, dup_rate=0.2)\n"
            "proxy = FaultProxy('proxy:node0', ('127.0.0.1', 1),"
            " ('127.0.0.1', 2), faults, seed=42)\n"
            "print([proxy.frame_fault() for _ in range(32)])\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            done = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert "(0, None)" in outputs[0] and "(2, " in outputs[0]


class TestProxyFleet:
    def test_fleet_requires_proxy_ports(self, tmp_path):
        config = build_cluster_config(str(tmp_path), 2, with_proxies=False)
        with pytest.raises(ConfigError):
            ProxyFleet(config, WireFaults())

    def test_fleet_fronts_every_endpoint(self, tmp_path):
        config = build_cluster_config(
            str(tmp_path), 2, num_standbys=1, with_proxies=True
        )
        fleet = ProxyFleet(config, WireFaults())
        assert len(fleet.proxies) == 4  # 2 nodes + 2 arbiters
