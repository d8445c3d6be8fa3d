"""Live-service throughput and failover latency under real processes.

Two drills through the open-loop service bench (real subprocesses, real
TCP on loopback):

* **clean** — a short steady-state run; pins that the socket path
  sustains a usable commit rate and that the whole run certifies
  (sc_checker + contracts + convergence + zero acked-write loss).
* **failover** — the same run with the primary arbiter SIGKILLed
  mid-load; pins that the standby takes over exactly once, that the
  commit stream's largest stall stays within a small multiple of the
  lease, and that certification still holds.

The assertions here are machine-independent: certification flags, takeover
counts, and stall *ratios* against the configured lease — never
absolute wall times or throughput on their own.
"""

import asyncio

from repro.service.bench import BenchOptions, run_bench

SEED = 7
LEASE = 0.4
DURATION = 4.0
RATE = 15.0


def _bench(tmp_path, name, **overrides):
    options = BenchOptions(
        service_dir=str(tmp_path / name),
        clients=3,
        nodes=2,
        standbys=1,
        duration=DURATION,
        rate=RATE,
        seed=SEED,
        lease_timeout=LEASE,
        **overrides,
    )
    return asyncio.run(asyncio.wait_for(run_bench(options), timeout=180))


def test_service_throughput_and_failover(benchmark, tmp_path):
    clean = _bench(tmp_path, "clean")
    failover = _bench(tmp_path, "failover", kill_primary_at=1.5)

    def rerun():
        return _bench(tmp_path, "timed")

    timed = benchmark.pedantic(rerun, rounds=1, iterations=1)

    print()
    for label, payload in (("clean", clean), ("failover", failover)):
        lat = payload["latency_ms"]
        stall = payload["failover"]["max_commit_stall_s"]
        print(
            f"{label}: {payload['committed']} txns, "
            f"{payload['throughput_txn_s']} txn/s, p95 {lat['p95']} ms"
            + (f", max stall {stall}s" if stall is not None else "")
        )

    # Machine-independent contracts.  Throughput floor is deliberately
    # conservative: 3 clients at 15 batch/s for 4 s is 180 offered;
    # even a loaded machine must land a third of that.
    for payload in (clean, failover, timed):
        assert payload["certification"]["ok"], payload["certification"]
        assert payload["certification"]["lost_acks"] == []
        assert payload["committed"] >= 60
        assert payload["errors"] == 0
    assert clean["failover"]["takeovers"] == 0
    assert failover["failover"]["takeovers"] == 1
    # The commit stream must restart within a small multiple of the
    # lease (standby patience + poll + fence), not drift toward the
    # run length.
    assert failover["failover"]["max_commit_stall_s"] < 8 * LEASE
