"""Golden pins for the ``chaos`` CLI: report payloads and exit codes.

Every chaos run is deterministic per ``(seed, plan, workload)``, so a
whole invocation is pinned by the sha256 of its
``chaos_report_payload`` JSON (sorted keys) plus its exit code.
``tests/golden/chaos_digests.json`` holds those pins for a fixed set of
invocations covering certified litmus grids (quick and full), typed
failures with and without retries, a scripted arbiter crash, synthetic
apps and the litmus+synthetic mix, plus the sha256 of the ``report.json``
written by one ``chaos --campaign DIR --quick`` run.

Regenerate (only for an intentional behaviour change) with

    PYTHONPATH=src python tests/test_chaos_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from repro.__main__ import main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "chaos_digests.json")

CHAOS_CASES = {
    "litmus-quick": ["--seed", "7", "--faults", "drop,delay,dup", "--quick"],
    "litmus-full": ["--seed", "7", "--faults", "drop,delay,dup"],
    "kill-acks-no-retry": [
        "--seed", "7", "--faults", "kill-acks", "--no-retry", "--quick",
    ],
    "kill-acks-retry": ["--seed", "7", "--faults", "kill-acks", "--quick"],
    "crash-grant": [
        "--seed", "0", "--faults", "drop", "--quick", "--crash", "grant:1:arbiter0",
    ],
    "synthetic-quick": [
        "--seed", "3", "--workload", "synthetic", "--instructions", "300", "--quick",
    ],
    "mix": [
        "--seed", "7", "--faults", "drop,delay", "--workload", "mix",
        "--instructions", "300",
    ],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def chaos_pin(case: str) -> dict:
    """Digest of the invocation's JSON report payload, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["chaos", *CHAOS_CASES[case], "--json"])
    canonical = json.dumps(json.loads(out.getvalue()), sort_keys=True)
    return {"exit_code": code, "payload_sha256": _sha256(canonical.encode("utf-8"))}


def campaign_pin() -> dict:
    """Digest of ``report.json`` from a quick ``chaos --campaign`` run."""
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(["chaos", "--campaign", store, "--quick"])
        with open(os.path.join(store, "report.json"), "rb") as handle:
            return {"exit_code": code, "report_sha256": _sha256(handle.read())}


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CHAOS_CASES))
def test_chaos_payload_matches_golden(case):
    assert chaos_pin(case) == _load_golden()["chaos"][case]


def test_chaos_campaign_report_matches_golden():
    assert campaign_pin() == _load_golden()["campaign"]


def test_golden_file_covers_every_case():
    assert set(_load_golden()["chaos"]) == set(CHAOS_CASES)


def generate():
    """Compute every pin of the golden file."""
    return {
        "chaos": {case: chaos_pin(case) for case in sorted(CHAOS_CASES)},
        "campaign": campaign_pin(),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_chaos_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
