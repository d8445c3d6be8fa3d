"""Golden pins for the litmus sweeps: ``replay explore`` and ``repro litmus``.

Both commands are deterministic per invocation, so each is pinned by
what it prints:

* ``replay explore --json``: the sha256 of the payload (sorted keys)
  and the exit code, for ``--litmus all --quick --seeds 1`` under each
  of the four BulkSC configs, and for ``--litmus all --seeds 2
  --max-denials 2`` (forced-denial schedules up to two per processor)
  under BSCdypvt;
* ``repro litmus``: the sha256 of stdout and the exit code under SC,
  RC and BSCdypvt.

``tests/golden/explore_digests.json`` holds the pins.  Regenerate (only
for an intentional behaviour change) with

    PYTHONPATH=src python tests/test_explore_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from repro.__main__ import main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "explore_digests.json")

BULKSC_CONFIGS = ("BSCbase", "BSCdypvt", "BSCexact", "BSCstpvt")

CASES = {
    **{
        f"explore/{config}/quick": [
            "replay", "explore", "--litmus", "all", "--quick", "--seeds", "1",
            "--config", config, "--json",
        ]
        for config in BULKSC_CONFIGS
    },
    "explore/BSCdypvt/denials2": [
        "replay", "explore", "--litmus", "all", "--seeds", "2",
        "--max-denials", "2", "--config", "BSCdypvt", "--json",
    ],
    **{
        f"litmus/{config}": ["litmus", "--config", config]
        for config in ("SC", "RC", "BSCdypvt")
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pin(case: str) -> dict:
    """The invocation's exit code and the digest of what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(CASES[case])
    text = out.getvalue()
    if "--json" in CASES[case]:
        text = json.dumps(json.loads(text), sort_keys=True)
    return {"exit_code": code, "stdout_sha256": _sha256(text.encode("utf-8"))}


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_matches_golden(case):
    assert pin(case) == _load_golden()[case]


def test_golden_file_covers_every_case():
    assert set(_load_golden()) == set(CASES)


def generate():
    """Compute every pin of the golden file."""
    return {case: pin(case) for case in sorted(CASES)}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: tests/test_explore_golden.py --write")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
