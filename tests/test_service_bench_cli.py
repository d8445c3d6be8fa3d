"""``repro service bench`` renders the certification its own run computed.

The bench certifies the merged trace once (SC check, contract check,
convergence audit, merged-trace write); text mode prints that verdict
instead of certifying the directory a second time.
"""

import repro.service.bench as bench
import repro.service.certify as certify
from repro.__main__ import main


def test_text_mode_certifies_once(tmp_path, monkeypatch, capsys):
    calls = []
    certify_run = certify.certify_run

    def counting(*args, **kwargs):
        calls.append(args)
        return certify_run(*args, **kwargs)

    monkeypatch.setattr(bench, "certify_run", counting)
    monkeypatch.setattr(certify, "certify_run", counting)
    code = main(
        [
            "service", "bench", "--dir", str(tmp_path), "--clients", "1",
            "--duration", "0.5", "--rate", "10", "--seed", "3",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert len(calls) == 1
    assert "[ok ] sequential consistency" in out
    assert f"merged trace: {tmp_path}" in out
