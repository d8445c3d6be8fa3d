"""Schedule exploration tests: dynamic outcomes ⊆ static SC enumeration."""

import json

import pytest

from repro.errors import ProgramError
from repro.replay.explorer import explore, explore_payload
from repro.replay.recorder import force_denials


class TestExplore:
    def test_quick_sweep_is_contained(self):
        report = explore(litmus="SB", quick=True, seeds=(0,))
        assert report.ok, report.describe()
        assert report.total_runs > 0
        (result,) = report.results
        assert result.name == "SB"
        assert result.new_states == []
        assert result.sc_failures == []
        assert result.forbidden_runs == []
        # The dynamic sweep must actually observe states, and every one
        # of them must appear in the static enumeration.
        assert 0 < result.dynamic_states <= result.static_states

    def test_all_tests_quick(self):
        report = explore(litmus="all", quick=True, seeds=(0,))
        assert report.ok, report.describe()
        assert len(report.results) >= 5
        for result in report.results:
            assert result.dynamic_states <= result.static_states, result.name

    def test_perturbations_extend_the_sweep(self):
        """Forced arbiter denials reorder commits but stay inside SC."""
        report = explore(litmus="MP", quick=False, seeds=(0, 1), max_denials=2)
        assert report.ok, report.describe()
        (result,) = report.results
        # Full sweep: seeds × staggers + per-proc perturbation schedules.
        assert result.runs > 8

    def test_unknown_litmus_rejected(self):
        with pytest.raises(ProgramError, match="unknown litmus"):
            explore(litmus="NOPE", quick=True)

    def test_payload_is_jsonable(self):
        report = explore(litmus="SB", quick=True, seeds=(0,))
        payload = explore_payload(report)
        text = json.dumps(payload, sort_keys=True)
        assert "dynamic_states" in text
        assert payload["ok"] is True
        assert payload["tests"][0]["name"] == "SB"


class TestForceDenials:
    def test_denied_machine_still_completes(self):
        from repro.cpu.isa import Load, Store
        from repro.cpu.thread import ThreadProgram
        from repro.memory.address import AddressMap, AddressSpace
        from repro.params import bsc_dypvt
        from repro.system import Machine

        def run(denials):
            config = bsc_dypvt()
            space = AddressSpace(
                AddressMap(config.memory.words_per_line, config.num_directories)
            )
            space.allocate("d", 64)
            programs = [ThreadProgram([Store(8, 1), Load("r0", 8)])]
            machine = Machine(config, programs, space)
            if denials:
                force_denials(machine, denials)
            return machine.run()

        plain = run(None)
        denied = run({0: 1})
        # Denial delays the commit but the final state is untouched.
        assert denied.registers == plain.registers
        assert denied.cycles >= plain.cycles
