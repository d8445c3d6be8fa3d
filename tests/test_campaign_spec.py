"""Campaign specs and queue expansion: shorthand parsing, validation,
round-tripping, and — the resume-critical property — deterministic cell
expansion with process-stable cell keys."""

import json
import os
import subprocess
import sys

import pytest

from repro.campaign.queue import cell_key, cells_by_key, expand_cells
from repro.campaign.spec import (
    CampaignSpec,
    FaultVariant,
    expand_workload_arg,
    parse_seeds,
)
from repro.errors import CampaignError


class TestFaultVariant:
    def test_none_is_fault_free(self):
        for spelling in ("none", "", "  NONE "):
            variant = FaultVariant.parse(spelling)
            assert variant.faults == ""
            assert not variant.crashes and not variant.no_retry
            assert variant.describe() == "none"

    def test_full_shorthand(self):
        variant = FaultVariant.parse("drop,delay,dup@0.2!")
        assert variant.faults == "drop,delay,dup"
        assert variant.rate == 0.2
        assert variant.no_retry is True

    def test_crash_suffixes(self):
        variant = FaultVariant.parse("drop+grant:1:arbiter0+ack:2")
        assert variant.faults == "drop"
        assert len(variant.crashes) == 2
        assert all(":" in crash for crash in variant.crashes)

    def test_bad_rate_is_a_campaign_error(self):
        with pytest.raises(CampaignError, match="bad fault rate"):
            FaultVariant.parse("drop@fast")

    def test_bad_fault_kind_is_a_campaign_error(self):
        with pytest.raises(CampaignError, match="invalid fault variant"):
            FaultVariant.parse("meteor-strike")

    def test_obj_round_trip(self):
        variant = FaultVariant.parse("kill-acks@0.5!+grant:1")
        assert FaultVariant.from_obj(variant.to_obj()) == variant


class TestWorkloadShorthands:
    def test_litmus_expands_to_full_grid(self):
        specs = expand_workload_arg("litmus")
        assert len(specs) == 14  # 7 tests x 2 staggers
        assert all(s["kind"] == "litmus" for s in specs)

    def test_single_litmus_gets_default_staggers(self):
        specs = expand_workload_arg("litmus:SB")
        assert [s["test"] for s in specs] == ["SB", "SB"]
        assert specs[0]["stagger"] != specs[1]["stagger"]

    def test_single_litmus_with_explicit_stagger(self):
        (spec,) = expand_workload_arg("litmus:MP/5-25")
        assert spec == {"kind": "litmus", "test": "MP", "stagger": [5, 25]}

    def test_app_and_apps(self):
        assert expand_workload_arg("app:fft") == [{"kind": "app", "app": "fft"}]
        assert len(expand_workload_arg("apps")) == 3

    def test_unknown_shorthands_fail_typed(self):
        for bad in ("litmus:NOPE", "app:minesweeper", "everything", "litmus:SB/x-y"):
            with pytest.raises(CampaignError):
                expand_workload_arg(bad)


class TestSeedSpellings:
    def test_half_open_range(self):
        assert parse_seeds("0:4") == [0, 1, 2, 3]

    def test_list_and_single(self):
        assert parse_seeds("1,2,5") == [1, 2, 5]
        assert parse_seeds("9") == [9]

    def test_bad_spellings(self):
        for bad in ("4:4", "5:1"):
            with pytest.raises(CampaignError, match="empty seed range"):
                parse_seeds(bad)
        with pytest.raises(CampaignError, match="bad seed"):
            parse_seeds("one")


class TestCampaignSpec:
    def build(self, **kwargs):
        defaults = dict(
            name="t",
            configs=["BSCdypvt"],
            workload_args=["litmus:SB"],
            seeds="0:2",
        )
        defaults.update(kwargs)
        return CampaignSpec.build(**defaults)

    def test_cell_count_is_the_cross_product(self):
        spec = self.build(
            configs=["BSCdypvt", "RC"],
            workload_args=["litmus:SB", "app:fft"],
            seeds="0:3",
            fault_args=["none", "drop"],
        )
        # 2 configs x 3 workloads (SB x 2 staggers + fft) x 2 faults x 3 seeds
        assert spec.cell_count == 2 * 3 * 2 * 3

    def test_unknown_config_rejected(self):
        with pytest.raises(CampaignError, match="unknown configuration"):
            self.build(configs=["BulkXL"])

    def test_obj_round_trip_is_exact(self):
        spec = self.build(fault_args=["drop@0.1", "none"])
        clone = CampaignSpec.from_obj(json.loads(json.dumps(spec.to_obj())))
        assert clone == spec
        assert clone.to_obj() == spec.to_obj()

    def test_future_spec_version_rejected(self):
        obj = self.build().to_obj()
        obj["version"] = 99
        with pytest.raises(CampaignError, match="version"):
            CampaignSpec.from_obj(obj)

    def test_empty_dimensions_rejected(self):
        with pytest.raises(CampaignError, match="at least one workload"):
            CampaignSpec(name="t", configs=("BSCdypvt",)).validate()


class TestExpansionDeterminism:
    """Resume reconstructs the queue from the spec alone — expansion must
    be a pure function of the spec, in a canonical order."""

    def spec(self):
        return CampaignSpec.build(
            name="det",
            configs=["BSCdypvt", "RC"],
            workload_args=["litmus:SB", "litmus:MP"],
            seeds="0:3",
            fault_args=["none", "drop@0.2"],
        )

    def test_two_expansions_are_identical(self):
        first = expand_cells(self.spec())
        second = expand_cells(self.spec())
        assert [c.key for c in first] == [c.key for c in second]
        assert [c.name for c in first] == [c.name for c in second]
        assert [c.index for c in first] == list(range(len(first)))

    def test_canonical_order_is_workload_config_fault_seed(self):
        cells = expand_cells(self.spec())
        # The innermost loop is the seed: the first cells differ only there.
        assert cells[0].seed == 0 and cells[1].seed == 1
        assert cells[0].config == cells[1].config
        assert cells[0].workload == cells[1].workload

    def test_keys_are_unique_across_the_grid(self):
        cells = expand_cells(self.spec())
        assert len(cells_by_key(cells)) == len(cells)

    def test_key_covers_the_fault_environment(self):
        base = expand_cells(self.spec())[0]
        cells = expand_cells(self.spec())
        twin = next(
            c for c in cells
            if c.seed == base.seed and c.config == base.config
            and c.workload == base.workload and c.fault != base.fault
        )
        assert twin.key != base.key

    def test_key_covers_forced_denials(self):
        from repro.replay.recorder import replay_cell
        from repro.replay.workload import litmus_spec

        plain = replay_cell(litmus_spec("MP", [1, 1]))
        denied = replay_cell(litmus_spec("MP", [1, 1]), denials=((0, 1),))
        assert denied.key != plain.key
        assert denied.name != plain.name
        assert len(cells_by_key([plain, denied])) == 2
        # An empty schedule leaves the identity as it was.
        assert plain.name == "litmus:MP/g1-1/BSCdypvt/s0/f[none]"
        assert "denials" not in json.dumps(plain.memo_tuple())

    def test_cell_key_stable_across_interpreter_runs(self):
        spec = self.spec()
        program = (
            "import json;"
            "from repro.campaign.spec import CampaignSpec;"
            "from repro.campaign.queue import expand_cells;"
            "spec = CampaignSpec.from_obj(json.loads({obj!r}));"
            "print(json.dumps([c.key for c in expand_cells(spec)]))"
        ).format(obj=json.dumps(spec.to_obj()))
        env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="7")
        out = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, check=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert json.loads(out.stdout) == [c.key for c in expand_cells(spec)]

    def test_cell_key_is_content_addressed(self):
        cell = expand_cells(self.spec())[5]
        assert cell.key == cell_key(cell)
        assert len(cell.key) == 16 and int(cell.key, 16) >= 0
