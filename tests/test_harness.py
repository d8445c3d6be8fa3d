"""Tests for the benchmark harness (runner, metrics, rendering)."""

import pytest

from repro.harness import (
    ALL_APPS,
    COMMERCIAL_APPS,
    EXPERIMENTS,
    SPLASH2_APPS,
    SweepRunner,
)
from repro.harness.metrics import (
    CharacterizationRow,
    CommitRow,
    geometric_mean,
    speedup_over,
    total_traffic,
    traffic_breakdown_normalized,
)
from repro.harness.figures import render_grouped_bars, series_geometric_means
from repro.harness.tables import render_generic, render_table3, render_table4


@pytest.fixture(scope="module")
def runner():
    return SweepRunner(instructions_per_thread=4000)


class TestAppLists:
    def test_thirteen_apps(self):
        assert len(SPLASH2_APPS) == 11
        assert len(COMMERCIAL_APPS) == 2
        assert len(ALL_APPS) == 13

    def test_paper_order(self):
        assert ALL_APPS[0] == "barnes"
        assert ALL_APPS[-2:] == ("sjbb2k", "sweb2005")


class TestSweepRunner:
    def test_results_cached(self, runner):
        a = runner.result("RC", "lu")
        b = runner.result("RC", "lu")
        assert a is b

    def test_unknown_config_rejected(self, runner):
        with pytest.raises(KeyError):
            runner.result("XYZ", "lu")

    def test_config_override_applies(self):
        sweep = SweepRunner(
            2000,
            config_overrides={
                "BSCdypvt": lambda cfg: cfg.with_bulksc(chunk_size_instructions=123)
            },
        )
        assert sweep.config_for("BSCdypvt").bulksc.chunk_size_instructions == 123
        assert sweep.config_for("RC").bulksc.chunk_size_instructions == 1000

    def test_sweep_grid(self, runner):
        grid = runner.sweep(["RC", "SC"], ["lu"])
        assert set(grid) == {("RC", "lu"), ("SC", "lu")}


class TestMetrics:
    def test_speedup_identity(self, runner):
        rc = runner.result("RC", "lu")
        assert speedup_over(rc, rc) == 1.0

    def test_speedup_direction(self, runner):
        rc = runner.result("RC", "lu")
        sc = runner.result("SC", "lu")
        assert speedup_over(rc, sc) <= 1.05  # SC never meaningfully faster

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_characterization_row(self, runner):
        row = CharacterizationRow.from_result("lu", runner.result("BSCdypvt", "lu"))
        assert row.app == "lu"
        assert row.read_set > 0
        assert row.priv_write_set >= 0
        assert row.spec_write_displacements_per_100k == 0.0  # pinned lines

    def test_commit_row(self, runner):
        row = CommitRow.from_result("lu", runner.result("BSCdypvt", "lu"))
        assert 0 <= row.empty_w_sig_pct <= 100
        assert 0 <= row.nonempty_w_list_pct <= 100
        assert row.lookups_per_commit >= 0

    def test_traffic_normalization(self, runner):
        rc = runner.result("RC", "lu")
        total = total_traffic(rc)
        norm = traffic_breakdown_normalized(rc, total)
        assert sum(norm.values()) == pytest.approx(1.0)

    def test_traffic_normalization_rejects_zero(self, runner):
        with pytest.raises(ValueError):
            traffic_breakdown_normalized(runner.result("RC", "lu"), 0)


class TestRendering:
    def test_grouped_bars_contains_all_apps(self):
        series = {"RC": {"a": 1.0, "b": 1.0}, "SC": {"a": 0.7, "b": 0.8}}
        text = render_grouped_bars("t", series, ["a", "b"])
        assert "G.M." in text
        assert "0.70" in text

    def test_series_geometric_means(self):
        series = {"SC": {"a": 0.5, "b": 2.0}}
        means = series_geometric_means(series, ["a", "b"])
        assert means["SC"] == pytest.approx(1.0)

    def test_table_rendering_smoke(self, runner):
        result = runner.result("BSCdypvt", "lu")
        t3 = render_table3([CharacterizationRow.from_result("lu", result)])
        t4 = render_table4([CommitRow.from_result("lu", result)])
        assert "lu" in t3 and "lu" in t4

    def test_render_generic(self):
        text = render_generic(["a", "b"], [[1, 2], [3, 4]])
        assert "3" in text


class TestExperimentRegistry:
    def test_every_paper_artifact_registered(self):
        artifacts = {e.paper_artifact for e in EXPERIMENTS.values()}
        for required in ("Figure 9", "Figure 10", "Figure 11", "Table 3", "Table 4"):
            assert required in artifacts

    def test_every_artifact_renders_and_claims(self):
        for key, experiment in EXPERIMENTS.items():
            assert experiment.key == key
            assert callable(experiment.render), key
            assert experiment.claims, key
