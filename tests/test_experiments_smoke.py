"""Small-scale smoke tests for the experiment-regeneration functions.

``python -m repro experiments`` runs these at full scale and checks the
paper's claims on them; here a two-app, short-run sweep validates the
plumbing (series structure, normalization, report text, the data each
claim reads) so harness regressions surface in the fast suite.
"""

import pytest

from repro.harness.experiments import (
    EXPERIMENTS,
    figure9,
    figure10,
    figure11,
    table3,
    table4,
)
from repro.harness.runner import FIGURE9_CONFIGS, SweepRunner

APPS = ["lu", "water-ns"]


@pytest.fixture(scope="module")
def runner():
    return SweepRunner(instructions_per_thread=3000)


def test_figure9_structure(runner):
    series, report = figure9(runner, apps=APPS)
    assert set(series) == set(FIGURE9_CONFIGS)
    for config in FIGURE9_CONFIGS:
        assert set(series[config]) == set(APPS)
        for value in series[config].values():
            assert 0.1 < value < 3.0
    assert all(series["RC"][app] == 1.0 for app in APPS)
    assert "G.M." in report


def test_table3_structure(runner):
    data, report = table3(runner, apps=APPS)
    assert set(data["read_set"]) == set(APPS)
    for app in APPS:
        assert data["read_set"][app] > 0
        assert data["spec_write_disp_per_100k"][app] == 0.0
    assert "Squashed" in report


def test_table4_structure(runner):
    data, report = table4(runner, apps=APPS)
    for app in APPS:
        assert 0 <= data["empty_w_sig_pct"][app] <= 100
        assert data["pending_w_sigs"][app] >= 0
    assert "EmptyWSig%" in report


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_claims_read_their_artifacts_data(runner, name):
    experiment = EXPERIMENTS[name]
    data, __ = experiment.render(runner, APPS)
    for claim in experiment.claims:
        assert set(claim.keys) <= set(data), (name, claim.text)
    assert len(experiment.check(data, APPS)) == len(experiment.claims)


def test_figure10_structure():
    series, report = figure10(
        instructions=3000, apps=["lu"], chunk_sizes=(500, 1000)
    )
    assert set(series) == {"500", "1000", "1000-exact"}
    assert "chunk-size" in report


def test_figure11_structure():
    breakdowns, report = figure11(instructions=3000, apps=["lu"])
    assert set(breakdowns) == {"R", "E", "N", "B"}
    rc = breakdowns["R"]["lu"]
    assert sum(rc.values()) == pytest.approx(1.0)
    assert breakdowns["B"]["lu"]["WrSig"] > 0
    assert "traffic" in report


def _artifacts(apps, instructions):
    runner = SweepRunner(instructions_per_thread=instructions)
    return {
        "figure9": figure9(runner, apps=apps)[0],
        "table3": table3(runner, apps=apps)[0],
        "table4": table4(runner, apps=apps)[0],
        "figure10": figure10(instructions=instructions, apps=apps)[0],
        "figure11": figure11(instructions=instructions, apps=apps)[0],
    }


def test_artifacts_generate_each_workload_once(monkeypatch):
    """Every config and artifact shares one generated workload per app."""
    from repro.harness import runner as runner_module

    builds = []
    generate = runner_module.generate_profile_workload

    def counted(profile, *args):
        builds.append(profile.name)
        return generate(profile, *args)

    monkeypatch.setattr(runner_module, "generate_profile_workload", counted)
    runner_module.generate_app_workload.cache_clear()
    shared = _artifacts(APPS, 1000)
    assert sorted(builds) == sorted(APPS)

    # The reference rebuilds the workload for every simulated cell.
    del builds[:]
    build = runner_module.build_app_workload

    def fresh(*args):
        runner_module.generate_app_workload.cache_clear()
        return build(*args)

    monkeypatch.setattr(runner_module, "build_app_workload", fresh)
    assert _artifacts(APPS, 1000) == shared
    # 16 simulated cells per app: 7 in Fig 9 (Tables 3-4 hit its runner's
    # cache), 5 in Fig 10 and 4 in Fig 11.
    assert len(builds) == 16 * len(APPS)
