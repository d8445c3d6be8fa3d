"""Tests for the determinism lint over simulator sources."""

from pathlib import Path

from repro.analysis.detlint import lint_paths, lint_source


def rules_of(source):
    return [f.rule for f in lint_source(source)]


class TestSetIteration:
    def test_set_literal_iteration_flagged(self):
        assert rules_of("for x in {a, b}:\n    f(x)\n") == ["DET001"]

    def test_set_call_iteration_flagged(self):
        assert rules_of("for x in set(items):\n    f(x)\n") == ["DET001"]

    def test_set_comprehension_iteration_flagged(self):
        assert rules_of("for x in {y for y in z}:\n    f(x)\n") == ["DET001"]

    def test_inferred_set_local_flagged(self):
        source = (
            "def f(items):\n"
            "    pending = set(items)\n"
            "    for x in pending:\n"
            "        g(x)\n"
        )
        assert rules_of(source) == ["DET001"]

    def test_sorted_iteration_clean(self):
        source = (
            "def f(items):\n"
            "    pending = set(items)\n"
            "    for x in sorted(pending):\n"
            "        g(x)\n"
        )
        assert rules_of(source) == []

    def test_commutative_consumers_clean(self):
        # len/sum/min/max/any/all are order-insensitive.
        source = (
            "def f(items):\n"
            "    s = set(items)\n"
            "    return sum(x for x in s), len(s), max(s)\n"
        )
        assert rules_of(source) == []

    def test_list_iteration_clean(self):
        assert rules_of("for x in [1, 2]:\n    f(x)\n") == []

    def test_reassigned_to_list_not_flagged(self):
        # Mixed assignments: the shallow inference must stay quiet.
        source = (
            "def f(items):\n"
            "    s = set(items)\n"
            "    s = sorted(s)\n"
            "    for x in s:\n"
            "        g(x)\n"
        )
        assert rules_of(source) == []

    def test_comprehension_over_set_flagged(self):
        assert rules_of("out = [f(x) for x in {1, 2}]\n") == ["DET001"]

    def test_set_pop_flagged(self):
        source = (
            "def f(items):\n"
            "    s = set(items)\n"
            "    return s.pop()\n"
        )
        assert rules_of(source) == ["DET007"]


class TestRngAndClock:
    def test_module_random_flagged(self):
        assert rules_of("import random\nx = random.random()\n") == ["DET002"]

    def test_seeded_rng_instance_clean(self):
        assert rules_of("import random\nrng = random.Random(7)\n") == []

    def test_from_random_import_flagged(self):
        assert rules_of("from random import shuffle\n") == ["DET002"]

    def test_wallclock_flagged(self):
        assert rules_of("import time\nt = time.time()\n") == ["DET003"]

    def test_uuid4_flagged(self):
        assert rules_of("import uuid\nx = uuid.uuid4()\n") == ["DET004"]

    def test_secrets_import_flagged(self):
        assert rules_of("import secrets\n") == ["DET004"]

    def test_builtin_hash_flagged(self):
        assert rules_of("seed = hash((7, 'node0'))\n") == ["DET008"]
        assert rules_of("seed = derive_seed(7, 'node0')\n") == []

    def test_key_id_flagged(self):
        assert rules_of("xs.sort(key=id)\n") == ["DET005"]

    def test_listdir_flagged_unless_sorted(self):
        assert rules_of("import os\nfiles = os.listdir(p)\n") == ["DET006"]
        assert rules_of("import os\nfiles = sorted(os.listdir(p))\n") == []


class TestSuppression:
    def test_justified_suppression_honoured(self):
        source = "for x in {1, 2}:  # detlint: ok — summed into a counter\n    f(x)\n"
        assert lint_source(source) == []

    def test_bare_ok_does_not_suppress(self):
        source = "for x in {1, 2}:  # detlint: ok\n    f(x)\n"
        assert rules_of(source) == ["DET001"]

    def test_rule_scoped_suppression(self):
        source = (
            "for x in {1, 2}:  # detlint: ok[DET001] — order-insensitive\n"
            "    f(x)\n"
        )
        assert lint_source(source) == []

    def test_wrong_rule_scope_does_not_suppress(self):
        source = (
            "for x in {1, 2}:  # detlint: ok[DET002] — wrong rule\n"
            "    f(x)\n"
        )
        assert rules_of(source) == ["DET001"]

    def test_syntax_error_reported_as_finding(self):
        findings = lint_source("def f(:\n")
        assert findings and findings[0].rule == "DET000"


class TestTreeWalk:
    def test_simulator_sources_are_clean(self):
        # The acceptance gate: the repo lints itself. Any new finding
        # must be fixed or carry a justified inline suppression.
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        findings, files_checked = lint_paths([str(src)])
        assert files_checked > 50
        assert findings == [], "\n".join(f.describe() for f in findings)

    def test_single_file_target(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("for x in {1}:\n    print(x)\n")
        findings, files_checked = lint_paths([str(target)])
        assert files_checked == 1 and findings[0].rule == "DET001"
