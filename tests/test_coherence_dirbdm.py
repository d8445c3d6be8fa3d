"""Tests for the DirBDM: Table 1 case analysis, read-disable, stats."""

import pytest

from repro.coherence.dirbdm import DirBDM
from repro.coherence.directory import DirectoryModule
from repro.signatures.exact import ExactSignature


@pytest.fixture
def directory():
    return DirectoryModule(0, num_processors=8)


@pytest.fixture
def dirbdm(directory):
    return DirBDM(directory)


def w_sig(*lines):
    sig = ExactSignature()
    sig.insert_many(lines)
    return sig


class TestTable1:
    """The four rows of the paper's Table 1."""

    def test_case1_not_dirty_committer_absent_is_false_positive(
        self, directory, dirbdm
    ):
        entry = directory.entry(10)
        entry.sharers.update({3, 4})
        outcome = dirbdm.expand_commit(w_sig(10), committing_proc=0)
        # No action: a real writer would already be a sharer.
        assert outcome.invalidation_list == set()
        assert not entry.dirty
        assert entry.sharers == {3, 4}

    def test_case2_committer_becomes_owner_others_invalidated(
        self, directory, dirbdm
    ):
        entry = directory.entry(10)
        entry.sharers.update({0, 3, 4})
        outcome = dirbdm.expand_commit(
            w_sig(10), committing_proc=0, true_written_lines={10}
        )
        assert outcome.invalidation_list == {3, 4}
        assert entry.dirty and entry.owner == 0
        assert entry.sharers == {0}

    def test_case3_dirty_committer_absent_is_false_positive(
        self, directory, dirbdm
    ):
        entry = directory.entry(10)
        entry.make_owner(5)
        outcome = dirbdm.expand_commit(w_sig(10), committing_proc=0)
        assert outcome.invalidation_list == set()
        assert entry.owner == 5

    def test_case4_already_owner_no_action(self, directory, dirbdm):
        entry = directory.entry(10)
        entry.make_owner(0)
        outcome = dirbdm.expand_commit(
            w_sig(10), committing_proc=0, true_written_lines={10}
        )
        assert outcome.invalidation_list == set()
        assert entry.owner == 0


class TestExpansionStatistics:
    def test_lookups_count_selected_entries(self, directory, dirbdm):
        for line in (10, 11, 12):
            directory.entry(line).sharers.add(0)
        outcome = dirbdm.expand_commit(
            w_sig(10, 11), committing_proc=0, true_written_lines={10, 11}
        )
        assert outcome.lookups == 2
        assert outcome.unnecessary_lookups == 0

    def test_unnecessary_lookups_from_aliasing(self, directory, dirbdm):
        directory.entry(10).sharers.add(0)
        directory.entry(11).sharers.add(0)
        # Signature "contains" 11 too, but the chunk truly wrote only 10.
        outcome = dirbdm.expand_commit(
            w_sig(10, 11), committing_proc=0, true_written_lines={10}
        )
        assert outcome.unnecessary_lookups == 1
        assert outcome.unnecessary_updates == 1  # case 2 fired on line 11

    def test_empty_signature_no_lookups(self, directory, dirbdm):
        directory.entry(10)
        outcome = dirbdm.expand_commit(w_sig(), committing_proc=0)
        assert outcome.lookups == 0

    def test_updates_counted(self, directory, dirbdm):
        entry = directory.entry(10)
        entry.sharers.update({0, 1})
        outcome = dirbdm.expand_commit(
            w_sig(10), committing_proc=0, true_written_lines={10}
        )
        assert outcome.updates == 1
        assert outcome.unnecessary_updates == 0


class TestReadDisable:
    def test_lines_bounced_while_commit_in_flight(self, dirbdm):
        dirbdm.disable_reads(commit_id=1, w_signature=w_sig(10, 11))
        assert dirbdm.is_read_disabled(10)
        assert dirbdm.is_read_disabled(11)
        assert not dirbdm.is_read_disabled(99)

    def test_enable_reads_restores_access(self, dirbdm):
        dirbdm.disable_reads(1, w_sig(10))
        dirbdm.enable_reads(1)
        assert not dirbdm.is_read_disabled(10)

    def test_multiple_concurrent_commits(self, dirbdm):
        dirbdm.disable_reads(1, w_sig(10))
        dirbdm.disable_reads(2, w_sig(20))
        assert dirbdm.active_commits == 2
        dirbdm.enable_reads(1)
        assert not dirbdm.is_read_disabled(10)
        assert dirbdm.is_read_disabled(20)

    def test_enable_unknown_commit_is_noop(self, dirbdm):
        dirbdm.enable_reads(99)

    def test_any_read_disabled_tracks_open_windows(self, dirbdm):
        assert not dirbdm.any_read_disabled()
        dirbdm.disable_reads(1, w_sig(10))
        assert dirbdm.any_read_disabled()
        dirbdm.enable_reads(1)
        assert not dirbdm.any_read_disabled()

    def test_any_read_disabled_has_no_side_effect(self, dirbdm):
        """Unlike is_read_disabled, the guard never counts a bounce."""
        dirbdm.disable_reads(1, w_sig(10))
        before = dirbdm.stats.snapshot()
        for __ in range(3):
            assert dirbdm.any_read_disabled()
        assert dirbdm.stats.snapshot() == before
        assert dirbdm.is_read_disabled(10)
        assert dirbdm.stats.snapshot() != before
