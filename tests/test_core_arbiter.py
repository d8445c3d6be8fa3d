"""Tests for the centralized commit arbiter (Section 4.2)."""

import pytest

from repro.core.arbiter import Arbiter
from repro.errors import ProtocolError
from repro.params import BulkSCConfig
from repro.signatures.exact import ExactSignature


def sig(*lines):
    s = ExactSignature()
    s.insert_many(lines)
    return s


@pytest.fixture
def arbiter():
    return Arbiter(BulkSCConfig())


class TestEmptyList:
    def test_grants_immediately_without_r(self, arbiter):
        """RSig: when the W list is empty, R is never needed."""
        decision = arbiter.decide(0, sig(1), r_sig=None, now=0.0)
        assert decision.granted
        assert not decision.needs_r_signature

    def test_empty_w_never_enters_list(self, arbiter):
        decision = arbiter.decide(0, sig(), None, 0.0)
        assert decision.granted
        arbiter.admit(1, 0, sig(), 0.0)
        assert arbiter.list_empty


class TestRSigProtocol:
    def test_nonempty_list_requests_r(self, arbiter):
        arbiter.admit(1, 0, sig(1), 0.0)
        decision = arbiter.decide(1, sig(2), r_sig=None, now=1.0)
        assert not decision.granted
        assert decision.needs_r_signature

    def test_with_r_and_no_collision_grants(self, arbiter):
        arbiter.admit(1, 0, sig(1), 0.0)
        decision = arbiter.decide(1, sig(2), r_sig=sig(3), now=1.0)
        assert decision.granted

    def test_rsig_disabled_decides_without_extra_round(self):
        arbiter = Arbiter(BulkSCConfig(rsig_optimization=False))
        arbiter.admit(1, 0, sig(1), 0.0)
        decision = arbiter.decide(1, sig(2), r_sig=sig(3), now=1.0)
        assert decision.granted


class TestCollisionChecks:
    def test_r_collision_denied(self, arbiter):
        """Figure 4(b): a chunk that read a committing line must wait."""
        arbiter.admit(1, 0, sig(10), 0.0)
        decision = arbiter.decide(1, sig(2), r_sig=sig(10), now=1.0)
        assert not decision.granted
        assert "R collides" in decision.reason

    def test_w_collision_denied(self, arbiter):
        arbiter.admit(1, 0, sig(10), 0.0)
        decision = arbiter.decide(1, sig(10), r_sig=sig(), now=1.0)
        assert not decision.granted
        assert "W collides" in decision.reason

    def test_disjoint_commits_overlap(self, arbiter):
        """Non-overlapping W signatures commit concurrently."""
        arbiter.admit(1, 0, sig(10), 0.0)
        arbiter.admit(2, 1, sig(20), 0.0)
        decision = arbiter.decide(2, sig(30), r_sig=sig(31), now=1.0)
        assert decision.granted
        assert arbiter.pending_count == 2

    def test_release_unblocks(self, arbiter):
        arbiter.admit(1, 0, sig(10), 0.0)
        arbiter.release(1, 5.0)
        decision = arbiter.decide(1, sig(10), r_sig=None, now=6.0)
        assert decision.granted


class TestCapacity:
    def test_max_simultaneous_commits(self):
        arbiter = Arbiter(BulkSCConfig(max_simultaneous_commits=2))
        arbiter.admit(1, 0, sig(1), 0.0)
        arbiter.admit(2, 1, sig(2), 0.0)
        decision = arbiter.decide(2, sig(3), r_sig=sig(4), now=1.0)
        assert not decision.granted
        assert "capacity" in decision.reason

    def test_duplicate_admit_raises(self, arbiter):
        arbiter.admit(1, 0, sig(1), 0.0)
        with pytest.raises(ProtocolError):
            arbiter.admit(1, 0, sig(2), 0.0)


class TestPreArbitration:
    def test_reservation_blocks_others(self, arbiter):
        assert arbiter.reserve(3)
        decision = arbiter.decide(0, sig(1), None, 0.0)
        assert not decision.granted
        assert "pre-arbitration" in decision.reason

    def test_reserving_processor_still_commits(self, arbiter):
        arbiter.reserve(3)
        decision = arbiter.decide(3, sig(1), None, 0.0)
        assert decision.granted

    def test_second_reservation_denied(self, arbiter):
        assert arbiter.reserve(3)
        assert not arbiter.reserve(4)
        assert arbiter.reserve(3)  # re-entrant for same proc

    def test_clear_reservation(self, arbiter):
        arbiter.reserve(3)
        arbiter.clear_reservation(3)
        assert arbiter.decide(0, sig(1), None, 0.0).granted

    def test_clear_by_wrong_proc_ignored(self, arbiter):
        arbiter.reserve(3)
        arbiter.clear_reservation(5)
        assert arbiter.reserved_by == 3


class TestNaiveSerialization:
    """The Section 3.2.1 naive design: one commit at a time."""

    def test_naive_denies_any_concurrent_commit(self):
        arbiter = Arbiter(BulkSCConfig(serialize_commits=True))
        arbiter.admit(1, 0, sig(10), 0.0)
        decision = arbiter.decide(1, sig(20), r_sig=sig(30), now=1.0)
        assert not decision.granted
        assert "naive" in decision.reason

    def test_naive_grants_when_idle(self):
        arbiter = Arbiter(BulkSCConfig(serialize_commits=True))
        assert arbiter.decide(0, sig(1), None, 0.0).granted

    def test_advanced_overlaps_disjoint_commits(self):
        arbiter = Arbiter(BulkSCConfig(serialize_commits=False))
        arbiter.admit(1, 0, sig(10), 0.0)
        assert arbiter.decide(1, sig(20), sig(30), 1.0).granted


class TestAbort:
    def test_abort_removes_w(self, arbiter):
        arbiter.admit(1, 0, sig(10), 0.0)
        arbiter.abort(1, 1.0)
        assert arbiter.list_empty

    def test_abort_unknown_commit_is_noop(self, arbiter):
        arbiter.abort(99, 0.0)


class TestUnknownRelease:
    """Unknown commit_ids are counted — and fatal under strict_protocol."""

    def test_release_unknown_counted(self, arbiter):
        arbiter.release(99, 0.0)
        arbiter.abort(98, 0.0)
        assert arbiter.stats.snapshot()["arbiter0.released_unknown"] == 2

    def test_double_release_counted(self, arbiter):
        arbiter.admit(1, 0, sig(10), 0.0)
        arbiter.release(1, 1.0)
        arbiter.release(1, 2.0)  # duplicated ack message
        assert arbiter.stats.snapshot()["arbiter0.released_unknown"] == 1

    def test_known_release_not_counted(self, arbiter):
        arbiter.admit(1, 0, sig(10), 0.0)
        arbiter.release(1, 1.0)
        assert "arbiter0.released_unknown" not in arbiter.stats.snapshot()

    def test_strict_mode_raises_on_unknown_release(self):
        arbiter = Arbiter(BulkSCConfig(strict_protocol=True))
        with pytest.raises(ProtocolError, match="unknown commit 99"):
            arbiter.release(99, 0.0)

    def test_strict_mode_raises_on_unknown_abort(self):
        arbiter = Arbiter(BulkSCConfig(strict_protocol=True))
        with pytest.raises(ProtocolError, match="unknown commit 7"):
            arbiter.abort(7, 0.0)

    def test_strict_mode_allows_normal_lifecycle(self):
        arbiter = Arbiter(BulkSCConfig(strict_protocol=True))
        arbiter.admit(1, 0, sig(10), 0.0)
        arbiter.release(1, 1.0)
        arbiter.admit(2, 0, sig(10), 2.0)
        arbiter.abort(2, 3.0)
        assert arbiter.list_empty


class TestPreArbitrationForwardProgress:
    """The §3.3 escape hatch, driven the way repeated squashes drive it:

    a processor loses arbitration over and over (its peer's W keeps
    colliding), reserves the arbiter, commits exclusively while everyone
    else is denied, then clears the reservation and the machine resumes.
    """

    def test_reserve_grant_clear_cycle_under_repeated_squashes(self, arbiter):
        victim, winner = 0, 1
        # The winner repeatedly beats the victim to the same line: each
        # round the victim's request collides with the admitted W (this is
        # the arbitration-level shadow of a squash-and-replay loop).
        for round_no in range(1, 4):
            arbiter.admit(round_no, winner, sig(10), float(round_no))
            denied = arbiter.decide(victim, sig(10), r_sig=sig(), now=float(round_no))
            assert not denied.granted
            arbiter.release(round_no, float(round_no) + 0.5)
        # Escalate: the starved victim reserves the arbiter.
        assert arbiter.reserve(victim)
        # Exclusive window: the winner (and anyone else) is denied even
        # with a completely disjoint signature...
        blocked = arbiter.decide(winner, sig(99), r_sig=sig(98), now=10.0)
        assert not blocked.granted
        assert "pre-arbitration" in blocked.reason
        # ...while the reserving processor is granted, admitted, and
        # released as usual.
        granted = arbiter.decide(victim, sig(10), r_sig=None, now=11.0)
        assert granted.granted
        arbiter.admit(50, victim, sig(10), 11.0)
        arbiter.release(50, 12.0)
        # A second chunk from the victim still commits under the same
        # reservation (reserve is re-entrant until cleared).
        assert arbiter.reserve(victim)
        assert arbiter.decide(victim, sig(11), r_sig=None, now=13.0).granted
        # Clear: the machine goes back to open arbitration.
        arbiter.clear_reservation(victim)
        assert arbiter.reserved_by is None
        assert arbiter.decide(winner, sig(99), r_sig=None, now=14.0).granted

    def test_reservation_survives_squash_of_reserved_procs_chunk(self, arbiter):
        """An aborted (squash-raced) commit does not drop the reservation."""
        arbiter.reserve(2)
        granted = arbiter.decide(2, sig(5), r_sig=None, now=1.0)
        assert granted.granted
        arbiter.admit(9, 2, sig(5), 1.0)
        arbiter.abort(9, 2.0)  # grant raced a squash; chunk replays
        assert arbiter.reserved_by == 2
        # The replayed chunk still enjoys the exclusive window.
        assert arbiter.decide(2, sig(5), r_sig=None, now=3.0).granted
        assert not arbiter.decide(1, sig(6), r_sig=None, now=3.0).granted
