"""Tests for distributed arbitration (Section 4.2.3, Figure 8)."""

import pytest

from repro.core.distributed_arbiter import DistributedArbiter, GlobalArbiter
from repro.params import ArbiterTopology, BulkSCConfig
from repro.signatures.exact import ExactSignature


def sig(*lines):
    s = ExactSignature()
    s.insert_many(lines)
    return s


def make(num_ranges=4):
    config = BulkSCConfig(arbiter_topology=ArbiterTopology.DISTRIBUTED)
    return DistributedArbiter(config, num_ranges)


class TestRouting:
    def test_ranges_of_interleaves_by_low_bits(self):
        arb = make(4)
        assert arb.ranges_of({0, 4, 8}) == (0,)
        assert arb.ranges_of({1, 2}) == (1, 2)

    def test_single_range_skips_g_arbiter(self):
        arb = make(4)
        decision = arb.decide(0, sig(4), None, ranges=(0,), now=0.0)
        assert decision.granted
        assert not decision.used_g_arbiter

    def test_multi_range_uses_g_arbiter(self):
        arb = make(4)
        decision = arb.decide(0, sig(0, 1), None, ranges=(0, 1), now=0.0)
        assert decision.granted
        assert decision.used_g_arbiter


class TestMultiRangeDecision:
    def test_denied_if_any_range_collides(self):
        arb = make(4)
        arb.admit(1, 0, sig(4), ranges=(0,), now=0.0)
        decision = arb.decide(1, sig(4, 1), sig(), ranges=(0, 1), now=1.0)
        assert not decision.granted

    def test_needs_r_propagates(self):
        arb = make(4)
        arb.admit(1, 0, sig(4), ranges=(0,), now=0.0)
        decision = arb.decide(1, sig(8, 1), None, ranges=(0, 1), now=1.0)
        assert decision.needs_r_signature

    def test_release_clears_all_ranges(self):
        arb = make(4)
        arb.admit(1, 0, sig(0, 1), ranges=(0, 1), now=0.0)
        assert arb.pending_count == 2
        arb.release(1, 1.0)
        assert arb.pending_count == 0


class TestGArbiterCache:
    def test_fast_deny_from_cached_w(self):
        arb = make(4)
        arb.admit(1, 0, sig(0, 1), ranges=(0, 1), now=0.0)  # cached at G-arbiter
        decision = arb.decide(1, sig(0, 2), sig(), ranges=(0, 2), now=1.0)
        assert not decision.granted
        assert "G-arbiter" in decision.reason

    def test_cache_cleared_on_release(self):
        arb = make(4)
        arb.admit(1, 0, sig(0, 1), ranges=(0, 1), now=0.0)
        arb.release(1, 1.0)
        decision = arb.decide(1, sig(0, 2), sig(3), ranges=(0, 2), now=2.0)
        assert decision.granted

    def test_fast_deny_checks_r_too(self):
        garb = GlobalArbiter()
        garb.note_granted(1, sig(7))
        assert garb.fast_deny(r_sig=sig(7), w_sig=sig(9))
        assert not garb.fast_deny(r_sig=sig(8), w_sig=sig(9))


class TestReservation:
    def test_reserve_fans_out(self):
        arb = make(2)
        assert arb.reserve(3)
        decision = arb.decide(0, sig(0), None, ranges=(0,), now=0.0)
        assert not decision.granted
        arb.clear_reservation(3)
        assert arb.decide(0, sig(0), None, ranges=(0,), now=1.0).granted

    def test_conflicting_reservations(self):
        arb = make(2)
        assert arb.reserve(1)
        assert not arb.reserve(2)

    def test_reserve_refused_while_a_range_is_down(self):
        """Like a crashed central arbiter, a down range refuses reservations."""
        arb = make(2)
        arb.arbiters[1].crash(0.0)
        assert not arb.reserve(0)
        assert all(a.reserved_by is None for a in arb.arbiters)


def test_requires_at_least_one_range():
    with pytest.raises(ValueError):
        DistributedArbiter(BulkSCConfig(), 0)
