"""Unit tests for deterministic randomness."""

import random

import pytest

from repro.engine.rng import DeterministicRng


def test_same_seed_same_stream():
    a = DeterministicRng(7)
    b = DeterministicRng(7)
    assert [a.randint(0, 100) for _ in range(20)] == [
        b.randint(0, 100) for _ in range(20)
    ]


def test_different_seeds_differ():
    a = [DeterministicRng(1).randint(0, 10**9) for _ in range(4)]
    b = [DeterministicRng(2).randint(0, 10**9) for _ in range(4)]
    assert a != b


def test_fork_is_pure_function_of_seed_and_label():
    parent1 = DeterministicRng(5)
    parent2 = DeterministicRng(5)
    # Consuming state from one parent must not change its forks.
    parent1.randint(0, 100)
    fork1 = parent1.fork("worker")
    fork2 = parent2.fork("worker")
    assert fork1.randint(0, 10**9) == fork2.randint(0, 10**9)


def test_forks_with_different_labels_are_independent():
    parent = DeterministicRng(5)
    a = parent.fork("a").randint(0, 10**9)
    b = parent.fork("b").randint(0, 10**9)
    assert a != b


def test_geometric_minimum_is_one():
    rng = DeterministicRng(3)
    assert all(rng.geometric(0.9) >= 1 for _ in range(50))


def test_geometric_rejects_bad_p():
    with pytest.raises(ValueError):
        DeterministicRng(0).geometric(0.0)
    with pytest.raises(ValueError):
        DeterministicRng(0).geometric(1.5)


def test_zipf_index_in_range():
    rng = DeterministicRng(11)
    draws = [rng.zipf_index(16) for _ in range(200)]
    assert all(0 <= d < 16 for d in draws)


def test_zipf_is_skewed_toward_low_indices():
    rng = DeterministicRng(13)
    draws = [rng.zipf_index(64) for _ in range(2000)]
    low = sum(1 for d in draws if d < 8)
    high = sum(1 for d in draws if d >= 56)
    assert low > high * 2


def test_zipf_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        DeterministicRng(0).zipf_index(0)


def test_shuffle_and_sample_deterministic():
    a, b = DeterministicRng(9), DeterministicRng(9)
    la, lb = list(range(10)), list(range(10))
    a.shuffle(la)
    b.shuffle(lb)
    assert la == lb
    assert a.sample(range(100), 5) == b.sample(range(100), 5)


class TestDrawAccounting:
    """The monotonic draw counter backs replay's divergence diagnostics."""

    def test_counter_starts_at_zero(self):
        assert DeterministicRng(0).draws == 0

    def test_every_primitive_counts(self):
        rng = DeterministicRng(1)
        rng.randint(0, 10)
        rng.random()
        rng.uniform(0.0, 1.0)
        rng.choice([1, 2, 3])
        rng.shuffle([1, 2, 3])
        rng.sample(range(10), 2)
        rng.expovariate(1.0)
        assert rng.draws == 7

    def test_composite_draws_count_each_underlying_draw(self):
        rng = DeterministicRng(2)
        rng.geometric(0.5)
        assert rng.draws >= 1
        before = rng.draws
        rng.zipf_index(8)
        assert rng.draws > before

    def test_counter_matches_across_identical_streams(self):
        a, b = DeterministicRng(9), DeterministicRng(9)
        for rng in (a, b):
            rng.geometric(0.25)
            rng.randint(0, 5)
            rng.zipf_index(16)
        assert a.draws == b.draws

    def test_fork_does_not_consume_draws(self):
        rng = DeterministicRng(4)
        rng.fork("child")
        assert rng.draws == 0


class TestDrawKernel:
    """randint and shuffle draw on getrandbits directly; the stream must
    stay the stdlib's, draw for draw."""

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (0, 0),  # width 1
            (0, 1),  # width 2
            (0, 2**7 - 2),  # 2^k - 1
            (0, 2**7 - 1),  # 2^k
            (0, 2**7),  # 2^k + 1
            (5, 5 + 2**16),
            (0, 2**40),  # above 2^32: getrandbits spans words
            (-50, 13),  # negative lo
            (-(2**35), -(2**33)),
        ],
    )
    def test_randint_matches_stdlib(self, lo, hi):
        for seed in (0, 1, 12345):
            ours, theirs = DeterministicRng(seed), random.Random(seed)
            # Interleave another draw so the underlying state must stay
            # aligned, not just the values.
            for __ in range(200):
                assert ours.randint(lo, hi) == theirs.randint(lo, hi)
                assert ours.random() == theirs.random()

    @pytest.mark.parametrize("length", [0, 1, 2, 1000])
    def test_shuffle_matches_stdlib(self, length):
        for seed in (0, 7):
            ours, theirs = DeterministicRng(seed), random.Random(seed)
            a, b = list(range(length)), list(range(length))
            ours.shuffle(a)
            theirs.shuffle(b)
            assert a == b
            assert ours.randint(0, 10**9) == theirs.randint(0, 10**9)

    def test_shuffle_draws_depend_only_on_length(self):
        a, b = DeterministicRng(3), DeterministicRng(3)
        ints, words = list(range(50)), [str(i) for i in range(50)]
        a.shuffle(ints)
        b.shuffle(words)
        assert [str(i) for i in ints] == words

    def test_empty_range_raises_like_stdlib(self):
        with pytest.raises(ValueError):
            random.Random(0).randint(5, 4)
        rng = DeterministicRng(0)
        with pytest.raises(ValueError):
            rng.randint(5, 4)
        assert rng.draws == 1

    def test_one_draw_per_call(self):
        rng = DeterministicRng(0)
        rng.randint(0, 2**40)
        rng.shuffle(list(range(1000)))
        rng.randint(-3, 3)
        assert rng.draws == 3
