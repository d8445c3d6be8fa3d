"""Tests for address arithmetic and the region-based address space."""

import pytest

from repro.errors import ConfigError
from repro.memory.address import AddressMap, AddressSpace


@pytest.fixture
def amap():
    return AddressMap(words_per_line=8, num_directories=4)


@pytest.fixture
def space(amap):
    return AddressSpace(amap)


class TestAddressMap:
    def test_line_of(self, amap):
        assert amap.line_of(0) == 0
        assert amap.line_of(7) == 0
        assert amap.line_of(8) == 1
        assert amap.line_of(8001) == 1000

    def test_word_offset(self, amap):
        assert amap.word_offset(13) == 5

    def test_words_of_line(self, amap):
        assert list(amap.words_of_line(2)) == list(range(16, 24))

    def test_directory_interleaving(self, amap):
        homes = {amap.directory_of(line) for line in range(16)}
        assert homes == {0, 1, 2, 3}

    def test_set_index(self, amap):
        assert amap.set_index(0x1FF, 256) == 0xFF

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            AddressMap(words_per_line=6)
        with pytest.raises(ConfigError):
            AddressMap(words_per_line=8, num_directories=3)


class TestAddressSpace:
    def test_allocation_is_line_aligned(self, space):
        space.allocate("a", 3)
        region_b = space.allocate("b", 10)
        assert region_b.start_word % 8 == 0

    def test_regions_do_not_overlap(self, space):
        a = space.allocate("a", 100)
        b = space.allocate("b", 100)
        assert a.end_word <= b.start_word

    def test_region_lookup_by_name(self, space):
        region = space.allocate("heap", 64)
        assert space.region("heap") is region

    def test_region_of_word(self, space):
        region = space.allocate("heap", 64)
        assert space.region_of(region.start_word + 3) is region
        assert space.region_of(10**9) is None

    def test_duplicate_name_rejected(self, space):
        space.allocate("x", 8)
        with pytest.raises(ConfigError):
            space.allocate("x", 8)

    def test_zero_size_rejected(self, space):
        with pytest.raises(ConfigError):
            space.allocate("empty", 0)

    def test_statically_private_classification(self, space):
        stack = space.allocate("stack0", 64, private_to=0)
        shared = space.allocate("heap", 64)
        assert space.is_statically_private(stack.start_word, 0)
        assert not space.is_statically_private(stack.start_word, 1)
        assert not space.is_statically_private(shared.start_word, 0)


class TestScatteredAllocation:
    def test_scattered_regions_have_distinct_high_bits(self, space):
        a = space.allocate_scattered("a", 1024)
        b = space.allocate_scattered("b", 1024)
        shift = AddressSpace.SCATTER_SHIFT
        assert (a.start_word >> (shift + 3)) != (b.start_word >> (shift + 3))

    def test_scattered_deterministic_in_seed_and_name(self, amap):
        s1 = AddressSpace(amap, scatter_seed=7).allocate_scattered("r", 64)
        s2 = AddressSpace(amap, scatter_seed=7).allocate_scattered("r", 64)
        assert s1.start_word == s2.start_word

    def test_scattered_seeds_differ(self, amap):
        s1 = AddressSpace(amap, scatter_seed=1).allocate_scattered("r", 64)
        s2 = AddressSpace(amap, scatter_seed=2).allocate_scattered("r", 64)
        assert s1.start_word != s2.start_word

    def test_scattered_bases_stagger_cache_sets(self, space):
        """Regions must not all start at cache set 0."""
        sets = set()
        for i in range(16):
            region = space.allocate_scattered(f"r{i}", 64)
            sets.add((region.start_word // 8) % 256)
        assert len(sets) > 8

    def test_scattered_duplicate_name_rejected(self, space):
        space.allocate_scattered("dup", 8)
        with pytest.raises(ConfigError):
            space.allocate_scattered("dup", 8)

    def test_scattered_collision_avoidance(self, amap):
        """Hundreds of regions must land at distinct ids."""
        space = AddressSpace(amap)
        starts = set()
        for i in range(200):
            starts.add(space.allocate_scattered(f"r{i}", 8).start_word)
        assert len(starts) == 200


@pytest.mark.parametrize("allocator", ["allocate", "allocate_scattered"])
def test_regions_start_and_end_on_line_boundaries(amap, allocator):
    """Regions own whole lines, so privacy can be classified per line.

    The BulkSC driver memoizes the statically-private attribute per cache
    line; that is exact only while no line straddles two regions.
    """
    space = AddressSpace(amap, scatter_seed=3)
    allocate = getattr(space, allocator)
    wpl = amap.words_per_line
    for i, size in enumerate([1, 3, 8, 9, 17, 64, 100]):
        region = allocate(f"r{i}", size, private_to=i % 2)
        assert region.start_word % wpl == 0
        assert region.end_word % wpl == 0
        for word in (region.start_word, region.end_word - 1):
            line_words = amap.words_of_line(amap.line_of(word))
            assert {space.region_of(w) for w in line_words} == {region}
