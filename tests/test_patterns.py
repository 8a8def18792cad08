"""Equality patterns, orbits, and the grid partitions they induce."""

import pytest

from godelnet import (
    interval_partition,
    orbit,
    pattern_of,
    same_orbit,
    square_partition,
)
from godelnet.errors import DomainError, ResourceLimitError
from godelnet.patterns import class_map_csv, class_map_svg
from godelnet.symbols import all_permutations, index_to_digits, recode


def test_pattern_blocks():
    pat = pattern_of("aaabcabc")
    assert pat.length == 8
    assert pat.blocks == ((1, 2, 3, 6), (4, 7), (5, 8))
    assert pat.block_of(7) == 1
    with pytest.raises(DomainError):
        pat.block_of(9)


def test_pattern_zero_marking():
    pinned = pattern_of((1, 0, 1), blank_pinned=True)
    assert pinned.zero_block == 1
    assert pattern_of((1, 2, 1), blank_pinned=True).zero_block is None
    assert pattern_of((1, 0, 1)).zero_block is None


def test_same_orbit_basics():
    assert same_orbit((0, 1, 0), (2, 1, 2), 3)
    assert not same_orbit((0, 1, 0), (0, 1, 1), 3)
    assert not same_orbit((0, 1), (0, 1, 0), 3)
    assert same_orbit((), (), 3)


def test_same_orbit_pinned_distinguishes_zero_position():
    assert same_orbit((0, 1), (1, 0), 2)
    assert not same_orbit((0, 1), (1, 0), 2, blank_pinned=True)
    assert same_orbit((0, 1), (0, 2), 3, blank_pinned=True)


def test_same_orbit_validates_digits():
    with pytest.raises(DomainError):
        same_orbit((0, 3), (0, 1), 3)
    with pytest.raises(DomainError):
        same_orbit("abcd", "abcd", 3)


def test_orbit_sizes():
    # k distinct symbols among m give m! / (m-k)! images
    assert len(orbit((0,), 3)) == 3
    assert len(orbit((0, 1), 3)) == 6
    assert len(orbit((0, 1, 2), 3)) == 6
    assert len(orbit((0, 0, 1), 3, blank_pinned=True)) == 2


def test_orbit_of_symbol_word_needs_universe_when_smaller():
    with pytest.raises(DomainError):
        orbit("ab", 3)
    members = orbit("ab", 3, universe=("a", "b", "c"))
    assert ("c", "a") in members and len(members) == 6


def test_orbit_members_are_equivalent():
    word = (1, 0, 2, 1)
    for member in orbit(word, 3):
        assert same_orbit(word, member, 3)


def test_interval_partition_small():
    cmap = interval_partition(3, 2)
    assert cmap.class_count == 2
    assert cmap.class_of(0) == cmap.class_of(4) == cmap.class_of(8)
    assert cmap.class_of(1) != cmap.class_of(0)
    pinned = interval_partition(3, 2, blank_pinned=True)
    assert pinned.class_count == 5


def test_interval_partition_matches_recoding_closure():
    cmap = interval_partition(3, 3)
    for k, cid in cmap.assignment:
        digits = index_to_digits(k, 3, 3)
        for perm in all_permutations(3):
            image = recode(digits, perm)
            k2 = int("".join(map(str, image)), 3)
            assert cmap.class_of(k2) == cid


def test_square_partition_modes_differ():
    joint = square_partition(3, 1, 1, mode="joint", blank_pinned=True)
    prod = square_partition(3, 1, 1, mode="product", blank_pinned=True)
    # (1, 2) and (1, 1): one shared permutation distinguishes them,
    # independent per-side permutations do not
    assert joint.class_of((1, 2)) != joint.class_of((1, 1))
    assert prod.class_of((1, 2)) == prod.class_of((1, 1))
    assert joint.class_count == 5
    assert prod.class_count == 4
    assert square_partition(3, 1, 1, mode="joint").class_count == 2
    assert square_partition(3, 1, 1, mode="product").class_count == 1


def test_square_partition_mixed_bases():
    cmap = square_partition(3, 1, 1, mode="product", m_right=5)
    assert len(cmap.cells()) == 15
    with pytest.raises(DomainError):
        square_partition(3, 1, 1, mode="joint", m_right=5)


def test_square_partition_class_ids_contiguous():
    cmap = square_partition(3, 2, 2, mode="joint")
    ids = [cid for _, cid in cmap.assignment]
    assert min(ids) == 0 and max(ids) == cmap.class_count - 1
    seen = set()
    for cid in ids:
        assert cid <= len(seen)  # first occurrences appear in order
        seen.add(cid)


@pytest.mark.parametrize("cmap, outside", [
    (interval_partition(3, 2, blank_pinned=True), [9, -1, (0, 0)]),
    (square_partition(3, 1, 2, mode="joint"), [(3, 0), (0, 9), 0]),
    (square_partition(3, 1, 1, mode="product", m_right=5), [(0, 5), (3, 0)]),
])
def test_class_of_agrees_with_members(cmap, outside):
    grid = set(cmap.cells())
    covered = []
    for cid in range(cmap.class_count):
        members = cmap.members(cid)
        assert members
        assert all(cmap.class_of(cell) == cid for cell in members)
        covered.extend(members)
    assert sorted(covered) == sorted(grid)
    for cell in outside:
        with pytest.raises(DomainError):
            cmap.class_of(cell)


def test_class_map_lookup_errors():
    cmap = interval_partition(2, 2)
    with pytest.raises(DomainError):
        cmap.class_of(7)


def test_cell_budget_guard():
    with pytest.raises(ResourceLimitError):
        interval_partition(3, 5, cell_budget=100)
    with pytest.raises(ResourceLimitError):
        square_partition(3, 3, 3, cell_budget=100)


def test_class_map_exports():
    cmap = square_partition(3, 1, 2, mode="product")
    text = class_map_csv(cmap)
    lines = text.strip().splitlines()
    assert lines[0] == "i,j,x_corner_digits,y_corner_digits,class"
    assert len(lines) == 1 + 3 * 9
    svg = class_map_svg(cmap)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    strip = class_map_svg(interval_partition(3, 2))
    assert strip.startswith("<svg")
