"""Ground set and element set invariants."""

import random

import pytest
from hypothesis import given, strategies as st

from conftest import positions
from geodual import ElementSet, GroundSet, InputError
from geodual.sets import (
    MAX_GROUND_SIZE,
    bit_rows,
    maximal_masks,
    minimal_masks,
    sort_key_lex,
    sort_key_size_lex,
)


class TestGroundSet:
    def test_labels_and_index_are_inverse(self):
        g = GroundSet(["a", "b", "c"])
        assert g.size == 3
        assert [g.position(lab) for lab in g.labels] == [0, 1, 2]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            GroundSet(["a", "b", "a"])

    def test_empty_label_rejected(self):
        with pytest.raises(InputError):
            GroundSet(["a", ""])

    def test_whitespace_label_rejected(self):
        with pytest.raises(InputError):
            GroundSet(["a b"])

    @pytest.mark.parametrize("label", ["->", ".", "#a", "a#b", "a#"])
    def test_file_format_syntax_rejected(self, label):
        # `#` starts a comment anywhere on a line, so no label may hold one:
        # `a#b -> c` would read as `a` and fail to parse.
        with pytest.raises(InputError, match="clashes with file-format syntax"):
            GroundSet(["c", label])

    def test_capacity_enforced(self):
        GroundSet(str(i) for i in range(MAX_GROUND_SIZE))
        with pytest.raises(InputError):
            GroundSet(str(i) for i in range(MAX_GROUND_SIZE + 1))

    def test_unknown_label(self):
        with pytest.raises(InputError):
            GroundSet(["a"]).position("b")


class TestElementSet:
    def test_membership_iteration_len(self):
        g = GroundSet(["a", "b", "c", "d"])
        s = ElementSet.from_labels(g, ["b", "d"])
        assert list(s) == [1, 3]
        assert len(s) == 2
        assert 1 in s and 0 not in s
        assert s.labels() == ("b", "d")

    def test_out_of_range_rejected(self):
        g = GroundSet(["a", "b"])
        with pytest.raises(InputError):
            ElementSet.of(g, [2])
        with pytest.raises(InputError):
            ElementSet(g, 1 << 2)

    def test_first_bad_position_or_label_named(self):
        g = GroundSet(["a", "b"])
        with pytest.raises(InputError, match="position -1 outside universe of size 2"):
            ElementSet.of(g, [1, -1, 5])
        with pytest.raises(InputError, match="unknown element label 'z'"):
            ElementSet.from_labels(g, ["a", "z", "y"])

    def test_universe_mismatch(self):
        s = ElementSet.full(GroundSet(["a", "b"]))
        t = ElementSet.full(GroundSet(["a", "c"]))
        with pytest.raises(InputError):
            s | t

    def test_equal_universes_interoperate(self):
        s = ElementSet.of(GroundSet(["a", "b"]), [0])
        t = ElementSet.of(GroundSet(["a", "b"]), [1])
        assert (s | t) == ElementSet.full(s.universe)


@given(st.data())
def test_of_and_from_labels_set_exactly_the_given_positions(data):
    n = data.draw(st.integers(0, 300))
    positions = data.draw(st.lists(st.integers(0, n - 1))) if n else []
    g = GroundSet(f"x{i}" for i in range(n))
    mask = sum(1 << pos for pos in set(positions))
    assert ElementSet.of(g, positions).mask == mask
    assert ElementSet.from_labels(g, (g.labels[pos] for pos in positions)).mask == mask


@st.composite
def set_pair(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    g = GroundSet(f"x{i}" for i in range(n))
    a = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return ElementSet(g, a), ElementSet(g, b)


@given(set_pair())
def test_union_intersection_absorption(pair):
    s, t = pair
    assert ((s | t) & s) == s


@given(set_pair())
def test_double_complement_identity(pair):
    s, _ = pair
    assert s.complement().complement() == s


@given(set_pair())
def test_difference_and_subset_laws(pair):
    s, t = pair
    assert (s - t).mask & t.mask == 0
    assert (s & t) <= s
    assert s <= (s | t)


def test_minimal_and_maximal_masks():
    masks = [0b011, 0b001, 0b111, 0b100]
    assert minimal_masks(masks) == [0b001, 0b100]
    assert maximal_masks(masks) == [0b111]
    assert minimal_masks([]) == []
    assert maximal_masks([0b1, 0b1]) == [0b1]


def by_size_then_positions(mask):
    return (mask.bit_count(), positions(mask))


@st.composite
def mask_lists(draw):
    """Masks of up to 4 096 bits, dense and sparse, the empty mask among
    them, with truncations and one-bit extensions of the drawn masks so
    that many share a prefix of positions."""
    width = draw(st.integers(1, MAX_GROUND_SIZE))
    dense = st.integers(0, (1 << width) - 1)
    sparse = st.sets(st.integers(0, width - 1), max_size=6).map(
        lambda ps: sum(1 << p for p in ps)
    )
    masks = draw(st.lists(st.one_of(dense, sparse, st.just(0)), min_size=1, max_size=8))
    for m in list(masks):
        masks.append(m & (1 << draw(st.integers(0, width))) - 1)
        masks.append(m | 1 << draw(st.integers(0, width - 1)))
    return masks


@given(mask_lists())
def test_lexicographic_keys_sort_as_position_tuples(masks):
    assert sorted(masks, key=sort_key_lex) == sorted(masks, key=positions)
    assert sorted(masks, key=sort_key_size_lex) == sorted(masks, key=by_size_then_positions)
    unique = set(masks)
    assert minimal_masks(masks) == [
        m
        for m in sorted(unique, key=by_size_then_positions)
        if not any(k & m == k and k != m for k in unique)
    ]
    assert maximal_masks(masks) == [
        m
        for m in sorted(unique, key=by_size_then_positions)
        if not any(k & m == m and k != m for k in unique)
    ]


def rows_by_definition(masks, low, width):
    return [
        sum(1 << i for i, m in enumerate(masks) if m >> (low + a) & 1) for a in range(width)
    ]


@pytest.mark.parametrize("low", [0, 70])
@pytest.mark.parametrize("width", [1, 63, 64, 65, 4096])
def test_bit_rows_match_per_bit_definition(width, low):
    # Dense, sparse, empty and full masks, and the two end positions,
    # written at `low`; a nonzero `low` leaves every row past bit 64.  A
    # family of empty masks, and no family at all, give all-zero rows.
    rng = random.Random(width)
    window = (1 << width) - 1
    masks = [0, window, 1, 1 << (width - 1)] + [rng.getrandbits(width) for _ in range(20)]
    masks += [sum(1 << p for p in rng.sample(range(width), min(width, 3))) for _ in range(10)]
    masks = [m << low for m in masks]
    assert bit_rows(masks, low, width) == rows_by_definition(masks, low, width)
    assert bit_rows([0, 0], low, width) == [0] * width
    assert bit_rows([], low, width) == [0] * width


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 4096])
def test_join_labels_matches_per_bit_definition(n):
    ground = GroundSet(f"é{i}" for i in range(n))
    full = (1 << n) - 1
    rng = random.Random(n)
    masks = [0, 1, 1 << (n - 1), full] + [rng.getrandbits(n) for _ in range(30)]
    masks += [sum(1 << p for p in rng.sample(range(n), min(n, 3))) for _ in range(10)]
    for mask in masks:
        expected = " ".join(ground.labels[i] for i in range(n) if mask >> i & 1)
        assert ground.join_labels(mask) == expected

