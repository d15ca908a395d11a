"""Ground set and element set invariants."""

import pytest
from hypothesis import given, strategies as st

from geodual import ElementSet, GroundSet, InputError
from geodual.sets import MAX_GROUND_SIZE, maximal_masks, minimal_masks


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
    assert (s - t).isdisjoint(t)
    assert (s & t) <= s
    assert s <= (s | t)


def test_minimal_and_maximal_masks():
    masks = [0b011, 0b001, 0b111, 0b100]
    assert minimal_masks(masks) == [0b001, 0b100]
    assert maximal_masks(masks) == [0b111]
    assert minimal_masks([]) == []
    assert maximal_masks([0b1, 0b1]) == [0b1]
