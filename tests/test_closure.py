"""Forward-chaining closure and the structural tests built on it."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_base, sets_of
from geodual import (
    DuplicateImplicationWarning,
    ElementSet,
    GroundSet,
    Implication,
    ImplicationalBase,
    InputError,
    closure,
    equivalent,
    implication,
    implication_graph,
    is_acyclic,
    is_closed,
    is_standard,
)
from geodual.implications import closure_mask, is_closed_mask


class TestConstruction:
    def test_empty_premise_rejected(self):
        g = GroundSet(["a", "b"])
        with pytest.raises(InputError):
            implication(g, [], "b")

    def test_self_loop_rejected(self):
        g = GroundSet(["a", "b"])
        with pytest.raises(InputError):
            implication(g, ["a", "b"], "b")

    def test_duplicates_warn_and_dedupe(self):
        g = GroundSet(["a", "b"])
        imps = [implication(g, ["a"], "b"), implication(g, ["a"], "b")]
        with pytest.warns(DuplicateImplicationWarning):
            base = ImplicationalBase(g, imps)
        assert base.size == 1

    def test_size_and_dimension(self, crossed):
        assert crossed.size == 5
        assert crossed.dimension == 2
        assert make_base("a", []).dimension == 0


class TestClosure:
    def test_crossed_four_five(self, crossed):
        (s,) = sets_of(crossed, "4 5")
        assert closure(crossed, s).labels() == ("1", "2", "3", "4", "5")

    def test_empty_base_is_identity(self):
        base = make_base("a b c", [])
        (s,) = sets_of(base, "a c")
        assert closure(base, s) == s

    def test_layered_three_four(self, layered):
        (s,) = sets_of(layered, "3 4")
        assert closure(layered, s).labels() == ("3", "4", "5", "j")

    def test_universe_mismatch(self, crossed, layered):
        with pytest.raises(InputError):
            closure(crossed, ElementSet.empty(layered.ground))


class TestIsClosed:
    def test_crossed_examples(self, crossed):
        s14, s4 = sets_of(crossed, "1 4", "4")
        assert is_closed(crossed, s14)
        assert not is_closed(crossed, s4)
        assert is_closed(crossed, ElementSet.full(crossed.ground))


class TestImplicationGraph:
    def test_direct_transcription(self):
        base = make_base("1 2 3", [("1", "2"), ("2", "3")])
        assert implication_graph(base) == {(0, 1), (1, 2)}

    def test_crossed_arcs(self, crossed):
        got = implication_graph(crossed)
        labels = crossed.ground.position
        want = {
            (labels("4"), labels("1")),
            (labels("5"), labels("2")),
            (labels("3"), labels("1")),
            (labels("3"), labels("2")),
            (labels("4"), labels("3")),
            (labels("5"), labels("3")),
        }
        assert got == want

    def test_empty_base(self):
        assert implication_graph(make_base("a b", [])) == frozenset()


class TestAcyclicStandard:
    def test_crossed_acyclic_standard(self, crossed):
        assert is_acyclic(crossed)
        assert is_standard(crossed)

    def test_two_cycle(self):
        base = make_base("1 2", [("1", "2"), ("2", "1")])
        assert not is_acyclic(base)
        assert not is_standard(base)

    def test_empty_base(self):
        base = make_base("a b", [])
        assert is_acyclic(base)
        assert is_standard(base)


class TestEquivalent:
    def test_reordering(self, crossed):
        reordered = ImplicationalBase(crossed.ground, tuple(reversed(crossed.implications)))
        assert equivalent(crossed, reordered)

    def test_entailed_superset_premise(self):
        a = make_base("a b c", [("a b", "c"), ("a", "c")])
        b = make_base("a b c", [("a", "c")])
        assert equivalent(a, b)

    def test_inequivalent(self):
        assert not equivalent(make_base("1 2", [("1", "2")]), make_base("1 2", []))

    def test_ground_mismatch(self):
        with pytest.raises(InputError):
            equivalent(make_base("1 2", []), make_base("1 3", []))


@st.composite
def base_and_sets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    g = GroundSet(f"e{i}" for i in range(n))
    full = (1 << n) - 1
    imps = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        concl = draw(st.integers(min_value=0, max_value=n - 1))
        pmask = draw(st.integers(min_value=1, max_value=full)) & ~(1 << concl)
        if pmask:
            imps.append((pmask, concl))
    base = ImplicationalBase(
        g, [Implication(ElementSet(g, p), c) for p, c in dict.fromkeys(imps)]
    )
    s = draw(st.integers(min_value=0, max_value=full))
    t = draw(st.integers(min_value=0, max_value=full))
    return base, ElementSet(g, s), ElementSet(g, t)


@given(base_and_sets())
def test_closure_axioms(data):
    base, s, t = data
    cs = closure(base, s)
    assert s <= cs, "extensive"
    assert closure(base, cs) == cs, "idempotent"
    st_union = s | t
    assert cs <= closure(base, st_union), "monotone"


@given(base_and_sets())
def test_is_closed_iff_fixpoint(data):
    base, s, _ = data
    assert is_closed(base, s) == (closure(base, s) == s)


@given(base_and_sets())
def test_closed_family_intersection_closed(data):
    base, _, _ = data
    n = base.ground.size
    closed = [m for m in range(1 << n) if is_closed_mask(base, m)]
    assert (1 << n) - 1 in closed
    for a in closed:
        for b in closed:
            assert a & b in closed


def closure_by_counters(base, mask):
    """Forward chaining with a counter set up for every rule on every call:
    the reference for `closure_mask`, which keeps counters only for the
    rules the closure touches."""
    rules = base._rules
    counts = []
    todo = []
    result = mask
    for pmask, concl, size in rules:
        cnt = size - (pmask & mask).bit_count()
        counts.append(cnt)
        if cnt == 0 and not result >> concl & 1:
            result |= 1 << concl
            todo.append(concl)
    while todo:
        x = todo.pop()
        for rid in base._rules_by_element[x]:
            counts[rid] -= 1
            if counts[rid] == 0:
                concl = rules[rid][1]
                if not result >> concl & 1:
                    result |= 1 << concl
                    todo.append(concl)
    return result


@st.composite
def rules_and_masks(draw):
    """Small and wide ground sets, rules with sparse and dense premises
    (never empty, which `Implication` rejects), and dense, sparse and
    empty input masks."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(60, 300)))
    g = GroundSet(f"e{i}" for i in range(n))
    full = (1 << n) - 1
    sparse = st.sets(st.integers(0, n - 1), max_size=4).map(
        lambda ps: sum(1 << p for p in ps)
    )
    premises = st.one_of(sparse, st.integers(0, full))
    rules = {}
    for _ in range(draw(st.integers(0, 3 * n))):
        concl = draw(st.integers(0, n - 1))
        pmask = draw(premises) & ~(1 << concl)
        if pmask:
            rules.setdefault((pmask, concl))
    base = ImplicationalBase(g, [Implication(ElementSet(g, p), c) for p, c in rules])
    masks = draw(st.lists(st.one_of(st.just(0), sparse, st.integers(0, full)), max_size=6))
    return base, masks


@settings(max_examples=60)
@given(rules_and_masks())
def test_closure_matches_counters_for_every_rule(data):
    base, masks = data
    for mask in masks:
        assert closure_mask(base, mask) == closure_by_counters(base, mask)


def test_closure_matches_smallest_closed_superset():
    rng = random.Random(11)
    from geodual.oracle import random_acyclic_base

    for _ in range(25):
        base = random_acyclic_base(rng, max_elements=6)
        n = base.ground.size
        closed = [m for m in range(1 << n) if is_closed_mask(base, m)]
        for s in range(1 << n):
            expected = (1 << n) - 1
            for c in closed:
                if s & ~c == 0:
                    expected &= c
            assert closure_mask(base, s) == expected
