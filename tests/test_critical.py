"""Criticality testing and critical-base computation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    equivalent_perturbation,
    make_base,
    positions,
    sets_of,
    widest_ground,
    with_wide_premises,
)
from geodual import (
    ElementSet,
    Implication,
    ImplicationalBase,
    MinimalGenerator,
    PreconditionError,
    RankFunction,
    compute_rank,
    critical_base,
    equivalent,
    is_ranked_geometry,
    is_redundant,
    validate_rank,
)
from geodual.oracle import mingens_brute, random_acyclic_base, random_ranked_base


def imp_set(base):
    return set(base.implications)


class TestIsRedundant:
    def test_layered_three_four_redundant(self, layered):
        (a,) = sets_of(layered, "3 4")
        assert is_redundant(layered, MinimalGenerator(a, layered.ground.position("j")))

    def test_layered_four_five_critical(self, layered):
        (a,) = sets_of(layered, "4 5")
        assert not is_redundant(layered, MinimalGenerator(a, layered.ground.position("j")))

    def test_sole_generator_critical(self):
        base = make_base("1 2", [("1", "2")])
        (a,) = sets_of(base, "1")
        assert not is_redundant(base, MinimalGenerator(a, base.ground.position("2")))

    def test_cyclic_base_rejected(self):
        base = make_base("1 2", [("1", "2"), ("2", "1")])
        (a,) = sets_of(base, "1")
        with pytest.raises(PreconditionError):
            is_redundant(base, MinimalGenerator(a, 1))

    def test_non_mingen_rejected(self, layered):
        (a,) = sets_of(layered, "1")
        with pytest.raises(PreconditionError):
            is_redundant(layered, MinimalGenerator(a, layered.ground.position("j")))


class TestCriticalBase:
    def test_crossed_is_its_own_critical_base(self, crossed):
        assert imp_set(critical_base(crossed)) == imp_set(crossed)

    def test_layered_is_its_own_critical_base(self, layered):
        assert imp_set(critical_base(layered)) == imp_set(layered)

    def test_uneven_is_its_own_critical_base(self, uneven):
        assert imp_set(critical_base(uneven)) == imp_set(uneven)

    def test_subsumed_premise_dropped(self):
        base = make_base("a b c", [("a", "c"), ("b", "c"), ("a b", "c")])
        want = make_base("a b c", [("a", "c"), ("b", "c")])
        assert imp_set(critical_base(base)) == imp_set(want)

    def test_cyclic_input_rejected(self):
        with pytest.raises(PreconditionError):
            critical_base(make_base("1 2", [("1", "2"), ("2", "1")]))

    def test_deterministic_order(self, crossed):
        out = critical_base(crossed)
        keys = [(imp.conclusion, positions(imp.premise.mask)) for imp in out.implications]
        assert keys == sorted(keys)


@st.composite
def wide_acyclic_bases(draw):
    """Bases over the widest ground whose premises lie above their
    conclusions; a few conclusions share rules whose premises come from a
    few positions spread over the ground, so premises share prefixes."""
    top = len(widest_ground()) - 1
    rules = []
    for conclusion in draw(st.sets(st.integers(0, top - 1), min_size=1, max_size=3)):
        pool = draw(st.sets(st.integers(conclusion + 1, top), min_size=1, max_size=6))
        premise = st.sets(st.sampled_from(sorted(pool)), min_size=1, max_size=3)
        for elements in draw(st.lists(premise, min_size=1, max_size=4)):
            rules.append((sum(1 << pos for pos in elements), conclusion))
    ground = widest_ground()
    return ImplicationalBase(
        ground, [Implication(ElementSet(ground, p), c) for p, c in dict.fromkeys(rules)]
    )


@settings(max_examples=40, deadline=None)
@given(wide_acyclic_bases())
def test_critical_base_ordered_by_conclusion_then_position_tuple(base):
    keys = [
        (imp.conclusion, positions(imp.premise.mask))
        for imp in critical_base(base).implications
    ]
    assert keys == sorted(keys)


class TestIsRankedGeometry:
    def test_crossed_not_ranked(self, crossed):
        assert not is_ranked_geometry(crossed)

    def test_layered_ranked(self, layered):
        assert is_ranked_geometry(layered)

    def test_uneven_not_ranked(self, uneven):
        assert not is_ranked_geometry(uneven)

    def test_redundancy_can_hide_rankedness(self):
        # 1 -> 3 is redundant via 1 -> 2 -> 3; the critical base is ranked
        base = make_base("1 2 3", [("1", "2"), ("2", "3"), ("1", "3")])
        assert is_ranked_geometry(base)

    def test_critical_base_keeps_the_ranks_of_any_ranked_base(self):
        # Padded with entailed rules, a ranked base is often unranked as
        # given; each critical premise still lies inside a premise of the
        # ranked base, so its rank function ranks the critical base.
        rng = random.Random(23)
        unranked = 0
        for _ in range(60):
            base = random_ranked_base(rng, max_elements=9, max_implications=12)
            padded = equivalent_perturbation(rng, with_wide_premises(rng, base))
            unranked += not isinstance(compute_rank(padded), RankFunction)
            assert validate_rank(critical_base(padded), compute_rank(base))
        assert unranked >= 10


class TestCriticalBaseProperties:
    def test_random_acyclic_suite(self):
        # Each base is checked as drawn and with extra rules whose wide
        # premises can each hold several minimal generators.
        rng, pad_rng = random.Random(17), random.Random(19)
        for _ in range(40):
            drawn = random_acyclic_base(rng, max_elements=7, max_implications=10)
            for base in (drawn, with_wide_premises(pad_rng, drawn)):
                crit = critical_base(base)
                assert equivalent(crit, base)
                for dropped in range(len(crit.implications)):
                    remaining = ImplicationalBase(
                        crit.ground,
                        crit.implications[:dropped] + crit.implications[dropped + 1 :],
                    )
                    assert not equivalent(remaining, crit), "irredundant"
                for target in range(base.ground.size):
                    kept = {i.premise for i in crit.implications if i.conclusion == target}
                    critical_gens = {
                        g
                        for g in mingens_brute(base, target)
                        if not is_redundant(base, MinimalGenerator(g, target))
                    }
                    assert kept == critical_gens, "the kept premises are the critical generators"
                for imp in crit.implications:
                    assert any(
                        imp.conclusion == other.conclusion and imp.premise <= other.premise
                        for other in base.implications
                    ), "every kept premise sits inside an input premise"

    def test_unique_across_equivalent_presentations(self):
        rng = random.Random(18)
        for _ in range(30):
            base = random_acyclic_base(rng, max_elements=7, max_implications=8)
            twin = equivalent_perturbation(rng, base)
            assert equivalent(base, twin)
            assert imp_set(critical_base(base)) == imp_set(critical_base(twin))
