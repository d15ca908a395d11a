"""Rank computation, validation, and the conflict cycle that witnesses
that no rank exists."""

import random

import pytest

from conftest import layered_base, make_base
from geodual import (
    ImplicationalBase,
    MinimalGenerator,
    RankConflict,
    RankFunction,
    compute_rank,
    critical_base,
    is_acyclic,
    is_ranked_geometry,
    is_redundant,
    validate_rank,
)
from geodual.errors import InputError
from geodual.oracle import (
    mingens_brute,
    perturb_until_unranked,
    random_acyclic_base,
    random_ranked_base,
    rank_exists_brute,
)


def ranks_by_label(base, rho):
    return {base.ground.labels[i]: r for i, r in enumerate(rho.ranks)}


def _undirected_components(base):
    n = base.ground.size
    neighbors = [set() for _ in range(n)]
    for imp in base.implications:
        for a in imp.premise:
            neighbors[a].add(imp.conclusion)
            neighbors[imp.conclusion].add(a)
    seen, components = set(), []
    for seed in range(n):
        if seed in seen:
            continue
        stack, component = [seed], []
        seen.add(seed)
        while stack:
            x = stack.pop()
            component.append(x)
            for y in neighbors[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        components.append(component)
    return components


class TestComputeRank:
    def test_layered_ranks(self, layered):
        rho = compute_rank(layered)
        assert isinstance(rho, RankFunction)
        assert ranks_by_label(layered, rho) == {
            "j": 0, "4": 1, "5": 1, "1": 2, "2": 2, "3": 2,
        }

    def test_crossed_conflict(self, crossed):
        conflict = compute_rank(crossed)
        assert isinstance(conflict, RankConflict)
        assert conflict.element == crossed.ground.position("3")
        assert conflict.required_ranks == (1, 0)
        assert [repr(w) for w in conflict.witness_implications] == [
            "4 -> 1", "3 -> 1", "4 5 -> 3",
        ]
        assert conflict.describe() == (
            "element '3' would need rank 1 and rank 0; "
            "forced by 4 -> 1, 3 -> 1 and 4 5 -> 3"
        )

    def test_uneven_conflict(self, uneven):
        # 3 and 4 share a premise, but the paths 1 -> 2 -> 4 and 1 -> 3
        # put them one rank apart: every rule of the cycle is named.
        conflict = compute_rank(uneven)
        assert isinstance(conflict, RankConflict)
        assert conflict.describe() == (
            "element '5' would need rank 1 and rank 0; "
            "forced by 1 -> 2, 1 -> 3, 2 -> 4 and 3 4 -> 5"
        )

    def test_empty_base_singleton(self):
        rho = compute_rank(make_base("a", []))
        assert rho.ranks == (0,)

    def test_components_normalized_to_zero(self):
        base = make_base("a b c d", [("a", "b"), ("c", "d")])
        rho = compute_rank(base)
        assert ranks_by_label(base, rho) == {"a": 1, "b": 0, "c": 1, "d": 0}

    def test_cycle_conflicts(self):
        assert isinstance(
            compute_rank(make_base("1 2", [("1", "2"), ("2", "1")])), RankConflict
        )


class TestValidateRank:
    def test_layered_accepts_computed(self, layered):
        rho = compute_rank(layered)
        assert validate_rank(layered, rho)

    def test_layered_rejects_wrong_rank(self, layered):
        rho = compute_rank(layered)
        ranks = list(rho.ranks)
        ranks[layered.ground.position("3")] = 1
        assert not validate_rank(layered, RankFunction(tuple(ranks)))

    def test_empty_base_vacuous(self):
        base = make_base("a b", [])
        assert validate_rank(base, RankFunction((3, 0)))

    def test_partial_rank_rejected(self, layered):
        with pytest.raises(InputError):
            validate_rank(layered, RankFunction((0,)))


class TestRankProperties:
    def test_roundtrip_and_brute_confirmation(self):
        rng = random.Random(31)
        for _ in range(40):
            base = random_ranked_base(rng, max_elements=7, max_implications=10)
            rho = compute_rank(base)
            assert isinstance(rho, RankFunction)
            assert validate_rank(base, rho)
            assert min(rho.ranks) == 0
            assert rank_exists_brute(base)

    def test_brute_search_deeper_than_the_recursion_limit(self):
        # 4 096 elements, all constrained: one search step per element
        assert rank_exists_brute(layered_base(2, 2048, 1, 1, seed=7))

    def test_conflict_means_no_rank_exists(self):
        rng = random.Random(32)
        for _ in range(25):
            seed = random_ranked_base(rng, max_elements=6, max_implications=6)
            unranked = perturb_until_unranked(rng, seed)
            assert isinstance(compute_rank(unranked), RankConflict)
            assert not rank_exists_brute(unranked)

    def test_rank_unique_up_to_component_shift(self):
        rng = random.Random(33)
        for _ in range(30):
            base = random_ranked_base(rng, max_elements=7, max_implications=10)
            rho = compute_rank(base)
            components = _undirected_components(base)
            shifted = list(rho.ranks)
            for component in components:
                delta = rng.randint(0, 3)
                for x in component:
                    shifted[x] += delta
            assert validate_rank(base, RankFunction(tuple(shifted)))
            # normalizing the shifted function per component recovers rho
            renorm = list(shifted)
            for component in components:
                low = min(renorm[x] for x in component)
                for x in component:
                    renorm[x] -= low
            assert tuple(renorm) == rho.ranks

    def test_ranked_implies_acyclic(self):
        rng = random.Random(34)
        for _ in range(30):
            base = random_ranked_base(rng, max_elements=7, max_implications=10)
            if isinstance(compute_rank(base), RankFunction):
                assert is_acyclic(base)


def seeded_bases(count):
    """Odd seeds give random acyclic bases, even seeds ranked bases
    perturbed until they have no rank."""
    for seed in range(count):
        rng = random.Random(seed)
        if seed % 2:
            yield random_acyclic_base(rng, 9, 18)
        else:
            yield perturb_until_unranked(rng, random_ranked_base(rng, 9, 14))


CYCLIC_BASES = [
    make_base("1 2", [("1", "2"), ("2", "1")]),
    make_base("1 2 3", [("1", "2"), ("2", "3"), ("3", "1")]),
    make_base("a b c", [("a b", "c"), ("c", "a")]),
]


class TestConflictCycle:
    def test_every_conflict_is_an_unrankable_cycle(self):
        """The witnesses are at most n distinct rules of the base, in base
        order, one of them mentions the conflicting element, and they
        admit no rank."""
        conflicts = 0
        for base in [*seeded_bases(1000), *CYCLIC_BASES]:
            conflict = compute_rank(base)
            if not isinstance(conflict, RankConflict):
                continue
            conflicts += 1
            witnesses = conflict.witness_implications
            order = [base.implications.index(w) for w in witnesses]
            assert order == sorted(set(order))
            assert len(witnesses) <= base.ground.size
            assert any(
                conflict.element == w.conclusion or conflict.element in w.premise
                for w in witnesses
            )
            assert not rank_exists_brute(ImplicationalBase(base.ground, witnesses))
        assert conflicts > 800

    def test_critical_cycle_certifies_the_geometry(self, crossed):
        """On an acyclic base of an unranked geometry, each witness of the
        critical base's conflict is a critical generator of the base's
        closure (valid, minimal, not redundant), and together they admit
        no rank."""
        bases = [crossed]
        bases += [b for b in seeded_bases(400) if is_acyclic(b) and not is_ranked_geometry(b)]
        assert len(bases) > 20
        for base in bases:
            witnesses = compute_rank(critical_base(base)).witness_implications
            for w in witnesses:
                assert w.premise in mingens_brute(base, w.conclusion)
                assert not is_redundant(base, MinimalGenerator(w.premise, w.conclusion))
            assert not rank_exists_brute(ImplicationalBase(base.ground, witnesses))
