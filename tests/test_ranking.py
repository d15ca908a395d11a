"""Rank computation, validation, and the non-rankedness certificate checker."""

import random

import pytest

from conftest import layered_base, make_base
from geodual import (
    MeetFamily,
    RankConflict,
    RankFunction,
    UnrankedCertificate,
    check_unranked_certificate,
    compute_rank,
    implication,
    is_acyclic,
    validate_rank,
)
from geodual.errors import InputError
from geodual.oracle import (
    meets_brute,
    perturb_until_unranked,
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
        a, b = conflict.required_ranks
        assert a != b
        w1, w2 = conflict.witness_implications
        assert w1 in crossed.implications and w2 in crossed.implications
        assert conflict.describe()

    def test_uneven_conflict(self, uneven):
        assert isinstance(compute_rank(uneven), RankConflict)

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


class TestUnrankedCertificate:
    def test_crossed_full_certificate_accepted(self, crossed):
        meets = MeetFamily(crossed.ground, meets_brute(crossed))
        cert = UnrankedCertificate(tuple(crossed.implications))
        assert check_unranked_certificate(meets, cert)

    def test_non_minimal_generator_rejected(self):
        base = make_base("a b c", [("a", "c")])
        meets = MeetFamily(base.ground, meets_brute(base))
        cert = UnrankedCertificate((implication(base.ground, ["a", "b"], "c"),))
        assert not check_unranked_certificate(meets, cert)

    def test_rankable_certificate_rejected(self, layered):
        meets = MeetFamily(layered.ground, meets_brute(layered))
        cert = UnrankedCertificate((implication(layered.ground, ["4", "5"], "j"),))
        assert not check_unranked_certificate(meets, cert)

    def test_invalid_implication_rejected(self, layered):
        meets = MeetFamily(layered.ground, meets_brute(layered))
        cert = UnrankedCertificate((implication(layered.ground, ["1"], "j"),))
        assert not check_unranked_certificate(meets, cert)

    def test_redundant_generator_rejected(self, layered):
        # {3 4} generates j but 4 5 -> j makes it redundant
        meets = MeetFamily(layered.ground, meets_brute(layered))
        cert = UnrankedCertificate((implication(layered.ground, ["3", "4"], "j"),))
        assert not check_unranked_certificate(meets, cert)

    def test_length_bound_enforced(self, layered):
        g = layered.ground
        imps = tuple(implication(g, [a], "j") for a in ["1", "2", "3", "4", "5"])
        UnrankedCertificate(imps + imps[:1])  # 6 = |X| is fine
        with pytest.raises(InputError):
            UnrankedCertificate(imps + imps + imps[:2])
