"""The brute-force references themselves, pinned on the worked examples."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, family, layered_base, make_base, sets_of
from geodual import (
    ElementSet,
    GroundSet,
    MeetFamily,
    MinimalGenerator,
    PreconditionError,
    SizeGuardError,
    critical_base,
    formats,
    is_redundant,
    is_standard,
    meet_irreducibles,
    recover_critical_base,
)
from geodual.hypergraphs import Hypergraph, minimal_transversals
from geodual.implications import closure_mask, is_acyclic
from geodual.oracle import (
    _sorted_masks,
    all_closed_sets,
    closed_set_masks,
    family_meet_masks,
    intersection_closure,
    joins_brute,
    maximal_closed_avoiding,
    meets_brute,
    mingens_brute,
    positive_antichain_masks,
    random_acyclic_base,
    random_distributive_base,
    random_hypergraph,
    random_ranked_base,
    transversals_brute,
)
from geodual.ranking import RankFunction, compute_rank, validate_rank
from geodual.sets import MAX_GROUND_SIZE, maximal_masks, sort_key_size_lex


class TestAllClosedSets:
    def test_crossed_twelve_sets(self, crossed):
        got = all_closed_sets(crossed)
        want = sets_of(
            crossed,
            "", "1", "2", "1 2", "1 4", "2 5", "1 2 3", "1 2 4", "1 2 5",
            "1 2 3 4", "1 2 3 5", "1 2 3 4 5",
        )
        assert list(got) == want, "size-then-lex order, exact family"

    def test_empty_base_powerset(self):
        base = make_base("a b c", [])
        assert len(all_closed_sets(base)) == 8

    def test_chain(self, chain):
        assert family(all_closed_sets(chain)) == family(sets_of(chain, "", "2", "1 2"))

    def test_guard(self):
        base = make_base(" ".join(f"x{i}" for i in range(21)), [])
        with pytest.raises(SizeGuardError):
            all_closed_sets(base)

    def test_guard_override(self, monkeypatch):
        labels = " ".join(f"x{i}" for i in range(21))
        chain21 = make_base(
            labels, [(f"x{i}", f"x{i + 1}") for i in range(20)]
        )
        monkeypatch.setenv("GEODUAL_GUARD_OVERRIDE", "1")
        assert len(closed_set_masks(chain21)) == 22


class TestMeetsBrute:
    def test_crossed(self, crossed):
        want = sets_of(crossed, "1 4", "2 5", "1 2 4", "1 2 5", "1 2 3 4", "1 2 3 5")
        assert family(meets_brute(crossed)) == family(want)

    def test_chain(self, chain):
        assert family(meets_brute(chain)) == family(sets_of(chain, "", "2"))

    def test_boolean_coatoms(self):
        base = make_base("1 2", [])
        assert family(meets_brute(base)) == family(sets_of(base, "1", "2"))


@st.composite
def random_bases(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_ranked_base(rng, max_elements=12)
    return random_acyclic_base(rng, max_elements=10)


@settings(max_examples=60)
@given(random_bases())
def test_meets_brute_matches_family_scan(base):
    # the closure table against the definition applied to the closed sets
    full = (1 << base.ground.size) - 1
    want = family_meet_masks(closed_set_masks(base), full)
    assert [m.mask for m in meets_brute(base)] == want


def test_family_scan_past_sixty_four_elements():
    full = (1 << 70) - 1
    family = [full, full ^ 1, full ^ 2, full ^ 3]
    assert family_meet_masks(family, full) == [full ^ 2, full ^ 1]


def test_ladder_rung_at_twenty_elements():
    # Four levels of five elements, 38 426 closed sets: the largest rung
    # under the guard.  ccm must find exactly the oracle's meets, and sid
    # must turn them into the critical base.
    base = layered_base(4, 5, 3, 2, seed=7)
    assert base.ground.size == 20
    brute = meets_brute(base)
    full = (1 << base.ground.size) - 1
    assert [m.mask for m in brute] == family_meet_masks(closed_set_masks(base), full)
    meets = [meet for _, meet in meet_irreducibles(base)]
    assert len(meets) == len(set(meets))
    assert set(meets) == set(brute)
    assert recover_critical_base(MeetFamily(base.ground, brute)) == critical_base(base)


def test_ladder_rung_critical_premises_are_minimal_generators():
    # On the same rung, the premises `critical_base` keeps for a conclusion
    # are exactly its minimal generators that no other one can replace.
    base = layered_base(4, 5, 3, 2, seed=7)
    crit = critical_base(base)
    for target in sorted({imp.conclusion for imp in crit.implications}):
        gens = mingens_brute(base, target)
        kept = {imp.premise for imp in crit.implications if imp.conclusion == target}
        assert kept == {g for g in gens if not is_redundant(base, MinimalGenerator(g, target))}


@pytest.mark.parametrize("first", [0, 48, 70])
def test_berge_matches_transversals_brute_at_sixteen_vertices(first):
    # 16 vertices at positions first..first+15, above position 63 for 48
    # and 70, where the oracle works in its own vertex numbering.
    rng = random.Random(first)
    ground = GroundSet(f"v{i}" for i in range(first + 16))
    window = range(first, first + 16)
    vertices = ElementSet(ground, sum(1 << p for p in window))
    for _ in range(4):
        edges = [
            ElementSet(ground, sum(1 << p for p in rng.sample(window, rng.randint(2, 5))))
            for _ in range(rng.randint(3, 12))
        ]
        h = Hypergraph(vertices, edges)
        want = sorted((t.mask for t in minimal_transversals(h)), key=sort_key_size_lex)
        assert [t.mask for t in transversals_brute(h)] == want


_WIDE = make_base(" ".join(f"x{i}" for i in range(21)), [])
_GUARDED = {
    "meets_brute": meets_brute,
    "joins_brute": joins_brute,
    "mingens_brute": lambda base: mingens_brute(base, 0),
    "transversals_brute": lambda base: transversals_brute(
        Hypergraph(ElementSet.full(base.ground), [])
    ),
    "maximal_closed_avoiding": lambda base: maximal_closed_avoiding(
        base, ElementSet.empty(base.ground)
    ),
    "positive_antichain_masks": lambda base: positive_antichain_masks(base, []),
}


@pytest.mark.parametrize("reference", _GUARDED.values(), ids=_GUARDED.keys())
def test_table_references_guarded(reference):
    with pytest.raises(SizeGuardError):
        reference(_WIDE)


# The subset loops and lattice scans these references once were, kept as
# definitions to check the table-based versions against.


def mingens_by_definition(base, target):
    """Subsets of the other elements by size: one whose closure holds
    `target` and that holds no generator found before is a generator."""
    tbit = 1 << target
    others = [p for p in range(base.ground.size) if p != target]
    found = []
    for size in range(1, len(others) + 1):
        for combo in combinations(others, size):
            amask = sum(1 << pos for pos in combo)
            if not any(g & amask == g for g in found) and closure_mask(base, amask) & tbit:
                found.append(amask)
    return sorted(found, key=sort_key_size_lex)


def transversals_by_definition(h):
    """Vertex subsets by size: one meeting every edge and holding no
    transversal found before is minimal."""
    edges = [e.mask for e in h.edges]
    found = []
    for size in range(len(h.vertices) + 1):
        for combo in combinations(h.vertices.indices(), size):
            tmask = sum(1 << pos for pos in combo)
            if not any(t & tmask == t for t in found) and all(tmask & e for e in edges):
                found.append(tmask)
    return sorted(found, key=sort_key_size_lex)


def avoiding_by_definition(base, avoid):
    return maximal_masks(m for m in closed_set_masks(base) if not m & avoid.mask)


def antichain_by_definition(base, minus):
    return maximal_masks(
        f for f in closed_set_masks(base) if not any(a & f == a for a in minus)
    )


def joins_by_definition(base):
    """Closed sets with exactly one maximal proper closed subset, by
    comparing every pair of closed sets."""
    closed = closed_set_masks(base)
    return [
        j for j in closed
        if len(maximal_masks(c for c in closed if c & j == c and c != j)) == 1
    ]


@pytest.mark.parametrize("seed", range(4))
def test_references_match_their_definitions(seed):
    rng = random.Random(seed)
    for i in range(12):
        base = random_ranked_base(rng, 9) if i % 2 else random_acyclic_base(rng, 8)
        n = base.ground.size
        for target in range(n + 2):  # n and n + 1 lie outside the ground set
            got = mingens_brute(base, target)
            assert [g.mask for g in got] == mingens_by_definition(base, target)
        assert mingens_brute(base, n) == ()
        avoid = ElementSet(base.ground, rng.getrandbits(n))
        got = maximal_closed_avoiding(base, avoid)
        assert [m.mask for m in got] == avoiding_by_definition(base, avoid)
        minus = maximal_masks(rng.getrandbits(n) for _ in range(rng.randint(0, 4)))
        assert positive_antichain_masks(base, minus) == antichain_by_definition(base, minus)
        h = random_hypergraph(rng, max_vertices=10)
        assert [t.mask for t in transversals_brute(h)] == transversals_by_definition(h)
        # both generators return standard bases, on which joins_brute does not raise
        assert [j.mask for j in joins_brute(base)] == joins_by_definition(base)


def test_antichain_mask_past_the_ground_set_raises_index_error(data_dir):
    base = formats.read_imp(data_dir / "chain.imp")
    with pytest.raises(IndexError):
        positive_antichain_masks(base, [1 << base.ground.size])


class TestJoinsBrute:
    def test_rung_singleton_closures(self):
        base = formats.read_imp(DATA / "rung.imp")
        closures = {closure_mask(base, 1 << j) for j in range(base.ground.size)}
        got = [m.mask for m in joins_brute(base)]
        assert len(got) == base.ground.size
        assert set(got) == closures


    def test_crossed(self, crossed):
        want = sets_of(crossed, "1", "2", "1 2 3", "1 4", "2 5")
        assert family(joins_brute(crossed)) == family(want)

    def test_empty_base_singletons(self):
        base = make_base("a b c", [])
        assert family(joins_brute(base)) == family(sets_of(base, "a", "b", "c"))

    def test_chain(self, chain):
        assert family(joins_brute(chain)) == family(sets_of(chain, "2", "1 2"))

    def test_nonstandard_reported(self):
        base = make_base("1 2", [("1", "2"), ("2", "1")])
        with pytest.raises(PreconditionError):
            joins_brute(base)

    def test_characterizations_coincide_iff_standard(self):
        from geodual import ElementSet, Implication, ImplicationalBase, GroundSet

        rng = random.Random(44)
        standard_seen = nonstandard_seen = 0
        for _ in range(80):
            n = rng.randint(2, 6)
            ground = GroundSet(str(i) for i in range(n))
            imps = set()
            for _ in range(rng.randint(1, 8)):
                concl = rng.randrange(n)
                pool = [p for p in range(n) if p != concl]
                pmask = 0
                for pos in rng.sample(pool, rng.randint(1, min(3, len(pool)))):
                    pmask |= 1 << pos
                imps.add((pmask, concl))
            base = ImplicationalBase(
                ground,
                [Implication(ElementSet(ground, p), c) for p, c in sorted(imps)],
            )
            if is_standard(base):
                standard_seen += 1
                joins_brute(base)
            else:
                nonstandard_seen += 1
                with pytest.raises(PreconditionError):
                    joins_brute(base)
        assert standard_seen and nonstandard_seen, "both cases exercised"


class TestMingensBrute:
    def test_layered_target_j(self, layered):
        want = sets_of(layered, "4 5", "3 4", "1 2 3", "1 2 5")
        got = mingens_brute(layered, layered.ground.position("j"))
        assert family(got) == family(want)

    def test_crossed_target_3(self, crossed):
        got = mingens_brute(crossed, crossed.ground.position("3"))
        assert family(got) == family(sets_of(crossed, "4 5"))

    def test_chain(self, chain):
        got = mingens_brute(chain, chain.ground.position("2"))
        assert family(got) == family(sets_of(chain, "1"))


class TestTransversalsBrute:
    def test_two_singleton_edges(self):
        base = make_base("1 2 3 4 5", [])
        g = base.ground
        h = Hypergraph(ElementSet.full(g), sets_of(base, "4", "5"))
        assert family(transversals_brute(h)) == family(sets_of(base, "4 5"))

    def test_no_edges(self):
        g = make_base("1 2", []).ground
        got = transversals_brute(Hypergraph(ElementSet.full(g), []))
        assert [t.labels() for t in got] == [()]

    def test_empty_edge(self):
        g = make_base("1 2", []).ground
        h = Hypergraph(ElementSet.full(g), [ElementSet.empty(g)])
        assert transversals_brute(h) == ()

    def test_guard(self):
        g = make_base(" ".join(f"x{i}" for i in range(17)), []).ground
        with pytest.raises(SizeGuardError):
            transversals_brute(Hypergraph(ElementSet.full(g), []))


class TestMeetPartitionInvariant:
    def test_each_meet_avoids_exactly_one_element_maximally(self):
        rng = random.Random(41)
        for _ in range(30):
            base = random_acyclic_base(rng, max_elements=10, max_implications=14)
            avoiders = {
                j: {m.mask for m in maximal_closed_avoiding(base, ElementSet.of(base.ground, [j]))}
                for j in range(base.ground.size)
            }
            for meet in meets_brute(base):
                owners = [j for j, fam in avoiders.items() if meet.mask in fam]
                assert len(owners) == 1


class TestGenerators:
    def test_ranked_generator_yields_ranked_standard(self):
        rng = random.Random(42)
        for _ in range(30):
            base = random_ranked_base(rng, max_elements=9, max_implications=14)
            rho = compute_rank(base)
            assert isinstance(rho, RankFunction)
            assert validate_rank(base, rho)
            assert is_standard(base)

    def test_acyclic_generator_yields_acyclic_standard(self):
        rng = random.Random(43)
        for _ in range(30):
            base = random_acyclic_base(rng, max_elements=8, max_implications=12)
            assert is_acyclic(base)
            assert is_standard(base)

    def test_generators_deterministic_for_seed(self):
        a = random_ranked_base(random.Random(7), max_elements=8)
        b = random_ranked_base(random.Random(7), max_elements=8)
        assert a.ground == b.ground and a.implications == b.implications

    @pytest.mark.parametrize(
        "generate, bounds",
        [
            (generate, bounds)
            for generate in (random_ranked_base, random_acyclic_base, random_distributive_base)
            for bounds in ({"max_elements": 1}, {"max_elements": 0}, {"max_implications": -1})
            if generate is not random_distributive_base or "max_elements" in bounds
        ],
    )
    def test_bounds_rejected_before_any_draw(self, generate, bounds):
        rng = random.Random(7)
        state = rng.getstate()
        with pytest.raises(PreconditionError, match=next(iter(bounds))):
            generate(rng, **bounds)
        assert rng.getstate() == state

    @pytest.mark.parametrize(
        "generate", [random_ranked_base, random_acyclic_base, random_distributive_base]
    )
    @pytest.mark.parametrize("max_elements", [MAX_GROUND_SIZE + 1, 100000])
    def test_bounds_above_ground_capacity_rejected_before_any_draw(self, generate, max_elements):
        # No ground set above the capacity can be built, so such a bound
        # fails or not depending on the draw unless it is refused up front.
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(PreconditionError, match=f"at most {MAX_GROUND_SIZE}, got"):
            generate(rng, max_elements=max_elements)
        assert rng.getstate() == state

    @pytest.mark.parametrize(
        "generate", [random_ranked_base, random_acyclic_base, random_distributive_base]
    )
    def test_largest_bound_accepted(self, generate):
        for seed in range(4):
            base = generate(random.Random(seed), max_elements=MAX_GROUND_SIZE)
            assert 2 <= base.ground.size <= MAX_GROUND_SIZE

    @pytest.mark.parametrize(
        "generate", [random_ranked_base, random_acyclic_base, random_distributive_base]
    )
    def test_smallest_bounds_accepted(self, generate):
        bounds = {} if generate is random_distributive_base else {"max_implications": 0}
        base = generate(random.Random(7), max_elements=2, **bounds)
        assert base.ground.size == 2


class TestIntersectionClosure:
    def test_contains_top_and_all_intersections(self, layered):
        fam = meets_brute(layered)
        closed = intersection_closure(layered.ground, fam)
        assert (1 << layered.ground.size) - 1 in closed
        assert set(closed) == set(closed_set_masks(layered)), (
            "meets regenerate the whole closure system"
        )

    def test_rung_meets_regenerate_closed_sets(self, data_dir):
        # 82 meets whose closure has 24 711 sets: a closure quadratic in its
        # own size takes minutes here, so this also guards the running time.
        ground, sets = formats.read_mf(data_dir / "rung.mf")
        closed = closed_set_masks(formats.read_imp(data_dir / "rung.imp"))
        assert intersection_closure(ground, sets) == closed


@pytest.mark.parametrize("bits", [1, 5, 20, 32, 64])
def test_sorted_masks_match_size_lex_key(bits):
    rng = random.Random(bits)
    full = (1 << bits) - 1
    masks = [0, full, 1, 1 << (bits - 1)] + [rng.getrandbits(bits) for _ in range(2000)]
    masks = list(set(masks))
    rng.shuffle(masks)
    expected = sorted(masks, key=sort_key_size_lex)
    assert _sorted_masks(np.array(masks, dtype=np.uint64)) == expected
    if bits <= 32:
        assert _sorted_masks(np.array(masks, dtype=np.uint32)) == expected
    assert _sorted_masks(np.array([], dtype=np.intp)) == []
