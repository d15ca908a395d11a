"""Meet enumeration: the level hypergraph, the recursion, the full stream."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, family, layered_base, make_base, sets_of
from geodual import (
    BergeBackend,
    ElementSet,
    NotRankedError,
    PreconditionError,
    RankedSet,
    compute_rank,
    formats,
    level_hypergraph,
    maximal_avoiding_sets,
    meet_irreducibles,
    seed_region,
)
from geodual.ccm import MeetsAvoiding, _premises
from geodual.hypergraphs import independent_masks, maximal_independent_sets
from geodual.oracle import (
    maximal_closed_avoiding,
    meets_brute,
    random_ranked_base,
)
from geodual.ranking import RankFunction


def ranked_singleton(base, rho, label):
    pos = base.ground.position(label)
    return RankedSet(ElementSet.of(base.ground, [pos]), rho.ranks[pos])


class TestLevelHypergraph:
    def test_layered_at_j(self, layered):
        rho = compute_rank(layered)
        hb = level_hypergraph(layered, rho, ranked_singleton(layered, rho, "j"))
        assert hb.vertices.labels() == ("4", "5")
        assert family(hb.edges) == family(sets_of(layered, "4 5"))

    def test_layered_at_four(self, layered):
        rho = compute_rank(layered)
        hb = level_hypergraph(layered, rho, ranked_singleton(layered, rho, "4"))
        assert hb.vertices.labels() == ("1", "2", "3")
        assert family(hb.edges) == family(sets_of(layered, "1 2"))

    def test_layered_at_four_five(self, layered):
        rho = compute_rank(layered)
        (b,) = sets_of(layered, "4 5")
        hb = level_hypergraph(layered, rho, RankedSet(b, 1))
        assert hb.vertices.labels() == ("1", "2", "3")
        assert family(hb.edges) == family(sets_of(layered, "1 2", "3"))

    def test_wrong_rank_rejected(self, layered):
        rho = compute_rank(layered)
        (b,) = sets_of(layered, "4")
        with pytest.raises(PreconditionError):
            level_hypergraph(layered, rho, RankedSet(b, 2))

    def test_invalid_rank_function_rejected(self, layered):
        bad = RankFunction((0,) * layered.ground.size)
        (b,) = sets_of(layered, "4")
        with pytest.raises(PreconditionError):
            level_hypergraph(layered, bad, RankedSet(b, 0))

    def test_negative_rank_rejected(self, layered):
        # Every rank one lower: the differences still check, but the
        # elements of rank 0 now sit at rank -1.
        rho = compute_rank(layered)
        shifted = RankFunction(tuple(r - 1 for r in rho.ranks))
        b = ranked_singleton(layered, shifted, "4")
        with pytest.raises(PreconditionError):
            level_hypergraph(layered, shifted, b)
        with pytest.raises(PreconditionError):
            seed_region(layered, shifted, b)
        with pytest.raises(PreconditionError):
            list(maximal_avoiding_sets(layered, shifted, b, ElementSet.empty(layered.ground)))
        with pytest.raises(PreconditionError):
            MeetsAvoiding(layered, shifted)


class TestRecursion:
    def test_layered_branch_partition(self, layered):
        """The two branches split the outputs as {{1,2,4}} and {{1,3,5},{2,3,5}}."""
        rho = compute_rank(layered)
        b = ranked_singleton(layered, rho, "j")
        seed = seed_region(layered, rho, b)
        hb = level_hypergraph(layered, rho, b)
        mis = list(maximal_independent_sets(hb))
        assert family(mis) == family(sets_of(layered, "4", "5"))
        by_branch = []
        next_level = rho.level_mask(b.rank + 1)
        for s in mis:
            shat = RankedSet(
                ElementSet(layered.ground, next_level & ~s.mask), b.rank + 1
            )
            outs = list(maximal_avoiding_sets(layered, rho, shat, seed | s))
            by_branch.append(outs)
        assert family(by_branch[0]) == family(sets_of(layered, "1 2 4"))
        assert family(by_branch[1]) == family(sets_of(layered, "1 3 5", "2 3 5"))

    def test_layered_full_family(self, layered):
        rho = compute_rank(layered)
        b = ranked_singleton(layered, rho, "j")
        outs = list(maximal_avoiding_sets(layered, rho, b, seed_region(layered, rho, b)))
        assert family(outs) == family(sets_of(layered, "1 2 4", "1 3 5", "2 3 5"))

    def test_chain_trace(self, chain):
        rho = compute_rank(chain)
        b = ranked_singleton(chain, rho, "2")
        hb = level_hypergraph(chain, rho, b)
        assert hb.vertices.labels() == ("1",)
        assert [s.labels() for s in maximal_independent_sets(hb)] == [()]
        outs = list(maximal_avoiding_sets(chain, rho, b, seed_region(chain, rho, b)))
        assert [o.labels() for o in outs] == [()]

    def test_maximum_rank_single_output(self, layered):
        rho = compute_rank(layered)
        (b,) = sets_of(layered, "1 3")
        outs = list(
            maximal_avoiding_sets(
                layered, rho, RankedSet(b, 2), seed_region(layered, rho, RankedSet(b, 2))
            )
        )
        assert [o.labels() for o in outs] == [("2", "4", "5", "j")]

    def test_seed_overlap_rejected(self, layered):
        rho = compute_rank(layered)
        b = ranked_singleton(layered, rho, "j")
        with pytest.raises(PreconditionError):
            list(maximal_avoiding_sets(layered, rho, b, b.members))

    def test_empty_rank_levels_are_tolerated(self):
        """A valid but gappy rank function must advance through empty levels."""
        base = make_base("1 2 3", [("1", "2")])
        custom = RankFunction((1, 0, 3))  # element 3 is isolated at rank 3
        b = RankedSet(ElementSet.of(base.ground, [base.ground.position("2")]), 0)
        outs = list(
            maximal_avoiding_sets(base, custom, b, seed_region(base, custom, b))
        )
        assert [o.labels() for o in outs] == [("3",)]


class TestMeetIrreducibles:
    def test_chain(self, chain):
        got = [(chain.ground.labels[j], m.labels()) for j, m in meet_irreducibles(chain)]
        assert got == [("1", ("2",)), ("2", ())]

    def test_layered_j_block(self, layered):
        jpos = layered.ground.position("j")
        block = [m for j, m in meet_irreducibles(layered) if j == jpos]
        assert family(block) == family(sets_of(layered, "1 2 4", "1 3 5", "2 3 5"))

    def test_boolean_lattice_coatoms(self):
        base = make_base("1 2", [])
        got = [(base.ground.labels[j], m.labels()) for j, m in meet_irreducibles(base)]
        assert got == [("1", ("2",)), ("2", ("1",))]

    def test_unranked_rejected_with_conflict(self, crossed):
        with pytest.raises(NotRankedError) as info:
            list(meet_irreducibles(crossed))
        assert info.value.conflict is not None

    def test_stream_is_duplicate_free_and_complete(self):
        rng = random.Random(91)
        for _ in range(40):
            base = random_ranked_base(rng, max_elements=9, max_implications=16)
            stream = list(meet_irreducibles(base))
            masks = [m.mask for _, m in stream]
            assert len(masks) == len(set(masks)), "partition: no repetitions"
            assert sorted(masks) == sorted(m.mask for m in meets_brute(base))

    def test_every_output_is_maximal_avoiding_witness(self):
        rng = random.Random(92)
        from geodual.implications import closure_mask

        for _ in range(25):
            base = random_ranked_base(rng, max_elements=8, max_implications=12)
            n = base.ground.size
            for j, m in meet_irreducibles(base):
                assert not m.mask >> j & 1
                assert closure_mask(base, m.mask) == m.mask, "closed"
                for x in range(n):
                    if x != j and not m.mask >> x & 1:
                        grown = closure_mask(base, m.mask | 1 << x)
                        assert grown >> j & 1, "adding anything else implies j"


class TestPartitionProperties:
    def test_branch_partition_and_lift_identity(self):
        rng = random.Random(93)
        for _ in range(15):
            base = random_ranked_base(rng, max_elements=8, max_implications=14)
            rho = compute_rank(base)
            n = base.ground.size
            for rank in range(rho.max_rank):
                level = [p for p in range(n) if rho.ranks[p] == rank]
                for size in range(len(level) + 1):
                    for combo in combinations(level, size):
                        b = RankedSet(ElementSet.of(base.ground, combo), rank)
                        brute = [m.mask for m in maximal_closed_avoiding(base, b.members)]
                        hb = level_hypergraph(base, rho, b)
                        nlev = rho.level_mask(rank + 1)
                        seen: set[int] = set()
                        for s in maximal_independent_sets(hb):
                            block = {m for m in brute if m & nlev == s.mask}
                            assert not block & seen, "blocks disjoint"
                            seen |= block
                            shat = RankedSet(
                                ElementSet(base.ground, nlev & ~s.mask), rank + 1
                            )
                            lifted = {
                                m.mask & ~b.members.mask
                                for m in maximal_closed_avoiding(base, shat.members)
                            }
                            assert block == lifted, "branch characterization"
                        assert seen == set(brute), "blocks cover"

    def test_singleton_outputs_are_meets(self):
        rng = random.Random(94)
        for _ in range(20):
            base = random_ranked_base(rng, max_elements=8, max_implications=12)
            rho = compute_rank(base)
            meets = {m.mask for m in meets_brute(base)}
            for j in range(base.ground.size):
                b = RankedSet(ElementSet.of(base.ground, [j]), rho.ranks[j])
                for m in maximal_avoiding_sets(base, rho, b, seed_region(base, rho, b)):
                    assert m.mask in meets


# -- one dualization per avoided set and rank -----------------------------------


def recursion_by_definition(base, rho, b, c, visited):
    """The ccm recursion with no memo: it dualizes the level hypergraph of
    every node it reaches, and adds the node's (B, rank) to `visited`."""
    if b.rank >= rho.max_rank:
        yield c.mask
        return
    visited.add((b.members.mask, b.rank))
    h = level_hypergraph(base, rho, b)
    for s in maximal_independent_sets(h):
        yield from recursion_by_definition(
            base, rho, RankedSet(h.vertices - s, b.rank + 1), c | s, visited
        )


def meets_by_definition(base, visited):
    """``(j, mask)`` pairs in the order `meet_irreducibles` yields them."""
    rho = compute_rank(base)
    for j in range(base.ground.size):
        b = RankedSet(ElementSet.of(base.ground, [j]), rho.ranks[j])
        for mask in recursion_by_definition(base, rho, b, seed_region(base, rho, b), visited):
            yield j, mask


class CountingBackend:
    def __init__(self):
        self.calls = 0

    def transversal_masks(self, edges):
        self.calls += 1
        return BergeBackend().transversal_masks(edges)


@pytest.mark.parametrize("name", ["rung.imp", "layered.imp"])
def test_one_dualization_per_avoided_set_and_rank(name):
    base = formats.read_imp(DATA / name)
    visited = set()
    expected = list(meets_by_definition(base, visited))
    backend = CountingBackend()
    assert [(j, m.mask) for j, m in meet_irreducibles(base, backend)] == expected
    assert backend.calls == len(visited)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_memoized_recursion_matches_definition(seed):
    rng = random.Random(seed)
    base = random_ranked_base(rng, max_elements=9, max_implications=14)
    got = [(j, m.mask) for j, m in meet_irreducibles(base)]
    assert got == list(meets_by_definition(base, set()))
    brute = {m.mask for m in meets_brute(base)}
    assert len(got) == len(brute) and {mask for _, mask in got} == brute
    # From any ranked set B, including the empty one, at any rank.
    rho = compute_rank(base)
    rank = rng.randrange(rho.max_rank + 1)
    level = [p for p, r in enumerate(rho.ranks) if r == rank]
    members = rng.sample(level, rng.randint(0, len(level)))
    b = RankedSet(ElementSet.of(base.ground, members), rank)
    c = seed_region(base, rho, b)
    assert [m.mask for m in maximal_avoiding_sets(base, rho, b, c)] == list(
        recursion_by_definition(base, rho, b, c, set())
    )


# -- the explicit-stack walk against the recursive one --------------------------


def recursive_walk(streams, bmask, rank, cmask):
    """The walk of `MeetsAvoiding` written as nested generators, one per
    node, with the instance's memo: the reference for its explicit stack.
    It yields ``(cmask, branches)`` for each node whose children are
    leaves, `branches` being the memo's list of the node's branches in
    order (empty for a node with no branches), and ``(cmask, [0])`` for a
    node at the top rank, which has no children."""
    prefixes = streams._prefixes
    if rank + 1 >= len(prefixes):
        yield cmask, [0]
        return
    up = prefixes[rank + 1] & ~prefixes[rank]
    branches = streams._branches.get((bmask, rank))
    if branches is None:
        premises = _premises(streams._by_conclusion, bmask)
        branches = independent_masks(up, premises, streams.backend)
        streams._branches[bmask, rank] = branches
    if rank + 2 >= len(prefixes):
        yield cmask, branches
        return
    for s in branches:
        yield from recursive_walk(streams, up & ~s, rank + 1, cmask | s)


def flat(blocks):
    return [cmask | s for cmask, branches in blocks for s in branches]


def assert_walks_agree(base, backend=None):
    rho = compute_rank(base)
    streams = MeetsAvoiding(base, rho, backend)
    reference = MeetsAvoiding(base, rho, backend)
    prefixes = reference._prefixes
    for j in range(base.ground.size):
        rank, bit = rho.ranks[j], 1 << j
        nodes = list(recursive_walk(reference, bit, rank, prefixes[rank] & ~bit))
        blocks = list(streams(j))
        assert flat(blocks) == flat(nodes), j
        # Each block is nonempty and holds the leaves of one node.
        assert all(branches for _, branches in blocks), j
        assert blocks == [node for node in nodes if node[1]], j
        # Below the top rank, a block's branches are the memo's own list.
        memo = [id(branches) for branches in streams._branches.values()]
        if rank < rho.max_rank:
            assert all(id(branches) in memo for _, branches in blocks), j
    assert streams._branches == reference._branches


@pytest.mark.parametrize("name", ["rung.imp", "layered.imp", "chain.imp"])
def test_stack_walk_matches_recursion_on_data(name):
    assert_walks_agree(formats.read_imp(DATA / name))


@pytest.mark.parametrize("shape", [(6, 8, 3, 2), (2, 24, 12, 4)], ids=["L6w8", "L2w24"])
def test_stack_walk_matches_recursion_on_layered_bases(shape):
    assert_walks_agree(layered_base(*shape, seed=0))


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_stack_walk_matches_recursion_on_random_bases(seed):
    rng = random.Random(seed)
    base = random_ranked_base(rng, max_elements=12, max_implications=24)
    assert_walks_agree(base)
    # From a ranked B with an arbitrary region avoiding it, not the seed.
    rho = compute_rank(base)
    rank = rng.randrange(rho.max_rank + 1)
    level = [p for p, r in enumerate(rho.ranks) if r == rank]
    members = ElementSet.of(base.ground, rng.sample(level, rng.randint(0, len(level))))
    region = rng.getrandbits(base.ground.size) & ~members.mask
    got = maximal_avoiding_sets(
        base, rho, RankedSet(members, rank), ElementSet(base.ground, region)
    )
    expected = recursive_walk(MeetsAvoiding(base, rho), members.mask, rank, region)
    assert [m.mask for m in got] == flat(expected)


class NoTransversals:
    def transversal_masks(self, edges):
        return []


@pytest.mark.parametrize("name", ["rung.imp", "layered.imp"])
def test_node_without_branches_yields_no_block(name):
    # With no branch anywhere, only an element of the top rank has meets.
    base = formats.read_imp(DATA / name)
    assert_walks_agree(base, NoTransversals())
    rho = compute_rank(base)
    streams = MeetsAvoiding(base, rho, NoTransversals())
    top = [j for j, r in enumerate(rho.ranks) if r == rho.max_rank]
    assert [j for j in range(base.ground.size) if list(streams(j))] == top
