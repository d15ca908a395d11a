"""Base recovery from meet families."""

import random
from functools import reduce
from operator import and_, or_
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, family, layered_base, make_base, sets_of
from geodual import (
    DuplicateSetWarning,
    ElementSet,
    GeodualError,
    GroundSet,
    ImplicationalBase,
    InputError,
    MeetFamily,
    NotConvexGeometryError,
    NotRankedError,
    VerificationError,
    closure,
    closure_from_meets,
    complement_hypergraph,
    critical_base,
    formats,
    is_ranked_geometry,
    meet_irreducibles,
    partition_meets,
    predecessors,
    recover_critical_base,
)
import geodual.sid as sid
from geodual.ccm import ranked
from geodual.cli import main
from geodual.hypergraphs import induced, minimal_transversals
from geodual.oracle import (
    closed_set_masks,
    family_meet_masks,
    intersection_closure,
    meets_brute,
    mingens_brute,
    random_acyclic_base,
    random_ranked_base,
)
from geodual.sets import MAX_GROUND_SIZE, iter_bits
from geodual.sid import (
    _checked_guess,
    _index,
    _reproduces,
    closure_from_meets_mask,
    iter_recovered_base,
    iter_recovered_implications,
    recovered_premises,
)


@pytest.fixture
def layered_meets(layered):
    return MeetFamily(layered.ground, meets_brute(layered))


@pytest.fixture
def chain_family():
    base = make_base("1 2", [("1", "2")])
    ground = base.ground
    return MeetFamily(
        ground, [ElementSet.empty(ground), ElementSet.from_labels(ground, ["2"])]
    )


class TestMeetFamily:
    def test_full_set_rejected(self):
        base = make_base("1 2", [])
        with pytest.raises(InputError):
            MeetFamily(base.ground, [ElementSet.full(base.ground)])

    def test_duplicates_warn(self, layered):
        m = ElementSet.from_labels(layered.ground, ["1", "2", "4"])
        with pytest.warns(DuplicateSetWarning):
            fam = MeetFamily(layered.ground, [m, m])
        assert len(fam) == 1

    def test_foreign_universe_rejected(self, crossed, layered):
        with pytest.raises(InputError):
            MeetFamily(crossed.ground, [ElementSet.empty(layered.ground)])


class TestClosureFromMeets:
    def test_uncovered_set_closes_to_top(self):
        base = make_base("1 2", [])
        fam = MeetFamily(
            base.ground,
            [ElementSet.empty(base.ground), ElementSet.from_labels(base.ground, ["2"])],
        )
        (s1,) = sets_of(base, "1")
        assert closure_from_meets(fam, s1).labels() == ("1", "2")

    def test_member_is_closed(self, chain_family):
        empty = ElementSet.empty(chain_family.ground)
        assert closure_from_meets(chain_family, empty) == empty

    def test_agrees_with_base_closure(self, layered, layered_meets):
        (s,) = sets_of(layered, "3 4")
        assert closure_from_meets(layered_meets, s) == closure(layered, s)

    def test_exhaustive_agreement_small(self):
        rng = random.Random(51)
        for _ in range(20):
            base = random_ranked_base(rng, max_elements=10, max_implications=14)
            fam = MeetFamily(base.ground, meets_brute(base))
            n = base.ground.size
            for mask in range(1 << n):
                s = ElementSet(base.ground, mask)
                assert closure_from_meets(fam, s) == closure(base, s)

    def test_universe_mismatch(self, layered_meets, crossed):
        with pytest.raises(InputError):
            closure_from_meets(layered_meets, ElementSet.empty(crossed.ground))

    def test_index_matches_scan_on_rung_subsets(self):
        # Every subset of the first 12 of rung.mf's 18 elements.
        fam = MeetFamily(*formats.read_mf(DATA / "rung.mf"))
        for mask in range(1 << 12):
            assert closure_from_meets_mask(fam, mask) == closure_by_scan(fam, mask)

    def test_index_matches_scan_at_ladder_size(self):
        # Random masks of every density on an L4 w8 family, its members, and
        # the empty and full sets.
        fam = layered_meet_family(4, 8, 3, 2, seed=9)
        n = fam.ground.size
        rng = random.Random(61)
        masks = [0, (1 << n) - 1] + [member.mask for member in fam.meets[::50]]
        for _ in range(400):
            density = rng.random()
            masks.append(sum(1 << a for a in range(n) if rng.random() < density))
        for mask in masks:
            assert closure_from_meets_mask(fam, mask) == closure_by_scan(fam, mask)


class TestPartitionMeets:
    def test_layered(self, layered, layered_meets):
        part = partition_meets(layered_meets)
        jpos = layered.ground.position("j")
        assert family(part[jpos]) == family(sets_of(layered, "1 2 4", "1 3 5", "2 3 5"))

    def test_crossed_meet_assigned_to_two(self, crossed):
        fam = MeetFamily(crossed.ground, meets_brute(crossed))
        part = partition_meets(fam)
        (m14,) = sets_of(crossed, "1 4")
        assert m14 in part[crossed.ground.position("2")]

    def test_chain_lattice(self, chain_family):
        part = partition_meets(chain_family)
        ground = chain_family.ground
        assert [m.labels() for m in part[ground.position("2")]] == [()]
        assert [m.labels() for m in part[ground.position("1")]] == [("2",)]

    def test_non_geometry_rejected(self):
        # {1} extends to closure by adding either 2 or 3: two candidates
        base = make_base("1 2 3", [])
        fam = MeetFamily(
            base.ground,
            sets_of(base, "1") + [ElementSet.empty(base.ground)],
        )
        with pytest.raises(NotConvexGeometryError):
            partition_meets(fam)

    def test_reducible_member_rejected_as_an_intersection(self):
        # {a} is the intersection of {a b c} and {a d}, the members above
        # it, although {a d} is its one closed single-element extension.
        base = make_base("a b c d", [])
        fam = MeetFamily(base.ground, sets_of(base, "a b c", "a", "a d", "c d"))
        with pytest.raises(NotConvexGeometryError) as raised:
            partition_meets(fam)
        assert str(raised.value) == (
            "not a convex-geometry meet family: member {a} is the intersection "
            "of the members above it"
        )


@pytest.fixture
def foreign_block():
    """A block whose member lives on a wider ground set than `layered`'s."""
    ground = GroundSet("1 2 3 4 5 j k l".split())
    return (ElementSet.from_labels(ground, ["k", "l"]),)


class TestPredecessors:
    def test_layered_predecessors(self, layered, layered_meets):
        jpos = layered.ground.position("j")
        part = partition_meets(layered_meets)
        pred = predecessors(layered_meets, jpos, part[jpos])
        assert pred.labels() == ("4", "5")

    def test_positive_witness(self, layered, layered_meets):
        # {1 2 4} plus {5 j} stays closed, so 5 qualifies
        (m,) = sets_of(layered, "1 2 4")
        withit = ElementSet.from_labels(layered.ground, ["1", "2", "4", "5", "j"])
        assert closure_from_meets(layered_meets, withit) == withit

    def test_negative_witness(self, layered, layered_meets):
        # {2 3 5} plus {1 j} does not stay closed, so 1 contributes nothing here
        grown = ElementSet.from_labels(layered.ground, ["1", "2", "3", "5", "j"])
        assert closure_from_meets(layered_meets, grown) != grown

    def test_position_outside_ground_rejected(self, layered, layered_meets):
        j_up = partition_meets(layered_meets)[layered.ground.position("j")]
        for j in (layered.ground.size, -1):
            with pytest.raises(InputError, match="outside the ground set"):
                predecessors(layered_meets, j, j_up)

    def test_empty_family_flagged(self, layered, layered_meets):
        pred = predecessors(layered_meets, layered.ground.position("j"), ())
        assert len(pred) == 0

    def test_foreign_member_rejected(self, layered, layered_meets, foreign_block):
        jpos = layered.ground.position("j")
        with pytest.raises(InputError, match="different ground set"):
            predecessors(layered_meets, jpos, foreign_block)
        with pytest.raises(InputError, match="different ground set"):
            list(recovered_premises(layered_meets, jpos, foreign_block))


class TestComplementHypergraph:
    def test_layered_j_edges(self, layered, layered_meets):
        jpos = layered.ground.position("j")
        part = partition_meets(layered_meets)
        hj = complement_hypergraph(layered_meets, jpos, part[jpos])
        assert family(hj.edges) == family(sets_of(layered, "3 5", "2 4", "1 4"))
        assert hj.vertices.labels() == ("1", "2", "3", "4", "5")

    def test_position_outside_ground_rejected(self, layered, layered_meets):
        j_up = partition_meets(layered_meets)[layered.ground.position("j")]
        for j in (layered.ground.size, -1):
            with pytest.raises(InputError, match="outside the ground set"):
                complement_hypergraph(layered_meets, j, j_up)

    def test_chain(self, chain_family):
        ground = chain_family.ground
        part = partition_meets(chain_family)
        pos2 = ground.position("2")
        hj = complement_hypergraph(chain_family, pos2, part[pos2])
        assert family(hj.edges) == {(ground.position("1"),)}

    def test_induced_on_predecessors(self, layered, layered_meets):
        jpos = layered.ground.position("j")
        part = partition_meets(layered_meets)
        pred = predecessors(layered_meets, jpos, part[jpos])
        sub = induced(complement_hypergraph(layered_meets, jpos, part[jpos]), pred)
        assert family(sub.reduced_edges()) == family(sets_of(layered, "4", "5"))
        assert [t.labels() for t in minimal_transversals(sub)] == [("4", "5")]

    def test_empty_block_gives_the_edgeless_hypergraph(self):
        # No member of `elements: a b` / `b` avoids b, so b's one premise
        # is the empty set, the transversal of the edgeless hypergraph.
        base = make_base("a b", [])
        fam = MeetFamily(base.ground, sets_of(base, "b"))
        b = base.ground.position("b")
        hb = complement_hypergraph(fam, b, ())
        assert hb.edges == () and hb.vertices.mask == 0
        assert [t.mask for t in minimal_transversals(hb)] == [0]
        assert list(recovered_premises(fam, b, ())) == [0]

    def test_foreign_member_rejected(self, layered, layered_meets, foreign_block):
        with pytest.raises(InputError, match="different ground set"):
            complement_hypergraph(layered_meets, layered.ground.position("j"), foreign_block)


class TestRecovery:
    def test_layered_emits_the_j_rule(self, layered, layered_meets):
        imps = list(iter_recovered_implications(layered_meets))
        jpos = layered.ground.position("j")
        j_rules = [imp for imp in imps if imp.conclusion == jpos]
        assert len(j_rules) == 1
        assert j_rules[0].premise.labels() == ("4", "5")

    def test_layered_full_roundtrip(self, layered, layered_meets):
        rec = recover_critical_base(layered_meets, verify=True)
        assert set(rec.implications) == set(layered.implications)

    def test_single_point_boolean_lattice(self):
        base = make_base("1", [])
        fam = MeetFamily(base.ground, [ElementSet.empty(base.ground)])
        assert recover_critical_base(fam).implications == ()

    def test_verification_rejects_tampered_family(self, layered, layered_meets):
        smaller = MeetFamily(layered.ground, layered_meets.meets[:-1])
        with pytest.raises((VerificationError, NotConvexGeometryError)):
            recover_critical_base(smaller, verify=True)

    def test_strict_rejects_reducible_member(self, layered, layered_meets):
        # {3 5} is the intersection of {1 3 5} and {2 3 5}: not meet-irreducible
        extra = ElementSet.from_labels(layered.ground, ["3", "5"])
        fam = MeetFamily(layered.ground, layered_meets.meets + (extra,))
        with pytest.raises(NotConvexGeometryError, match=r"member \{3 5\} is the intersection"):
            recover_critical_base(fam)

    def test_uneven_oracle_experiment(self, uneven):
        """Unranked input for which the recovery still works end to end."""
        fam = MeetFamily(uneven.ground, meets_brute(uneven))
        rec = recover_critical_base(fam)
        assert set(rec.implications) == set(uneven.implications)
        with pytest.raises(VerificationError):
            recover_critical_base(fam, verify=True)  # not ranked, ccm refuses


class TestRoundTrips:
    def test_recovered_equals_critical_base(self):
        rng = random.Random(61)
        for _ in range(40):
            base = random_ranked_base(rng, max_elements=9, max_implications=16)
            fam = MeetFamily(base.ground, meets_brute(base))
            rec = recover_critical_base(fam)
            assert set(rec.implications) == set(critical_base(base).implications)

    def test_meets_of_recovered_equal_input(self):
        rng = random.Random(62)
        for _ in range(30):
            base = random_ranked_base(rng, max_elements=9, max_implications=14)
            fam = MeetFamily(base.ground, [m for _, m in meet_irreducibles(base)])
            rec = recover_critical_base(fam, verify=True)
            again = {m.mask for _, m in meet_irreducibles(rec)}
            assert again == {m.mask for m in fam.meets}

    def test_transversals_match_critical_generators(self):
        rng = random.Random(63)
        from geodual import MinimalGenerator, is_redundant

        for _ in range(25):
            base = random_ranked_base(rng, max_elements=8, max_implications=12)
            fam = MeetFamily(base.ground, meets_brute(base))
            part = partition_meets(fam)
            for j in range(base.ground.size):
                if not part[j]:
                    continue
                pred = predecessors(fam, j, part[j])
                sub = induced(complement_hypergraph(fam, j, part[j]), pred)
                got = {t.mask for t in minimal_transversals(sub)}
                want = {
                    g.mask
                    for g in mingens_brute(base, j)
                    if not is_redundant(base, MinimalGenerator(g, j))
                }
                assert got == want

    def test_predecessors_cover_critical_generators(self):
        rng = random.Random(64)
        from geodual import MinimalGenerator, is_redundant

        for _ in range(25):
            base = random_ranked_base(rng, max_elements=8, max_implications=12)
            fam = MeetFamily(base.ground, meets_brute(base))
            part = partition_meets(fam)
            for j in range(base.ground.size):
                if not part[j]:
                    continue
                pred = predecessors(fam, j, part[j])
                union = 0
                for g in mingens_brute(base, j):
                    if not is_redundant(base, MinimalGenerator(g, j)):
                        union |= g.mask
                assert pred.mask == union


# -- differential tests: the member-index kernel against the family scan it
# replaced, and both against the definitions


class Raised(NamedTuple):
    type: type
    message: str


def outcome(fn, *args, **kwargs):
    """What `fn` returns, or the type and message of the library error it raises."""
    try:
        return fn(*args, **kwargs)
    except GeodualError as exc:
        return Raised(type(exc), str(exc))


def without_message(result):
    """An outcome without the error message, which the definitions do not share."""
    return result.type if isinstance(result, Raised) else result


def closure_by_scan(fam, smask):
    """Intersection of the top with every member containing `smask`, by one
    pass over the family; `closure_from_meets_mask` before the member index."""
    result = (1 << fam.ground.size) - 1
    for member in fam.meets:
        if not smask & ~member.mask:
            result &= member.mask
    return result


def extension_closures(fam, xmask):
    """Closure of `xmask` plus a, for every position a, in one family pass.

    Entry a is the intersection of the members containing both `xmask`
    and a, or the whole ground set when none does; positions inside
    `xmask` get the whole ground set.  This scan drove the partition and
    predecessors before the member index.
    """
    n = fam.ground.size
    closures = [(1 << n) - 1] * n
    for member in fam.meets:
        mm = member.mask
        if not xmask & ~mm:
            for a in iter_bits(mm & ~xmask):
                closures[a] &= mm
    return closures


def closed_extensions_by_scan(fam, xmask):
    """Mask of the positions outside `xmask` whose addition keeps it closed."""
    closures = extension_closures(fam, xmask)
    outside = iter_bits(~xmask & ((1 << fam.ground.size) - 1))
    return sum(1 << a for a in outside if closures[a] == xmask | 1 << a)


def partition_by_scan(fam):
    part = {j: [] for j in range(fam.ground.size)}
    for member in fam:
        # What the members strictly above it add: the intersection of its
        # extensions' closures, minus the member.  Nothing when reducible.
        added = reduce(and_, extension_closures(fam, member.mask)) & ~member.mask
        if not added:
            raise NotConvexGeometryError(
                f"not a convex-geometry meet family: member {member!r} is the "
                "intersection of the members above it"
            )
        candidates = list(iter_bits(closed_extensions_by_scan(fam, member.mask)))
        if len(candidates) != 1:
            raise NotConvexGeometryError(
                f"not a convex-geometry meet family: member {member!r} has no "
                "closed one-element extension: the members above it add "
                f"{ElementSet(fam.ground, added)!r}"
            )
        part[candidates[0]].append(member)
    return {j: tuple(block) for j, block in part.items()}


def predecessors_by_scan(fam, j, j_up):
    found = 0
    for member in j_up:
        found |= closed_extensions_by_scan(fam, member.mask | 1 << j)
    return ElementSet(fam.ground, found)


def closed_extensions(fam, s):
    """Positions outside `s` whose addition leaves it closed, by definition."""
    return [
        a
        for a in range(fam.ground.size)
        if a not in s and closure_by_scan(fam, s.mask | 1 << a) == s.mask | 1 << a
    ]


def partition_by_definition(fam):
    part = {j: [] for j in range(fam.ground.size)}
    for member in fam:
        candidates = closed_extensions(fam, member)
        if len(candidates) != 1:
            raise NotConvexGeometryError("not exactly one closed extension")
        part[candidates[0]].append(member)
    return {j: tuple(block) for j, block in part.items()}


def predecessors_by_definition(fam, j, j_up):
    found = 0
    for member in j_up:
        for a in closed_extensions(fam, ElementSet(fam.ground, member.mask | 1 << j)):
            found |= 1 << a
    return ElementSet(fam.ground, found)


def blocks(fam, part):
    """The members avoiding each element: the partition's blocks when there
    is one, else every member avoiding it."""
    if isinstance(part, dict):
        return [part[j] for j in range(fam.ground.size)]
    return [tuple(m for m in fam if j not in m) for j in range(fam.ground.size)]


def premises_by_hypergraph(fam, j, j_up):
    """The premise masks for `j` through the paper's objects: the complement
    hypergraph induced on the predecessors, then its transversal stream."""
    restricted = induced(complement_hypergraph(fam, j, j_up), predecessors(fam, j, j_up))
    return [t.mask for t in minimal_transversals(restricted)]


def assert_kernel_matches_scan(fam):
    """Partition and predecessors give what the family scan gives,
    error messages included, and the premise step on masks gives the paper's
    premises in order; returns the partition's outcome."""
    part = outcome(partition_meets, fam)
    assert part == outcome(partition_by_scan, fam)
    for j, j_up in enumerate(blocks(fam, part)):
        assert predecessors(fam, j, j_up) == predecessors_by_scan(fam, j, j_up)
        if isinstance(part, dict):
            assert list(recovered_premises(fam, j, j_up)) == premises_by_hypergraph(
                fam, j, j_up
            )
    return part


def assert_kernel_matches_definitions(fam, closed=None):
    """`closed` is the intersection closure L of `fam` with the top."""
    full = (1 << fam.ground.size) - 1
    if closed is None:
        closed = intersection_closure(fam.ground, fam.meets)
    irreducible = set(family_meet_masks(closed, full))
    part = assert_kernel_matches_scan(fam)
    by_definition = outcome(partition_by_definition, fam)
    assert without_message(part) == without_message(by_definition)
    if isinstance(part, dict):
        # The lemma of `partition_meets`: a family it accepts holds only
        # meet-irreducible members.
        assert all(member.mask in irreducible for member in fam)
    for j, j_up in enumerate(blocks(fam, part)):
        assert predecessors(fam, j, j_up) == predecessors_by_definition(fam, j, j_up)
    # Recovery accepts exactly the meet families of convex geometries: L
    # holds the empty set, every X in L below the top has some X + a in L,
    # and the meet-irreducibles of L are the members.
    in_closure = set(closed)
    is_geometry = (
        0 in in_closure
        and all(
            any(x | 1 << a in in_closure for a in iter_bits(full & ~x))
            for x in in_closure - {full}
        )
        and irreducible == {member.mask for member in fam}
    )
    recovered = outcome(recover_critical_base, fam)
    assert isinstance(recovered, Raised) != is_geometry
    if isinstance(recovered, Raised):
        assert recovered.type is NotConvexGeometryError


@st.composite
def meet_families(draw):
    """Meet families of ranked and acyclic bases, the same with the
    intersection of two members added, and arbitrary small families."""
    kind = draw(st.sampled_from(["ranked", "acyclic", "arbitrary"]))
    if kind == "arbitrary":
        ground = GroundSet(str(i) for i in range(1, draw(st.integers(1, 6)) + 1))
        full = (1 << ground.size) - 1
        masks = draw(st.lists(st.integers(0, full - 1), max_size=10, unique=True))
        return MeetFamily(ground, [ElementSet(ground, mask) for mask in masks])
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    generate = random_ranked_base if kind == "ranked" else random_acyclic_base
    base = generate(rng, max_elements=7, max_implications=10)
    meets = list(meets_brute(base))
    if len(meets) >= 2 and draw(st.booleans()):
        i, k = draw(st.lists(st.integers(0, len(meets) - 1), min_size=2, max_size=2))
        meet = meets[i] & meets[k]
        if meet not in meets:
            meets.append(meet)
    return MeetFamily(base.ground, meets)


@st.composite
def wide_families(draw):
    """Families over 65 to 90 elements, most members more than half full,
    the near-full queries on which `_containing` first ORs complement rows.

    Either the meet family of the product of a small ranked base's
    geometry with the Boolean lattice on the other elements (each meet
    with every other element added, and each coatom missing one other
    element), or members missing a few elements each; then possibly a
    sparse member, or the intersection of two members, which is reducible.
    """
    n = draw(st.integers(65, 90))
    ground = GroundSet(str(i) for i in range(1, n + 1))
    full = (1 << n) - 1
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        small = random_ranked_base(rng, max_elements=7, max_implications=10)
        padding = full & ~((1 << small.ground.size) - 1)
        masks = [meet.mask | padding for meet in meets_brute(small)]
        masks += [full & ~(1 << p) for p in iter_bits(padding)]
    else:
        missing = st.lists(st.integers(0, n - 1), min_size=1, max_size=3)
        masks = [
            full & ~sum(1 << a for a in set(gone))
            for gone in draw(st.lists(missing, min_size=1, max_size=12))
        ]
    extra = draw(st.sampled_from(["none", "sparse", "intersection"]))
    if extra == "sparse":
        masks.append(draw(st.integers(0, full >> (n - 8))))
    elif extra == "intersection" and len(masks) >= 2:
        i, k = draw(st.lists(st.integers(0, len(masks) - 1), min_size=2, max_size=2))
        masks.append(masks[i] & masks[k])
    return MeetFamily(ground, [ElementSet(ground, mask) for mask in dict.fromkeys(masks)])


@settings(max_examples=60)
@given(meet_families())
def test_kernel_matches_definitions(fam):
    assert_kernel_matches_definitions(fam)


@settings(max_examples=60, deadline=None)
@given(wide_families())
def test_kernel_matches_scan_beyond_64_elements(fam):
    assert_kernel_matches_scan(fam)


def test_kernel_matches_definitions_on_rung():
    # rung.mf is the meet family of rung.imp, so its intersection closure is
    # the closed-set family of that base, here from one exhaustive scan
    # (`intersection_closure` of the 82 members gives the same 24 711 sets).
    ground, sets = formats.read_mf(DATA / "rung.mf")
    closed = closed_set_masks(formats.read_imp(DATA / "rung.imp"))
    assert_kernel_matches_definitions(MeetFamily(ground, sets), closed)


def layered_meet_family(levels, width, rules_per, premise_size, seed):
    """The meet family of a layered ranked base (see `layered_base`)."""
    base = layered_base(levels, width, rules_per, premise_size, seed)
    return MeetFamily(base.ground, [meet for _, meet in meet_irreducibles(base)])


def test_kernel_matches_scan_at_ladder_size():
    # Four levels of eight elements, three rules of two premise elements
    # each: the shape of the benchmark's sid instances.
    fam = layered_meet_family(4, 8, 3, 2, seed=9)
    assert 1400 <= len(fam) <= 1700
    part = partition_meets(fam)
    assert part == partition_by_scan(fam)
    for j, j_up in part.items():
        assert predecessors(fam, j, j_up) == predecessors_by_scan(fam, j, j_up)
        assert list(recovered_premises(fam, j, j_up)) == premises_by_hypergraph(
            fam, j, j_up
        )


def index_by_definition(fam):
    """`_index` by one bit test per member and element."""
    members = tuple(member.mask for member in fam.meets)
    everyone = (1 << len(members)) - 1
    cont = [
        sum(1 << i for i, m in enumerate(members) if m >> a & 1)
        for a in range(fam.ground.size)
    ]
    return members, cont, [everyone ^ c for c in cont]


@settings(max_examples=60, deadline=None)
@given(st.one_of(meet_families(), wide_families()))
def test_index_matches_definition(fam):
    assert _index(fam) == index_by_definition(fam)


def test_index_matches_definition_on_rung_and_at_ladder_size():
    # rung.mf, and an L4 w8 family of the size of the benchmark's sid instances.
    for fam in (
        MeetFamily(*formats.read_mf(DATA / "rung.mf")),
        layered_meet_family(4, 8, 3, 2, seed=9),
    ):
        assert _index(fam) == index_by_definition(fam)


def test_index_of_the_4096_coatoms():
    # Member i misses element i alone, so row a holds every member but a.
    n = MAX_GROUND_SIZE
    ground = GroundSet(str(i) for i in range(n))
    full = (1 << n) - 1
    fam = MeetFamily(ground, [ElementSet(ground, full ^ 1 << a) for a in range(n)])
    assert _index(fam) == (
        tuple(full ^ 1 << a for a in range(n)),
        [full ^ 1 << a for a in range(n)],
        [1 << a for a in range(n)],
    )


def test_roundtrip_at_4096_elements():
    # Two levels of 2 048 elements, one single-element premise per element
    # of the lower level: the documented ground-set capacity, 4 096 meets.
    # The base is its own critical base, so recovery must give back its
    # rules, in critical_base's order.
    base = layered_base(2, 2048, 1, 1, seed=7)
    fam = MeetFamily(base.ground, [meet for _, meet in meet_irreducibles(base)])
    assert len(fam) == 4096
    recovered = recover_critical_base(fam)
    assert set(recovered.implications) == set(base.implications)
    assert recovered == critical_base(base)


# -- the checked guess of `sid`, against the partition-and-predecessor path it
# falls back to and against `critical_base`


def general_base(fam):
    """The base of the partition-and-predecessor path, or its error."""
    return outcome(
        lambda: ImplicationalBase(fam.ground, tuple(iter_recovered_implications(fam)))
    )


def streamed_base(fam):
    """The base that `iter_recovered_base` streams, or its error."""
    return outcome(lambda: ImplicationalBase(fam.ground, tuple(iter_recovered_base(fam))))


def verify_by_meet_set(fam):
    """``recover_critical_base(fam, verify=True)`` by its definition: the
    general path's base must be ranked, and its set of meets the family's."""
    base = general_base(fam)
    if isinstance(base, Raised):
        return base
    try:
        recomputed = {meet.mask for _, meet in meet_irreducibles(base)}
    except NotRankedError as exc:
        return Raised(
            VerificationError,
            f"recovered base admits no rank function ({exc}); the input was not "
            "the meet family of a ranked convex geometry",
        )
    if recomputed != {meet.mask for meet in fam.meets}:
        return Raised(
            VerificationError,
            "recovered base does not reproduce the input meet family; the input "
            "was not the meet family of a ranked convex geometry",
        )
    return base


def assert_every_entry_agrees(fam):
    """The guess, when it passes, and every entry point give the general
    path's base, or its error; `--verify` gives its definition's verdict."""
    guess, general = _checked_guess(fam), general_base(fam)
    if guess is not None:
        assert guess == general
    assert outcome(recover_critical_base, fam) == general
    assert streamed_base(fam) == general
    assert outcome(recover_critical_base, fam, verify=True) == verify_by_meet_set(fam)
    return guess


def meets_of(base):
    return MeetFamily(base.ground, [meet for _, meet in meet_irreducibles(base)])


@pytest.mark.parametrize("path", sorted(DATA.glob("*.mf")), ids=lambda p: p.name)
def test_guess_on_the_data_files(path):
    try:
        fam = MeetFamily(*formats.read_mf(path))
    except InputError:
        return  # bool2_minus.mf holds the whole ground set
    guess = assert_every_entry_agrees(fam)
    imp = path.with_suffix(".imp")
    if imp.exists():
        assert guess == critical_base(formats.read_imp(imp))


@pytest.mark.parametrize("levels, width", [(3, 6), (4, 6), (4, 8)])
def test_guess_on_the_ladder(levels, width):
    base = layered_base(levels, width, 3, 2, 7)
    fam = meets_of(base)
    assert _checked_guess(fam) == critical_base(base) == general_base(fam)


def test_guess_on_random_ranked_bases():
    passed = 0
    for seed in range(300):
        base = random_ranked_base(random.Random(seed), 12, 24)
        fam = MeetFamily(base.ground, meets_brute(base))
        guess = assert_every_entry_agrees(fam)
        assert recover_critical_base(fam) == critical_base(base)
        passed += guess is not None
    # The other 43 miss, and the general path gives the critical base.
    assert passed == 257


@pytest.mark.parametrize("seed", [0, 136, 263])
def test_a_missed_guess_runs_the_general_path(monkeypatch, capsys, tmp_path, seed):
    base = random_ranked_base(random.Random(seed), 12, 24)
    fam = MeetFamily(base.ground, meets_brute(base))
    assert _checked_guess(fam) is None
    expected = formats.format_imp(critical_base(base))
    assert formats.format_imp(general_base(fam)) == expected
    ran = []

    def general(m, *args):
        ran.append(m)
        return iter_recovered_implications(m, *args)

    monkeypatch.setattr(sid, "iter_recovered_implications", general)
    path = tmp_path / "missed.mf"
    formats.write_mf(fam.ground, fam.meets, path)
    assert main(["sid", str(path)]) == 0
    assert capsys.readouterr() == (expected, "")
    assert len(ran) == 1 and ran[0] == fam


def recorded_attempts(monkeypatch):
    """Patch `_guessed_base` to log, per attempt, the constraints it is
    given and what it returns."""
    attempts, guessed_base = [], sid._guessed_base

    def recording(ix, above, ground):
        result = guessed_base(ix, above, ground)
        attempts.append((list(above), result))
        return result

    monkeypatch.setattr(sid, "_guessed_base", recording)
    return attempts


def has_cycle(above):
    """Whether the constraints ``above[j]`` (the elements that must rank
    above j) put some element above itself."""
    reach = list(above)
    for _ in above:
        reach = [r | reduce(or_, (reach[i] for i in iter_bits(r)), 0) for r in reach]
    return any(r >> j & 1 for j, r in enumerate(reach))


def test_a_miss_ends_at_the_first_attempt_that_samples_every_member(monkeypatch):
    shorter = []
    for seed in (0, 136, 263):
        base = random_ranked_base(random.Random(seed), 12, 24)
        fam = MeetFamily(base.ground, meets_brute(base))
        members = sorted((m.mask for m in fam.meets), key=int.bit_count, reverse=True)
        rows = [[x for x in members if not x >> a & 1] for a in range(fam.ground.size)]
        # Attempt t has sampled the 2**(t-1) largest members missing each element.
        needed, k = 1, 1
        while set().union(*(row[:k] for row in rows)) != set(members):
            needed, k = needed + 1, 2 * k
        with monkeypatch.context() as patched:
            attempts = recorded_attempts(patched)
            assert _checked_guess(fam) is None
        assert len(attempts) == needed, seed
        # Doubling k until the longest miss row is used up takes this many.
        shorter.append(needed < 1 + (max(map(len, rows)) - 1).bit_length())
    assert any(shorter)


def test_failing_attempts_on_a_sid_deep_family_end_before_any_walk(monkeypatch):
    fam = layered_meet_family(4, 8, 3, 2, seed=9)
    attempts, walks = recorded_attempts(monkeypatch), []
    monkeypatch.setattr(sid, "_reproduces", lambda *args: walks.append(args) or _reproduces(*args))
    assert _checked_guess(fam) == critical_base(layered_base(4, 8, 3, 2, 9))
    assert len(walks) == 1
    # Each attempt but the last fails at the member that misses two
    # lowest-ranked elements, since its constraints have no cycle.
    assert [result is None for _, result in attempts] == [True] * (len(attempts) - 1) + [False]
    assert not any(has_cycle(above) for above, _ in attempts)


def test_unranked_families_keep_the_general_output():
    # Acyclic bases whose geometry has no ranked base: no ranked R has their
    # meets, so every guess misses, and `sid` prints what the general path
    # does, which for some of them is not their critical base.
    unranked = differ = 0
    for seed in range(300):
        base = random_acyclic_base(random.Random(seed), 9, 18)
        if is_ranked_geometry(base):
            continue
        fam = MeetFamily(base.ground, meets_brute(base))
        assert assert_every_entry_agrees(fam) is None
        unranked += 1
        differ += general_base(fam) != critical_base(base)
    assert (unranked, differ) == (51, 10)


def test_the_check_counts_the_meets():
    base = layered_base(3, 6, 3, 2, 7)
    rho = ranked(base)
    masks = {meet.mask for _, meet in meet_irreducibles(base)}
    assert _reproduces(base, rho, masks)
    some = next(iter(masks))
    assert not _reproduces(base, rho, masks - {some})
    assert not _reproduces(base, rho, masks | {some ^ 1})
