"""Transversal and independent-set streams against the brute-force reference."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, family, layered_base
from geodual import (
    BergeBackend,
    ElementSet,
    GroundSet,
    Hypergraph,
    InputError,
    formats,
    induced,
    meet_irreducibles,
)
from geodual.hypergraphs import (
    independent_masks,
    maximal_independent_sets,
    minimal_transversals,
    transversal_masks,
)
from geodual.oracle import random_hypergraph, transversals_brute
from geodual.sets import iter_bits, minimal_masks, sort_key_lex


def hg(labels, *edges):
    g = GroundSet(labels.split())
    return Hypergraph(
        ElementSet.full(g),
        [ElementSet.from_labels(g, e.split()) if e else ElementSet.empty(g) for e in edges],
    )


class TestConstruction:
    def test_edge_outside_vertices_rejected(self):
        g = GroundSet(["a", "b"])
        with pytest.raises(InputError):
            Hypergraph(ElementSet.of(g, [0]), [ElementSet.of(g, [1])])

    def test_raw_edges_preserved_reduced_derived(self):
        h = hg("1 2 3", "1 2", "1", "1 2")
        assert len(h.edges) == 3
        assert family(h.reduced_edges()) == family(hg("1 2 3", "1").edges)

    def test_dimension(self):
        assert hg("1 2 3", "1 2", "3").dimension == 2
        assert hg("1 2").dimension == 0


class TestMinimalTransversals:
    def test_two_singletons(self):
        got = list(minimal_transversals(hg("1 2 3 4 5", "4", "5")))
        assert family(got) == family(hg("1 2 3 4 5", "4 5").edges)

    def test_single_edge(self):
        got = list(minimal_transversals(hg("1 2", "1 2")))
        assert family(got) == family(hg("1 2", "1", "2").edges)

    def test_example_complement_hypergraph(self):
        h = hg("1 2 3 4 5", "3 5", "2 4", "1 4")
        got = list(minimal_transversals(h))
        assert family(got) == family(hg("1 2 3 4 5", "4 5", "3 4", "1 2 3", "1 2 5").edges)
        assert [t.labels() for t in got] == [
            ("1", "2", "3"),
            ("1", "2", "5"),
            ("3", "4"),
            ("4", "5"),
        ], "stream order is lexicographic on positions"

    def test_empty_edge_kills_stream(self):
        assert list(minimal_transversals(hg("1 2", ""))) == []
        assert transversal_masks([0b11, 0]) == []

    def test_no_edges_yields_empty_set(self):
        (only,) = minimal_transversals(hg("1 2"))
        assert len(only) == 0
        assert transversal_masks([]) == [0]


class TestMaximalIndependentSets:
    def test_single_edge_pair(self):
        got = list(maximal_independent_sets(hg("4 5", "4 5")))
        assert family(got) == family(hg("4 5", "4", "5").edges)

    def test_no_edges_yields_vertex_set(self):
        (only,) = maximal_independent_sets(hg("1 2 3"))
        assert only.labels() == ("1", "2", "3")

    def test_complement_duality(self):
        h = hg("1 2 3 4 5", "3 5", "2 4", "1 4")
        tr = {t.mask for t in minimal_transversals(h)}
        mis = {m.mask for m in maximal_independent_sets(h)}
        assert mis == {h.vertices.mask & ~t for t in tr}


class TestInduced:
    def test_restriction_dedupes_in_reduced_view(self):
        h = hg("1 2 3 4 5", "3 5", "2 4", "1 4")
        g = h.universe
        sub = induced(h, ElementSet.from_labels(g, ["4", "5"]))
        assert len(sub.edges) == 3
        assert family(sub.reduced_edges()) == family(hg("1 2 3 4 5", "4", "5").edges)

    def test_identity(self):
        h = hg("1 2 3", "1 2", "3")
        same = induced(h, h.vertices)
        assert family(same.reduced_edges()) == family(h.reduced_edges())

    def test_empty_restriction(self):
        h = hg("1 2", "1")
        sub = induced(h, ElementSet.empty(h.universe))
        assert len(sub.vertices) == 0
        assert all(len(e) == 0 for e in sub.edges)

    def test_not_a_subset_rejected(self):
        h = hg("1 2", "1")
        small = Hypergraph(ElementSet.of(h.universe, [0]), [])
        with pytest.raises(InputError):
            induced(small, ElementSet.of(h.universe, [1]))


class TestAgainstBruteForce:
    def test_random_hypergraphs_match_oracle(self):
        rng = random.Random(2024)
        for _ in range(150):
            h = random_hypergraph(rng, max_vertices=8, max_edges=10)
            got = {t.mask for t in minimal_transversals(h)}
            want = {t.mask for t in transversals_brute(h)}
            assert got == want

    def test_minimality_witness(self):
        rng = random.Random(7)
        for _ in range(60):
            h = random_hypergraph(rng, max_vertices=8, max_edges=10)
            edges = [e.mask for e in h.edges]
            for t in minimal_transversals(h):
                assert all(t.mask & e for e in edges)
                for x in t:
                    reduced = t.mask & ~(1 << x)
                    assert any(reduced & e == 0 for e in edges), "every element needed"

    def test_absorption_invariance(self):
        # No entry reduces its edges before dualizing, so repeating an
        # edge, adding a superset of one, or permuting them must leave
        # every stream as it is, order included.
        rng = random.Random(99)
        for _ in range(80):
            h = random_hypergraph(rng, max_vertices=7, max_edges=8)
            edges = list(h.edges)
            if edges:
                extra = ElementSet.of(h.universe, [rng.randrange(h.universe.size)])
                edges += [rng.choice(edges), rng.choice(edges) | extra]
            rng.shuffle(edges)
            h2 = Hypergraph(h.vertices, edges)
            assert list(minimal_transversals(h2)) == list(minimal_transversals(h))
            assert list(maximal_independent_sets(h2)) == list(maximal_independent_sets(h))
            masks = [e.mask for e in h.edges]
            assert transversal_masks([e.mask for e in edges]) == transversal_masks(masks)


@st.composite
def mask_hypergraph(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    g = GroundSet(f"v{i}" for i in range(n))
    full = (1 << n) - 1
    edges = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=8))
    return Hypergraph(ElementSet.full(g), [ElementSet(g, e) for e in edges])


@settings(max_examples=60)
@given(mask_hypergraph())
def test_streams_are_antichains(h):
    tr = [t.mask for t in minimal_transversals(h)]
    for i, a in enumerate(tr):
        for b in tr[i + 1 :]:
            assert not (a & b == a or a & b == b), "no transversal contains another"


def berge_by_definition(edges):
    """Berge multiplication that re-minimizes the whole family after each edge."""
    partial = [0]
    for edge in edges:
        if edge == 0:
            return []
        extended = set()
        for t in partial:
            if t & edge:
                extended.add(t)
            else:
                for v in iter_bits(edge):
                    extended.add(t | 1 << v)
        partial = minimal_masks(extended)
    return partial


def assert_berge_matches_definition(edges):
    got = BergeBackend().transversal_masks(edges)
    assert len(got) == len(set(got)), "no transversal is returned twice"
    assert set(got) == set(berge_by_definition(edges))
    return got


@st.composite
def raw_edge_lists(draw):
    """Unreduced edge lists: repeats, nested edges and empty edges included."""
    n = draw(st.integers(min_value=1, max_value=10))
    full = (1 << n) - 1
    edges = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=10))
    if edges and draw(st.booleans()):
        e = draw(st.sampled_from(edges))
        edges.append(e | draw(st.integers(min_value=0, max_value=full)))
        edges.append(e)
    return draw(st.permutations(edges))


@settings(max_examples=60)
@given(raw_edge_lists())
def test_berge_matches_definition_on_raw_edges(edges):
    assert_berge_matches_definition(edges)


@settings(max_examples=100)
@given(raw_edge_lists(), st.integers(min_value=0, max_value=1023))
def test_independent_masks_are_the_sorted_complements_of_the_transversals(edges, extra):
    # The vertices hold every edge and possibly more; ten positions cover
    # every mask `raw_edge_lists` draws.
    g = GroundSet(str(i) for i in range(10))
    vertices = extra
    for edge in edges:
        vertices |= edge
    h = Hypergraph(ElementSet(g, vertices), [ElementSet(g, e) for e in edges])
    expected = sorted((vertices & ~t.mask for t in transversals_brute(h)), key=sort_key_lex)
    assert independent_masks(vertices, edges) == expected


@st.composite
def crossing_edge_lists(draw):
    """Edge lists whose Berge steps have more (missing, guard) pairs than
    the pair-scan crossover, so the indexed absorption test runs.

    The vertices start at a drawn offset, so the indexed rows sit across
    or past bit 64 and never at position 0.  Half of the lists put the
    first vertex in every edge: it then stays a member on its own, and its
    guard, with nothing besides it, blocks every member missing an edge.
    """
    n = draw(st.integers(min_value=16, max_value=24))
    offset = draw(st.integers(min_value=50, max_value=120))
    hub = draw(st.booleans())
    edge = st.sets(st.integers(hub, n - 1), min_size=3 - hub, max_size=5 - hub)
    edges = draw(st.lists(edge, min_size=8, max_size=14))
    return [(sum(1 << v for v in e) | hub) << offset for e in edges]


@settings(max_examples=40, deadline=None)
@given(crossing_edge_lists())
def test_berge_matches_definition_across_the_crossover(edges):
    assert_berge_matches_definition(edges)


def test_berge_edge_cases():
    assert assert_berge_matches_definition([]) == [0]
    assert assert_berge_matches_definition([0b11, 0]) == []
    assert sorted(assert_berge_matches_definition([0b011, 0b011, 0b111])) == [1, 2]


class RecordingBackend:
    """Berge, keeping every edge list it is handed."""

    def __init__(self):
        self.handed = []

    def transversal_masks(self, edges):
        self.handed.append(edges)
        return BergeBackend().transversal_masks(edges)


def test_backends_receive_the_callers_edges_unreduced():
    edges = [0b110, 0b010, 0b110, 0b111, 0, 0b011]
    backend = RecordingBackend()
    assert independent_masks(0b111, iter(edges[:4]), backend) == [0b101]
    mine = edges[:4]
    assert transversal_masks(mine, backend) == [0b010]
    assert backend.handed == [edges[:4], mine]
    assert [type(handed) for handed in backend.handed] == [list, list]
    assert backend.handed[1] is mine, "the caller's list itself"


class DifferentialBackend:
    """Checks every call against the definition; counts the calls."""

    def __init__(self):
        self.calls = 0

    def transversal_masks(self, edges):
        self.calls += 1
        return assert_berge_matches_definition(list(edges))


def assert_ccm_level_hypergraphs_match_definition(base):
    backend = DifferentialBackend()
    meets = sum(1 for _ in meet_irreducibles(base, backend))
    assert meets and backend.calls


def test_berge_matches_definition_on_rung_level_hypergraphs():
    assert_ccm_level_hypergraphs_match_definition(formats.read_imp(DATA / "rung.imp"))


def test_berge_matches_definition_on_wide_level_hypergraphs():
    # 20 level hypergraphs of 10 four-vertex edges over 20 vertices, with
    # families of up to 694 transversals: the ccm-wide shape, one size down
    assert_ccm_level_hypergraphs_match_definition(layered_base(2, 20, 10, 4, seed=7))
