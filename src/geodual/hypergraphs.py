"""Hypergraphs with minimal-transversal and maximal-independent-set streams.

Dualization sits behind a small backend interface so the sequential Berge
baseline can later be swapped for an asymptotically better algorithm
without touching any caller, which hands it the edges as they are.  The
baseline materializes intermediate families, so streams are lazy but not
delay-bounded.

Berge's absorption test is chosen per edge.  When the members missing the
edge times the members meeting it in one vertex make few pairs, each pair
is tested; above a fixed crossover the missing members are indexed by
element, by the transposition that also builds `sid`'s member index
(:func:`~geodual.sets.bit_rows`), and each guard blocks, with one AND per
element, every missing member it absorbs.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Iterator, Protocol, Sequence

from .errors import InputError
from .sets import (
    ElementSet,
    GroundSet,
    Immutable,
    bit_rows,
    minimal_masks,
    same_universe,
    sort_key_lex,
    sort_key_size_lex,
)


class Hypergraph(Immutable):
    """A vertex set together with a family of edges over one ground set.

    The raw edge list is preserved exactly as given (construction sites
    quote premises verbatim); the inclusion-minimal, duplicate-free view
    is derived on demand.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: ElementSet, edges: Iterable[ElementSet] = ()):
        edges = tuple(edges)
        for e in edges:
            same_universe(vertices, e)
            if e.mask & ~vertices.mask:
                raise InputError(f"edge {e!r} is not contained in the vertex set")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    @property
    def universe(self) -> GroundSet:
        return self.vertices.universe

    @property
    def dimension(self) -> int:
        return max((len(e) for e in self.edges), default=0)

    def reduced_edges(self) -> tuple[ElementSet, ...]:
        """Inclusion-minimal, duplicate-free edges, canonically ordered."""
        u = self.universe
        return tuple(ElementSet(u, m) for m in minimal_masks(e.mask for e in self.edges))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(V={self.vertices!r}, {len(self.edges)} edges)"


class DualizationBackend(Protocol):
    """Interface for minimal-transversal engines.

    Implementations receive the caller's edge masks as a list, unreduced
    (repeated, nested or empty edges included), and return the masks of
    all minimal transversals, in any order.
    """

    def transversal_masks(self, edges: Sequence[int]) -> Iterable[int]:
        ...


class BergeBackend:
    """Sequential Berge multiplication over an antichain, one edge at a time.

    For the next edge e, the members meeting e stay, and each member t
    missing e grows to ``t | 1<<v`` for every v in e unless some member h
    meets e in v alone with ``h - {v}`` inside t: that is the only way
    the new set can be absorbed, so the family is never re-minimized.
    The distinct edges go by size, then lexicographically, so an edge comes
    after its subsets, when every member already meets it.
    """

    def transversal_masks(self, edges: Sequence[int]) -> list[int]:
        family: list[int] = [0]
        distinct = set(edges)
        # One edge needs no order, and its key would spell out every position.
        for edge in sorted(distinct, key=sort_key_size_lex) if len(distinct) > 1 else distinct:
            if edge == 0:
                return []
            kept, missing, guards = [], [], []
            for t in family:
                one = t & edge
                if not one:
                    missing.append(t)
                    continue
                kept.append(t)
                if not one & (one - 1):
                    guards.append((t ^ one, one))
            if len(missing) * len(guards) > _SCAN_PAIRS:
                _grow_indexed(kept, missing, guards, edge)
            else:
                for t in missing:
                    outside = ~t
                    blocked = 0
                    for rest, one in guards:
                        if not rest & outside:
                            blocked |= one
                    free = edge & ~blocked
                    while free:
                        low = free & -free
                        kept.append(t | low)
                        free ^= low
            family = kept
        return family


#: Above this many (missing member, guard) pairs an edge's absorption test
#: runs from the index of the missing members; below it the pair scan wins.
#: Walking `ccm` in process on 2 cores with the index on every edge that has
#: a pair, 6 ccm-deep bases took 0.48-0.53 s against 0.37 s and the 50 L4 w8
#: bases of sid-deep's set-up 0.42-0.44 s against 0.22 s; with the scan on
#: every edge, 2 ccm-wide bases took 0.47 s against 0.12 s.  A crossover of
#: 1 024 pairs stayed within 5 % of 64; one of 8 cost the set-up 15 %.
_SCAN_PAIRS = 64


def _grow_indexed(
    kept: list[int], missing: list[int], guards: list[tuple[int, int]], edge: int
) -> None:
    """Append to `kept` each ``t | 1<<v`` of Berge's step that no guard absorbs.

    The missing members are indexed by element over their span, the
    positions from the lowest to the highest that any of them holds, by
    :func:`~geodual.sets.bit_rows`: the row of an element has bit i when
    ``missing[i]`` contains it.  A guard ``(h - {v}, v)`` blocks at v
    exactly the members in the AND of the rows of ``h - {v}``, all of them
    when that is empty and none when it holds an element no missing member
    holds, so ``blocked[v]`` is the OR of those masks over the guards at v.
    The sets appended are those of the pair scan.
    """
    width = len(missing)
    everyone = (1 << width) - 1
    held = reduce(or_, missing)
    low = (held & -held).bit_length() - 1
    rows = bit_rows(missing, low, held.bit_length() - low)
    blocked: dict[int, int] = {}
    for rest, one in guards:
        if rest & ~held:
            continue
        found = everyone
        rest >>= low
        while rest:
            bit = rest & -rest
            found &= rows[bit.bit_length() - 1]
            if not found:
                break
            rest ^= bit
        else:
            blocked[one] = blocked.get(one, 0) | found
    while edge:
        bit = edge & -edge
        edge ^= bit
        found = blocked.get(bit)
        if found is None:
            kept.extend(map(bit.__or__, missing))
        else:
            free = format(everyone ^ found, f"0{width}b")[::-1].encode()
            kept.extend(map(bit.__or__, compress(missing, free.translate(_FLAGS))))


#: Turn binary digits into the bytes 0 and 1 that `compress` reads.
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


DEFAULT_BACKEND = BergeBackend()


def minimal_transversals(h: Hypergraph) -> Iterator[ElementSet]:
    """Stream the minimal transversals of `h`.

    Every yielded set meets every edge and is inclusion-minimal with that
    property.  If some edge is empty the stream is empty; with no edges
    at all the single empty set is streamed.  Order is lexicographic on
    the ascending position sequence.
    """
    u = h.universe
    for mask in transversal_masks([e.mask for e in h.edges]):
        yield ElementSet(u, mask)


def transversal_masks(
    edges: list[int], backend: DualizationBackend | None = None
) -> list[int]:
    """The minimal transversals of a hypergraph given as raw edge masks.

    The list is handed to the backend as it is.  Order is that of
    :func:`minimal_transversals`.
    """
    backend = backend or DEFAULT_BACKEND
    masks = list(backend.transversal_masks(edges))
    # As in Berge's edge order: one mask needs no key.
    if len(masks) > 1:
        masks.sort(key=sort_key_lex)
    return masks


def maximal_independent_sets(h: Hypergraph) -> Iterator[ElementSet]:
    """Stream the maximal independent sets of `h`.

    Computed as vertex-set complements of the minimal transversals; with
    no edges the whole vertex set is the single output.  Order is
    lexicographic on the ascending position sequence.
    """
    u = h.universe
    for mask in independent_masks(h.vertices.mask, (e.mask for e in h.edges)):
        yield ElementSet(u, mask)


def independent_masks(
    vertices: int, edges: Iterable[int], backend: DualizationBackend | None = None
) -> list[int]:
    """The maximal independent sets of a hypergraph given as raw masks.

    `edges` must lie inside `vertices`.  Order is that of
    :func:`maximal_independent_sets`.  The minimal transversals form an
    antichain inside `vertices`, so no key is a prefix of another and the
    first in lexicographic order holds the first position where two
    differ; complementing within `vertices` swaps the holder, so the
    reversed transversal order sorts the complements.
    """
    return [vertices & ~t for t in reversed(transversal_masks(list(edges), backend))]


def induced(h: Hypergraph, s: ElementSet) -> Hypergraph:
    """The subhypergraph on `s`: every edge intersected with `s`.

    Empty intersections are kept; they correctly make the transversal
    stream of the result empty.
    """
    same_universe(h.vertices, s)
    if s.mask & ~h.vertices.mask:
        raise InputError("induced vertex set must be a subset of the vertices")
    u = h.universe
    return Hypergraph(s, tuple(ElementSet(u, e.mask & s.mask) for e in h.edges))
