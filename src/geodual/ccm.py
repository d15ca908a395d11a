"""Meet-irreducible enumeration from a ranked implicational base.

The enumerator lists, for every element j, the maximal closed sets
avoiding j.  Those families partition the meet-irreducible sets of the
closure system, so streaming them element by element covers every meet
exactly once, with no duplicate suppression.

Each family is produced rank by rank: given the set B of elements to
avoid at the current rank, the maximal independent sets of a small
hypergraph (premises of rules concluding in B, over the vertices one
rank up) split the solution family into disjoint branches, and each
branch recurses one rank higher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import NotRankedError, PreconditionError
from .hypergraphs import DualizationBackend, Hypergraph, independent_masks
from .implications import ImplicationalBase
from .ranking import RankConflict, RankFunction, compute_rank, validate_rank
from .sets import ElementSet


@dataclass(frozen=True, slots=True)
class RankedSet:
    """A set of elements sharing one rank, with the rank kept explicitly.

    Carrying the rank keeps the recursion well-defined when the member
    set is empty.
    """

    members: ElementSet
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise PreconditionError("rank must be a natural number")


def _check_ranked(base: ImplicationalBase, rho: RankFunction) -> None:
    if not validate_rank(base, rho):
        raise PreconditionError("rank function is not valid for the base")


def _check_ranked_set(rho: RankFunction, b: RankedSet) -> None:
    if any(rho.ranks[pos] != b.rank for pos in b.members):
        raise PreconditionError(
            f"members of {b.members!r} do not all have rank {b.rank}"
        )


def _premises(base: ImplicationalBase, bmask: int) -> list[int]:
    """Premise masks of the rules concluding inside `bmask`, in base order."""
    return [pmask for pmask, concl, _ in base._rules if bmask >> concl & 1]


def level_hypergraph(
    base: ImplicationalBase, rho: RankFunction, b: RankedSet
) -> Hypergraph:
    """The hypergraph steering one recursion step.

    Vertices are the elements one rank above `b`; edges are the premises
    of all rules concluding inside `b`.  The vertex set may properly
    contain the union of the edges: vertices in no edge are free to join
    every branch.
    """
    _check_ranked(base, rho)
    _check_ranked_set(rho, b)
    u = base.ground
    edges = [ElementSet(u, p) for p in _premises(base, b.members.mask)]
    return Hypergraph(ElementSet(u, rho.level_mask(b.rank + 1)), edges)


def _levels(rho: RankFunction, top: int) -> tuple[int, ...]:
    """Masks of the ranks 0..top; the recursion stops at rank `top`."""
    return tuple(rho.level_mask(r) for r in range(top + 1))


def _seed(rho: RankFunction, rank: int, bmask: int) -> int:
    """Mask of the elements of rank at most `rank` outside `bmask`."""
    return sum(1 << pos for pos, r in enumerate(rho.ranks) if r <= rank) & ~bmask


def seed_region(base: ImplicationalBase, rho: RankFunction, b: RankedSet) -> ElementSet:
    """Elements of rank at most `b.rank` outside `b`: common to every output."""
    return ElementSet(base.ground, _seed(rho, b.rank, b.members.mask))


def maximal_avoiding_sets(
    base: ImplicationalBase,
    rho: RankFunction,
    b: RankedSet,
    c: ElementSet,
    backend: DualizationBackend | None = None,
) -> Iterator[ElementSet]:
    """Recursive enumeration of the maximal closed sets disjoint from `b`.

    Seeded with `c` equal to ``seed_region(base, rho, b)``, the stream is
    exactly the family of maximal closed sets avoiding `b`, without
    duplicates; every output is closed.  Branches are explored in the
    deterministic order of the hypergraph module.
    """
    _check_ranked(base, rho)
    _check_ranked_set(rho, b)
    if c.mask & b.members.mask:
        raise PreconditionError("the accumulated region must avoid the target set")
    levels = _levels(rho, max(rho.ranks, default=b.rank))
    for mask in _recurse(base, levels, b.members.mask, b.rank, c.mask, backend):
        yield ElementSet(base.ground, mask)


def _recurse(
    base: ImplicationalBase,
    levels: tuple[int, ...],
    bmask: int,
    rank: int,
    cmask: int,
    backend: DualizationBackend | None,
) -> Iterator[int]:
    """Maximal closed supersets of `cmask` avoiding `bmask`, whose members
    all have rank `rank`, ranks above it still open."""
    if rank + 1 >= len(levels):
        yield cmask
        return
    up = levels[rank + 1]
    for s in independent_masks(up, _premises(base, bmask), backend):
        yield from _recurse(base, levels, up & ~s, rank + 1, cmask | s, backend)


def ranked(base: ImplicationalBase) -> RankFunction:
    """The rank function of `base`.

    Raises :class:`NotRankedError`, with the conflict attached, when the
    base admits none.
    """
    rho = compute_rank(base)
    if isinstance(rho, RankConflict):
        raise NotRankedError(f"base is not ranked: {rho.describe()}", conflict=rho)
    return rho


def meets_avoiding(
    base: ImplicationalBase,
    rho: RankFunction,
    j: int,
    backend: DualizationBackend | None = None,
) -> Iterator[int]:
    """Stream the masks of the maximal closed sets avoiding the element `j`.

    `rho` must be the rank function of `base`, as :func:`ranked` returns
    it; computing it once serves every element.
    """
    levels = _levels(rho, rho.max_rank)
    rank, bit = rho.ranks[j], 1 << j
    return _recurse(base, levels, bit, rank, _seed(rho, rank, bit), backend)


def meet_irreducibles(
    base: ImplicationalBase, backend: DualizationBackend | None = None
) -> Iterator[tuple[int, ElementSet]]:
    """Stream every meet-irreducible closed set of a ranked base.

    Yields pairs ``(j, M)`` where `M` is a maximal closed set avoiding
    the element `j`; iterating j in position order covers the
    meet-irreducible family exactly once.  Raises
    :class:`NotRankedError`, with the conflict attached, when the base
    admits no rank function.
    """
    rho = ranked(base)
    u = base.ground
    for j in range(u.size):
        for mask in meets_avoiding(base, rho, j, backend):
            yield j, ElementSet(u, mask)
