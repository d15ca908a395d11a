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
    streams = MeetsAvoiding(base, rho, backend)
    for mask in streams._recurse(b.members.mask, b.rank, c.mask):
        yield ElementSet(base.ground, mask)


def ranked(base: ImplicationalBase) -> RankFunction:
    """The rank function of `base`.

    Raises :class:`NotRankedError`, with the conflict attached, when the
    base admits none.
    """
    rho = compute_rank(base)
    if isinstance(rho, RankConflict):
        raise NotRankedError(f"base is not ranked: {rho.describe()}", conflict=rho)
    return rho


class MeetsAvoiding:
    """The meets of one ranked base, element by element.

    Called with an element j, it streams the masks of the maximal closed
    sets avoiding j; `rho` must be a valid rank function of `base`, such
    as the one :func:`ranked` returns.  The branches of a recursion node
    depend only on the avoided set B and its rank, not on the region
    gathered so far, and the same (B, rank) comes up again across
    branches and elements: each instance dualizes its level hypergraph
    once and keeps the branches for every later call.  Keep one instance
    per base and backend.  A pickled copy starts with no branches kept.
    """

    def __init__(
        self,
        base: ImplicationalBase,
        rho: RankFunction,
        backend: DualizationBackend | None = None,
    ):
        self.base = base
        self.rho = rho
        self.backend = backend
        # Masks of the ranks 0..max; the recursion stops at the top rank.
        self._levels = tuple(rho.level_mask(r) for r in range(rho.max_rank + 1))
        self._branches: dict[tuple[int, int], list[int]] = {}

    def __reduce__(self):
        return type(self), (self.base, self.rho, self.backend)

    def __call__(self, j: int) -> Iterator[int]:
        rank, bit = self.rho.ranks[j], 1 << j
        return self._recurse(bit, rank, _seed(self.rho, rank, bit))

    def _recurse(self, bmask: int, rank: int, cmask: int) -> Iterator[int]:
        """Maximal closed supersets of `cmask` avoiding `bmask`, whose
        members all have rank `rank`, ranks above it still open."""
        levels = self._levels
        if rank + 1 >= len(levels):
            yield cmask
            return
        up = levels[rank + 1]
        # Keyed by the rank too: an empty B occurs at any rank.
        branches = self._branches.get((bmask, rank))
        if branches is None:
            branches = independent_masks(up, _premises(self.base, bmask), self.backend)
            self._branches[bmask, rank] = branches
        for s in branches:
            yield from self._recurse(up & ~s, rank + 1, cmask | s)


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
    streams = MeetsAvoiding(base, ranked(base), backend)
    u = base.ground
    for j in range(u.size):
        for mask in streams(j):
            yield j, ElementSet(u, mask)
