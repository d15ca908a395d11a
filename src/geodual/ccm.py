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

from itertools import accumulate, chain
from operator import or_
from typing import Iterator

from .errors import NotRankedError, PreconditionError
from .hypergraphs import DualizationBackend, Hypergraph, independent_masks
from .implications import ImplicationalBase
from .ranking import RankConflict, RankFunction, compute_rank, validate_rank
from .sets import ElementSet, Record, iter_bits


class RankedSet(Record):
    """A set of elements sharing one rank, with the rank kept explicitly.

    Carrying the rank keeps the recursion well-defined when the member
    set is empty.
    """

    __slots__ = ("members", "rank")

    def __init__(self, members: ElementSet, rank: int):
        if rank < 0:
            raise PreconditionError("rank must be a natural number")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "rank", rank)


def _check_ranked(base: ImplicationalBase, rho: RankFunction) -> None:
    if not validate_rank(base, rho):
        raise PreconditionError("rank function is not valid for the base")


def _check_ranked_set(rho: RankFunction, b: RankedSet) -> None:
    if any(rho.ranks[pos] != b.rank for pos in b.members):
        raise PreconditionError(
            f"members of {b.members!r} do not all have rank {b.rank}"
        )


def _premises_by_conclusion(base: ImplicationalBase) -> tuple[list[int], ...]:
    """Per element, the premise masks of the rules concluding in it, in base order."""
    by_conclusion: tuple[list[int], ...] = tuple([] for _ in range(base.ground.size))
    for pmask, concl, _ in base._rules:
        by_conclusion[concl].append(pmask)
    return by_conclusion


def _premises(by_conclusion: tuple[list[int], ...], bmask: int) -> list[int]:
    """Premise masks of the rules concluding inside `bmask`, by conclusion."""
    return [p for j in iter_bits(bmask) for p in by_conclusion[j]]


def _rank_prefixes(rho: RankFunction) -> tuple[int, ...]:
    """Entry r is the mask of the elements of rank at most r, up to the top rank.

    Every rank lookup of this module goes through these masks.  A negative
    rank, which differences alone do not rule out, raises
    :class:`PreconditionError` instead of wrapping around to the top.
    """
    if min(rho.ranks, default=0) < 0:
        raise PreconditionError("ranks must be natural numbers")
    levels = [0] * (rho.max_rank + 1)
    for pos, r in enumerate(rho.ranks):
        levels[r] |= 1 << pos
    return tuple(accumulate(levels, or_))


def level_hypergraph(
    base: ImplicationalBase, rho: RankFunction, b: RankedSet
) -> Hypergraph:
    """The hypergraph steering one recursion step.

    Vertices are the elements one rank above `b`; edges are the premises
    of all rules concluding inside `b`, grouped by conclusion in position
    order.  The vertex set may properly contain the union of the edges:
    vertices in no edge are free to join every branch.
    """
    _check_ranked(base, rho)
    _check_ranked_set(rho, b)
    u = base.ground
    prefixes, up = _rank_prefixes(rho), b.rank + 1
    vertices = prefixes[up] & ~prefixes[up - 1] if up < len(prefixes) else 0
    premises = _premises(_premises_by_conclusion(base), b.members.mask)
    return Hypergraph(ElementSet(u, vertices), [ElementSet(u, p) for p in premises])


def seed_region(base: ImplicationalBase, rho: RankFunction, b: RankedSet) -> ElementSet:
    """Elements of rank at most `b.rank` outside `b`: common to every output."""
    prefixes = _rank_prefixes(rho)
    below = prefixes[min(b.rank, rho.max_rank)]
    return ElementSet(base.ground, below & ~b.members.mask)


def maximal_avoiding_sets(
    base: ImplicationalBase,
    rho: RankFunction,
    b: RankedSet,
    c: ElementSet,
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
    streams = MeetsAvoiding(base, rho)
    runs = streams._recurse(b.members.mask, b.rank, c.mask)
    for cmask, branches in chain.from_iterable(runs):
        for s in branches:
            yield ElementSet(base.ground, cmask | s)


def ranked(base: ImplicationalBase) -> RankFunction:
    """The rank function of `base`.

    Raises :class:`NotRankedError`, with the conflict attached, when the
    base admits none.
    """
    rho = compute_rank(base)
    if isinstance(rho, RankConflict):
        raise NotRankedError(f"base is not ranked: {rho.describe()}", conflict=rho)
    return rho


#: A run ends once it holds this many meets, even with no dualization
#: ahead, so that a long stretch of memo hits is written in pieces.
#: Writing `ccm` to a pipe on 2 cores, 6 ccm-deep bases took 0.64-0.65 s
#: (median of 8 alternating rounds) at every limit from 512 to 2 048,
#: against 0.67 s at 64 and 0.77 s at 16.  On L8 w8 r3 p2 seed 7 (3.25 M
#: meets) limits of 256 to 1 024 took 1.26-1.34 s, with 3-4 ms at most
#: between two writes, 4 096 took 1.51 s, and no limit 1.54 s with a gap
#: of 0.1 s.
_RUN_MEETS = 1024


class MeetsAvoiding:
    """The meets of one ranked base, element by element.

    Called with an element j, it streams the maximal closed sets avoiding
    j in blocks, one per recursion node whose children are leaves: a pair
    ``(cmask, branches)`` whose meets are ``cmask | s`` for each mask `s`
    of the nonempty list `branches`, in order.  `cmask` is the region the
    node has gathered, below the top rank, and `branches` is the memo's
    own list of the node's top-rank branches, shared by every node with
    the same (B, rank): read it, never change it.  When j has the top
    rank, its one meet comes as ``(cmask, [0])``.  `rho` must be a valid
    rank function of `base`, such as the one :func:`ranked` returns.  The
    branches of a recursion node depend only on the avoided set B and its
    rank, not on the region gathered so far, and the same (B, rank) comes
    up again across branches and elements: each instance dualizes its
    level hypergraph once and keeps the branches for every later call.
    Keep one instance per base and backend.

    The walk keeps the nodes still to visit on an explicit stack rather
    than in nested generators: a node pushes its children in reverse
    branch order, so they are popped, and their meets streamed, in the
    order of the recursion.  A node costs a pop, not a resume of every
    generator on its path, and a block costs no work per meet, so a
    caller can format it from the shared `branches` (the CLI keeps the
    joined labels of a list that comes up again).

    Between two dualizations a node costs only a pop and a memo hit, so
    :meth:`runs` gathers the blocks into runs, lists of blocks in walk
    order: a run ends just before the walk's next dualization, once it
    holds `_RUN_MEETS` meets, and when j's walk ends.  A caller that
    writes each run as it comes (the CLI does) keeps every line from
    waiting for a dualization, or for more than `_RUN_MEETS` meets of
    cheap walking, and pays one write per run rather than per block.
    Calling the instance flattens the runs of the same walk.
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
        # Entry r masks the ranks up to r; the recursion stops at the top rank.
        self._prefixes = _rank_prefixes(rho)
        self._by_conclusion = _premises_by_conclusion(base)
        self._branches: dict[tuple[int, int], list[int]] = {}

    def __call__(self, j: int) -> Iterator[tuple[int, list[int]]]:
        return chain.from_iterable(self.runs(j))

    def runs(self, j: int) -> Iterator[list[tuple[int, list[int]]]]:
        """The blocks of the meets avoiding j, in runs."""
        rank, bit = self.rho.ranks[j], 1 << j
        return self._recurse(bit, rank, self._prefixes[rank] & ~bit)

    def _recurse(
        self, bmask: int, rank: int, cmask: int
    ) -> Iterator[list[tuple[int, list[int]]]]:
        """Maximal closed supersets of `cmask` avoiding `bmask`, whose
        members all have rank `rank`, ranks above it still open: one block
        ``(region, branches)`` per node whose children are leaves, and
        ``(cmask, [0])`` when `rank` is the top rank, in runs."""
        prefixes, memo, limit = self._prefixes, self._branches, _RUN_MEETS
        top = len(prefixes) - 1
        if rank >= top:
            yield [(cmask, [0])]
            return
        # Nodes (B, rank, C) still to visit, the next one last.
        stack = [(bmask, rank, cmask)]
        pop, push = stack.pop, stack.extend
        run, meets = [], 0
        while stack:
            bmask, rank, cmask = pop()
            up = prefixes[rank + 1] & ~prefixes[rank]
            # Keyed by the rank too: an empty B occurs at any rank.
            branches = memo.get((bmask, rank))
            if branches is None:
                # Only a dualization takes unbounded time: hand over what
                # the walk has found first.
                if run:
                    yield run
                    run, meets = [], 0
                premises = _premises(self._by_conclusion, bmask)
                branches = independent_masks(up, premises, self.backend)
                memo[bmask, rank] = branches
            rank += 1
            if rank < top:
                push([(up & ~s, rank, cmask | s) for s in reversed(branches)])
            elif branches:
                # The children are leaves: their regions are one block.
                run.append((cmask, branches))
                meets += len(branches)
                if meets >= limit:
                    yield run
                    run, meets = [], 0
        if run:
            yield run


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
        for cmask, branches in streams(j):
            for s in branches:
                yield j, ElementSet(u, cmask | s)
