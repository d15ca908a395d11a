"""Rank functions on implicational bases.

A rank function assigns every element a natural number so that each
premise element sits exactly one level above the conclusion of its rule.
Ranks, when they exist, are unique up to a per-component shift, so they
are computed by breadth-first propagation over each weakly connected
component of the implication graph and then normalized to start at 0.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Union

from .errors import InputError
from .implications import Implication, ImplicationalBase
from .sets import Record, iter_bits


class RankFunction(Record):
    """A total assignment of natural-number ranks, indexed by position."""

    __slots__ = ("ranks",)

    def __init__(self, ranks: tuple[int, ...]):
        object.__setattr__(self, "ranks", ranks)

    @property
    def max_rank(self) -> int:
        return max(self.ranks, default=0)

    def level_mask(self, rank: int) -> int:
        """Mask of all elements at the given rank."""
        mask = 0
        for pos, r in enumerate(self.ranks):
            if r == rank:
                mask |= 1 << pos
        return mask


class RankConflict(Record):
    """Witness that no rank function exists.

    `element` was forced to two distinct ranks; the two witness
    implications are the rules whose constraints collided there during
    propagation.
    """

    __slots__ = ("element", "required_ranks", "witness_implications")

    def __init__(
        self,
        element: int,
        required_ranks: tuple[int, int],
        witness_implications: tuple[Implication, Implication],
    ):
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "required_ranks", required_ranks)
        object.__setattr__(self, "witness_implications", witness_implications)

    def describe(self) -> str:
        labels = self.witness_implications[0].universe.labels
        a, b = self.required_ranks
        w1, w2 = self.witness_implications
        return (
            f"element {labels[self.element]!r} would need rank {a} and rank {b}; "
            f"forced by {w1!r} and {w2!r}"
        )


class UnrankedCertificate(Record):
    """A short list of implications claimed critical and jointly unrankable."""

    __slots__ = ("implications",)

    def __init__(self, implications: tuple[Implication, ...]):
        if not implications:
            raise InputError("certificate must contain at least one implication")
        universe = implications[0].universe
        for imp in implications:
            if imp.universe != universe:
                raise InputError("certificate implications must share one ground set")
        if len(implications) > universe.size:
            raise InputError(
                f"certificate of {len(implications)} implications exceeds "
                f"the ground-set size {universe.size}"
            )
        object.__setattr__(self, "implications", implications)


def compute_rank(base: ImplicationalBase) -> Union[RankFunction, RankConflict]:
    """Compute a rank function for `base`, or the conflict preventing one.

    Each weakly connected component is propagated independently from a
    seed initialized at rank n (so intermediate values stay natural) and
    later shifted so its minimum is 0.  A conflict is a normal return,
    not an error.
    """
    n = base.ground.size
    # neighbors[x] lists (y, delta, rule): rank(y) must equal rank(x) + delta.
    neighbors: list[list[tuple[int, int, Implication]]] = [[] for _ in range(n)]
    for imp in base.implications:
        b = imp.conclusion
        for a in imp.premise:
            neighbors[a].append((b, -1, imp))
            neighbors[b].append((a, +1, imp))

    rank: list[int | None] = [None] * n
    cause: list[Implication | None] = [None] * n
    components: list[list[int]] = []
    for seed in range(n):
        if rank[seed] is not None:
            continue
        rank[seed] = n
        component = [seed]
        queue = deque([seed])
        while queue:
            x = queue.popleft()
            rx = rank[x]
            for y, delta, imp in neighbors[x]:
                want = rx + delta
                ry = rank[y]
                if ry is None:
                    rank[y] = want
                    cause[y] = imp
                    component.append(y)
                    queue.append(y)
                elif ry != want:
                    first = cause[y] or cause[x] or imp
                    return RankConflict(
                        element=y,
                        required_ranks=(ry, want),
                        witness_implications=(first, imp),
                    )
        components.append(component)

    ranks = list(rank)  # all filled now
    for component in components:
        low = min(ranks[x] for x in component)
        for x in component:
            ranks[x] -= low
    return RankFunction(tuple(ranks))


def validate_rank(base: ImplicationalBase, rho: RankFunction) -> bool:
    """True iff every premise element sits one rank above its conclusion."""
    if len(rho.ranks) != base.ground.size:
        raise InputError("rank function is not total on the ground set")
    for pmask, concl, _ in base._rules:
        want = rho.ranks[concl] + 1
        for a in iter_bits(pmask):
            if rho.ranks[a] != want:
                return False
    return True


def check_unranked_certificate(meets, cert: UnrankedCertificate) -> bool:
    """Check a claim that a meet-represented geometry is not ranked.

    Working purely against the closure operator induced by `meets`, the
    certificate passes when every listed implication is valid, a minimal
    generator, and critical, and the listed implications alone admit no
    rank function.
    """
    # Imported here: `critical` imports this module, and `ccm`, which
    # imports it too, must not load `sid`.
    from .critical import _is_mingen_mask, _is_redundant_mask
    from .sid import MeetFamily, closure_from_meets_mask

    if not isinstance(meets, MeetFamily):
        raise InputError("expected a MeetFamily")
    ground = meets.ground
    for imp in cert.implications:
        if imp.universe != ground:
            raise InputError("certificate lives on a different ground set")

    close = partial(closure_from_meets_mask, meets)
    for imp in cert.implications:
        amask, b = imp.premise.mask, imp.conclusion
        if not _is_mingen_mask(close, amask, b) or _is_redundant_mask(close, amask, b):
            return False

    certificate_base = ImplicationalBase(ground, cert.implications)
    return isinstance(compute_rank(certificate_base), RankConflict)
