"""Rank functions on implicational bases.

A rank function assigns every element a natural number so that each
premise element sits exactly one level above the conclusion of its rule.
Ranks, when they exist, are unique up to a per-component shift, so they
are computed by breadth-first propagation over each weakly connected
component of the implication graph and then normalized to start at 0.

When propagation reaches a ranked element with another value, the rules
on the tree paths from both ends of that edge up to their lowest common
ancestor, plus the edge's own rule, form a cycle of rank constraints
whose differences do not sum to zero: at most n rules that admit no rank
on their own.
"""

from __future__ import annotations

from collections import deque
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

    `element` was forced to the two distinct `required_ranks`, given in
    normal form: shifted so that the smallest of them and of the ranks
    given so far in the element's component is 0.  The
    `witness_implications`, at most n distinct rules in base order, carry
    a cycle of rank constraints through `element` whose differences do not
    sum to zero, so a rank of these rules alone would give it both ranks.
    """

    __slots__ = ("element", "required_ranks", "witness_implications")

    def __init__(
        self,
        element: int,
        required_ranks: tuple[int, int],
        witness_implications: tuple[Implication, ...],
    ):
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "required_ranks", required_ranks)
        object.__setattr__(self, "witness_implications", witness_implications)

    def describe(self) -> str:
        labels = self.witness_implications[0].universe.labels
        a, b = self.required_ranks
        *rest, last = map(repr, self.witness_implications)
        forced = f"{', '.join(rest)} and {last}" if rest else last
        return (
            f"element {labels[self.element]!r} would need rank {a} and rank {b}; "
            f"forced by {forced}"
        )


def compute_rank(base: ImplicationalBase) -> Union[RankFunction, RankConflict]:
    """Compute a rank function for `base`, or the conflict preventing one.

    Each weakly connected component is propagated independently from a
    seed initialized at rank n (so intermediate values stay natural) and
    later shifted so its minimum is 0.  A conflict is a normal return,
    not an error; its witnesses are the rules of at most n - 1 tree edges
    closing a cycle with the conflicting edge, and that edge's rule, and
    its two ranks are shifted the same way, by the smallest of them and of
    the ranks of the component so far (which hold the element's own).
    """
    n = base.ground.size
    rules = base.implications
    # neighbors[x] lists (y, delta, rule index): rank(y) must equal rank(x) + delta.
    neighbors: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for rid, imp in enumerate(rules):
        b = imp.conclusion
        for a in imp.premise:
            neighbors[a].append((b, -1, rid))
            neighbors[b].append((a, +1, rid))

    rank: list[int | None] = [None] * n
    # The propagation tree: each element's parent, its rule, its depth.
    parent, cause, depth = list(range(n)), [-1] * n, [0] * n
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
            for y, delta, rid in neighbors[x]:
                want = rx + delta
                ry = rank[y]
                if ry is None:
                    rank[y] = want
                    parent[y], cause[y], depth[y] = x, rid, depth[x] + 1
                    component.append(y)
                    queue.append(y)
                elif ry != want:
                    low = min(want, *(rank[z] for z in component))
                    used, u, v = {rid}, x, y
                    while u != v:
                        if depth[u] < depth[v]:
                            u, v = v, u
                        used.add(cause[u])
                        u = parent[u]
                    return RankConflict(
                        element=y,
                        required_ranks=(ry - low, want - low),
                        witness_implications=tuple(rules[i] for i in sorted(used)),
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
