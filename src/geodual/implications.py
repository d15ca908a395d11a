"""Unit implicational bases and their closure operator.

A base is a list of rules ``A -> b`` over a common ground set.  A subset
is closed when every rule whose premise it contains also has its
conclusion inside.  The closure of a set is computed by forward chaining
with unsatisfied-premise counters kept only for the rules that mention an
element of the input or of the growing closure, so a call costs the
premise occurrences of those elements, not one step per rule.
"""

from __future__ import annotations

import warnings
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Iterator

from .errors import DuplicateImplicationWarning, InputError
from .sets import ElementSet, GroundSet, Immutable, iter_bits


class Implication(Immutable):
    """A unit rule: the premise set implies one conclusion element.

    The premise must be nonempty (an empty premise would force elements
    into the closure of the empty set) and must not contain its own
    conclusion (such a rule is vacuous).
    """

    __slots__ = ("premise", "conclusion")

    def __init__(self, premise: ElementSet, conclusion: int):
        if not premise:
            raise InputError("implication premise must be nonempty")
        if not 0 <= conclusion < premise.universe.size:
            raise InputError(f"conclusion position {conclusion} outside universe")
        if conclusion in premise:
            raise InputError(
                f"conclusion {premise.universe.labels[conclusion]!r} occurs "
                "in its own premise"
            )
        object.__setattr__(self, "premise", premise)
        object.__setattr__(self, "conclusion", conclusion)

    @property
    def universe(self) -> GroundSet:
        return self.premise.universe

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Implication)
            and self.conclusion == other.conclusion
            and self.premise == other.premise
        )

    def __hash__(self) -> int:
        return hash((self.premise, self.conclusion))

    def __repr__(self) -> str:
        lhs = self.universe.join_labels(self.premise.mask)
        return f"{lhs} -> {self.universe.labels[self.conclusion]}"


def implication(universe: GroundSet, premise_labels: Iterable[str], conclusion_label: str) -> Implication:
    """Convenience constructor from labels."""
    return Implication(
        ElementSet.from_labels(universe, premise_labels),
        universe.position(conclusion_label),
    )


class ImplicationalBase(Immutable):
    """An ordered, duplicate-free list of implications over one ground set.

    Duplicates in the input are dropped with a
    :class:`DuplicateImplicationWarning`; order of first occurrence is
    preserved.
    """

    __slots__ = ("ground", "implications", "_rules", "_rules_by_element")

    def __init__(self, ground: GroundSet, implications: Iterable[Implication] = ()):
        kept: list[Implication] = []
        seen: set[tuple[int, int]] = set()
        dropped = 0
        for imp in implications:
            if imp.universe is not ground and imp.universe != ground:
                raise InputError(
                    f"implication {imp!r} lives on a different ground set"
                )
            key = (imp.premise.mask, imp.conclusion)
            if key in seen:
                dropped += 1
                continue
            seen.add(key)
            kept.append(imp)
        if dropped:
            warnings.warn(
                f"dropped {dropped} duplicate implication(s)",
                DuplicateImplicationWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "implications", tuple(kept))
        # (premise mask, conclusion, premise size) per rule, and an index
        # from element position to the rules mentioning it in a premise.
        rules = tuple(
            (imp.premise.mask, imp.conclusion, len(imp.premise)) for imp in kept
        )
        by_element: list[list[int]] = [[] for _ in range(ground.size)]
        for rid, (pmask, _, _) in enumerate(rules):
            for pos in iter_bits(pmask):
                by_element[pos].append(rid)
        object.__setattr__(self, "_rules", rules)
        object.__setattr__(
            self, "_rules_by_element", tuple(tuple(rs) for rs in by_element)
        )

    @property
    def size(self) -> int:
        return len(self.implications)

    @property
    def dimension(self) -> int:
        """Size of the largest premise, 0 for an empty base."""
        return max((len(imp.premise) for imp in self.implications), default=0)

    def __len__(self) -> int:
        return len(self.implications)

    def __iter__(self) -> Iterator[Implication]:
        return iter(self.implications)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ImplicationalBase)
            and self.ground == other.ground
            and self.implications == other.implications
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.implications))

    def __repr__(self) -> str:
        return f"ImplicationalBase({self.ground!r}, {len(self.implications)} implications)"


# -- operations -------------------------------------------------------------


def _check_set(base: ImplicationalBase, s: ElementSet) -> None:
    if s.universe is not base.ground and s.universe != base.ground:
        raise InputError("set lives on a different ground set than the base")


def closure_mask(base: ImplicationalBase, mask: int) -> int:
    """Forward-chaining closure on a raw mask; the hot inner loop."""
    rules = base._rules
    by_element = base._rules_by_element
    result = mask
    todo = list(iter_bits(mask))
    # every element of the closure leaves the worklist exactly once and
    # decrements the counters of the rules whose premise holds it; a rule
    # gets its counter, starting from its premise size, at the first one
    missing: dict[int, int] = {}
    while todo:
        x = todo.pop()
        for rid in by_element[x]:
            left = missing[rid] = missing.get(rid, rules[rid][2]) - 1
            if not left:
                concl = rules[rid][1]
                if not result >> concl & 1:
                    result |= 1 << concl
                    todo.append(concl)
    return result


def closure(base: ImplicationalBase, s: ElementSet) -> ElementSet:
    """Smallest superset of `s` closed under every implication of `base`."""
    _check_set(base, s)
    return ElementSet(base.ground, closure_mask(base, s.mask))


def is_closed_mask(base: ImplicationalBase, mask: int) -> bool:
    return all(
        pmask & mask != pmask or mask >> concl & 1
        for pmask, concl, _ in base._rules
    )


def is_closed(base: ImplicationalBase, s: ElementSet) -> bool:
    """True iff every rule with premise inside `s` concludes inside `s`."""
    _check_set(base, s)
    return is_closed_mask(base, s.mask)


def implication_graph(base: ImplicationalBase) -> frozenset[tuple[int, int]]:
    """The arcs of the digraph from each premise element to its conclusion."""
    return frozenset(
        (pos, imp.conclusion) for imp in base.implications for pos in imp.premise
    )


def is_acyclic(base: ImplicationalBase) -> bool:
    """True iff the implication graph has no directed cycle."""
    sorter: TopologicalSorter = TopologicalSorter()
    for u, v in implication_graph(base):
        sorter.add(u, v)
    try:
        sorter.prepare()
    except CycleError:
        return False
    return True


def is_standard(base: ImplicationalBase) -> bool:
    """True iff the closure space of `base` is standard.

    Standardness asks that the empty set be closed and that dropping `x`
    from its own closure leaves a closed set, for every element `x`.
    """
    if closure_mask(base, 0) != 0:
        return False
    for pos in range(base.ground.size):
        bit = 1 << pos
        if not is_closed_mask(base, closure_mask(base, bit) & ~bit):
            return False
    return True


def equivalent(a: ImplicationalBase, b: ImplicationalBase) -> bool:
    """True iff the two bases define the same closed sets."""
    if a.ground != b.ground:
        raise InputError("bases compare only over the same ground set")
    for imp in a.implications:
        if not closure_mask(b, imp.premise.mask) >> imp.conclusion & 1:
            return False
    for imp in b.implications:
        if not closure_mask(a, imp.premise.mask) >> imp.conclusion & 1:
            return False
    return True
