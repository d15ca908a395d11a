"""Minimal generators, criticality, and the critical base.

Every acyclic standard closure space has a unique irredundant base made
of minimal generators, and that base has minimum size among unit bases.
It is computed here by scanning, inside every input premise, all minimal
generators of the rule's conclusion, and keeping the ones that no other
generator can replace.  The scan is exponential only in the input
dimension, which is what desk-scale and bounded-dimension bases need;
a premise above 20 elements is refused by a size guard.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable

from .errors import PreconditionError, size_guard
from .implications import (
    Implication,
    ImplicationalBase,
    closure_mask,
    is_acyclic,
)
from .ranking import RankFunction, compute_rank
from .sets import ElementSet, Record, iter_bits, sort_key_lex

#: The widest premise whose subsets `critical_base` scans.
PREMISE_GUARD = 20


class MinimalGenerator(Record):
    """A set that implies a target element outside of it, minimally so."""

    __slots__ = ("generator", "target")

    def __init__(self, generator: ElementSet, target: int):
        if target in generator:
            raise PreconditionError("target element must lie outside its generator")
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "target", target)


def _require_acyclic(base: ImplicationalBase) -> None:
    if not is_acyclic(base):
        raise PreconditionError("operation requires an acyclic implicational base")


def _is_mingen_mask(close: Callable[[int], int], amask: int, target: int) -> bool:
    """Whether `amask` minimally implies `target` under the closure `close`."""
    tbit = 1 << target
    if amask & tbit or not close(amask) & tbit:
        return False
    return all(not close(amask & ~(1 << x)) & tbit for x in iter_bits(amask))


def _is_redundant_mask(close: Callable[[int], int], amask: int, target: int) -> bool:
    # Redundant when pruning one generator element (and the target) from
    # the generator's closure still re-implies the target.
    tbit = 1 << target
    cl = close(amask)
    return any(close(cl & ~(1 << a) & ~tbit) & tbit for a in iter_bits(amask))


def is_redundant(base: ImplicationalBase, gen: MinimalGenerator) -> bool:
    """True iff another minimal generator of the target lives in gen's closure.

    Requires an acyclic base and a genuine minimal generator; both are
    verified.
    """
    _require_acyclic(base)
    close = partial(closure_mask, base)
    amask = gen.generator.mask
    if not _is_mingen_mask(close, amask, gen.target):
        raise PreconditionError(
            f"{gen.generator!r} is not a minimal generator of "
            f"{base.ground.labels[gen.target]!r}"
        )
    return _is_redundant_mask(close, amask, gen.target)


def _mingens_within(base: ImplicationalBase, region_mask: int, target: int) -> list[int]:
    """All minimal generators of `target` contained in `region_mask`.

    Subsets are scanned in increasing size; supersets of found generators
    are skipped, which is sound because implication is monotone.
    """
    tbit = 1 << target
    positions = tuple(iter_bits(region_mask & ~tbit))
    found: list[int] = []
    for size in range(1, len(positions) + 1):
        for combo in combinations(positions, size):
            amask = 0
            for pos in combo:
                amask |= 1 << pos
            if any(g & amask == g for g in found):
                continue
            if closure_mask(base, amask) & tbit:
                found.append(amask)
    return found


def critical_base(base: ImplicationalBase) -> ImplicationalBase:
    """The unique irredundant base of minimal generators equivalent to `base`.

    Every critical generator of a conclusion is contained in some input
    premise for that conclusion, so scanning inside the input premises is
    complete.  Output is ordered by conclusion position, then by premise.
    """
    _require_acyclic(base)
    size_guard(base.dimension, PREMISE_GUARD, "premise")
    ground = base.ground
    close = partial(closure_mask, base)
    kept: set[tuple[int, int]] = set()
    for imp in base.implications:
        target = imp.conclusion
        for amask in _mingens_within(base, imp.premise.mask, target):
            if (amask, target) in kept:
                continue
            if not _is_redundant_mask(close, amask, target):
                kept.add((amask, target))
    implications = [
        Implication(ElementSet(ground, amask), target)
        for amask, target in sorted(kept, key=lambda k: (k[1], sort_key_lex(k[0])))
    ]
    return ImplicationalBase(ground, implications)


def is_ranked_geometry(base: ImplicationalBase) -> bool:
    """True iff the closure space of `base` admits a ranked base.

    The space is ranked exactly when its critical base is, so the test
    reduces to rank-checking that one base.
    """
    return isinstance(compute_rank(critical_base(base)), RankFunction)
