"""Minimal generators, criticality, and the critical base.

Every acyclic standard closure space has a unique irredundant base made
of minimal generators, and that base has minimum size among unit bases.
It is computed here by shrinking every input premise to one minimal
generator of the rule's conclusion and keeping the ones that no other
generator can replace.  The closures this takes per rule grow linearly
with its premise, so premises of any width are accepted.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .errors import PreconditionError
from .implications import (
    Implication,
    ImplicationalBase,
    closure_mask,
    is_acyclic,
)
from .ranking import RankFunction, compute_rank
from .sets import ElementSet, Record, iter_bits, sort_key_lex


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


def critical_base(base: ImplicationalBase) -> ImplicationalBase:
    """The unique irredundant base of minimal generators equivalent to `base`.

    Each input rule Q -> b is shrunk to one minimal generator of b inside
    Q, dropping the elements of Q in ascending position whenever b stays
    in the closure, and that generator is kept unless it is redundant.
    Output is ordered by conclusion position, then by premise.

    The kept premises are every critical (minimal, not redundant)
    generator G of every b.  S = cl(G) - b holds G but not b, so S is not
    closed, and some rule fires in S; its conclusion lies in cl(G) but
    not in S, so it is a rule Q -> b with Q in S.  Each a in G lies in Q,
    or else b would be in cl(cl(G) - a - b) and G redundant; so G is in
    Q.  Any other minimal generator of b in Q misses some a in G, which
    makes G redundant the same way; so the shrinking of Q returns exactly
    G.  The argument does not use acyclicity.
    """
    _require_acyclic(base)
    ground = base.ground
    close = partial(closure_mask, base)
    kept: set[tuple[int, int]] = set()
    for imp in base.implications:
        target, amask = imp.conclusion, imp.premise.mask
        tbit = 1 << target
        for x in iter_bits(amask):
            if close(amask & ~(1 << x)) & tbit:
                amask &= ~(1 << x)
        if (amask, target) not in kept and not _is_redundant_mask(close, amask, target):
            kept.add((amask, target))
    implications = [
        Implication(ElementSet(ground, amask), target)
        for amask, target in sorted(kept, key=lambda k: (k[1], sort_key_lex(k[0])))
    ]
    return ImplicationalBase(ground, implications)


def is_ranked_geometry(base: ImplicationalBase) -> bool:
    """True iff the closure space of `base` admits a ranked base.

    The space is ranked exactly when its critical base is, so the test
    reduces to rank-checking that one base.  One way is immediate.  If
    rho ranks some base B of the space, each critical rule G -> b has G
    inside a rule Q -> b of B, since the argument of :func:`critical_base`
    holds for any base of the space; so rho ranks the critical base too.
    """
    return isinstance(compute_rank(critical_base(base)), RankFunction)
