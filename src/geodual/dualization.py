"""Antichains of closed sets, and the embedding of lattice dualization
into meet-family identification.

Deciding whether two antichains split a closure lattice into a disjoint
ideal and filter is coNP-complete in general; the checker,
``oracle.check_dual``, is a deliberate brute force over all closed sets,
a test harness rather than a solver.  The embedding extends the base by
one fresh element implied by every negative set; the meet family of the
extended base then encodes the answer.
"""

from __future__ import annotations

import warnings
from typing import Iterable

from .errors import InputError, PreconditionError, RelabelWarning
from .implications import Implication, ImplicationalBase, is_closed_mask
from .sets import ElementSet, GroundSet, Immutable
from .sid import MeetFamily


class Antichain(Immutable):
    """A family of closed sets of one base, pairwise incomparable.

    Validation is strict at construction so the duality test is never
    applied to malformed inputs.
    """

    __slots__ = ("base", "sets")

    def __init__(self, base: ImplicationalBase, sets: Iterable[ElementSet]):
        sets = tuple(sets)
        for s in sets:
            if s.universe is not base.ground and s.universe != base.ground:
                raise InputError(f"antichain member {s!r} has a foreign universe")
            if not is_closed_mask(base, s.mask):
                raise InputError(f"antichain member {s!r} is not closed")
        for i, s in enumerate(sets):
            for t in sets[i + 1 :]:
                if s.mask & ~t.mask == 0 or t.mask & ~s.mask == 0:
                    raise InputError(
                        f"antichain members {s!r} and {t!r} are comparable"
                    )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "sets", sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def masks(self) -> tuple[int, ...]:
        return tuple(s.mask for s in self.sets)

    def __repr__(self) -> str:
        return f"Antichain({len(self.sets)} sets)"


def check_same_base(base: ImplicationalBase, chain: Antichain, which: str) -> None:
    if chain.base is not base and chain.base != base:
        raise InputError(f"{which} antichain was built against a different base")


def fresh_label(ground: GroundSet) -> str:
    """``z`` if unused, else the first free ``z<k>``; warns on renaming."""
    if "z" not in ground.index:
        return "z"
    k = 1
    while f"z{k}" in ground.index:
        k += 1
    label = f"z{k}"
    warnings.warn(
        f"label 'z' already taken; using {label!r} for the fresh element",
        RelabelWarning,
        stacklevel=2,
    )
    return label


def reduce_dual_to_cmi(
    base: ImplicationalBase,
    bplus: Antichain,
    bminus: Antichain,
    meets: MeetFamily | None = None,
) -> tuple[ImplicationalBase, MeetFamily]:
    """Embed a duality question into a meet-family identification question.

    Returns the base extended by a fresh element z implied by every
    negative set, together with the candidate family: every known meet
    with z added, plus the positive sets verbatim.  The two parts of that
    union are disjoint, and the candidate family is the true meet family
    of the extended base exactly when the antichains are dual.

    `base` must have singleton premises (its lattice is distributive);
    `meets` defaults to the brute-force meet family of `base`.
    """
    if base.dimension > 1:
        raise PreconditionError(
            "the embedding is defined for bases with singleton premises"
        )
    check_same_base(base, bplus, "positive")
    check_same_base(base, bminus, "negative")
    for a in bminus:
        if not a:
            raise InputError(
                "negative antichain members must be nonempty to become premises"
            )
    if meets is None:
        from .oracle import meets_brute

        meets = MeetFamily(base.ground, meets_brute(base))
    elif meets.ground != base.ground:
        raise InputError("meet family lives on a different ground set")

    ground = base.ground
    extended = GroundSet(ground.labels + (fresh_label(ground),))
    z = extended.size - 1
    zbit = 1 << z

    def rehost(mask: int) -> ElementSet:
        return ElementSet(extended, mask)

    implications = [
        Implication(rehost(imp.premise.mask), imp.conclusion)
        for imp in base.implications
    ]
    implications += [Implication(rehost(a.mask), z) for a in bminus]
    omega = ImplicationalBase(extended, implications)

    candidates = [rehost(m.mask | zbit) for m in meets]
    candidates += [rehost(p.mask) for p in bplus]
    return omega, MeetFamily(extended, candidates)

