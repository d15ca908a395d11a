"""Recovering the critical base from a family of meet-irreducible sets.

The input family induces a closure operator (intersect all members
containing the query set).  Each member is first assigned to the unique
element j whose addition keeps it closed; the members assigned to j are
the maximal closed sets avoiding j.  The premises of the recovered rules
concluding in j are then exactly the minimal transversals of the
complement hypergraph of that family, restricted to the elements that
can take part in such a premise.
"""

from __future__ import annotations

import logging
import warnings
from functools import reduce
from operator import and_
from typing import Iterable, Iterator, Mapping

from .ccm import meet_irreducibles
from .errors import (
    DuplicateSetWarning,
    InputError,
    NotConvexGeometryError,
    NotRankedError,
    VerificationError,
)
from .hypergraphs import DualizationBackend, Hypergraph, induced, minimal_transversals
from .implications import Implication, ImplicationalBase
from .sets import ElementSet, GroundSet, Immutable, iter_bits

logger = logging.getLogger(__name__)


class MeetFamily(Immutable):
    """A duplicate-free family of subsets asserted to be meet-irreducible.

    No member may equal the whole ground set.  Members may be comparable;
    genuine meet-irreducibility within the family's intersection closure
    is only validated on demand (see ``strict`` in
    :func:`recover_critical_base`), since the input is normally trusted.
    """

    __slots__ = ("ground", "meets")

    def __init__(self, ground: GroundSet, meets: Iterable[ElementSet] = ()):
        full = (1 << ground.size) - 1
        kept: list[ElementSet] = []
        seen: set[int] = set()
        dropped = 0
        for m in meets:
            if m.universe is not ground and m.universe != ground:
                raise InputError(f"member {m!r} lives on a different ground set")
            if m.mask == full:
                raise InputError(
                    "the full ground set cannot be a meet-irreducible member"
                )
            if m.mask in seen:
                dropped += 1
                continue
            seen.add(m.mask)
            kept.append(m)
        if dropped:
            warnings.warn(
                f"dropped {dropped} duplicate member set(s)",
                DuplicateSetWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "meets", tuple(kept))

    def __len__(self) -> int:
        return len(self.meets)

    def __iter__(self) -> Iterator[ElementSet]:
        return iter(self.meets)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MeetFamily)
            and self.ground == other.ground
            and frozenset(self.meets) == frozenset(other.meets)
        )

    def __hash__(self) -> int:
        return hash((self.ground, frozenset(self.meets)))

    def __repr__(self) -> str:
        return f"MeetFamily({self.ground!r}, {len(self.meets)} members)"


def closure_from_meets_mask(m: MeetFamily, smask: int) -> int:
    """Intersection of the top with every member containing the mask."""
    result = (1 << m.ground.size) - 1
    for member in m.meets:
        mm = member.mask
        if smask & ~mm == 0:
            result &= mm
    return result


def closure_from_meets(m: MeetFamily, s: ElementSet) -> ElementSet:
    """Closure of `s` in the system generated by the family.

    The whole ground set is returned when no member contains `s`.
    """
    if s.universe is not m.ground and s.universe != m.ground:
        raise InputError("set lives on a different ground set than the family")
    return ElementSet(m.ground, closure_from_meets_mask(m, s.mask))


def _extension_closures(m: MeetFamily, xmask: int) -> list[int]:
    """Closure of `xmask` plus a, for every position a, in one family pass.

    Entry a is the intersection of the members containing both `xmask`
    and a, or the whole ground set when none does; positions inside
    `xmask` get the whole ground set.
    """
    n = m.ground.size
    closures = [(1 << n) - 1] * n
    for member in m.meets:
        mm = member.mask
        if not xmask & ~mm:
            for a in iter_bits(mm & ~xmask):
                closures[a] &= mm
    return closures


def _closed_extensions(m: MeetFamily, xmask: int) -> int:
    """Mask of the positions outside `xmask` whose addition keeps it closed."""
    closures = _extension_closures(m, xmask)
    outside = iter_bits(~xmask & ((1 << m.ground.size) - 1))
    return sum(1 << a for a in outside if closures[a] == xmask | 1 << a)


def partition_meets(m: MeetFamily) -> dict[int, tuple[ElementSet, ...]]:
    """Assign every member to the unique j whose addition keeps it closed.

    Returns, for each element position, the members so assigned (the
    maximal closed sets avoiding that element).  A member with zero or
    several candidate elements disproves the convex-geometry assumption
    and raises :class:`NotConvexGeometryError`.
    """
    n = m.ground.size
    labels = m.ground.labels
    families: dict[int, list[ElementSet]] = {j: [] for j in range(n)}
    for member in m.meets:
        candidates = list(iter_bits(_closed_extensions(m, member.mask)))
        if len(candidates) != 1:
            named = ", ".join(labels[j] for j in candidates) or "none"
            raise NotConvexGeometryError(
                f"not a convex-geometry meet family: member {member!r} stays "
                f"closed under {len(candidates)} single-element extensions "
                f"({named}), expected exactly one"
            )
        families[candidates[0]].append(member)
    return {j: tuple(fam) for j, fam in families.items()}


def predecessors(
    m: MeetFamily, j: int, j_up: Iterable[ElementSet]
) -> ElementSet:
    """Elements that can occur in a recovered premise concluding in `j`.

    An element qualifies when adding it together with `j` to some member
    avoiding both leaves a closed set.  An empty result with an empty
    `j_up` means `j` has no generators at all; that case is logged and
    yields the empty set.
    """
    j_up = tuple(j_up)
    if not j_up:
        logger.info(
            "element %r avoids no member; it has no generators",
            m.ground.labels[j],
        )
        return ElementSet.empty(m.ground)
    found = 0
    for member in j_up:
        found |= _closed_extensions(m, member.mask | 1 << j)
    return ElementSet(m.ground, found)


def complement_hypergraph(
    m: MeetFamily, j: int, j_up: Iterable[ElementSet]
) -> Hypergraph:
    """The hypergraph whose minimal transversals generate `j`.

    Edges are the complements of the members avoiding `j`; vertices are
    the elements missing from at least one such member.  `j` itself is
    removed from the vertices and from every edge, since no generator of
    `j` may contain it.
    """
    j_up = tuple(j_up)
    if not j_up:
        raise InputError("complement hypergraph needs at least one avoiding member")
    u = m.ground
    full = (1 << u.size) - 1
    jbit = 1 << j
    common = full
    for member in j_up:
        common &= member.mask
    vertices = ElementSet(u, (full & ~common) & ~jbit)
    edges = [ElementSet(u, (full & ~member.mask) & ~jbit) for member in j_up]
    return Hypergraph(vertices, edges)


def recovered_premises(
    m: MeetFamily,
    j: int,
    j_up: tuple[ElementSet, ...],
    backend: DualizationBackend | None = None,
) -> Iterator[int]:
    """Stream the premise masks of the recovered rules concluding in `j`.

    `j_up` is the block of ``partition_meets(m)`` for `j`, the members
    avoiding `j`; with none, `j` has no rules.  The premises are the
    minimal transversals of the complement hypergraph restricted to the
    possible premise elements, in the order of the transversal stream.
    """
    if not j_up:
        return
    pred = predecessors(m, j, j_up)
    restricted = induced(complement_hypergraph(m, j, j_up), pred)
    for t in minimal_transversals(restricted, backend):
        yield t.mask


def iter_recovered_implications(
    m: MeetFamily,
    backend: DualizationBackend | None = None,
    partition: Mapping[int, tuple[ElementSet, ...]] | None = None,
) -> Iterator[Implication]:
    """Stream the implications of the recovered base, conclusion by conclusion.

    For each element j, the premises of :func:`recovered_premises` are
    emitted as rules concluding in j, ordered by conclusion position.
    """
    if partition is None:
        partition = partition_meets(m)
    u = m.ground
    for j in range(u.size):
        for mask in recovered_premises(m, j, partition.get(j, ()), backend):
            yield Implication(ElementSet(u, mask), j)


def recover_critical_base(
    m: MeetFamily,
    verify: bool = False,
    strict: bool = False,
    backend: DualizationBackend | None = None,
) -> ImplicationalBase:
    """Build the unit-minimum base whose meet-irreducible family is `m`.

    The input must be the meet family of a ranked convex geometry; that
    assumption is not decidable here in polynomial time, so by default it
    is trusted.  With ``strict`` every member is first checked to be
    genuinely meet-irreducible within the family's intersection closure.
    With ``verify`` the meets of the recovered base are recomputed and
    compared with `m`, raising :class:`VerificationError` on mismatch.
    """
    if strict:
        # A member is reducible when it equals the intersection of the members
        # strictly above it, which is that of its extensions' closures.
        bogus = [
            member for member in m.meets
            if reduce(and_, _extension_closures(m, member.mask)) == member.mask
        ]
        if bogus:
            raise InputError(
                f"{len(bogus)} member(s) are not meet-irreducible in the family's "
                f"intersection closure, e.g. {bogus[0]!r}"
            )
    base = ImplicationalBase(m.ground, tuple(iter_recovered_implications(m, backend)))
    if verify:
        try:
            recomputed = {meet.mask for _, meet in meet_irreducibles(base, backend)}
        except NotRankedError as exc:
            raise VerificationError(
                f"recovered base admits no rank function ({exc}); the input "
                "was not the meet family of a ranked convex geometry"
            ) from exc
        if recomputed != {meet.mask for meet in m.meets}:
            raise VerificationError(
                "recovered base does not reproduce the input meet family; "
                "the input was not the meet family of a ranked convex geometry"
            )
    return base
