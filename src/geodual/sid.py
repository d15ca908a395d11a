"""Recovering the critical base from a family of meet-irreducible sets.

The input family induces a closure operator (intersect all members
containing the query set).  Each member is first assigned to the unique
element j whose addition keeps it closed; the members assigned to j are
the maximal closed sets avoiding j.  The premises of the rules concluding
in j are then the minimal transversals of the complement hypergraph of
that family restricted to the elements that can take part in a premise,
dualized as one edge mask per member with no `Hypergraph` built.

Both the assignment and the restriction ask which sets stay closed.  They
are answered from an index of the family by element (``_index``): for
each element, the members containing it and the members missing it, as
bit masks over member positions.  The members containing a set X are
then the AND of the rows of its elements, and an element b lies in the
closure of X exactly when no member containing X misses b, so no query
scans the family.

That path is quadratic in the family.  `sid` first tries a cheaper one
(:func:`iter_recovered_base`): it guesses a rank function from a
sample of the partition, reads the premises off one level per element,
and keeps the guess only when `ccm`'s walk of the guessed base gives back
exactly the family.  On a miss it runs the path above, unchanged.
"""

from __future__ import annotations

import warnings
from itertools import compress
from typing import Iterable, Iterator, Mapping, NamedTuple

from .ccm import MeetsAvoiding, ranked
from .errors import (
    DuplicateSetWarning,
    InputError,
    NotConvexGeometryError,
    NotRankedError,
    VerificationError,
)
# `minimal_transversals` is not called here; perfbench/tracing.py wraps it by name.
from .hypergraphs import (
    _FLAGS,
    DualizationBackend,
    Hypergraph,
    minimal_transversals,
    transversal_masks,
)
from .implications import Implication, ImplicationalBase
from .ranking import RankFunction
from .sets import ElementSet, GroundSet, Immutable, bit_rows, iter_bits


class MeetFamily(Immutable):
    """A duplicate-free family of subsets asserted to be meet-irreducible.

    No member may equal the whole ground set.  Members may be comparable;
    a family that :func:`partition_meets` accepts is meet-irreducible.
    """

    __slots__ = ("ground", "meets", "_index")

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
        # The member index of `sid`, built on first use; see `_index`.
        object.__setattr__(self, "_index", None)

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
    """Intersection of the top with every member containing the mask, read
    from the family's index."""
    ix = _index(m)
    return _common(ix, _containing(ix, smask), (1 << m.ground.size) - 1)


def closure_from_meets(m: MeetFamily, s: ElementSet) -> ElementSet:
    """Closure of `s` in the system generated by the family.

    The whole ground set is returned when no member contains `s`.
    """
    if s.universe is not m.ground and s.universe != m.ground:
        raise InputError("set lives on a different ground set than the family")
    return ElementSet(m.ground, closure_from_meets_mask(m, s.mask))


class _Index(NamedTuple):
    """The family by element, in the vertical layout of Zaki's Eclat.

    Bit i of ``cont[a]`` says that member i contains element a, and
    ``miss[a]`` holds the members that do not; ``members`` are the member
    masks, in family order (``_index``) or by size (the guess of
    :func:`_checked_guess`).
    """

    members: tuple[int, ...]
    cont: list[int]
    miss: list[int]


def _index(m: MeetFamily) -> _Index:
    """The index of `m`, built on first use and kept on the family.

    ``cont`` is the family transposed by :func:`~geodual.sets.bit_rows`,
    at C speed in |F| times n binary digits, and ``miss`` complements
    each row within the members.
    """
    ix = m._index
    if ix is None:
        members = tuple(member.mask for member in m.meets)
        cont = bit_rows(members, 0, m.ground.size)
        everyone = (1 << len(members)) - 1
        ix = _Index(members, cont, [everyone ^ c for c in cont])
        object.__setattr__(m, "_index", ix)
    return ix


def _containing(ix: _Index, xmask: int) -> int:
    """The members containing `xmask`, as a mask over member positions.

    That is the AND of the rows of the elements of `xmask`.  When fewer
    elements lie outside `xmask` than inside, the OR of their complement
    rows is tried first: a member containing `xmask` misses some element
    outside it, since none is the whole ground set, so the OR holds every
    such member, and they are found by a subset test per candidate when
    there are fewer candidates than rows to AND.  The OR stops as soon as
    it holds as many candidates as there are rows.  Near-full sets are the
    common query on wide grounds: without this branch, `sid` on the 4 096
    Boolean coatoms took 17.8 s instead of 0.17 s in process, and on the
    meets of the 4 096-element L2 w2048 base 19.3 s instead of 0.19 s.
    """
    n = len(ix.cont)
    inside = xmask.bit_count()
    if 2 * inside > n:
        candidates = 0
        for a in iter_bits(((1 << n) - 1) ^ xmask):
            candidates |= ix.miss[a]
            if candidates.bit_count() >= inside:
                break
        else:
            members = ix.members
            return sum(1 << i for i in iter_bits(candidates) if not xmask & ~members[i])
    found = (1 << len(ix.members)) - 1
    for a in iter_bits(xmask):
        found &= ix.cont[a]
    return found


def _common(ix: _Index, s: int, within: int) -> int:
    """The elements of `within` that every member of the mask `s` contains:
    those whose complement row misses `s`, one AND per element of `within`."""
    return sum(1 << b for b in iter_bits(within) if not s & ix.miss[b])


def partition_meets(m: MeetFamily) -> dict[int, tuple[ElementSet, ...]]:
    """Assign every member to the one element its unique cover adds.

    Returns, for each element position, the members so assigned (the
    maximal closed sets avoiding that element).  For each member M,
    ``added`` is what the members strictly above it add to M: their
    intersection, or the ground set if none, minus M.  That intersection
    lies inside every closed set strictly above M.  So when it adds one
    element j, M plus j is the only closed single-element extension of M;
    when it adds more, there is none; when it adds nothing, M is the
    intersection of the members above it.  A member to which the members
    above it add no element or several disproves the convex-geometry
    assumption and raises :class:`NotConvexGeometryError`.

    When the partition returns, every member is meet-irreducible.  Let L
    be the family's intersection closure plus the ground set; each
    meet-irreducible X of L below the top, the intersection of the members
    containing it, is a member.  (1) For a member N irreducible in L,
    ``added`` is N's unique cover minus N, so N passes only when that cover
    adds one element.  (2) Then every cover in L adds one element: if a
    cover Y of X held new b != c, take M maximal in L with X in M and b
    not in M.  All above M holds b, so M is irreducible and, by (1),
    covered by M + b.  c is not in M, lest Y = cl(X + c) lie in M; yet
    Y = cl(X + b) lies in M + b.  (3) ``added`` is empty iff M is the
    intersection of the members above it iff M is meet-reducible in L.
    """
    ix = _index(m)
    full = (1 << m.ground.size) - 1
    families: dict[int, list[ElementSet]] = {j: [] for j in range(m.ground.size)}
    for i, member in enumerate(m.meets):
        above = _containing(ix, member.mask) ^ 1 << i
        added = _common(ix, above, full ^ member.mask)
        if not added:
            raise NotConvexGeometryError(
                f"not a convex-geometry meet family: member {member!r} is the "
                "intersection of the members above it"
            )
        if added & (added - 1):
            raise NotConvexGeometryError(
                f"not a convex-geometry meet family: member {member!r} has no "
                "closed one-element extension: the members above it add "
                f"{ElementSet(m.ground, added)!r}"
            )
        families[added.bit_length() - 1].append(member)
    return {j: tuple(fam) for j, fam in families.items()}


def predecessors(
    m: MeetFamily, j: int, j_up: Iterable[ElementSet]
) -> ElementSet:
    """Elements that can occur in a recovered premise concluding in `j`.

    An element a qualifies when X, a member of `j_up` plus `j` and a, is
    closed: every element outside X is missed by some member containing
    X, or, when none contains X, X is the whole ground set.  The test stops
    at the first element outside X that every member containing X
    contains, and skips the elements already found.
    """
    if not 0 <= j < m.ground.size:
        raise InputError(f"element position {j} outside the ground set")
    ix = _index(m)
    cont, miss = ix.cont, ix.miss
    full = (1 << m.ground.size) - 1
    found = 0
    for member in j_up:
        if member.universe is not m.ground and member.universe != m.ground:
            raise InputError(f"member {member!r} lives on a different ground set")
        xmask = member.mask | 1 << j
        outside = full ^ xmask
        s = _containing(ix, xmask)
        for a in iter_bits(outside & ~found):
            abit = 1 << a
            c = s & cont[a]
            if all(c & miss[b] for b in iter_bits(outside ^ abit)) if c else outside == abit:
                found |= abit
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
    if not 0 <= j < m.ground.size:
        raise InputError(f"element position {j} outside the ground set")
    j_up = tuple(j_up)
    keep = ((1 << m.ground.size) - 1) ^ 1 << j
    common = keep
    for member in j_up:
        if member.universe is not m.ground and member.universe != m.ground:
            raise InputError(f"member {member!r} lives on a different ground set")
        common &= member.mask
    edges = [ElementSet(m.ground, keep & ~member.mask) for member in j_up]
    return Hypergraph(ElementSet(m.ground, keep & ~common), edges)


def recovered_premises(
    m: MeetFamily,
    j: int,
    j_up: tuple[ElementSet, ...],
    backend: DualizationBackend | None = None,
) -> Iterator[int]:
    """Stream the premise masks of the recovered rules concluding in `j`.

    `j_up` is the block of ``partition_meets(m)`` for `j`, the members
    avoiding `j`; an empty block gives the empty premise.  The premises
    are the minimal transversals of the predecessors minus each member,
    the complement hypergraph restricted to the predecessors (which never
    hold `j`), in the order of :func:`transversal_masks`.
    """
    within = predecessors(m, j, j_up).mask
    yield from transversal_masks([within & ~x.mask for x in j_up], backend)


def iter_recovered_implications(
    m: MeetFamily,
    backend: DualizationBackend | None = None,
    partition: Mapping[int, tuple[ElementSet, ...]] | None = None,
) -> Iterator[Implication]:
    """Stream the implications of the recovered base, conclusion by conclusion.

    For each element j, the premises of :func:`recovered_premises` are
    emitted as rules concluding in j, ordered by conclusion position.

    Before the first rule, an element with an empty block raises
    :class:`NotConvexGeometryError`.  With the partition, this decides that
    `m` is the meet family of a convex geometry: its intersection closure L
    holds the empty set and has only one-element covers.  If a member
    avoids j, the members above a maximal such M all hold j, so M's added
    element is j: j's block is empty exactly when j lies in every member,
    so all blocks are nonempty exactly when L holds the empty set.  With
    the lemma of :func:`partition_meets` (every member is irreducible, every
    cover of L adds one element), L is then a convex geometry whose
    meet-irreducibles are the members.  Conversely, in a convex geometry
    each j has a maximal closed set avoiding j: a meet, in j's block.
    """
    if partition is None:
        partition = partition_meets(m)
    u = m.ground
    for j in range(u.size):
        if not partition.get(j):
            raise NotConvexGeometryError(
                f"not a convex-geometry meet family: element {u.labels[j]!r} "
                "lies in every member, so the empty set is not closed"
            )
    for j in range(u.size):
        for mask in recovered_premises(m, j, partition[j], backend):
            yield Implication(ElementSet(u, mask), j)


def _reproduces(base: ImplicationalBase, rho: RankFunction, masks: set[int]) -> bool:
    """Whether the meets of `base` are exactly the distinct masks `masks`.

    `rho` must be a valid rank function of `base`.  The walk of
    :class:`~geodual.ccm.MeetsAvoiding` streams each meet of `base` once,
    block by block; it stops at the first meet outside `masks`, or once
    more meets have come than `masks` holds, and the test passes when
    exactly ``len(masks)`` meets came, all of them in `masks`.
    """
    walk = MeetsAvoiding(base, rho)
    left = len(masks)
    for j in range(base.ground.size):
        for cmask, branches in walk(j):
            left -= len(branches)
            if left < 0 or not masks.issuperset(map(cmask.__or__, branches)):
                return False
    return not left


def _guessed_base(
    ix: _Index, above: list[int], ground: GroundSet
) -> tuple[ImplicationalBase, RankFunction] | None:
    """The base R read off the ranks that the constraints `above` give, and
    those ranks; None when the constraints have a cycle or a member misses
    two lowest-ranked elements.  An element that no member goes to is left
    to :func:`_reproduces`: if R passes, its layers rank a base of the
    geometry, so by the lemma of :func:`_checked_guess` each member goes to
    its own block, and no block of a convex geometry is empty.

    ``above[j]`` holds the elements that must rank above j.  Each element
    gets the length of the longest chain of constraints below it: the
    levels are peeled from the bottom, each the elements that nothing left
    must lie below.  Level by level, the members that hold every lower
    element and miss one of this level go to their one missing element
    here, j, and give j the edge of the level above minus the member.  The
    premises of j are the minimal transversals of its edges, in position
    order of j, so every premise element lies one rank above its
    conclusion and R is ranked by construction.
    """
    n = len(above)
    ranks, levels, left = [0] * n, [], (1 << n) - 1
    while left:
        held = 0
        for j in iter_bits(left):
            held |= above[j]
        level = left & ~held
        if not level:
            return None
        for j in iter_bits(level):
            ranks[j] = len(levels)
        levels.append(level)
        left ^= level
    members, miss = ix.members, ix.miss
    width = len(members)
    # The members holding every element of the levels peeled so far.
    inside = (1 << width) - 1
    edges: list[list[int]] = [[] for _ in range(n)]
    for level, up in zip(levels, [*levels[1:], 0]):
        here = 0
        for j in iter_bits(level):
            here |= miss[j]
        here &= inside
        inside ^= here
        flags = format(here, f"0{width}b")[::-1].encode().translate(_FLAGS)
        for x in compress(members, flags):
            low = level & ~x
            if low & (low - 1):
                return None
            if up:
                edges[low.bit_length() - 1].append(up & ~x)
    # The top level has no premises above it, and so no rules.
    rules = [
        Implication(ElementSet(ground, p), j)
        for j in range(n)
        if edges[j]
        for p in transversal_masks(edges[j])
    ]
    return ImplicationalBase(ground, rules), RankFunction(tuple(ranks))


def _checked_guess(m: MeetFamily) -> ImplicationalBase | None:
    """The critical base of `m`'s geometry, read off a guessed rank
    function that `ccm`'s walk confirms; None when no guess passes, or when
    the family fails the partition's test.

    Two facts make the guess possible.  Let ρ rank a base of a convex
    geometry, and let M be a maximal closed set avoiding j, a meet whose
    unique closed extension is M + j.

    *j is the unique lowest-ranked element missing from M* (the lemma).
    Let b ≠ j lie outside M, with ρ(b) ≤ ρ(j).  Close M + b rule by rule:
    M is closed, so each rule that fires has in its premise b or an
    element derived before, of rank at most ρ(b), and so concludes below
    ρ(b).  So no element of cl(M + b) outside M + b ranks as high as ρ(j),
    j is not in cl(M + b), and cl(M + b) is a closed set avoiding j
    strictly above M: impossible.

    *The premises of j are the minimal transversals of the level
    L = ρ⁻¹(ρ(j) + 1) minus each member of j's block, with no predecessor
    restriction.*  A set X ⊆ L meets every edge L − M exactly when it lies
    in no member M of j's block, so in no closed set avoiding j (each lies
    in a maximal one), so exactly when j ∈ cl(X): the minimal
    transversals are the minimal generators of j inside L.  ρ ranks the
    critical base too (see :func:`~geodual.critical.is_ranked_geometry`),
    so each critical generator of j lies in L.  Conversely, let G ⊆ L
    minimally generate j.  Closing G by the critical base derives only
    elements of rank at most ρ(j), so the rule that derives j has its
    premise, which lies in L, inside G, and by minimality it is G.  So the
    minimal transversals are exactly the critical premises of j.

    The guess runs these facts on a sample.  For each element a, the k
    largest members missing a go through the partition's test
    (`_containing`, then `_common`), and each member M so assigned to j
    puts every other element missing from M above j.
    :func:`_guessed_base` layers the elements by these constraints and
    reads a base R off the layers.  The constraints hold for every rank
    function of the geometry, but the layers need not be one, so
    :func:`_reproduces` checks R.  When the walk of R gives exactly the
    family, R is a base of the geometry, ranked by the layers ρ.  By the
    lemma, each member's block under ρ is then its own, and by the second
    fact, R's premises of j are the critical premises of j, in the order
    of :func:`~geodual.critical.critical_base`.  So R is the critical base,
    which is what :func:`iter_recovered_implications` streams on a ranked
    geometry's family (the paper's theorem).  k starts at 1 and doubles on
    a miss, up to the first attempt that has sampled every member, since a
    later one would repeat it.  A member that fails the test, an element in
    every member or an empty family returns None at once, so that the path
    of :func:`iter_recovered_implications` raises its own error.  Members
    go largest first: in family order the guess took 11 attempts on each
    sid-deep family (4-6 by size), 14 on L5 w8 and 16 on L6 w8 (4 and 5),
    and 8.0 s on L6 w8 against 0.14 s, in process on 2 cores.
    """
    n = m.ground.size
    members = sorted((member.mask for member in m.meets), key=int.bit_count, reverse=True)
    everyone = (1 << len(members)) - 1
    cont = bit_rows(members, 0, n)
    ix = _Index(tuple(members), cont, [everyone ^ c for c in cont])
    if not members or not all(ix.miss):
        return None
    full, masks = (1 << n) - 1, set(members)
    # Per element, the members missing it that are not sampled yet; the
    # members go by size, largest first, so these are its lowest bits.
    unsampled = list(ix.miss)
    above, sampled = [0] * n, 0
    k = 1
    while True:
        fresh = 0
        for a in range(n):
            row = unsampled[a]
            for _ in range(k - k // 2):
                low = row & -row
                fresh |= low
                row ^= low
            unsampled[a] = row
        fresh &= ~sampled
        sampled |= fresh
        for i in iter_bits(fresh):
            x = members[i]
            added = _common(ix, _containing(ix, x) ^ 1 << i, full ^ x)
            if not added or added & (added - 1):
                return None
            above[added.bit_length() - 1] |= full ^ x ^ added
        guess = _guessed_base(ix, above, m.ground)
        if guess is not None and _reproduces(*guess, masks):
            return guess[0]
        if sampled == everyone:
            return None
        k *= 2


def iter_recovered_base(m: MeetFamily) -> Iterator[Implication]:
    """Stream the rules of ``recover_critical_base(m)``, which `sid` prints.

    Nothing runs before the first rule is drawn.  The checked guess runs
    first (:func:`_checked_guess`); on a miss the rules are those of
    :func:`iter_recovered_implications`, streamed as it finds them, with
    its errors.
    """
    base = _checked_guess(m)
    if base is None:
        yield from iter_recovered_implications(m)
    else:
        yield from base.implications


def recover_critical_base(m: MeetFamily, verify: bool = False) -> ImplicationalBase:
    """Build the unit-minimum base whose meet-irreducible family is `m`.

    The input must be the meet family of a ranked convex geometry.  The
    checked guess (:func:`_checked_guess`) runs first; when it passes,
    the family is such a meet family and the base is its critical base,
    so the verification is already decided.  On a miss the base is that of
    :func:`iter_recovered_implications`, which checks the geometry and
    raises :class:`NotConvexGeometryError` on a family that fails; there
    rankedness is not decidable in polynomial time, so by default it is
    trusted.  With ``verify`` that base is ranked and its meets are
    compared with `m` by the guess's check (:func:`_reproduces`), raising
    :class:`VerificationError` when it has no rank or another family.
    """
    base = _checked_guess(m)
    if base is not None:
        return base
    base = ImplicationalBase(m.ground, tuple(iter_recovered_implications(m)))
    if verify:
        try:
            rho = ranked(base)
        except NotRankedError as exc:
            raise VerificationError(
                f"recovered base admits no rank function ({exc}); the input "
                "was not the meet family of a ranked convex geometry"
            ) from exc
        if not _reproduces(base, rho, {meet.mask for meet in m.meets}):
            raise VerificationError(
                "recovered base does not reproduce the input meet family; "
                "the input was not the meet family of a ranked convex geometry"
            )
    return base
