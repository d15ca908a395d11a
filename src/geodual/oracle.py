"""Independent brute-force references and random instance generators.

Everything here exists to cross-check the streaming algorithms at desk
scale and is never on a hot path.  Exhaustive scans are guarded by hard
size limits; only the environment variable ``GEODUAL_GUARD_OVERRIDE=1``
lifts them.

Every exhaustive reference runs on one engine, and none calls the
kernels it checks.  Each subset filter is one strided write into a
subcube of the 2^n subsets: a rule P -> c clears the x holding P but
not c.  The closure of every subset comes from a table built from the
closed flags in n * 2^n steps by intersection alone.  Meets, joins,
minimal generators and the maximal closed sets avoiding a down-set read
that table; minimal transversals filter the 2^k vertex subsets the same
way.  Each call rebuilds its table, in well under a second at the guard.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

from .dualization import Antichain, check_same_base
from .errors import InputError, PreconditionError, size_guard
from .hypergraphs import Hypergraph
from .implications import (
    Implication,
    ImplicationalBase,
    closure_mask,
)
from .ranking import RankConflict, compute_rank
from .sets import (
    MAX_GROUND_SIZE,
    ElementSet,
    GroundSet,
    iter_bits,
    maximal_masks,
    sort_key_size_lex,
)
from .sid import MeetFamily

CLOSED_SET_GUARD = 20
TRANSVERSAL_GUARD = 16


# -- exhaustive references --------------------------------------------------


def _subcube(n: int, ones: int, zeros: int) -> tuple:
    """The index of the subsets x with `ones` in x and `zeros` outside it,
    in a ``(2,) * n`` array of all subsets whose axis n - 1 - a is bit a."""
    return tuple(
        1 if ones >> a & 1 else 0 if zeros >> a & 1 else slice(None)
        for a in reversed(range(n))
    )


def _closed_flags(base: ImplicationalBase) -> np.ndarray:
    """One flag per subset of the ground set, indexed by its mask: set
    where the subset satisfies every rule of `base`.  Each rule P -> c
    clears the subcube of the x holding P but not c."""
    n = base.ground.size
    size_guard(n, CLOSED_SET_GUARD, "ground set")
    flags = np.ones(1 << n, dtype=bool)
    cube = flags.reshape((2,) * n)
    for pmask, concl, _ in base._rules:
        cube[_subcube(n, pmask, 1 << concl)] = False
    return flags


def _closure_table(base: ImplicationalBase) -> tuple[np.ndarray, np.ndarray]:
    """The closed masks, ascending, and the closure of every subset.

    Entry x of the table starts as x where x is closed and as the full set
    elsewhere; one superset-AND pass per element then leaves in it the
    intersection of the closed sets containing x.  Cost n * 2^n.
    """
    flags = _closed_flags(base)
    n = base.ground.size
    closed = np.flatnonzero(flags).astype(np.uint32)
    table = np.full(flags.shape, (1 << n) - 1, dtype=np.uint32)
    table[closed] = closed
    for a in range(n):
        # axis 1 is bit a: row 0 holds the x without a, row 1 x | 1 << a
        pairs = table.reshape(-1, 2, 1 << a)
        pairs[:, 0] &= pairs[:, 1]
    return closed, table


#: Entry b is the byte b with its eight bits in reverse order.
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _sorted_masks(arr: np.ndarray) -> list[int]:
    """The masks of `arr`, below 2^64, in :func:`sort_key_size_lex` order.

    Between two sets of one size, the one holding the lowest position
    where they differ comes first.  Reversing the 64 bits of each mask
    (the bytes in reverse order, each byte read backwards) turns that
    position into the highest differing bit, so within a size the order
    is that of the reversed masks, descending: one `np.lexsort`.
    """
    masks = np.ascontiguousarray(arr, dtype=np.uint64)
    rev = _REVERSED_BYTES[masks.view(np.uint8)].reshape(-1, 8)[:, ::-1]
    rev = np.ascontiguousarray(rev).view(np.uint64).ravel()
    return masks[np.lexsort((~rev, np.bitwise_count(masks)))].tolist()


def closed_set_masks(base: ImplicationalBase) -> list[int]:
    """Masks of all closed sets, sorted by size then position sequence."""
    return _sorted_masks(np.flatnonzero(_closed_flags(base)))


def all_closed_sets(base: ImplicationalBase) -> tuple[ElementSet, ...]:
    """Every closed set of `base`, by exhaustive filtering of all subsets."""
    return tuple(ElementSet(base.ground, m) for m in closed_set_masks(base))


def family_meet_masks(family: Sequence[int], full: int) -> list[int]:
    """Members of an intersection-closed family with a unique cover.

    A member below the top is meet-irreducible exactly when the
    intersection of its proper supersets in the family differs from it.
    One scan of the family per member, so quadratic in the family.  The
    members are held as columns of 64-bit words, so any ground set fits.
    """
    members = sorted(set(family))
    columns = [
        np.array([m >> shift & 0xFFFFFFFFFFFFFFFF for m in members], dtype=np.uint64)
        for shift in range(0, max(full.bit_length(), 1), 64)
    ]
    out = []
    for i, m in enumerate(members):
        if m == full:
            continue
        # A proper superset is a larger integer, so it comes after m.
        tails = [(column[i + 1 :], column[i]) for column in columns]
        above = np.ones(len(members) - i - 1, dtype=bool)
        for tail, word in tails:
            above &= (tail & word) == word
        above = np.flatnonzero(above)
        if above.size and any(np.bitwise_and.reduce(t[above]) != w for t, w in tails):
            out.append(m)
    return sorted(out, key=sort_key_size_lex)


def _extensions(closed: np.ndarray, table: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """For each closed M, whether a lies outside M, and the closure of
    M + a (meaningful only where it does)."""
    bit = np.uint32(1 << a)
    return (closed & bit) == 0, table[closed | bit]


def meets_brute(base: ImplicationalBase) -> tuple[ElementSet, ...]:
    """The meet-irreducible closed sets, by cover analysis of the lattice.

    Every proper closed superset of a closed M contains M + a for some a
    outside M, hence the closure of M + a: so the intersection of M's
    proper closed supersets is the AND of those n closures, read from the
    closure table.  M is a meet exactly when that AND differs from M.
    Cost n * 2^n, under a second at the guard.
    """
    closed, table = _closure_table(base)
    above = np.full(closed.shape, (1 << base.ground.size) - 1, dtype=np.uint32)
    for a in range(base.ground.size):
        outside, grown = _extensions(closed, table, a)
        above[outside] &= grown[outside]
    return tuple(ElementSet(base.ground, m) for m in _sorted_masks(closed[above != closed]))


def joins_brute(base: ImplicationalBase) -> tuple[ElementSet, ...]:
    """The join-irreducible closed sets, cross-checked two ways.

    Computed as the closures of singletons; compared against the closed
    sets with a unique maximal proper closed subset.  A mismatch means
    the base is not standard and is reported as an error.

    The union of the proper closed subsets of a closed J is the set of
    x in J whose closure cl(x) is not J.  J has a unique lower cover
    exactly when the closure of that union differs from J: every proper
    closed subset lies under some lower cover, and two distinct lower
    covers already close to J.  One pass over the closed sets per element, on top of
    the n * 2^n table.
    """
    closed, table = _closure_table(base)
    n = base.ground.size
    closures = [int(table[1 << j]) for j in range(n)]
    singleton_closures = sorted(set(closures), key=sort_key_size_lex)
    union = np.zeros_like(closed)
    for j, closure in enumerate(closures):
        bit = np.uint32(1 << j)
        union[((closed & bit) != 0) & (closed != closure)] |= bit
    unique_pred = _sorted_masks(closed[table[union] != closed])
    # standard exactly when the element-to-closure map is a bijection onto
    # the unique-predecessor elements
    if len(singleton_closures) != len(closures) or singleton_closures != unique_pred:
        raise PreconditionError(
            "standardness violation: singleton closures do not match the "
            "unique-predecessor elements of the closure lattice one for one"
        )
    return tuple(ElementSet(base.ground, m) for m in singleton_closures)


def _minimal_subsets(flags: np.ndarray) -> np.ndarray:
    """The minimal flagged subsets, ascending, for flags over the 2^k
    subsets that stay set on every superset: the x whose flag is set
    while no x minus one element has it.  One pass per element, the step
    `_closure_table` takes, ORs into each x the flag of x - a."""
    below = np.zeros_like(flags)
    for a in range(flags.size.bit_length() - 1):
        below.reshape(-1, 2, 1 << a)[:, 1] |= flags.reshape(-1, 2, 1 << a)[:, 0]
    return np.flatnonzero(flags & ~below)


def mingens_brute(base: ImplicationalBase, target: int) -> tuple[ElementSet, ...]:
    """All minimal generators of `target`: the minimal nonempty x without
    `target` whose closure, read from the closure table, holds it."""
    _, table = _closure_table(base)
    tbit = 1 << target
    if tbit >> base.ground.size:  # outside the ground set: nothing implies it
        return ()
    found = _minimal_subsets((table & tbit) != 0)
    found = found[((found & tbit) == 0) & (found != 0)]
    return tuple(ElementSet(base.ground, m) for m in _sorted_masks(found))


def transversals_brute(h: Hypergraph) -> tuple[ElementSet, ...]:
    """All minimal transversals: the minimal x meeting every edge, after
    each edge clears the subcube of the x that miss it.

    The k vertices are renumbered 0..k-1, which keeps their order, so
    the subsets are sorted in that numbering and then mapped back.
    """
    positions = h.vertices.indices()
    k = len(positions)
    size_guard(k, TRANSVERSAL_GUARD, "vertex set")
    meets_all = np.ones(1 << k, dtype=bool)
    cube = meets_all.reshape((2,) * k)
    for e in h.edges:
        local = sum(1 << i for i, pos in enumerate(positions) if e.mask >> pos & 1)
        cube[_subcube(k, 0, local)] = False
    u = h.universe
    return tuple(
        ElementSet(u, sum(1 << positions[i] for i in iter_bits(m)))
        for m in _sorted_masks(_minimal_subsets(meets_all))
    )


def maximal_closed_avoiding(base: ImplicationalBase, avoid: ElementSet) -> tuple[ElementSet, ...]:
    """Maximal closed sets disjoint from `avoid`."""
    masks = positive_antichain_masks(base, [1 << a for a in avoid])
    return tuple(ElementSet(base.ground, m) for m in masks)


def positive_antichain_masks(base: ImplicationalBase, minus: Sequence[int]) -> list[int]:
    """The maximal closed sets containing no mask of `minus`, in size-lex
    order: the positive antichain dual to the negative antichain `minus`.

    Flags over all subsets mark the subcube of supersets of each mask of
    `minus`.  A closed C without a flag is maximal when, for each a
    outside C, the closure of C + a has one.
    """
    closed, table = _closure_table(base)
    n = base.ground.size
    hit = np.zeros(table.shape, dtype=bool)
    cube = hit.reshape((2,) * n)
    for m in minus:  # read as an index into the subsets: IndexError past them
        cube[_subcube(n, range(1 << n)[m], 0)] = True
    keep = ~hit[closed]
    for a in range(n):
        outside, grown = _extensions(closed, table, a)
        keep &= ~outside | hit[grown]
    return _sorted_masks(closed[keep])


def check_dual(base: ImplicationalBase, bplus: Antichain, bminus: Antichain) -> bool:
    """True iff `bplus` lists exactly the maximal closed sets containing
    no member of `bminus`.

    Equivalently, the ideal of `bplus` and the filter of `bminus` are
    disjoint and together cover all closed sets.  Decided by brute force
    over the whole lattice, so intended for small instances only.
    """
    check_same_base(base, bplus, "positive")
    check_same_base(base, bminus, "negative")
    expected = positive_antichain_masks(base, bminus.masks())
    return sorted(bplus.masks(), key=sort_key_size_lex) == expected


def is_meet_family(base: ImplicationalBase, m: MeetFamily) -> bool:
    """True iff `m` is exactly the meet-irreducible family of the base.

    Decided against the brute-force meet family; intended for small
    instances.
    """
    if m.ground != base.ground:
        raise InputError("meet family lives on a different ground set")
    return {meet.mask for meet in m.meets} == {s.mask for s in meets_brute(base)}


def intersection_closure(ground: GroundSet, sets: Iterable[ElementSet]) -> list[int]:
    """Masks of the closure under intersection of `sets`, plus the top,
    grown one generator at a time."""
    family = {(1 << ground.size) - 1}
    for s in sets:
        family |= {s.mask & f for f in family}
    return sorted(family, key=sort_key_size_lex)


def rank_exists_brute(base: ImplicationalBase) -> bool:
    """Exhaustive search for any rank function with values in 0..n.

    Backtracks over the elements occurring in implications, component by
    component in constraint order, trying every value and pruning on the
    first violated constraint.  Values 0..n suffice: any rank function
    can be shifted, per component, into that window.
    """
    n = base.ground.size
    constraints: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    involved: set[int] = set()
    for pmask, concl, _ in base._rules:
        for a in iter_bits(pmask):
            constraints[a].append((concl, -1))
            constraints[concl].append((a, +1))
            involved.add(a)
            involved.add(concl)
    if not involved:
        return True

    # visit order: breadth-first over the constraint graph, so each new
    # element is usually pinned by an already-assigned neighbor
    order: list[int] = []
    seen: set[int] = set()
    for seed in sorted(involved):
        if seed in seen:
            continue
        queue = [seed]
        seen.add(seed)
        while queue:
            x = queue.pop(0)
            order.append(x)
            for y, _ in constraints[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)

    # Backtracking on an explicit stack, so that any ground set stays within
    # the recursion limit: tried[i] is the next value order[i] tries.
    assignment: dict[int, int] = {}
    tried = [0] * len(order)
    i = 0
    while 0 <= i < len(order):
        x = order[i]
        for value in range(tried[i], n + 1):
            if all(assignment.get(y, value + d) == value + d for y, d in constraints[x]):
                assignment[x] = value
                tried[i] = value + 1
                i += 1
                break
        else:
            tried[i] = 0
            i -= 1
            if i >= 0:
                del assignment[order[i]]
    return i == len(order)


# -- random instance generators ---------------------------------------------


def _labels(n: int) -> GroundSet:
    return GroundSet(str(i + 1) for i in range(n))


def _check_generator_bounds(max_elements: int, max_implications: int = 0) -> None:
    if max_elements < 2:
        raise PreconditionError(f"max_elements must be at least 2, got {max_elements}")
    if max_elements > MAX_GROUND_SIZE:
        raise PreconditionError(
            f"max_elements must be at most {MAX_GROUND_SIZE}, got {max_elements}"
        )
    if max_implications < 0:
        raise PreconditionError(
            f"max_implications must be at least 0, got {max_implications}"
        )


def _random_mask(rng: random.Random, pool: Sequence[int], cap: int) -> int:
    """The mask of 1 to `cap` distinct positions drawn from `pool`."""
    return sum(1 << pos for pos in rng.sample(pool, rng.randint(1, min(cap, len(pool)))))


def random_ranked_base(
    rng: random.Random,
    max_elements: int = 12,
    max_implications: int = 30,
) -> ImplicationalBase:
    """A random base that admits a rank function by construction.

    Elements are split into nonempty rank levels; every implication takes
    a nonempty premise inside one level and concludes one level below, so
    the base is acyclic and, as in :func:`random_acyclic_base`, standard.
    """
    _check_generator_bounds(max_elements, max_implications)
    n = rng.randint(2, max_elements)
    ground = _labels(n)
    parts = rng.randint(2, min(n, 5))
    positions = list(range(n))
    rng.shuffle(positions)
    cuts = [0, *sorted(rng.sample(range(1, n), parts - 1)), n]
    levels = [positions[start:stop] for start, stop in zip(cuts, cuts[1:])]
    lo = 0 if n <= 7 else n - 6
    count = rng.randint(min(lo, max_implications), max_implications)
    chosen: set[tuple[int, int]] = set()
    for _ in range(count):
        i = rng.randrange(len(levels) - 1)
        chosen.add((_random_mask(rng, levels[i + 1], 3), rng.choice(levels[i])))
    return ImplicationalBase(
        ground, [Implication(ElementSet(ground, p), c) for p, c in sorted(chosen)]
    )


def random_acyclic_base(
    rng: random.Random,
    max_elements: int = 10,
    max_implications: int = 20,
) -> ImplicationalBase:
    """A random acyclic base: nonempty premises sit above their conclusion
    in a random topological order.  It is standard: no premise is empty,
    so the empty set is closed, and every rule concludes below its
    premise, so cl(x) - x holds only elements below x and no rule
    concluding x fires in it; any other rule that fires there concludes
    inside the closed cl(x), so not x.
    """
    _check_generator_bounds(max_elements, max_implications)
    n = rng.randint(2, max_elements)
    ground = _labels(n)
    topo = list(range(n))
    rng.shuffle(topo)  # topo[i] is the i-th element bottom-up
    count = rng.randint(0, max_implications)
    chosen: set[tuple[int, int]] = set()
    for _ in range(count):
        ci = rng.randrange(n - 1)
        chosen.add((_random_mask(rng, topo[ci + 1 :], 3), topo[ci]))
    return ImplicationalBase(
        ground, [Implication(ElementSet(ground, p), c) for p, c in sorted(chosen)]
    )


def random_distributive_base(rng: random.Random, max_elements: int = 8) -> ImplicationalBase:
    """A random acyclic base with singleton premises."""
    _check_generator_bounds(max_elements)
    n = rng.randint(2, max_elements)
    ground = _labels(n)
    topo = list(range(n))
    rng.shuffle(topo)
    chosen: set[tuple[int, int]] = set()
    for _ in range(rng.randint(0, 2 * n)):
        ci = rng.randrange(n - 1)
        concl = topo[ci]
        src = rng.choice(topo[ci + 1 :])
        chosen.add((1 << src, concl))
    return ImplicationalBase(
        ground, [Implication(ElementSet(ground, p), c) for p, c in sorted(chosen)]
    )


def random_hypergraph(
    rng: random.Random, max_vertices: int = 10, max_edges: int = 12
) -> Hypergraph:
    """A random hypergraph; empty edges appear with small probability."""
    n = rng.randint(1, max_vertices)
    ground = _labels(n)
    vertices = ElementSet.full(ground)
    edges = []
    for _ in range(rng.randint(0, max_edges)):
        if rng.random() < 0.03:
            edges.append(ElementSet.empty(ground))
            continue
        edges.append(ElementSet(ground, _random_mask(rng, range(n), 4)))
    return Hypergraph(vertices, edges)


def random_antichain_families(
    base: ImplicationalBase, rng: random.Random, dual: bool = True
) -> tuple[list[ElementSet], list[ElementSet]]:
    """A pair (plus, minus) of antichains of closed sets of `base`.

    With ``dual=True`` the pair satisfies the lattice duality; otherwise
    one maximal set is removed from the positive side, which always
    breaks it.
    """
    u = base.ground
    n = u.size
    minus_masks: set[int] = set()
    for _ in range(rng.randint(1, 3)):
        minus_masks.add(closure_mask(base, _random_mask(rng, range(n), n)))
    minus = maximal_masks(m for m in minus_masks if m != 0)
    plus = positive_antichain_masks(base, minus)
    if not dual:
        drop = rng.randrange(len(plus))
        plus = plus[:drop] + plus[drop + 1 :]
    return (
        [ElementSet(u, m) for m in plus],
        [ElementSet(u, m) for m in minus],
    )


def perturb_until_unranked(rng: random.Random, base: ImplicationalBase) -> ImplicationalBase:
    """Add random implications to `base` until no rank function exists,
    giving up after 200 tries."""
    n = base.ground.size
    current = base
    for _ in range(200):
        if isinstance(compute_rank(current), RankConflict):
            return current
        concl = rng.randrange(n)
        pmask = _random_mask(rng, [p for p in range(n) if p != concl], 3)
        if any(r[:2] == (pmask, concl) for r in current._rules):
            continue
        current = ImplicationalBase(
            current.ground,
            list(current.implications)
            + [Implication(ElementSet(current.ground, pmask), concl)],
        )
    raise PreconditionError("failed to perturb the base into an unranked one")
