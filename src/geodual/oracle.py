"""Independent brute-force references and random instance generators.

Everything here exists to cross-check the streaming algorithms at desk
scale and is never on a hot path.  Exhaustive scans are guarded by hard
size limits; only the environment variable ``GEODUAL_GUARD_OVERRIDE=1``
lifts them.

The closed sets come from filtering all 2^n subsets by the rules; the
meets and joins from a closure table over the same subsets, built from
those flags in n * 2^n steps by intersection alone, which reaches the
20-element guard in well under a second.
"""

from __future__ import annotations

import os
import random
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError, SizeGuardError
from .hypergraphs import Hypergraph
from .implications import (
    Implication,
    ImplicationalBase,
    closure_mask,
    is_standard,
)
from .ranking import RankConflict, compute_rank
from .sets import (
    ElementSet,
    GroundSet,
    iter_bits,
    maximal_masks,
    sort_key_size_lex,
)

GUARD_ENV = "GEODUAL_GUARD_OVERRIDE"

CLOSED_SET_GUARD = 20
TRANSVERSAL_GUARD = 16


def _guard(value: int, limit: int, what: str) -> None:
    if value > limit and os.environ.get(GUARD_ENV) != "1":
        raise SizeGuardError(
            f"{what} of size {value} exceeds the brute-force guard of {limit}; "
            f"set {GUARD_ENV}=1 to override"
        )


# -- exhaustive references --------------------------------------------------


def _closed_flags(base: ImplicationalBase) -> np.ndarray:
    """One flag per subset of the ground set, indexed by its mask: set
    where the subset satisfies every rule of `base`."""
    n = base.ground.size
    _guard(n, CLOSED_SET_GUARD, "ground set")
    masks = np.arange(1 << n, dtype=np.uint32)
    keep = np.ones(masks.shape, dtype=bool)
    for pmask, concl, _ in base._rules:
        keep &= ((masks & pmask) != pmask) | ((masks >> concl) & 1).astype(bool)
    return keep


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
    u = base.ground
    return tuple(ElementSet(u, m) for m in closed_set_masks(base))


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
    u = base.ground
    return tuple(ElementSet(u, m) for m in _sorted_masks(closed[above != closed]))


def joins_brute(base: ImplicationalBase) -> tuple[ElementSet, ...]:
    """The join-irreducible closed sets, cross-checked two ways.

    Computed as the closures of singletons; compared against the closed
    sets with a unique maximal proper closed subset.  A mismatch means
    the base is not standard and is reported as an error.

    The upper covers of a closed C are the minimal sets among the
    closures of C + a, a outside C; a closed J has a unique lower cover
    when exactly one C has J among its upper covers.  One pass over the
    closed sets per pair of elements, so cost n^2 * (closed sets) on top
    of the n * 2^n table.
    """
    closed, table = _closure_table(base)
    n = base.ground.size
    closures = [int(table[1 << j]) for j in range(n)]
    singleton_closures = sorted(set(closures), key=sort_key_size_lex)
    grown = [_extensions(closed, table, a) for a in range(n)]
    lower_covers = np.zeros(1 << n, dtype=np.intp)
    for a, (outside_a, up_a) in enumerate(grown):
        # up_a is a cover of C unless a strictly smaller candidate exists;
        # equal candidates count once, at their lowest element
        cover = outside_a.copy()
        for b, (outside_b, up_b) in enumerate(grown):
            if b == a:
                continue
            below = (up_b & up_a) == up_b
            if b > a:
                below &= up_b != up_a
            cover &= ~(outside_b & below)
        lower_covers += np.bincount(up_a[cover], minlength=1 << n)
    unique_pred = _sorted_masks(np.flatnonzero(lower_covers == 1))
    # standard exactly when the element-to-closure map is a bijection onto
    # the unique-predecessor elements
    if len(singleton_closures) != len(closures) or singleton_closures != unique_pred:
        raise PreconditionError(
            "standardness violation: singleton closures do not match the "
            "unique-predecessor elements of the closure lattice one for one"
        )
    u = base.ground
    return tuple(ElementSet(u, m) for m in singleton_closures)


def mingens_brute(base: ImplicationalBase, target: int) -> tuple[ElementSet, ...]:
    """All minimal generators of `target`, by exhaustive subset filtering."""
    from itertools import combinations

    n = base.ground.size
    _guard(n, CLOSED_SET_GUARD, "ground set")
    tbit = 1 << target
    others = [p for p in range(n) if p != target]
    found: list[int] = []
    for size in range(1, n + 1):
        for combo in combinations(others, size):
            amask = 0
            for pos in combo:
                amask |= 1 << pos
            if any(g & amask == g for g in found):
                continue
            if closure_mask(base, amask) & tbit:
                found.append(amask)
    u = base.ground
    return tuple(ElementSet(u, m) for m in sorted(found, key=sort_key_size_lex))


def transversals_brute(h: Hypergraph) -> tuple[ElementSet, ...]:
    """All minimal transversals, by exhaustive subset filtering."""
    from itertools import combinations

    nverts = len(h.vertices)
    _guard(nverts, TRANSVERSAL_GUARD, "vertex set")
    edges = [e.mask for e in h.edges]
    positions = h.vertices.indices()
    found: list[int] = []
    for size in range(0, nverts + 1):
        for combo in combinations(positions, size):
            tmask = 0
            for pos in combo:
                tmask |= 1 << pos
            if any(t & tmask == t for t in found):
                continue
            if all(tmask & e for e in edges):
                found.append(tmask)
    u = h.universe
    return tuple(ElementSet(u, m) for m in sorted(found, key=sort_key_size_lex))


def maximal_closed_avoiding(base: ImplicationalBase, avoid: ElementSet) -> tuple[ElementSet, ...]:
    """Maximal closed sets disjoint from `avoid`, from the full lattice."""
    disjoint = (m for m in closed_set_masks(base) if not m & avoid.mask)
    return tuple(ElementSet(base.ground, m) for m in maximal_masks(disjoint))


def positive_antichain_masks(base: ImplicationalBase, minus: Sequence[int]) -> list[int]:
    """The maximal closed sets containing no mask of `minus`, in size-lex
    order: the positive antichain dual to the negative antichain `minus`."""
    closed = closed_set_masks(base)
    return maximal_masks(f for f in closed if not any(a & f == a for a in minus))


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

    assignment: dict[int, int] = {}

    def admissible(x: int, value: int) -> bool:
        for y, delta in constraints[x]:
            ry = assignment.get(y)
            if ry is not None and ry != value + delta:
                return False
        return True

    def search(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for value in range(n + 1):
            if admissible(x, value):
                assignment[x] = value
                if search(i + 1):
                    return True
                del assignment[x]
        return False

    return search(0)


# -- random instance generators ---------------------------------------------


def _labels(n: int) -> GroundSet:
    return GroundSet(str(i + 1) for i in range(n))


def _check_generator_bounds(max_elements: int, max_implications: int = 0) -> None:
    if max_elements < 2:
        raise PreconditionError(f"max_elements must be at least 2, got {max_elements}")
    if max_implications < 0:
        raise PreconditionError(
            f"max_implications must be at least 0, got {max_implications}"
        )


def _random_level_split(rng: random.Random, n: int, parts: int) -> list[list[int]]:
    positions = list(range(n))
    rng.shuffle(positions)
    cuts = sorted(rng.sample(range(1, n), parts - 1)) if parts > 1 else []
    levels = []
    prev = 0
    for cut in cuts + [n]:
        levels.append(positions[prev:cut])
        prev = cut
    return levels


def random_ranked_base(
    rng: random.Random,
    max_elements: int = 12,
    max_implications: int = 30,
) -> ImplicationalBase:
    """A random base that admits a rank function by construction.

    Elements are split into nonempty rank levels; every implication takes
    its premise inside one level and concludes one level below.
    Standardness is enforced by rejection, although ranked bases built
    this way always pass.
    """
    _check_generator_bounds(max_elements, max_implications)
    while True:
        n = rng.randint(2, max_elements)
        ground = _labels(n)
        parts = rng.randint(2, min(n, 5))
        levels = _random_level_split(rng, n, parts)
        lo = 0 if n <= 7 else n - 6
        count = rng.randint(min(lo, max_implications), max_implications)
        chosen: set[tuple[int, int]] = set()
        for _ in range(count):
            i = rng.randrange(len(levels) - 1)
            upper, lower = levels[i + 1], levels[i]
            psize = rng.randint(1, min(3, len(upper)))
            premise = 0
            for pos in rng.sample(upper, psize):
                premise |= 1 << pos
            chosen.add((premise, rng.choice(lower)))
        base = ImplicationalBase(
            ground,
            [Implication(ElementSet(ground, p), c) for p, c in sorted(chosen)],
        )
        if is_standard(base):
            return base


def random_acyclic_base(
    rng: random.Random,
    max_elements: int = 10,
    max_implications: int = 20,
) -> ImplicationalBase:
    """A random acyclic base: premises sit above their conclusion in a
    random topological order.  Standardness is enforced by rejection."""
    _check_generator_bounds(max_elements, max_implications)
    while True:
        n = rng.randint(2, max_elements)
        ground = _labels(n)
        topo = list(range(n))
        rng.shuffle(topo)  # topo[i] is the i-th element bottom-up
        count = rng.randint(0, max_implications)
        chosen: set[tuple[int, int]] = set()
        for _ in range(count):
            ci = rng.randrange(n - 1)
            concl = topo[ci]
            pool = topo[ci + 1 :]
            psize = rng.randint(1, min(3, len(pool)))
            premise = 0
            for pos in rng.sample(pool, psize):
                premise |= 1 << pos
            chosen.add((premise, concl))
        base = ImplicationalBase(
            ground,
            [Implication(ElementSet(ground, p), c) for p, c in sorted(chosen)],
        )
        if is_standard(base):
            return base


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
        size = rng.randint(1, min(4, n))
        mask = 0
        for pos in rng.sample(range(n), size):
            mask |= 1 << pos
        edges.append(ElementSet(ground, mask))
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
        size = rng.randint(1, n)
        smask = 0
        for pos in rng.sample(range(n), size):
            smask |= 1 << pos
        minus_masks.add(closure_mask(base, smask))
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
        pool = [p for p in range(n) if p != concl]
        psize = rng.randint(1, min(3, len(pool)))
        pmask = 0
        for pos in rng.sample(pool, psize):
            pmask |= 1 << pos
        if any(r[:2] == (pmask, concl) for r in current._rules):
            continue
        current = ImplicationalBase(
            current.ground,
            list(current.implications)
            + [Implication(ElementSet(current.ground, pmask), concl)],
        )
    raise PreconditionError("failed to perturb the base into an unranked one")
