"""Shared fixtures: the worked example systems used throughout the suite."""

import random
from functools import cache
from pathlib import Path

import pytest

from geodual import ElementSet, GroundSet, Implication, ImplicationalBase, implication
from geodual.implications import implication_graph
from geodual.sets import MAX_GROUND_SIZE, iter_bits

DATA = Path(__file__).parent / "data"


def make_base(labels, rules):
    """Build a base from ('a b', 'c') premise/conclusion label pairs."""
    ground = GroundSet(labels.split())
    imps = [implication(ground, premise.split(), concl) for premise, concl in rules]
    return ImplicationalBase(ground, imps)


def layered_base(levels, width, rules_per, premise_size, seed):
    """A layered ranked base: level i holds positions i*width..(i+1)*width-1,
    and each element below the top level gets `rules_per` rules whose
    premises are `premise_size` elements of the level above; repeated
    rules are kept once."""
    rng = random.Random(seed)
    ground = GroundSet(str(pos + 1) for pos in range(levels * width))
    rules = {}
    for level in range(levels - 1):
        upper = range((level + 1) * width, (level + 2) * width)
        for conclusion in range(level * width, (level + 1) * width):
            for _ in range(rules_per):
                premise = sum(1 << pos for pos in rng.sample(upper, premise_size))
                rules.setdefault((premise, conclusion))
    return ImplicationalBase(
        ground, [Implication(ElementSet(ground, p), c) for p, c in rules]
    )


def _levels(base):
    """A level per element such that every arc of the implication graph,
    premise element to conclusion, runs from a higher level to a lower one."""
    arcs = set(implication_graph(base))
    order = {}
    remaining = set(range(base.ground.size))
    rank = 0
    while remaining:
        sinks = {
            v
            for v in remaining
            if not any(u == v and w in remaining for (u, w) in arcs)
        }
        for v in sinks:
            order[v] = rank
        remaining -= sinks
        rank += 1
    return order


def _above(order, imp):
    """The elements that can pad the premise of `imp` without closing a
    cycle: those strictly above its conclusion, outside the premise."""
    return [
        x
        for x in range(len(order))
        if order[x] > order[imp.conclusion] and x not in imp.premise
    ]


def equivalent_perturbation(rng, base):
    """Reorder `base` and pad it with entailed superset-premise implications."""
    order = _levels(base)
    imps = list(base.implications)
    for imp in list(imps):
        candidates = _above(order, imp)
        if candidates and rng.random() < 0.7:
            extra = rng.choice(candidates)
            premise = ElementSet(base.ground, imp.premise.mask | 1 << extra)
            imps.append(Implication(premise, imp.conclusion))
    rng.shuffle(imps)
    return ImplicationalBase(base.ground, dict.fromkeys(imps))


def with_wide_premises(rng, base):
    """`base` plus, for each rule, an entailed rule whose premise is the
    rule's premise padded with a random subset of the elements above its
    conclusion, so one premise can hold several minimal generators."""
    order = _levels(base)
    imps = list(base.implications)
    for imp in base.implications:
        candidates = _above(order, imp)
        if candidates:
            pad = rng.sample(candidates, rng.randint(1, len(candidates)))
            premise = ElementSet(base.ground, imp.premise.mask | sum(1 << x for x in pad))
            imps.append(Implication(premise, imp.conclusion))
    return ImplicationalBase(base.ground, dict.fromkeys(imps))


def sets_of(base_or_ground, *label_groups):
    ground = getattr(base_or_ground, "ground", base_or_ground)
    return [ElementSet.from_labels(ground, labels.split()) for labels in label_groups]


def positions(mask):
    """The ascending positions of a mask: the reference lexicographic key."""
    return tuple(iter_bits(mask))


@cache
def widest_ground():
    """A ground set of the largest supported size, built once."""
    return GroundSet(str(pos) for pos in range(MAX_GROUND_SIZE))


def family(items):
    """Set family as comparable frozenset of index tuples."""
    return frozenset(s.indices() for s in items)


@pytest.fixture(autouse=True)
def _guards_in_force(monkeypatch):
    """The oracle's size guards hold in every test, even when the shell
    exports the override; a test that needs it sets it itself."""
    monkeypatch.delenv("GEODUAL_GUARD_OVERRIDE", raising=False)


@pytest.fixture
def data_dir():
    return DATA


@pytest.fixture
def crossed():
    """Unrankable five-element system; its critical base is itself."""
    return make_base(
        "1 2 3 4 5",
        [("4", "1"), ("5", "2"), ("3", "1"), ("3", "2"), ("4 5", "3")],
    )


@pytest.fixture
def layered():
    """Ranked three-level system with top element j."""
    return make_base("1 2 3 4 5 j", [("1 2", "4"), ("3", "5"), ("4 5", "j")])


@pytest.fixture
def uneven():
    """Acyclic but unrankable system that still partitions cleanly."""
    return make_base("1 2 3 4 5", [("1", "2"), ("1", "3"), ("2", "4"), ("3 4", "5")])


@pytest.fixture
def chain():
    return make_base("1 2", [("1", "2")])
