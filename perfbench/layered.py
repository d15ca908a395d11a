"""Layered ranked bases: the instance family every workload is built from.

A layered base has `levels` levels of `width` elements; level i holds the
positions ``i*width .. (i+1)*width - 1`` and element labels are positions
plus one.  Every element below the top level gets `rules_per` rules, each
with a premise of `premise_size` elements drawn from the level above by
``random.Random(seed)``.  Repeated (premise, conclusion) pairs are kept
once, so a base can have fewer than ``rules_per * width * (levels - 1)``
rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from geodual import ElementSet, GroundSet, Implication, ImplicationalBase


@dataclass(frozen=True)
class Shape:
    levels: int
    width: int
    rules_per: int
    premise_size: int

    def __str__(self) -> str:
        return f"L{self.levels}-w{self.width}-r{self.rules_per}-p{self.premise_size}"


def layered_base(shape: Shape, seed: int) -> ImplicationalBase:
    rng = random.Random(seed)
    w = shape.width
    ground = GroundSet(str(pos + 1) for pos in range(shape.levels * w))
    rules: dict[tuple[int, int], None] = {}
    for level in range(shape.levels - 1):
        upper = range((level + 1) * w, (level + 2) * w)
        for conclusion in range(level * w, (level + 1) * w):
            for _ in range(shape.rules_per):
                premise = 0
                for pos in rng.sample(upper, shape.premise_size):
                    premise |= 1 << pos
                rules.setdefault((premise, conclusion))
    return ImplicationalBase(
        ground, [Implication(ElementSet(ground, p), c) for p, c in rules]
    )


def instance_seed(run_seed: int, index: int) -> int:
    """Seed of the index-th base of a run; base 0 uses the run seed itself."""
    return run_seed + 1000 * index


def params(shape: Shape, seed: int, base: ImplicationalBase, meets: int) -> dict:
    """The generator record kept for every instance a run measures."""
    return {
        "L": shape.levels,
        "w": shape.width,
        "r": shape.rules_per,
        "p": shape.premise_size,
        "seed": seed,
        "n": base.ground.size,
        "rules": len(base.implications),
        "meets": meets,
    }
