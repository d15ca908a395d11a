"""Correctness gate: every CLI output is checked before its timing counts.

The checks run outside the timed region and use code that is independent
of the algorithm under test:

* `ccm`: the output must match, byte for byte, the digest recorded for
  the base by record_digests.py (completeness).  Before recording it,
  that script checks that every line is a distinct closed set that is
  maximal among the closed sets avoiding some element, decided by forward
  chaining over the base's rules (soundness); so a match is sound, and a
  mismatch is checked for soundness only to name what is wrong.
* `sid`: the output must equal ``format_imp(critical_base(base))``.
* the small rung's `ccm` output must be exactly ``oracle.meets_brute``.

`Gate` keeps one verdict per distinct output, so an instance that is run
many times is verified once.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable

import numpy as np

from geodual import ImplicationalBase

DIGESTS = Path(__file__).resolve().parent / "digests.json"

Check = Callable[[bytes, str], "str | None"]


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()[:32]


def load_digests() -> dict[str, dict[str, dict]]:
    """The recorded `ccm` bases: shape name -> seed -> {"digest", "meets"}."""
    return json.loads(DIGESTS.read_text())


class Gate:
    """Verdicts per (instance, output digest); `None` means the output passed."""

    def __init__(self):
        self._verdicts: dict[tuple[str, str], str | None] = {}

    def failure(self, key: str, out: bytes, check: Check) -> str | None:
        d = digest(out)
        if (key, d) not in self._verdicts:
            self._verdicts[(key, d)] = check(out, d)
        return self._verdicts[(key, d)]


def parse_sets(base: ImplicationalBase, out: bytes) -> list[int] | str:
    """Masks of the printed sets, or the reason the text is malformed."""
    position = {label: pos for pos, label in enumerate(base.ground.labels)}
    masks = []
    for lineno, line in enumerate(out.decode("utf-8", "replace").splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            return f"line {lineno}: empty line"
        mask = 0
        for label in [] if tokens == ["."] else tokens:
            if label not in position:
                return f"line {lineno}: unknown label {label!r}"
            mask |= 1 << position[label]
        masks.append(mask)
    return masks


def _closure(rules: list[tuple[np.uint64, np.uint64]], sets: np.ndarray) -> np.ndarray:
    """Close every set in place under the rules, by forward chaining."""
    while True:
        before = sets.copy()
        for pmask, bit in rules:
            np.bitwise_or(sets, bit, out=sets, where=(sets & pmask) == pmask)
        if np.array_equal(sets, before):
            return sets


def ccm_failure(base: ImplicationalBase, masks: list[int]) -> str | None:
    """Why `masks` are not distinct maximal closed sets avoiding an element."""
    n = base.ground.size
    if n > 64:
        raise ValueError("the gate packs sets into 64-bit words")
    if len(set(masks)) != len(masks):
        return "a set is printed twice"
    full = np.uint64((1 << n) - 1)
    # Rules concluding at higher positions first: on layered bases the
    # closure then settles in one pass over the rules.
    rules = sorted(
        ((imp.premise.mask, imp.conclusion) for imp in base.implications),
        key=lambda rule: -rule[1],
    )
    rules = [(np.uint64(p), np.uint64(1 << c)) for p, c in rules]
    sets = np.array(masks, dtype=np.uint64)
    if (sets == full).any():
        return "the full ground set is printed"
    closed = _closure(rules, sets.copy()) == sets
    if not closed.all():
        return f"line {int(np.argmin(closed)) + 1}: set is not closed"
    # M is maximal closed avoiding j iff every x outside M other than j
    # forces j into the closure of M + x; so the AND over x outside M of
    # closure(M + x) | x must keep some element outside M.
    bits = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    row, col = np.nonzero((sets[:, None] & bits) == 0)
    added = bits[col]
    grown = _closure(rules, sets[row] | added) | added
    starts = np.searchsorted(row, np.arange(len(sets)))
    forced = np.bitwise_and.reduceat(grown, starts)
    maximal = (forced & ~sets & full) != 0
    if not maximal.all():
        return (
            f"line {int(np.argmin(maximal)) + 1}: set is not maximal among "
            "the closed sets avoiding any element"
        )
    return None


def ccm_check(base: ImplicationalBase, recorded: str) -> Check:
    """Byte-identical to the recorded output, which was checked for soundness."""

    def check(out: bytes, d: str) -> str | None:
        if d == recorded:
            return None
        masks = parse_sets(base, out)
        reason = masks if isinstance(masks, str) else ccm_failure(base, masks)
        return reason or f"sound, but the digest {d} differs from the recorded {recorded}"

    return check


def rung_check(base: ImplicationalBase, brute: set[int]) -> Check:
    """Exactly the oracle's meet family, each set once."""

    def check(out: bytes, d: str) -> str | None:
        masks = parse_sets(base, out)
        if isinstance(masks, str):
            return masks
        if len(set(masks)) != len(masks):
            return "a set is printed twice"
        if set(masks) != brute:
            return (
                f"{len(brute - set(masks))} oracle meets missing, "
                f"{len(set(masks) - brute)} sets not meets"
            )
        return None

    return check


def exact_check(expected: str) -> Check:
    """Byte-identical to the expected text (`sid` against the critical base)."""
    want = expected.encode("utf-8")

    def check(out: bytes, d: str) -> str | None:
        if out == want:
            return None
        got = out.decode("utf-8", "replace").splitlines()
        exp = expected.splitlines()
        for lineno, (a, b) in enumerate(zip(got, exp), start=1):
            if a != b:
                return f"line {lineno}: {a!r}, expected {b!r}"
        return f"{len(got)} lines, expected {len(exp)}"

    return check
