"""Ground sets and immutable bit-indexed subsets.

Every algorithm in the package is dominated by subset tests, unions and
intersections, so subsets are stored as Python integers used as bit masks.
``ElementSet`` is a thin immutable wrapper that keeps the owning
:class:`GroundSet` alongside the mask; raw masks are used internally in
hot loops and wrapped at API boundaries.
"""

from __future__ import annotations

from itertools import repeat
from operator import getitem
from typing import Iterable, Iterator, Sequence

from .errors import InputError

#: Hard capacity of a ground set; fixed once at construction.
MAX_GROUND_SIZE = 4096


class Immutable:
    """Blocks attribute assignment and deletion after construction; pickle-safe."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)


class Record(Immutable):
    """An immutable value whose fields are its `__slots__`, in order.

    Equality (between instances of the same type), hash and repr go
    field by field, as for a frozen dataclass: ``RankFunction(ranks=(0, 1))``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{slot}={getattr(self, slot)!r}" for slot in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class GroundSet(Immutable):
    """A fixed, ordered universe of distinctly labelled elements.

    Elements are addressed by their position ``0..n-1``; labels are only
    used at the parsing and printing boundary.
    """

    __slots__ = ("labels", "index", "_tables")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if len(labels) > MAX_GROUND_SIZE:
            raise InputError(
                f"ground set of {len(labels)} elements exceeds the capacity "
                f"of {MAX_GROUND_SIZE}"
            )
        index: dict[str, int] = {}
        for pos, label in enumerate(labels):
            if not isinstance(label, str) or not label:
                raise InputError(f"label at position {pos} is not a nonempty string")
            if label != "".join(label.split()):
                raise InputError(f"label {label!r} contains whitespace")
            if label in ("->", ".") or "#" in label:
                raise InputError(f"label {label!r} clashes with file-format syntax")
            if label in index:
                raise InputError(f"duplicate label {label!r}")
            index[label] = pos
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_tables", None)  # see `join_labels`

    def __reduce__(self):
        return type(self), (self.labels,)

    @property
    def size(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({' '.join(self.labels)})"

    def join_labels(self, mask: int) -> str:
        """The labels of the positions in `mask`, ascending, joined by spaces.

        Each byte of the mask is looked up in the table of its eight
        positions, which holds the joined labels of every byte value, and
        the nonempty entries are joined in one C-level pass: a set costs
        one lookup per byte of the ground set.  All tables are built by
        the first call.
        """
        tables = self._tables
        if tables is None:
            tables = [self._table(chunk) for chunk in range(-(-self.size // 8))]
            object.__setattr__(self, "_tables", tables)
        chunks = mask.to_bytes(len(tables), "little")
        return " ".join(filter(None, map(getitem, tables, chunks)))

    def _table(self, chunk: int) -> list[str]:
        labels = self.labels[8 * chunk : 8 * chunk + 8]
        table = [""]
        for byte in range(1, 1 << len(labels)):
            low = byte & -byte
            head, rest = labels[low.bit_length() - 1], table[byte ^ low]
            table.append(f"{head} {rest}" if rest else head)
        return table

    def position(self, label: str) -> int:
        """Position of `label`, raising :class:`InputError` if unknown."""
        try:
            return self.index[label]
        except KeyError:
            raise InputError(f"unknown element label {label!r}") from None


def same_universe(a: "ElementSet", b: "ElementSet") -> GroundSet:
    """Return the common ground set of `a` and `b` or raise :class:`InputError`."""
    ua, ub = a.universe, b.universe
    if ua is not ub and ua != ub:
        raise InputError(
            f"universe mismatch: {ua!r} vs {ub!r}"
        )
    return ua


class ElementSet(Immutable):
    """An immutable subset of a :class:`GroundSet`, stored as a bit mask.

    Supports the usual set algebra through operators: ``|``, ``&``, ``-``
    for union, intersection and difference, ``<=`` and ``<`` for subset
    tests, iteration in ascending position order, and hashing.
    """

    __slots__ = ("universe", "mask")

    def __init__(self, universe: GroundSet, mask: int):
        if mask < 0 or mask >> universe.size:
            raise InputError(
                f"mask {mask:#x} has bits outside the {universe.size}-element universe"
            )
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "mask", mask)

    # -- constructors ----------------------------------------------------

    @classmethod
    def of(cls, universe: GroundSet, positions: Iterable[int] = ()) -> "ElementSet":
        n = universe.size
        positions = list(positions)
        if positions and not (0 <= min(positions) and max(positions) < n):
            bad = next(pos for pos in positions if not 0 <= pos < n)
            raise InputError(f"position {bad} outside universe of size {n}")
        # Marking the positions in a string of binary digits read once is
        # linear in n; or-ing in one bit at a time copies the mask each time.
        digits = bytearray(b"0" * n)
        for pos in positions:
            digits[pos] = 49  # ord("1")
        return cls(universe, int(digits[::-1], 2) if n else 0)

    @classmethod
    def from_labels(cls, universe: GroundSet, labels: Iterable[str]) -> "ElementSet":
        try:
            positions = list(map(universe.index.__getitem__, labels))
        except KeyError as exc:
            universe.position(exc.args[0])  # raises the unknown-label error
            raise
        return cls.of(universe, positions)

    @classmethod
    def empty(cls, universe: GroundSet) -> "ElementSet":
        return cls(universe, 0)

    @classmethod
    def full(cls, universe: GroundSet) -> "ElementSet":
        return cls(universe, (1 << universe.size) - 1)

    # -- set algebra ------------------------------------------------------

    def __or__(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(same_universe(self, other), self.mask | other.mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(same_universe(self, other), self.mask & other.mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(same_universe(self, other), self.mask & ~other.mask)

    def complement(self) -> "ElementSet":
        full = (1 << self.universe.size) - 1
        return ElementSet(self.universe, self.mask ^ full)

    def __le__(self, other: "ElementSet") -> bool:
        same_universe(self, other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "ElementSet") -> bool:
        return self <= other and self.mask != other.mask

    def __ge__(self, other: "ElementSet") -> bool:
        return other <= self

    def __gt__(self, other: "ElementSet") -> bool:
        return other < self

    # -- inspection -------------------------------------------------------

    def __contains__(self, pos: int) -> bool:
        return 0 <= pos < self.universe.size and bool(self.mask >> pos & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.mask == other.mask
            and (self.universe is other.universe or self.universe == other.universe)
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.universe.labels))

    def indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def labels(self) -> tuple[str, ...]:
        labs = self.universe.labels
        return tuple(labs[i] for i in iter_bits(self.mask))

    def __repr__(self) -> str:
        return "{" + self.universe.join_labels(self.mask) + "}"


# -- raw mask helpers -----------------------------------------------------


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_rows(masks: Sequence[int], low: int, width: int) -> list[int]:
    """The family `masks` by position, in the vertical layout of Zaki's Eclat.

    Row a has bit i when ``masks[i]`` holds position ``low + a``, for
    ``a < width``; no mask may hold a position at or above ``low + width``.
    The masks are written, from `low`, as one string of `width` binary
    digits each, and each row is read from the strided slice of its
    digit, reversed, by one ``int(..., 2)``: the transposition runs at C
    speed, in |masks| times `width` digits.
    """
    if not masks:
        return [0] * width
    text = "".join(map(format, map(low.__rrshift__, masks), repeat(f"0{width}b")))
    return [int(text[width - 1 - a :: width][::-1], 2) for a in range(width)]


def minimal_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal members of a family of masks, in stable order.

    Output is sorted by :func:`sort_key_size_lex` so callers get a
    deterministic family.
    """
    ordered = sorted(set(masks), key=sort_key_size_lex)
    kept: list[int] = []
    for m in ordered:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-maximal members of a family of masks, in stable order."""
    ordered = sorted(set(masks), key=lambda m: (-m.bit_count(), sort_key_lex(m)))
    kept: list[int] = []
    for m in ordered:
        if not any(k & m == m for k in kept):
            kept.append(m)
    return sorted(kept, key=sort_key_size_lex)


#: Swaps the binary digits, so members read 0 and gaps 1.
_MEMBERS_FIRST = str.maketrans("01", "10")


def sort_key_lex(mask: int) -> str:
    """Lexicographic key on the ascending position sequence of a mask.

    The key is the membership string from position 0, members written
    ``0`` and gaps ``1``; it ends at the last member.  At the first
    position where two keys differ, the set holding that position has
    the smaller next element, and a key that is a prefix of another
    belongs to a set whose elements all lie before the other's next
    one: so the strings compare as the position tuples do.
    """
    return bin(mask)[:1:-1].translate(_MEMBERS_FIRST) if mask else ""


def sort_key_size_lex(mask: int) -> tuple[int, str]:
    """Size-then-lexicographic key, used for closed-set listings and
    minimal and maximal families."""
    return (mask.bit_count(), sort_key_lex(mask))
