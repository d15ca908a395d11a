"""Line-oriented text formats: .imp bases, .mf set families, .hg hypergraphs.

All three formats share the same lexical rules: UTF-8, whitespace
separated tokens, ``#`` starting a comment to end of line, blank lines
ignored.  The first effective line names the elements; the token ``.``
stands for the empty set where a set is expected.  Parse errors carry
the source name and line number.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .errors import InputError
from .hypergraphs import Hypergraph
from .implications import Implication, ImplicationalBase
from .sets import ElementSet, GroundSet

EMPTY_SET_TOKEN = "."


def _read_text(path) -> str:
    """The UTF-8 text of a file; undecodable bytes are a parse error."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def _effective_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_header(tokens: list[str], lineno: int, source: str, keyword: str) -> GroundSet:
    if tokens[0] != f"{keyword}:":
        raise InputError(
            f"{source}:{lineno}: expected `{keyword}: <label> ...` as the first line"
        )
    if len(tokens) == 1:
        raise InputError(f"{source}:{lineno}: at least one element label is required")
    try:
        return GroundSet(tokens[1:])
    except InputError as exc:
        raise InputError(f"{source}:{lineno}: {exc}") from None


def _parse_set(
    ground: GroundSet, tokens: list[str], lineno: int, source: str
) -> ElementSet:
    if tokens == [EMPTY_SET_TOKEN]:
        return ElementSet.empty(ground)
    try:
        return ElementSet.from_labels(ground, tokens)
    except InputError as exc:
        raise InputError(f"{source}:{lineno}: {exc}") from None


# -- implicational bases ------------------------------------------------------


def parse_imp(text: str, source: str = "<string>") -> ImplicationalBase:
    """Parse an implicational base from .imp text."""
    ground = None
    implications = []
    for lineno, tokens in _effective_lines(text):
        if ground is None:
            ground = _parse_header(tokens, lineno, source, "elements")
            continue
        if "->" not in tokens:
            raise InputError(f"{source}:{lineno}: missing `->` in implication")
        arrow = tokens.index("->")
        premise_labels = tokens[:arrow]
        conclusion_labels = tokens[arrow + 1 :]
        if "->" in conclusion_labels:
            raise InputError(f"{source}:{lineno}: more than one `->` in implication")
        if not premise_labels:
            raise InputError(
                f"{source}:{lineno}: empty premise violates standardness"
            )
        if len(conclusion_labels) != 1:
            raise InputError(
                f"{source}:{lineno}: exactly one conclusion label is required"
            )
        try:
            implications.append(
                Implication(
                    ElementSet.from_labels(ground, premise_labels),
                    ground.position(conclusion_labels[0]),
                )
            )
        except InputError as exc:
            raise InputError(f"{source}:{lineno}: {exc}") from None
    if ground is None:
        raise InputError(f"{source}:1: empty input, expected an `elements:` line")
    return ImplicationalBase(ground, implications)


def read_imp(path) -> ImplicationalBase:
    return parse_imp(_read_text(path), source=str(path))


def format_imp(base: ImplicationalBase) -> str:
    ground = base.ground
    lines = ["elements: " + " ".join(ground.labels)]
    for imp in base.implications:
        lhs = ground.join_labels(imp.premise.mask)
        lines.append(f"{lhs} -> {ground.labels[imp.conclusion]}")
    return "\n".join(lines) + "\n"


def write_imp(base: ImplicationalBase, path) -> None:
    Path(path).write_text(format_imp(base), encoding="utf-8")


# -- set families -------------------------------------------------------------


def parse_mf(text: str, source: str = "<string>") -> tuple[GroundSet, tuple[ElementSet, ...]]:
    """Parse a set family from .mf text; returns the ground set and members.

    Callers wrap the members in whatever family type fits (meet family,
    antichain); the file format itself is just a list of sets.
    """
    ground = None
    members = []
    for lineno, tokens in _effective_lines(text):
        if ground is None:
            ground = _parse_header(tokens, lineno, source, "elements")
            continue
        members.append(_parse_set(ground, tokens, lineno, source))
    if ground is None:
        raise InputError(f"{source}:1: empty input, expected an `elements:` line")
    return ground, tuple(members)


def read_mf(path) -> tuple[GroundSet, tuple[ElementSet, ...]]:
    return parse_mf(_read_text(path), source=str(path))


def format_mask(ground: GroundSet, mask: int) -> str:
    """A set as a line: its labels in position order, or `.` when empty."""
    return ground.join_labels(mask) or EMPTY_SET_TOKEN


def format_set(s: ElementSet) -> str:
    return format_mask(s.universe, s.mask)


def format_mf(ground: GroundSet, sets: Iterable[ElementSet]) -> str:
    lines = ["elements: " + " ".join(ground.labels)]
    lines.extend(format_set(s) for s in sets)
    return "\n".join(lines) + "\n"


def write_mf(ground: GroundSet, sets: Iterable[ElementSet], path) -> None:
    Path(path).write_text(format_mf(ground, sets), encoding="utf-8")


# -- hypergraphs ---------------------------------------------------------------


def parse_hg(text: str, source: str = "<string>") -> Hypergraph:
    """Parse a hypergraph from .hg text; vertices first, one edge per line."""
    ground = None
    edges = []
    for lineno, tokens in _effective_lines(text):
        if ground is None:
            ground = _parse_header(tokens, lineno, source, "vertices")
            continue
        edges.append(_parse_set(ground, tokens, lineno, source))
    if ground is None:
        raise InputError(f"{source}:1: empty input, expected a `vertices:` line")
    return Hypergraph(ElementSet.full(ground), edges)


def read_hg(path) -> Hypergraph:
    return parse_hg(_read_text(path), source=str(path))


def format_hg(h: Hypergraph) -> str:
    lines = ["vertices: " + " ".join(h.vertices.labels())]
    lines.extend(format_set(e) for e in h.edges)
    return "\n".join(lines) + "\n"
