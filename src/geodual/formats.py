"""Line-oriented text formats: .imp bases, .mf set families, .hg hypergraphs.

All three formats share the same lexical rules: UTF-8, whitespace
separated tokens, ``#`` starting a comment to end of line, blank lines
ignored.  The first effective line names the elements; the token ``.``
stands for the empty set where a set is expected.  Parse errors carry
the source name and line number.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator

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


def _header(text: str, source: str, keyword: str):
    """The ground set named by the first effective line, and the lines after it."""
    lines = _effective_lines(text)
    lineno, tokens = next(lines, (1, None))
    if tokens is None:
        article = "a" if keyword == "vertices" else "an"
        raise InputError(f"{source}:1: empty input, expected {article} `{keyword}:` line")
    if tokens[0] != f"{keyword}:":
        raise InputError(
            f"{source}:{lineno}: expected `{keyword}: <label> ...` as the first line"
        )
    if len(tokens) == 1:
        raise InputError(f"{source}:{lineno}: at least one element label is required")
    try:
        return GroundSet(tokens[1:]), lines
    except InputError as exc:
        raise InputError(f"{source}:{lineno}: {exc}") from None


def _lines(
    keyword: str, labels: Iterable[str], items: Iterable, line: Callable[..., str]
) -> Iterator[str]:
    """The header naming `labels`, then `line(item)` for each item, lazily."""
    yield f"{keyword}: " + " ".join(labels)
    yield from map(line, items)


def _text(lines: Iterable[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


# -- implicational bases ------------------------------------------------------


def parse_imp(text: str, source: str = "<string>") -> ImplicationalBase:
    """Parse an implicational base from .imp text."""
    ground, lines = _header(text, source, "elements")
    implications = []
    for lineno, tokens in lines:
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
    return ImplicationalBase(ground, implications)


def read_imp(path) -> ImplicationalBase:
    return parse_imp(_read_text(path), source=str(path))


def imp_lines(ground: GroundSet, implications: Iterable[Implication]) -> Iterator[str]:
    """The lines of .imp text, without newlines: the element list, then one
    rule per line.  The element list comes before the first rule is drawn."""
    return _lines("elements", ground.labels, implications, repr)


def format_imp(base: ImplicationalBase) -> str:
    return _text(imp_lines(base.ground, base.implications))


def write_imp(base: ImplicationalBase, path) -> None:
    Path(path).write_text(format_imp(base), encoding="utf-8")


# -- set families -------------------------------------------------------------


def _parse_family(
    text: str, source: str, keyword: str
) -> tuple[GroundSet, tuple[ElementSet, ...]]:
    ground, lines = _header(text, source, keyword)
    members = []
    for lineno, tokens in lines:
        try:
            members.append(
                ElementSet.empty(ground)
                if tokens == [EMPTY_SET_TOKEN]
                else ElementSet.from_labels(ground, tokens)
            )
        except InputError as exc:
            raise InputError(f"{source}:{lineno}: {exc}") from None
    return ground, tuple(members)


def parse_mf(text: str, source: str = "<string>") -> tuple[GroundSet, tuple[ElementSet, ...]]:
    """Parse a set family from .mf text; returns the ground set and members.

    Callers wrap the members in whatever family type fits (meet family,
    antichain); the file format itself is just a list of sets.
    """
    return _parse_family(text, source, "elements")


def read_mf(path) -> tuple[GroundSet, tuple[ElementSet, ...]]:
    return parse_mf(_read_text(path), source=str(path))


def format_mask(ground: GroundSet, mask: int) -> str:
    """A set as a line: its labels in position order, or `.` when empty."""
    return ground.join_labels(mask) or EMPTY_SET_TOKEN


def format_set(s: ElementSet) -> str:
    return format_mask(s.universe, s.mask)


def format_mf(ground: GroundSet, sets: Iterable[ElementSet]) -> str:
    return _text(_lines("elements", ground.labels, sets, format_set))


def write_mf(ground: GroundSet, sets: Iterable[ElementSet], path) -> None:
    Path(path).write_text(format_mf(ground, sets), encoding="utf-8")


# -- hypergraphs ---------------------------------------------------------------


def parse_hg(text: str, source: str = "<string>") -> Hypergraph:
    """Parse a hypergraph from .hg text; vertices first, one edge per line."""
    ground, edges = _parse_family(text, source, "vertices")
    return Hypergraph(ElementSet.full(ground), edges)


def read_hg(path) -> Hypergraph:
    return parse_hg(_read_text(path), source=str(path))


def hg_lines(h: Hypergraph) -> Iterator[str]:
    """The lines of .hg text, without newlines: the vertices, then one edge
    per line."""
    return _lines("vertices", h.vertices.labels(), h.edges, format_set)


def format_hg(h: Hypergraph) -> str:
    return _text(hg_lines(h))
