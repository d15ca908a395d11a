"""Command-line front end.

Exit codes: 0 success, 1 input or parse error (including an input file
that is missing, unreadable, a directory or not UTF-8), 2 semantic
precondition violated (unranked base, cyclic base, bad meet family, size
guard), 3 verification failure.  Enumeration commands stream one result
per line as it is produced; labels, never positions, appear in output.
Every command writes its output through one writer, in stdout's encoding,
one block of lines at a time, each flushed as soon as it is complete (a
block is one line, or for `ccm` a run of its walk: the meets found before
the next dualization, cut after about a thousand, so that no line waits
for a dualization); a label that encoding cannot hold ends the command
with exit code 1 and one line on stderr, after the lines before it.  A
reader that closes the output early (``geodual ccm big.imp | head -1``)
ends the command quietly, with exit code 1 and nothing on stderr; a
command started with stdout closed exits 1 with one line on stderr.  A
warning, such as a repeated rule or member set that was dropped, is one
``warning: ...`` line on stderr.  JSON lines are the bytes
`json.dumps` writes, with each label quoted once per command.

Each command imports the modules it runs when it runs, so that a command
starts without loading what only the others need.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import warnings

from . import formats
from .errors import (
    GeodualError,
    InputError,
    PreconditionError,
    VerificationError,
)
from .sets import ElementSet, GroundSet


def _write_lines(items) -> None:
    """Write each item, a block of one or more lines joined by ``"\\n"``,
    to stdout in its encoding, with one flush per item.

    This is the only writer to stdout: each item is encoded once and goes
    to the byte stream under the text layer as one write and one flush, so
    it is out before the next item is asked for; the caller picks how many
    lines share a write (`ccm` gives a run of its walk per item).  An item
    that the encoding cannot hold has its lines before the bad character
    written, then the error goes on.  A closed stdout, which Python leaves
    as ``None``, is an error.
    """
    stdout = sys.stdout
    if stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "stdout")
    stdout.flush()
    encoding, errors = stdout.encoding, stdout.errors
    write, flush = stdout.buffer.write, stdout.buffer.flush
    for item in items:
        try:
            data = f"{item}\n".encode(encoding, errors)
        except UnicodeEncodeError as exc:
            whole = exc.object[: exc.object.rfind("\n", 0, exc.start) + 1]
            write(whole.encode(encoding, errors))
            flush()
            raise
        write(data)
        flush()


def _json_items(ground):
    """A function from a mask of `ground` to its labels as `json.dumps`
    writes the items of a list.  Each label is quoted once, and no quoted
    label holds a space: labels hold no whitespace, and `json.dumps` escapes
    every character outside printable ASCII."""
    import json

    join = GroundSet(map(json.dumps, ground.labels)).join_labels
    return lambda mask: join(mask).replace(" ", ", ")


class _BlockText:
    """The text of a run of `ccm`'s blocks: each meet of a block
    ``(cmask, branches)`` of `MeetsAvoiding` as the line
    ``f"{lead}{join(mask) or empty}{end}"``, with the lead of the run's
    element, the lines joined by ``"\\n"``.

    Every branch lies on the top rank, so when the region `cmask` is
    nonempty and lies wholly below `top_bit`, the bit of the first top-rank
    position, each line is the region's labels, then `space`, then the
    branch's labels.  The block is then one head, joined once, before each
    branch's labels, put together by one C-level join:
    ``head + sep.join(tails)``.  The tails of a branch list are kept from
    the list's second use on, keyed by the list, which the walk's memo
    shares among every node with the same (B, rank): a list used once, as
    every list of a two-level base is, is joined and dropped, so the tails
    held grow only with the memo's reuse.  Any other block, one with an
    empty region, an empty branch or a region that reaches past a top-rank
    position, is joined meet by meet, with the same bytes.  A run costs one
    call, not one per block.
    """

    def __init__(self, join, space: str, empty: str, end: str, top_bit: int):
        self.join, self.space, self.empty, self.end = join, space, empty, end
        self.top_bit = top_bit
        # id(branches) -> (branches, their tails from the second use on, or None)
        self.tails: dict[int, tuple[list[int], list[str] | None]] = {}

    def __call__(self, lead: str, run: list[tuple[int, list[int]]]) -> str:
        join, space, empty, end = self.join, self.space, self.empty, self.end
        top_bit, held = self.top_bit, self.tails
        lines = []
        for cmask, branches in run:
            if 0 < cmask < top_bit and branches[0]:
                seen = held.get(id(branches))
                if seen is None or seen[1] is None:
                    tails = list(map(join, branches))
                    held[id(branches)] = (branches, None if seen is None else tails)
                else:
                    tails = seen[1]
                head = f"{lead}{join(cmask)}{space}"
                lines.append(head + f"{end}\n{head}".join(tails) + end)
            else:
                lines += [f"{lead}{join(cmask | s) or empty}{end}" for s in branches]
        return "\n".join(lines)


# -- subcommands -------------------------------------------------------------


def cmd_ccm(args) -> int:
    """Stream the meets of a ranked base, one item of `_write_lines` per
    run of the walk (`MeetsAvoiding.runs`): the lines of its blocks are
    formatted, encoded, written and flushed together, before the walk
    dualizes again, so no line waits for a dualization nor for more than
    `_RUN_MEETS` meets of cheap walking.  Plain, `--by-element` and
    `--json` lines differ only in the lead before the labels, the text
    after them, the join of a set and the text of the empty set, so one
    `_BlockText` formats them all."""
    from .ccm import MeetsAvoiding, ranked

    base = formats.read_imp(args.file)
    ground, rho = base.ground, ranked(base)
    meets_avoiding = MeetsAvoiding(base, rho)
    top = rho.level_mask(rho.max_rank)
    if args.json:
        items = _json_items(ground)
        text = _BlockText(items, ", ", "", "]}", top & -top)
        leads = [f'{{"element": {items(1 << j)}, "meet": [' for j in range(ground.size)]
    else:
        text = _BlockText(ground.join_labels, " ", formats.EMPTY_SET_TOKEN, "", top & -top)
        leads = [f"{label}: " if args.by_element else "" for label in ground.labels]
    _write_lines(
        text(lead, run) for j, lead in enumerate(leads) for run in meets_avoiding.runs(j)
    )
    return 0


def cmd_sid(args) -> int:
    """Stream the rules after the header; `--verify` writes only a whole base."""
    from .sid import MeetFamily, iter_recovered_base, recover_critical_base

    ground, sets = formats.read_mf(args.file)
    family = MeetFamily(ground, sets)
    if args.verify:
        rules = recover_critical_base(family, verify=True).implications
    else:
        rules = iter_recovered_base(family)
    _write_lines(formats.imp_lines(ground, rules))
    return 0


def cmd_critical_base(args) -> int:
    from .critical import critical_base

    base = critical_base(formats.read_imp(args.file))
    _write_lines(formats.imp_lines(base.ground, base.implications))
    return 0


def cmd_rank_check(args) -> int:
    import json

    from .ranking import RankFunction, compute_rank

    base = formats.read_imp(args.file)
    labels = base.ground.labels
    result = compute_rank(base)
    is_ranked = isinstance(result, RankFunction)
    if is_ranked:
        record = {"ranked": True, "ranks": dict(zip(labels, result.ranks))}
        lines = ["ranked", *(f"{label}={rank}" for label, rank in record["ranks"].items())]
    else:
        record = {
            "ranked": False,
            "element": labels[result.element],
            "required_ranks": list(result.required_ranks),
            "witnesses": [repr(w) for w in result.witness_implications],
        }
        lines = [
            "conflict",
            f"element: {record['element']}",
            "ranks: {} vs {}".format(*record["required_ranks"]),
            *(f"witness: {w}" for w in record["witnesses"]),
        ]
    _write_lines([json.dumps(record)] if args.json else lines)
    return 0 if is_ranked else 2


def _read_sets(base, path) -> list[ElementSet]:
    """The sets of the .mf file `path`, whose element list must be the base's."""
    ground, sets = formats.read_mf(path)
    if ground != base.ground:
        raise InputError(f"{path}: element list differs from the base (order matters)")
    return [ElementSet(base.ground, s.mask) for s in sets]


def cmd_dual_check(args) -> int:
    from .dualization import Antichain
    from .oracle import check_dual

    base = formats.read_imp(args.file)
    bplus, bminus = (Antichain(base, _read_sets(base, p)) for p in (args.plus, args.minus))
    _write_lines(["dual" if check_dual(base, bplus, bminus) else "not dual"])
    return 0


def cmd_reduce(args) -> int:
    from .dualization import Antichain, reduce_dual_to_cmi
    from .sid import MeetFamily

    base = formats.read_imp(args.file)
    bplus, bminus = (Antichain(base, _read_sets(base, p)) for p in (args.plus, args.minus))
    meets = MeetFamily(base.ground, _read_sets(base, args.meets)) if args.meets else None
    omega, family = reduce_dual_to_cmi(base, bplus, bminus, meets)
    formats.write_imp(omega, args.out_base)
    formats.write_mf(family.ground, family.meets, args.out_meets)
    _write_lines([f"wrote {args.out_base} and {args.out_meets}"])
    return 0


def cmd_roundtrip(args) -> int:
    from .ccm import meet_irreducibles
    from .critical import critical_base
    from .sid import MeetFamily, recover_critical_base

    base = formats.read_imp(args.file)
    meets = MeetFamily(base.ground, [m for _, m in meet_irreducibles(base)])
    recovered = recover_critical_base(meets)
    expected = critical_base(base)
    if set(recovered.implications) == set(expected.implications):
        _write_lines([
            f"roundtrip ok: {len(meets)} meets, {len(recovered.implications)} implications"
        ])
        return 0
    raise VerificationError(
        "roundtrip mismatch: recovered base differs from the critical base"
    )


# -- oracle subcommands ------------------------------------------------------
#
# Each gives its lines from `geodual.oracle`, passed in as `o`: only these
# commands import it, and with it numpy.


def cmd_oracle(args) -> int:
    from . import oracle

    _write_lines(args.lines(oracle, args))
    return 0


def _oracle_input(args, read=formats.read_imp):
    """The input file read by `read`, once the subcommand has the options it needs."""
    if not args.file:
        raise InputError(f"oracle {args.oracle_command} requires an input file")
    if "target" in args and not args.target:
        raise InputError(f"oracle {args.oracle_command} requires --target")
    return read(args.file)


def _listing(masks_of, read=formats.read_imp):
    """A listing: read the input, get its ground set and the masks to list
    from ``masks_of(o, input, args)``, and give one line per mask: its
    labels, or ``{"set": [...]}``."""

    def lines(o, args):
        ground, masks = masks_of(o, _oracle_input(args, read), args)
        if args.json:
            items = _json_items(ground)
            return (f'{{"set": [{items(m)}]}}' for m in masks)
        return (formats.format_mask(ground, m) for m in masks)

    return lines


def _masks(sets) -> list[int]:
    return [s.mask for s in sets]


def _partition(o, args):
    from .sid import MeetFamily, partition_meets

    ground, sets = _oracle_input(args, formats.read_mf)
    parts = sorted(partition_meets(MeetFamily(ground, sets)).items())
    return (f"{ground.labels[j]}: {formats.format_set(m)}" for j, fam in parts for m in fam)


def _seeded(args):
    import random

    return random.Random(args.seed)


def _random_base(generate, args):
    base = generate(_seeded(args), args.max_elements, args.max_implications)
    return formats.imp_lines(base.ground, base.implications)


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodual",
        description=(
            "Translate between unit implicational bases and families of "
            "meet-irreducible sets, for ranked convex geometries"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # `ccm` and `sid` run in one process and ignore `--jobs`, which they still
    # accept because the benchmark's traced run passes `--jobs 2`.

    p = sub.add_parser("ccm", help="enumerate the meet-irreducible sets of a ranked base")
    p.add_argument("file", help=".imp input")
    p.add_argument("--by-element", action="store_true", help="prefix each meet with its element")
    p.add_argument("--json", action="store_true", help="one JSON object per line")
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_ccm)

    p = sub.add_parser("sid", help="recover the critical base from a meet family")
    p.add_argument("file", help=".mf input")
    p.add_argument("--verify", action="store_true", help="recompute the meets of the output and compare")
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_sid)

    p = sub.add_parser("critical-base", help="compute the critical base of an acyclic base")
    p.add_argument("file", help=".imp input")
    p.set_defaults(func=cmd_critical_base)

    p = sub.add_parser("rank-check", help="compute a rank function or report the conflict")
    p.add_argument("file", help=".imp input")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rank_check)

    p = sub.add_parser("dual-check", help="decide whether two antichains are dual in the closure lattice")
    p.add_argument("file", help=".imp input")
    p.add_argument("--plus", required=True, help=".mf with the positive antichain")
    p.add_argument("--minus", required=True, help=".mf with the negative antichain")
    p.set_defaults(func=cmd_dual_check)

    p = sub.add_parser("reduce", help="embed a duality question into a meet-family question")
    p.add_argument("file", help=".imp input with singleton premises")
    p.add_argument("--plus", required=True)
    p.add_argument("--minus", required=True)
    p.add_argument("--meets", help="known meet family of the base (.mf); brute-forced otherwise")
    p.add_argument("--out-base", required=True, help="output .imp path")
    p.add_argument("--out-meets", required=True, help="output .mf path")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("roundtrip", help="check ccm then sid reproduces the critical base")
    p.add_argument("file", help=".imp input")
    p.set_defaults(func=cmd_roundtrip)

    # One parser per oracle command, holding only the options it reads, and
    # the function that gives its lines.
    p = sub.add_parser("oracle", help="brute-force references, for debugging")
    oracle = p.add_subparsers(dest="oracle_command", required=True)
    listings = {
        "closed-sets": _listing(lambda o, base, a: (base.ground, o.closed_set_masks(base))),
        "meets": _listing(lambda o, base, a: (base.ground, _masks(o.meets_brute(base)))),
        "joins": _listing(lambda o, base, a: (base.ground, _masks(o.joins_brute(base)))),
        "mingens": _listing(lambda o, base, a: (
            base.ground, _masks(o.mingens_brute(base, base.ground.position(a.target)))
        )),
        "transversals": _listing(
            lambda o, h, a: (h.universe, _masks(o.transversals_brute(h))), formats.read_hg
        ),
    }
    for name, lines in {**listings, "partition": _partition}.items():
        q = oracle.add_parser(name)
        q.add_argument("file", nargs="?", help="input file")
        if name == "mingens":
            q.add_argument("--target", help="target element label")
        if name in listings:
            q.add_argument("--json", action="store_true")
        q.set_defaults(func=cmd_oracle, lines=lines)
    generators = {
        "gen-ranked": lambda o, a: _random_base(o.random_ranked_base, a),
        "gen-acyclic": lambda o, a: _random_base(o.random_acyclic_base, a),
        "gen-hypergraph": lambda o, a: formats.hg_lines(o.random_hypergraph(_seeded(a))),
    }
    for name, lines in generators.items():
        q = oracle.add_parser(name)
        q.add_argument("--seed", type=int, default=0, help="seed for the generator")
        if name != "gen-hypergraph":
            q.add_argument("--max-elements", type=int, default=8)
            q.add_argument("--max-implications", type=int, default=16)
        q.set_defaults(func=cmd_oracle, lines=lines)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush of
        # what is still buffered, at interpreter exit, cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UnicodeEncodeError as exc:
        chars = exc.object[exc.start : exc.end]
        print(f"error: stdout cannot encode {chars!r} in {exc.encoding}", file=sys.stderr)
        return 1
    except OSError as exc:
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except GeodualError as exc:  # InputError, and any subtype added later
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
