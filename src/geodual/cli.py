"""Command-line front end.

Exit codes: 0 success, 1 input or parse error (including an input file
that is missing, unreadable, a directory or not UTF-8), 2 semantic
precondition violated (unranked base, cyclic base, bad meet family, size
guard), 3 verification failure.  Enumeration commands stream one result
per line as it is produced; labels, never positions, appear in output.
Every command writes its lines through one writer, in stdout's encoding
and flushed line by line; a label that encoding cannot hold ends the
command with exit code 1 and one line on stderr.  A reader that closes
the output early (``geodual ccm big.imp | head -1``) ends the command
quietly, with exit code 1 and nothing on stderr; a command started with
stdout closed exits 1 with one line on stderr.

Each command imports the modules it runs when it runs, so that a command
starts without loading what only the others need.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import formats
from .errors import (
    GeodualError,
    InputError,
    NotRankedError,
    PreconditionError,
    VerificationError,
)
from .sets import ElementSet, iter_bits


def _write_lines(lines) -> None:
    """Write each line to stdout in its encoding, with one flush per line.

    This is the only writer to stdout: each line is encoded once and goes
    to the byte stream under the text layer as one write and one flush.
    A closed stdout, which Python leaves as ``None``, is an error.
    """
    stdout = sys.stdout
    if stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "stdout")
    stdout.flush()
    encoding, errors = stdout.encoding, stdout.errors
    write, flush = stdout.buffer.write, stdout.buffer.flush
    for line in lines:
        write(f"{line}\n".encode(encoding, errors))
        flush()


def _set_lines(ground, masks, as_json: bool):
    """One line per mask of `ground`: its labels, or ``{"set": [...]}``."""
    import json

    if as_json:
        labels = ground.labels
        return (json.dumps({"set": [labels[i] for i in iter_bits(m)]}) for m in masks)
    return (formats.format_mask(ground, m) for m in masks)


# -- subcommands -------------------------------------------------------------


def cmd_ccm(args) -> int:
    from .ccm import MeetsAvoiding, ranked

    base = formats.read_imp(args.file)
    ground = base.ground
    meets_avoiding = MeetsAvoiding(base, ranked(base))
    elements, labels = range(ground.size), ground.labels
    if args.json:
        import json

        _write_lines(
            json.dumps(
                {"element": labels[j], "meet": list(ElementSet(ground, mask).labels())}
            )
            for j in elements
            for mask in meets_avoiding(j)
        )
        return 0
    prefixes = [f"{label}: " for label in labels] if args.by_element else [""] * ground.size
    join, empty = ground.join_labels, formats.EMPTY_SET_TOKEN
    _write_lines(
        f"{prefixes[j]}{join(mask) or empty}" for j in elements for mask in meets_avoiding(j)
    )
    return 0


def cmd_sid(args) -> int:
    from .sid import MeetFamily, iter_recovered_implications, recover_critical_base

    ground, sets = formats.read_mf(args.file)
    family = MeetFamily(ground, sets)
    if args.verify or args.strict:
        base = recover_critical_base(family, verify=args.verify, strict=args.strict)
        rules = base.implications
    else:
        rules = iter_recovered_implications(family)
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
    if is_ranked and args.json:
        lines = [json.dumps({"ranked": True, "ranks": dict(zip(labels, result.ranks))})]
    elif is_ranked:
        lines = ["ranked", *(f"{label}={rank}" for label, rank in zip(labels, result.ranks))]
    elif args.json:
        conflict = {
            "ranked": False,
            "element": labels[result.element],
            "required_ranks": list(result.required_ranks),
            "witnesses": [repr(w) for w in result.witness_implications],
        }
        lines = [json.dumps(conflict)]
    else:
        lines = [
            "conflict",
            f"element: {labels[result.element]}",
            "ranks: {} vs {}".format(*result.required_ranks),
            *(f"witness: {w!r}" for w in result.witness_implications),
        ]
    _write_lines(lines)
    return 0 if is_ranked else 2


def _load_antichain(base, path):
    from .dualization import Antichain

    ground, sets = formats.read_mf(path)
    if ground != base.ground:
        raise InputError(
            f"{path}: element list differs from the base (order matters)"
        )
    rehosted = [ElementSet(base.ground, s.mask) for s in sets]
    return Antichain(base, rehosted)


def cmd_dual_check(args) -> int:
    from .dualization import check_dual

    base = formats.read_imp(args.file)
    bplus = _load_antichain(base, args.plus)
    bminus = _load_antichain(base, args.minus)
    _write_lines(["dual" if check_dual(base, bplus, bminus) else "not dual"])
    return 0


def cmd_reduce(args) -> int:
    from .dualization import reduce_dual_to_cmi
    from .sid import MeetFamily

    base = formats.read_imp(args.file)
    bplus = _load_antichain(base, args.plus)
    bminus = _load_antichain(base, args.minus)
    meets = None
    if args.meets:
        ground, sets = formats.read_mf(args.meets)
        if ground != base.ground:
            raise InputError(f"{args.meets}: element list differs from the base")
        meets = MeetFamily(base.ground, [ElementSet(base.ground, s.mask) for s in sets])
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


def cmd_oracle(args) -> int:
    import random

    # The oracle pulls in numpy, which no other command needs.
    from .oracle import (
        closed_set_masks,
        joins_brute,
        meets_brute,
        mingens_brute,
        random_acyclic_base,
        random_hypergraph,
        random_ranked_base,
        transversals_brute,
    )

    if not args.oracle_command.startswith("gen-") and not args.file:
        raise InputError(f"oracle {args.oracle_command} requires an input file")
    if args.oracle_command == "mingens" and not args.target:
        raise InputError("oracle mingens requires --target")
    if args.oracle_command == "closed-sets":
        base = formats.read_imp(args.file)
        lines = _set_lines(base.ground, closed_set_masks(base), args.json)
    elif args.oracle_command in ("meets", "joins"):
        base = formats.read_imp(args.file)
        listing = meets_brute if args.oracle_command == "meets" else joins_brute
        lines = _set_lines(base.ground, [s.mask for s in listing(base)], args.json)
    elif args.oracle_command == "mingens":
        base = formats.read_imp(args.file)
        target = base.ground.position(args.target)
        lines = _set_lines(base.ground, [s.mask for s in mingens_brute(base, target)], args.json)
    elif args.oracle_command == "transversals":
        h = formats.read_hg(args.file)
        lines = _set_lines(h.universe, [t.mask for t in transversals_brute(h)], args.json)
    elif args.oracle_command == "partition":
        from .sid import MeetFamily, partition_meets

        ground, sets = formats.read_mf(args.file)
        family = MeetFamily(ground, sets)
        lines = (
            f"{ground.labels[j]}: {formats.format_set(m)}"
            for j, fam in sorted(partition_meets(family).items())
            for m in fam
        )
    elif args.oracle_command in ("gen-ranked", "gen-acyclic"):
        generate = {"gen-ranked": random_ranked_base, "gen-acyclic": random_acyclic_base}
        base = generate[args.oracle_command](
            random.Random(args.seed),
            max_elements=args.max_elements,
            max_implications=args.max_implications,
        )
        lines = formats.imp_lines(base.ground, base.implications)
    elif args.oracle_command == "gen-hypergraph":
        lines = formats.hg_lines(random_hypergraph(random.Random(args.seed)))
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown oracle subcommand {args.oracle_command!r}")
    _write_lines(lines)
    return 0


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
    p.add_argument("--strict", action="store_true", help="validate the input is genuinely meet-irreducible")
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

    # One parser per oracle command, holding only the options it reads.
    p = sub.add_parser("oracle", help="brute-force references, for debugging")
    oracle = p.add_subparsers(dest="oracle_command", required=True)
    for name in ("closed-sets", "meets", "joins", "mingens", "transversals", "partition"):
        q = oracle.add_parser(name)
        q.add_argument("file", nargs="?", help="input file")
        if name == "mingens":
            q.add_argument("--target", help="target element label")
        if name != "partition":
            q.add_argument("--json", action="store_true")
        q.set_defaults(func=cmd_oracle)
    for name in ("gen-ranked", "gen-acyclic", "gen-hypergraph"):
        q = oracle.add_parser(name)
        q.add_argument("--seed", type=int, default=0, help="seed for the generator")
        if name != "gen-hypergraph":
            q.add_argument("--max-elements", type=int, default=8)
            q.add_argument("--max-implications", type=int, default=16)
        q.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except NotRankedError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        if exc.conflict is not None:
            print(exc.conflict.describe(), file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except GeodualError as exc:  # pragma: no cover - catch-all for new subtypes
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
