"""Command-line behavior: output shapes, exit codes, determinism."""

import ast
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest


import geodual.ccm
import geodual.sid
from conftest import DATA, layered_base
from test_ccm import recursive_walk
from test_sid import recorded_attempts
from geodual import (
    ElementSet,
    GroundSet,
    Implication,
    ImplicationalBase,
    critical_base,
    formats,
    is_ranked_geometry,
    meet_irreducibles,
)
from geodual.ccm import MeetsAvoiding
from geodual.cli import _BlockText, build_parser, main
from geodual.hypergraphs import DEFAULT_BACKEND, Hypergraph
from geodual.oracle import (
    all_closed_sets,
    joins_brute,
    meets_brute,
    mingens_brute,
    random_ranked_base,
    transversals_brute,
)
from geodual.ranking import compute_rank
from geodual.sets import MAX_GROUND_SIZE
from geodual.sid import (
    MeetFamily,
    iter_recovered_implications,
    partition_meets,
    recover_critical_base,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCcm:
    def test_layered_contains_j_block(self, capsys, data_dir):
        code, out, _ = run(capsys, "ccm", data_dir / "layered.imp")
        assert code == 0
        lines = out.splitlines()
        assert "1 2 4" in lines and "1 3 5" in lines and "2 3 5" in lines
        assert len(lines) == 9

    def test_by_element(self, capsys, data_dir):
        code, out, _ = run(capsys, "ccm", data_dir / "layered.imp", "--by-element")
        assert code == 0
        assert "j: 1 2 4" in out.splitlines()

    def test_json(self, capsys, data_dir):
        code, out, _ = run(capsys, "ccm", data_dir / "layered.imp", "--json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert {"element": "j", "meet": ["1", "2", "4"]} in rows

    def test_unranked_exits_2(self, capsys, data_dir):
        code, out, err = run(capsys, "ccm", data_dir / "crossed.imp")
        assert code == 2
        assert "rank" in err

    def test_empty_meet_printed_as_dot(self, capsys, data_dir):
        code, out, _ = run(capsys, "ccm", data_dir / "chain.imp")
        assert code == 0
        assert out.splitlines() == ["2", "."]

    def test_rung_meets_match_oracle(self, capsys, data_dir):
        code, out, _ = run(capsys, "ccm", data_dir / "rung.imp")
        base = formats.read_imp(data_dir / "rung.imp")
        brute = {formats.format_set(m) for m in meets_brute(base)}
        assert code == 0
        assert len(out.splitlines()) == len(brute) == 82
        assert set(out.splitlines()) == brute

    @pytest.mark.parametrize("option", [None, "--by-element", "--json"])
    @pytest.mark.parametrize(
        "name, encoding",
        [
            ("chain.imp", "utf-8"),
            ("layered.imp", "utf-8"),
            ("rung.imp", "utf-8"),
            ("unicode.imp", "utf-8"),
            ("unicode.imp", "ascii:backslashreplace"),
            ("L6w8.imp", "utf-8"),
        ],
    )
    def test_stdout_bytes(self, data_dir, tmp_path, name, option, encoding):
        path = data_dir / name
        if name == "unicode.imp":
            path = tmp_path / name
            path.write_text("elements: é ∅x zß 日本\né -> ∅x\n∅x 日本 -> zß\n", "utf-8")
        elif name == "L6w8.imp":
            # The ccm-deep shape of the benchmark: about 60 000 meets, written
            # in blocks of up to a dozen lines.
            path = tmp_path / name
            formats.write_imp(layered_base(6, 8, 3, 2, seed=0), path)
        lines = _ccm_lines(formats.read_imp(path), option)
        argv = [sys.executable, "-m", "geodual.cli", "ccm", str(path)]
        proc = subprocess.run(
            argv + ([option] if option else []),
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING=encoding),
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        codec, _, errors = encoding.partition(":")
        expected = "".join(line + "\n" for line in lines)
        assert proc.stdout == expected.encode(codec, errors or "strict")


class TestSid:
    def test_layered_meets_recover_base(self, capsys, data_dir):
        code, out, _ = run(capsys, "sid", data_dir / "layered.mf")
        assert code == 0
        assert out.splitlines() == [
            "elements: 1 2 3 4 5 j",
            "1 2 -> 4",
            "3 -> 5",
            "4 5 -> j",
        ]

    def test_verify_flag(self, capsys, data_dir):
        code, out, _ = run(capsys, "sid", data_dir / "layered.mf", "--verify")
        assert code == 0
        assert "4 5 -> j" in out

    def test_strict_flag(self, data_dir):
        # No `--strict`: a family the partition accepts has only
        # meet-irreducible members, so there is nothing left to check.
        proc = _run_cli(["sid", data_dir / "layered.mf", "--strict"], "utf-8")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert b"unrecognized arguments: --strict" in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_parse_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.mf"
        bad.write_text("elements: a b\nq\n")
        code, _, err = run(capsys, "sid", bad)
        assert code == 1
        assert "bad.mf:2" in err

    def test_rung_recovers_critical_base(self, capsys, data_dir):
        code, out, _ = run(capsys, "sid", data_dir / "rung.mf")
        expected = critical_base(formats.read_imp(data_dir / "rung.imp"))
        assert code == 0
        assert out == formats.format_imp(expected)

    def test_non_geometry_exits_2(self, capsys, tmp_path):
        # No member lies above {1}, so the ground set adds 2 and 3 to it.
        f = tmp_path / "nongeo.mf"
        f.write_text("elements: 1 2 3\n1\n.\n")
        err = (
            "precondition violated: not a convex-geometry meet family: member "
            "{1} has no closed one-element extension: the members above it add "
            "{2 3}\n"
        )
        assert run(capsys, "sid", f) == (2, "elements: 1 2 3\n", err)
        assert run(capsys, "sid", f, "--verify") == (2, "", err)
        assert run(capsys, "oracle", "partition", f) == (2, "", err)

    def test_strict_reports_a_reducible_member_before_the_partition_error(
        self, capsys, tmp_path
    ):
        # The partition stops at {a}, which has no closed extension and is
        # irreducible, before it reaches {}, the intersection of {a} and {b}.
        f = tmp_path / "precedence.mf"
        f.write_text("elements: a b c\na\n.\nb\n")
        code, _, err = run(capsys, "sid", f)
        assert code == 2
        assert "member {a}" in err

    def test_reducible_member_named_by_the_partition(self, capsys, tmp_path):
        # {a} is the intersection of {a b c} and {a d}, the members above it.
        f = tmp_path / "reducible.mf"
        f.write_text("elements: a b c d\na b c\na\na d\nc d\n")
        err = (
            "precondition violated: not a convex-geometry meet family: member "
            "{a} is the intersection of the members above it\n"
        )
        assert run(capsys, "sid", f) == (2, "elements: a b c d\n", err)
        assert run(capsys, "oracle", "partition", f) == (2, "", err)

    @pytest.mark.parametrize(
        "text, label",
        [("elements: a b\nb\n", "b"), ("elements: a b c\n", "a")],
        ids=["element-in-every-member", "empty-family"],
    )
    def test_element_in_every_member_exits_2(self, capsys, tmp_path, text, label):
        # Both families partition, but the empty set is not closed in their
        # intersection closure, so neither is a convex geometry's meet family.
        f = tmp_path / "full-element.mf"
        f.write_text(text)
        err = (
            f"precondition violated: not a convex-geometry meet family: element "
            f"'{label}' lies in every member, so the empty set is not closed\n"
        )
        header = text.splitlines()[0] + "\n"
        assert run(capsys, "sid", f) == (2, header, err)
        assert run(capsys, "sid", f, "--verify") == (2, "", err)

    def test_verify_exits_3_on_an_unranked_family(self, capsys, tmp_path, uneven):
        # The meet family of `uneven` partitions cleanly, but the recovered
        # base has no rank function.
        f = tmp_path / "uneven.mf"
        f.write_text(formats.format_mf(uneven.ground, meets_brute(uneven)))
        code, out, err = run(capsys, "sid", f, "--verify")
        assert (code, out) == (3, "")
        assert err.startswith("verification failed: recovered base admits no rank function")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", [70, 200, 4096])
    def test_boolean_coatoms_beyond_64_elements(self, capsys, tmp_path, n):
        # The coatoms of a Boolean lattice: every element is its own
        # generator, so the recovered base has no rules.
        ground = GroundSet(f"e{i}" for i in range(n))
        coatoms = [ElementSet(ground, ((1 << n) - 1) & ~(1 << i)) for i in range(n)]
        f = tmp_path / "coatoms.mf"
        f.write_text(formats.format_mf(ground, coatoms))
        header = "elements: " + " ".join(ground.labels) + "\n"
        assert run(capsys, "sid", f) == (0, header, "")


class TestCriticalBase:
    def test_crossed_identity(self, capsys, data_dir):
        code, out, _ = run(capsys, "critical-base", data_dir / "crossed.imp")
        assert code == 0
        assert out.splitlines()[0] == "elements: 1 2 3 4 5"
        assert "4 5 -> 3" in out.splitlines()

    def test_cyclic_exits_2(self, capsys, tmp_path):
        f = tmp_path / "cyc.imp"
        f.write_text("elements: a b\na -> b\nb -> a\n")
        code, _, err = run(capsys, "critical-base", f)
        assert code == 2


class TestRankCheck:
    def test_layered_ranked(self, capsys, data_dir):
        code, out, _ = run(capsys, "rank-check", data_dir / "layered.imp")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ranked"
        assert "j=0" in lines and "1=2" in lines and "4=1" in lines

    def test_crossed_conflict_exits_2(self, capsys, data_dir):
        code, out, _ = run(capsys, "rank-check", data_dir / "crossed.imp")
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "conflict"
        assert any(line.startswith("witness:") for line in lines)

    def test_uneven_conflict_names_the_cycle(self, capsys, data_dir):
        assert run(capsys, "rank-check", data_dir / "uneven.imp") == (
            2,
            "conflict\nelement: 5\nranks: 1 vs 0\nwitness: 1 -> 2\n"
            "witness: 1 -> 3\nwitness: 2 -> 4\nwitness: 3 4 -> 5\n",
            "",
        )

    def test_crossed_conflict_json_names_the_cycle(self, capsys, data_dir):
        assert run(capsys, "rank-check", "--json", data_dir / "crossed.imp") == (
            2,
            '{"ranked": false, "element": "3", "required_ranks": [1, 0], '
            '"witnesses": ["4 -> 1", "3 -> 1", "4 5 -> 3"]}\n',
            "",
        )

    @pytest.mark.parametrize(
        "name, ranks",
        [("crossed.imp", "1 vs 0"), ("uneven.imp", "1 vs 0"), (None, "1 vs 2")],
        ids=["crossed", "uneven", "triangle"],
    )
    def test_conflict_ranks_are_in_normal_form(self, capsys, data_dir, tmp_path, name, ranks):
        # The two ranks are shifted so that the smallest of them and of the
        # ranks the component had so far is 0, whatever element is seeded.
        if name is None:
            path = tmp_path / "triangle.imp"
            path.write_text("elements: a b c\nb -> a\nc -> b\nc -> a\n")
        else:
            path = data_dir / name
        code, out, _ = run(capsys, "rank-check", path)
        assert code == 2
        assert out.splitlines()[2] == f"ranks: {ranks}"

    def test_json_mode(self, capsys, data_dir):
        code, out, _ = run(capsys, "rank-check", data_dir / "layered.imp", "--json")
        data = json.loads(out)
        assert data["ranked"] is True and data["ranks"]["j"] == 0

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "rank-check", tmp_path / "nope.imp")
        assert code == 1


class TestDualReduce:
    def test_dual_check_positive(self, capsys, data_dir):
        code, out, _ = run(
            capsys,
            "dual-check",
            data_dir / "bool2.imp",
            "--plus", data_dir / "bool2_plus.mf",
            "--minus", data_dir / "bool2_minus.mf",
        )
        assert code == 0
        assert out.strip() == "dual"

    def test_dual_check_negative(self, capsys, data_dir, tmp_path):
        smaller = tmp_path / "plus.mf"
        smaller.write_text("elements: 1 2\n1\n")
        code, out, _ = run(
            capsys,
            "dual-check",
            data_dir / "bool2.imp",
            "--plus", smaller,
            "--minus", data_dir / "bool2_minus.mf",
        )
        assert code == 0
        assert out.strip() == "not dual"

    def test_reduce_writes_files(self, capsys, data_dir, tmp_path):
        out_base = tmp_path / "omega.imp"
        out_meets = tmp_path / "omega.mf"
        code, out, _ = run(
            capsys,
            "reduce",
            data_dir / "bool2.imp",
            "--plus", data_dir / "bool2_plus.mf",
            "--minus", data_dir / "bool2_minus.mf",
            "--out-base", out_base,
            "--out-meets", out_meets,
        )
        assert code == 0
        assert out_base.read_text() == "elements: 1 2 z\n1 2 -> z\n"
        lines = out_meets.read_text().splitlines()
        assert lines[0] == "elements: 1 2 z"
        assert sorted(lines[1:]) == ["1", "1 z", "2", "2 z"]

    @pytest.mark.parametrize("option", ["--plus", "--minus", "--meets"])
    def test_element_list_mismatch_exits_1(self, capsys, data_dir, tmp_path, option):
        swapped = tmp_path / "swapped.mf"
        swapped.write_text("elements: 2 1\n1\n2\n")
        files = {
            "--plus": data_dir / "bool2_plus.mf",
            "--minus": data_dir / "bool2_minus.mf",
            "--meets": data_dir / "bool2_plus.mf",
            option: swapped,
        }
        code, out, err = run(
            capsys,
            "reduce",
            data_dir / "bool2.imp",
            *(part for pair in files.items() for part in pair),
            "--out-base", tmp_path / "omega.imp",
            "--out-meets", tmp_path / "omega.mf",
        )
        assert (code, out) == (1, "")
        assert err == f"error: {swapped}: element list differs from the base (order matters)\n"

    def test_unclosed_antichain_exits_1(self, capsys, data_dir, tmp_path):
        bad = tmp_path / "plus.mf"
        bad.write_text("elements: 1 2\n1\n1 2\n")  # comparable members
        code, _, err = run(
            capsys,
            "dual-check",
            data_dir / "bool2.imp",
            "--plus", bad,
            "--minus", data_dir / "bool2_minus.mf",
        )
        assert code == 1


class TestRoundtripCommand:
    def test_layered_ok(self, capsys, data_dir):
        code, out, _ = run(capsys, "roundtrip", data_dir / "layered.imp")
        assert code == 0
        assert "roundtrip ok" in out

    def test_chain_ok(self, capsys, data_dir):
        code, out, _ = run(capsys, "roundtrip", data_dir / "chain.imp")
        assert code == 0

    def test_unranked_exits_2(self, capsys, data_dir):
        code, _, err = run(capsys, "roundtrip", data_dir / "crossed.imp")
        assert code == 2

    def test_mismatch_exits_3(self, capsys, data_dir, monkeypatch):
        monkeypatch.setattr(
            "geodual.sid.recover_critical_base",
            lambda meets: ImplicationalBase(meets.ground, ()),
        )
        assert run(capsys, "roundtrip", data_dir / "layered.imp") == (
            3,
            "",
            "verification failed: roundtrip mismatch: recovered base differs "
            "from the critical base\n",
        )

    def test_generated_corpus_roundtrips(self, capsys, tmp_path):
        import random

        from geodual.formats import write_imp
        from geodual.oracle import random_ranked_base

        rng = random.Random(2718)
        for i in range(10):
            base = random_ranked_base(rng, max_elements=9, max_implications=14)
            path = tmp_path / f"gen{i}.imp"
            write_imp(base, path)
            code, out, _ = run(capsys, "roundtrip", path)
            assert code == 0, out


class TestOracleCommands:
    def test_closed_sets(self, capsys, data_dir):
        code, out, _ = run(capsys, "oracle", "closed-sets", data_dir / "chain.imp")
        assert code == 0
        assert out.splitlines() == [".", "2", "1 2"]

    def test_meets(self, capsys, data_dir):
        code, out, _ = run(capsys, "oracle", "meets", data_dir / "chain.imp")
        assert out.splitlines() == [".", "2"]

    def test_joins(self, capsys, data_dir):
        code, out, _ = run(capsys, "oracle", "joins", data_dir / "chain.imp")
        assert out.splitlines() == ["2", "1 2"]

    def test_mingens(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "oracle", "mingens", data_dir / "layered.imp", "--target", "j"
        )
        assert sorted(out.splitlines()) == ["1 2 3", "1 2 5", "3 4", "4 5"]

    def test_mingens_requires_target(self, capsys, data_dir):
        code, _, err = run(capsys, "oracle", "mingens", data_dir / "layered.imp")
        assert code == 1

    def test_transversals(self, capsys, data_dir):
        code, out, _ = run(capsys, "oracle", "transversals", data_dir / "layered_j.hg")
        assert sorted(out.splitlines()) == ["1 2 3", "1 2 5", "3 4", "4 5"]

    def test_partition(self, capsys, data_dir):
        code, out, _ = run(capsys, "oracle", "partition", data_dir / "layered.mf")
        assert code == 0
        assert "j: 1 2 4" in out.splitlines()

    def test_generators_emit_parseable_output(self, capsys):
        from geodual.formats import parse_hg, parse_imp
        from geodual.ranking import RankFunction, compute_rank

        code, out, _ = run(capsys, "oracle", "gen-ranked", "--seed", "5")
        base = parse_imp(out)
        assert isinstance(compute_rank(base), RankFunction)
        code, out, _ = run(capsys, "oracle", "gen-acyclic", "--seed", "5")
        parse_imp(out)
        code, out, _ = run(capsys, "oracle", "gen-hypergraph", "--seed", "5")
        parse_hg(out)

    def test_size_guards(self, capsys, monkeypatch, tmp_path):
        chain = tmp_path / "chain21.imp"
        chain.write_text(
            "elements: " + " ".join(f"x{i}" for i in range(21)) + "\n"
            + "".join(f"x{i} -> x{i + 1}\n" for i in range(20))
        )
        wide = tmp_path / "wide.hg"
        wide.write_text("vertices: " + " ".join(f"v{i}" for i in range(17)) + "\n")
        for argv in (
            ("closed-sets", chain),
            ("meets", chain),
            ("joins", chain),
            ("mingens", chain, "--target", "x0"),
            ("transversals", wide),
        ):
            code, out, err = run(capsys, "oracle", *argv)
            assert code == 2
            assert len(err.splitlines()) == 1
            assert "GEODUAL_GUARD_OVERRIDE" in err and "Traceback" not in err
        monkeypatch.setenv("GEODUAL_GUARD_OVERRIDE", "1")
        code, out, _ = run(capsys, "oracle", "closed-sets", chain)
        assert code == 0
        assert len(out.splitlines()) == 22

    def test_missing_file_reported(self, capsys):
        code, _, err = run(capsys, "oracle", "closed-sets")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-hypergraph", "--max-elements", "2"),
            ("gen-hypergraph", "--max-implications", "2"),
            ("gen-ranked", "chain.imp"),
            ("gen-acyclic", "--json"),
            ("meets", "chain.imp", "--seed", "3"),
            ("closed-sets", "chain.imp", "--max-elements", "2"),
            ("joins", "chain.imp", "--target", "1"),
            ("partition", "layered.mf", "--json"),
        ],
    )
    def test_unread_options_rejected(self, capsys, data_dir, argv):
        argv = [str(data_dir / a) if a.endswith((".imp", ".mf")) else a for a in argv]
        with pytest.raises(SystemExit) as exit:
            main(["oracle", *argv])
        assert exit.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_generator_options_read(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "gen-ranked", "--seed", "3", "--max-elements", "4",
            "--max-implications", "2",
        )
        base = formats.parse_imp(out)
        assert code == 0 and base.ground.size <= 4 and len(base.implications) <= 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-ranked", "--max-elements", "1"),
            ("gen-ranked", "--max-elements", "0"),
            ("gen-acyclic", "--max-elements", "1"),
            ("gen-ranked", "--max-implications", "-1"),
            ("gen-acyclic", "--max-implications", "-1"),
        ],
    )
    def test_generator_bounds_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "oracle", *argv)
        option = argv[1].lstrip("-").replace("-", "_")
        assert (code, out) == (2, "")
        assert err.startswith(f"precondition violated: {option} must be at least")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["gen-ranked", "gen-acyclic"])
    @pytest.mark.parametrize("bound", [MAX_GROUND_SIZE + 1, 100000])
    def test_generator_bound_above_ground_capacity_exits_2(self, capsys, command, bound):
        code, out, err = run(capsys, "oracle", command, "--max-elements", bound)
        assert (code, out) == (2, "")
        assert err == (
            f"precondition violated: max_elements must be at most {MAX_GROUND_SIZE}, "
            f"got {bound}\n"
        )


class TestDeterminism:
    COMMANDS = [
        ("ccm", "layered.imp"),
        ("ccm", "layered.imp", "--by-element"),
        ("ccm", "layered.imp", "--json"),
        ("sid", "layered.mf"),
        ("critical-base", "crossed.imp"),
        ("critical-base", "uneven.imp"),
        ("rank-check", "layered.imp"),
        ("rank-check", "crossed.imp"),
        ("oracle", "closed-sets", "crossed.imp"),
        ("oracle", "meets", "layered.imp"),
        ("oracle", "mingens", "layered.imp", "--target", "j"),
        ("oracle", "transversals", "layered_j.hg"),
        ("oracle", "gen-ranked", "--seed", "11"),
        ("oracle", "gen-acyclic", "--seed", "11"),
    ]

    def test_byte_identical_reruns(self, capsys, data_dir):
        def run_all():
            chunks = []
            for cmd in self.COMMANDS:
                argv = [
                    str(data_dir / part) if str(part).endswith((".imp", ".mf", ".hg")) else part
                    for part in cmd
                ]
                main([str(a) for a in argv])
                chunks.append(capsys.readouterr().out)
            return "".join(chunks).encode()

        assert run_all() == run_all()


BAD_INPUT_COMMANDS = [
    ("ccm", "{f}"),
    ("sid", "{f}"),
    ("critical-base", "{f}"),
    ("rank-check", "{f}"),
    ("dual-check", "{f}", "--plus", "{d}/bool2_plus.mf", "--minus", "{d}/bool2_minus.mf"),
    ("reduce", "{f}", "--plus", "{d}/bool2_plus.mf", "--minus", "{d}/bool2_minus.mf",
     "--out-base", "{t}/o.imp", "--out-meets", "{t}/o.mf"),
    ("roundtrip", "{f}"),
    ("oracle", "closed-sets", "{f}"),
    ("oracle", "meets", "{f}"),
    ("oracle", "joins", "{f}"),
    ("oracle", "mingens", "{f}", "--target", "j"),
    ("oracle", "transversals", "{f}"),
    ("oracle", "partition", "{f}"),
    ("oracle", "meets", "--json", "{f}"),
    ("oracle", "mingens", "--target", "j", "{f}"),
]


class TestInputContract:
    @pytest.mark.parametrize(
        "kind", ["binary", "directory", "unreadable", "malformed", "oversized"]
    )
    @pytest.mark.parametrize(
        "command",
        BAD_INPUT_COMMANDS,
        ids=lambda c: "-".join(p.lstrip("-") for p in c[: c.index("{f}")]),
    )
    def test_unreadable_input_exits_1(
        self, capsys, monkeypatch, data_dir, tmp_path, command, kind
    ):
        bad = tmp_path / f"{kind}.in"
        header = "vertices:" if "transversals" in command else "elements:"
        if kind == "binary":
            bad.write_bytes(b"elements: a b\n\x89PNG\r\n\x1a\n\x00\xff\xfe")
        elif kind == "directory":
            bad.mkdir()
        elif kind == "malformed":
            # No `->` in an .imp rule; an unknown label in an .mf or .hg set.
            bad.write_text(f"{header} a b\na z\n")
        elif kind == "oversized":
            bad.write_text(header + "".join(f" e{i}" for i in range(MAX_GROUND_SIZE + 1)))
        else:
            # File modes do not stop a superuser, so the denial is simulated.
            read_bytes = Path.read_bytes

            def denied(path):
                if path == bad:
                    raise PermissionError(13, "Permission denied", str(path))
                return read_bytes(path)

            monkeypatch.setattr(Path, "read_bytes", denied)
        argv = [part.format(f=bad, d=data_dir, t=tmp_path) for part in command]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: {bad}")
        assert "Traceback" not in err

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # No rules: 400 meets of about 1.5 kB each, far more than a 64 KiB
        # pipe buffer holds.
        big = tmp_path / "big.imp"
        big.write_text("elements: " + " ".join(str(i) for i in range(1, 401)) + "\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "geodual.cli", "ccm", str(big)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.stdout.readline().startswith(b"2 3 4")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == b""
        assert proc.returncode == 1

    def test_first_line_through_closed_pipe(self, tmp_path):
        # As `geodual ccm big.imp | head -1`, with labels outside ASCII.
        labels = [f"ü{i}" for i in range(400)]
        big = tmp_path / "big.imp"
        big.write_text("elements: " + " ".join(labels) + "\n", "utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "geodual.cli", "ccm", str(big)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8"),
        )
        assert proc.stdout.readline() == (" ".join(labels[1:]) + "\n").encode()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")


# Non-ASCII labels: a ranked base, and a base whose ranks conflict.
UNICODE_IMP = "elements: é ∅x zß 日本\né -> ∅x\n∅x 日本 -> zß\n"
UNICODE_CONFLICT = "elements: α β γ δ ε\nδ -> α\nε -> β\nγ -> α\nγ -> β\nδ ε -> γ\n"
# Labels that JSON output must escape: a quote, a backslash, non-ASCII.
ESCAPED_IMP = 'elements: a"b c\\d é\nc\\d é -> a"b\n'


def _set_line(s):
    return " ".join(s.labels()) or "."


def _rule_line(rule):
    return f"{' '.join(rule.premise.labels())} -> {rule.universe.labels[rule.conclusion]}"


def _imp_lines(ground, rules):
    return ["elements: " + " ".join(ground.labels), *map(_rule_line, rules)]


def _base_lines(base):
    return _imp_lines(base.ground, base.implications)


def _ranks(base):
    return dict(zip(base.ground.labels, compute_rank(base).ranks))


def _json_sets(sets):
    return [json.dumps({"set": list(s.labels())}) for s in sets]


def _premises(base):
    """The hypergraph of the premises of `base`, on all its elements."""
    return Hypergraph(ElementSet.full(base.ground), [rule.premise for rule in base.implications])


def _conflict(base):
    conflict = compute_rank(base)
    return {
        "ranked": False,
        "element": base.ground.labels[conflict.element],
        "required_ranks": list(conflict.required_ranks),
        "witnesses": [_rule_line(w) for w in conflict.witness_implications],
    }


def _conflict_lines(base):
    conflict = _conflict(base)
    return [
        "conflict",
        f"element: {conflict['element']}",
        "ranks: {} vs {}".format(*conflict["required_ranks"]),
        *(f"witness: {w}" for w in conflict["witnesses"]),
    ]


# (argv, exit code, the lines expected from library calls on the ranked
# base `b`, the conflicting base `c` and the meet family `f` of `b`).
STDOUT_CASES = [
    ("sid {mf}", 0, lambda b, c, f: _imp_lines(f.ground, iter_recovered_implications(f))),
    ("sid {mf} --verify", 0, lambda b, c, f: _base_lines(recover_critical_base(f, verify=True))),
    ("critical-base {imp}", 0, lambda b, c, f: _base_lines(critical_base(b))),
    ("rank-check {imp}", 0, lambda b, c, f: [
        "ranked", *(f"{label}={rank}" for label, rank in _ranks(b).items())]),
    ("rank-check {imp} --json", 0, lambda b, c, f: [
        json.dumps({"ranked": True, "ranks": _ranks(b)})]),
    ("rank-check {conflict}", 2, lambda b, c, f: _conflict_lines(c)),
    ("rank-check {conflict} --json", 2, lambda b, c, f: [json.dumps(_conflict(c))]),
    ("oracle meets {imp}", 0, lambda b, c, f: [_set_line(m) for m in meets_brute(b)]),
    ("oracle meets {imp} --json", 0, lambda b, c, f: [
        json.dumps({"set": list(m.labels())}) for m in meets_brute(b)]),
    ("oracle closed-sets {imp}", 0, lambda b, c, f: [
        _set_line(s) for s in all_closed_sets(b)]),
    ("oracle closed-sets {imp} --json", 0, lambda b, c, f: [
        json.dumps({"set": list(s.labels())}) for s in all_closed_sets(b)]),
    ("oracle joins {imp} --json", 0, lambda b, c, f: _json_sets(joins_brute(b))),
    ("oracle mingens {imp} --target zß --json", 0, lambda b, c, f: _json_sets(
        mingens_brute(b, b.ground.position("zß")))),
    ("oracle transversals {hg} --json", 0, lambda b, c, f: _json_sets(
        transversals_brute(_premises(b)))),
    ("oracle closed-sets {escaped} --json", 0, lambda b, c, f: _json_sets(
        all_closed_sets(formats.parse_imp(ESCAPED_IMP)))),
    ("ccm {escaped} --json", 0, lambda b, c, f: [
        json.dumps({"element": m.universe.labels[j], "meet": list(m.labels())})
        for j, m in meet_irreducibles(formats.parse_imp(ESCAPED_IMP))]),
    ("oracle partition {mf}", 0, lambda b, c, f: [
        f"{f.ground.labels[j]}: {_set_line(m)}"
        for j, members in sorted(partition_meets(f).items())
        for m in members
    ]),
    ("oracle gen-ranked --seed 3", 0, lambda b, c, f: _base_lines(
        random_ranked_base(random.Random(3), max_elements=8, max_implications=16))),
]


@pytest.fixture
def unicode_inputs(tmp_path):
    """The non-ASCII inputs as files, and the objects they hold."""
    names = ("ranked.imp", "conflict.imp", "ranked.mf", "premises.hg", "escaped.imp")
    imp, conflict, mf, hg, escaped = (tmp_path / name for name in names)
    imp.write_text(UNICODE_IMP, "utf-8")
    conflict.write_text(UNICODE_CONFLICT, "utf-8")
    escaped.write_text(ESCAPED_IMP, "utf-8")
    base = formats.read_imp(imp)
    formats.write_mf(base.ground, [m for _, m in meet_irreducibles(base)], mf)
    hg.write_text(formats.format_hg(_premises(base)), "utf-8")
    objects = base, formats.read_imp(conflict), MeetFamily(*formats.read_mf(mf))
    paths = {"imp": imp, "conflict": conflict, "mf": mf, "hg": hg, "escaped": escaped}
    return paths, objects


def _run_cli(argv, encoding):
    return subprocess.run(
        [sys.executable, "-m", "geodual.cli", *map(str, argv)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING=encoding),
    )


@pytest.mark.parametrize("encoding", ["utf-8", "ascii:backslashreplace"])
@pytest.mark.parametrize(
    "command, code, lines", STDOUT_CASES, ids=[case[0] for case in STDOUT_CASES]
)
def test_stdout_bytes(unicode_inputs, command, code, lines, encoding):
    # As `TestCcm::test_stdout_bytes`, for every other command that prints
    # labels.
    paths, objects = unicode_inputs
    proc = _run_cli([part.format(**paths) for part in command.split()], encoding)
    assert (proc.returncode, proc.stderr) == (code, b"")
    codec, _, errors = encoding.partition(":")
    expected = "".join(line + "\n" for line in lines(*objects))
    assert proc.stdout == expected.encode(codec, errors)


@pytest.mark.parametrize(
    "command",
    ["ccm {imp}", "sid {mf}", "critical-base {imp}", "rank-check {imp}", "oracle meets {imp}"],
)
def test_unencodable_labels_exit_1(unicode_inputs, command):
    paths, _ = unicode_inputs
    proc = _run_cli([part.format(**paths) for part in command.split()], "ascii")
    assert proc.returncode == 1
    err = proc.stderr.decode("ascii")
    assert err.startswith("error: stdout cannot encode '") and err.endswith("' in ascii\n")
    assert len(err.splitlines()) == 1
    proc.stdout.decode("ascii")  # only whole lines that ASCII holds


def _ccm_line(option, labels, j, meet):
    """The line `geodual ccm` writes for the meet `meet` avoiding `j`,
    formatted meet by meet: the reference for its block formatter."""
    if option == "--json":
        return json.dumps({"element": labels[j], "meet": list(meet.labels())})
    return (f"{labels[j]}: " if option else "") + (meet.universe.join_labels(meet.mask) or ".")


def _ccm_lines(base, option):
    labels = base.ground.labels
    return [_ccm_line(option, labels, j, meet) for j, meet in meet_irreducibles(base)]


# `x` avoids the maximal independent sets of its premises, one block of
# three lines: "a c", "b c", then "é".  The block's region is empty; in
# `HEADED_BLOCK_IMP` it is "w", which precedes every top-rank position.
BLOCK_IMP = "elements: x a b c é\na é -> x\nb é -> x\nc é -> x\na b -> x\n"
HEADED_BLOCK_IMP = "elements: x w a b c é\na é -> x\nb é -> x\nc é -> x\na b -> x\n"


@pytest.mark.parametrize("prefix", ["", "x: "], ids=["plain", "by-element"])
def test_unencodable_line_keeps_the_lines_before_it(tmp_path, prefix):
    path = tmp_path / "block.imp"
    path.write_text(BLOCK_IMP, "utf-8")
    base = formats.read_imp(path)
    lines = [prefix + " ".join(m.labels()) for j, m in meet_irreducibles(base) if j == 0]
    assert lines == [prefix + "a c", prefix + "b c", prefix + "é"]
    assert [len(branches) for _, branches in MeetsAvoiding(base, compute_rank(base))(0)] == [3]
    proc = _run_cli(["ccm", path, *(["--by-element"] if prefix else [])], "ascii")
    assert proc.returncode == 1
    assert proc.stderr == b"error: stdout cannot encode '\\xe9' in ascii\n"
    assert proc.stdout == f"{lines[0]}\n{lines[1]}\n".encode("ascii")


def _walk_counts(base):
    """The walk of `ccm` over `base` by the recursive reference: the meets
    found by the end of each block, before each dualization and by the end
    of each element, in walk order, with one memo for the whole base."""
    found, ends, before, element_ends = 0, [], [], []

    class Logged:
        def transversal_masks(self, edges):
            before.append(found)
            return DEFAULT_BACKEND.transversal_masks(edges)

    rho = compute_rank(base)
    reference = MeetsAvoiding(base, rho, Logged())
    prefixes = reference._prefixes
    for j in range(base.ground.size):
        rank, bit = rho.ranks[j], 1 << j
        for _, branches in recursive_walk(reference, bit, rank, prefixes[rank] & ~bit):
            if branches:
                found += len(branches)
                ends.append(found)
        element_ends.append(found)
    return ends, before, element_ends


@pytest.mark.parametrize("option", [None, "--by-element", "--json"])
@pytest.mark.parametrize("name", ["rung.imp", "layered.imp", "chain.imp", "L6w8"])
def test_ccm_flushes_each_run_before_the_next_dualization(
    monkeypatch, data_dir, tmp_path, name, option
):
    """One write and one flush per run of whole blocks.  At every
    dualization each meet found so far is written and flushed; a run ends
    only there, once it holds `_RUN_MEETS` meets, or at the end of an
    element; and the bytes are the per-meet lines."""
    path = data_dir / name
    if name == "L6w8":
        path = tmp_path / "L6w8.imp"
        formats.write_imp(layered_base(6, 8, 3, 2, seed=7), path)
    base = formats.read_imp(path)
    ends, before, element_ends = _walk_counts(base)
    expected = "".join(line + "\n" for line in _ccm_lines(base, option)).encode()
    limit = geodual.ccm._RUN_MEETS

    # Each dualization of the CLI's walk, and each write and flush.
    log = []
    dualize = geodual.ccm.independent_masks

    def logged(*args):
        log.append(("dualize",))
        return dualize(*args)

    monkeypatch.setattr(geodual.ccm, "independent_masks", logged)
    buffer = SimpleNamespace(
        write=lambda data: log.append(("write", data)), flush=lambda: log.append(("flush",))
    )
    stdout = SimpleNamespace(encoding="utf-8", errors="strict", flush=lambda: None, buffer=buffer)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["ccm", str(path), *([option] if option else [])]) == 0

    output = [entry for entry in log if entry[0] != "dualize"]
    writes = [data for kind, data in output[::2]]
    assert output == [entry for data in writes for entry in (("write", data), ("flush",))]
    assert b"".join(writes) == expected
    assert all(not data.startswith(b"\n") and b"\n\n" not in data for data in writes)

    # A dualization never falls between a write and its flush, and by then
    # every meet the walk has found is written.
    written, seen, done = 0, [], []
    for i, entry in enumerate(log):
        if entry[0] == "dualize":
            assert i == 0 or log[i - 1][0] != "write"
            seen.append(written)
        elif entry[0] == "write":
            written += entry[1].count(b"\n")
            done.append((written, log[i + 2 : i + 3]))
    assert seen == before
    # One write per run.  A run is whole blocks, all but its last making
    # fewer meets than the limit, and it ends before a dualization, at the
    # limit, or at the end of an element.
    streams = MeetsAvoiding(base, compute_rank(base))
    assert len(writes) == sum(1 for j in range(base.ground.size) for _ in streams.runs(j))
    block = {count: k for k, count in enumerate(ends)}
    start = 0
    for count, after in done:
        k = block[count]
        assert (ends[k - 1] if k else 0) - start < limit
        assert after == [("dualize",)] or count - start >= limit or count in element_ends
        start = count


@pytest.mark.parametrize("option", [None, "--by-element", "--json"])
@pytest.mark.parametrize("imp", [BLOCK_IMP, HEADED_BLOCK_IMP], ids=["empty-head", "head"])
def test_unencodable_block_matches_per_meet_lines(tmp_path, imp, option):
    """Under ASCII, `ccm` writes the per-meet lines before the first one
    with "é", then exits 1 with one stderr line; JSON escapes "é"."""
    path = tmp_path / "block.imp"
    path.write_text(imp, "utf-8")
    base = formats.read_imp(path)
    assert [len(branches) for _, branches in MeetsAvoiding(base, compute_rank(base))(0)] == [3]
    lines = _ccm_lines(base, option)
    proc = _run_cli(["ccm", path, *([option] if option else [])], "ascii")
    bad = next((i for i, line in enumerate(lines) if not line.isascii()), len(lines))
    assert proc.stdout == "".join(line + "\n" for line in lines[:bad]).encode("ascii")
    if option == "--json":
        assert (proc.returncode, proc.stderr, bad) == (0, b"", len(lines))
    else:
        assert (proc.returncode, bad) == (1, 2)
        assert proc.stderr == b"error: stdout cannot encode '\\xe9' in ascii\n"


def _permuted(base, rng):
    """`base` with its ground set in a random order, so that the positions
    of each rank interleave."""
    order = rng.sample(range(base.ground.size), base.ground.size)
    ground = GroundSet(base.ground.labels[p] for p in order)
    where = {p: i for i, p in enumerate(order)}
    return ImplicationalBase(ground, [
        Implication(ElementSet.of(ground, [where[p] for p in rule.premise]), where[rule.conclusion])
        for rule in base.implications
    ])


@pytest.mark.parametrize("option", [None, "--by-element", "--json"])
def test_ccm_blocks_match_per_meet_lines(monkeypatch, tmp_path, option):
    """`ccm`'s block formatter writes the bytes of one `join_labels` or
    `json.dumps` line per meet, whichever way the block is joined and
    however the walk's runs split the blocks: on random ranked bases,
    whose ranks interleave in the ground set, on layered bases in rank
    order and permuted, and on blocks with an empty region or an empty
    branch, with runs ending at every block, every 7 meets, and at
    `_RUN_MEETS`."""
    rng = random.Random(5)
    layered = layered_base(4, 6, 3, 2, seed=1)
    bases = {
        **{f"random-{seed}": random_ranked_base(random.Random(seed), 12, 24) for seed in range(30)},
        "layered": layered,
        "layered-permuted": _permuted(layered, rng),
        "L6w8": layered_base(6, 8, 3, 2, seed=7),
        "empty-head": formats.parse_imp(BLOCK_IMP),
        "empty-tail": formats.parse_imp("elements: w x a\na -> x\n"),
    }
    # How each block is joined, per `_BlockText`: a head before each branch
    # when its region is nonempty and before every top-rank position.
    joined = {"head": 0, "empty head": 0, "empty tail": 0, "interleaved": 0}
    limits = (1, 7, geodual.ccm._RUN_MEETS)
    for name, base in bases.items():
        path = tmp_path / f"{name}.imp"
        formats.write_imp(base, path)
        expected = "".join(line + "\n" for line in _ccm_lines(base, option)).encode()
        for limit in limits:
            monkeypatch.setattr(geodual.ccm, "_RUN_MEETS", limit)
            out = io.BytesIO()
            monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8"))
            code = main(["ccm", str(path), *([option] if option else [])])
            assert (code, out.getvalue()) == (0, expected), (name, limit)
        rho = compute_rank(base)
        top = rho.level_mask(rho.max_rank)
        streams = MeetsAvoiding(base, rho)
        for j in range(base.ground.size):
            for cmask, branches in streams(j):
                way = ("empty head" if not cmask else "empty tail" if not branches[0]
                       else "head" if cmask < top & -top else "interleaved")
                joined[way] += 1
    assert all(joined.values()), joined


def test_block_text_keeps_the_tails_of_a_list_from_its_second_use():
    ground = GroundSet("a b c d".split())
    joins = []

    def join(mask):
        joins.append(mask)
        return ground.join_labels(mask)

    text = _BlockText(join, " ", ".", "!", 0b0100)
    branches = [0b0100, 0b1000]
    assert text("", [(0b0011, branches)]) == "a b c!\na b d!"
    assert text.tails == {id(branches): (branches, None)}
    assert text("> ", [(0b0010, branches)]) == "> b c!\n> b d!"
    assert text.tails == {id(branches): (branches, ["c", "d"])}
    joins.clear()
    assert text("", [(0b0001, branches)]) == "a c!\na d!"
    assert joins == [0b0001]
    # A region past the first top-rank position is joined meet by meet,
    # and the blocks of a run are joined by one newline.
    assert text("", [(0b1001, [0b0100]), (0b0001, branches)]) == "a c d!\na c!\na d!"
    assert len(text.tails) == 1


@pytest.mark.parametrize("levels, kept", [(2, False), (4, True)])
def test_block_text_keeps_no_tails_of_a_list_used_once(levels, kept):
    """On a two-level base every branch list feeds one block, and none of
    their tails is kept; a deeper base reuses its lists."""
    base = layered_base(levels, 8, 3, 2, seed=0)
    rho = compute_rank(base)
    top = rho.level_mask(rho.max_rank)
    text = _BlockText(base.ground.join_labels, " ", ".", "", top & -top)
    streams = MeetsAvoiding(base, rho)
    for j in range(base.ground.size):
        for run in streams.runs(j):
            text("", run)
    assert len(text.tails) >= 8
    assert any(tails is not None for _, tails in text.tails.values()) == kept


def test_cli_imports_no_private_names():
    """The CLI runs the library through its public functions, never private
    copies of them."""
    tree = ast.parse((SRC / "geodual" / "cli.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "geodual")
        for alias in node.names
        if alias.name.startswith("_")
        or any(part.startswith("_") for part in (node.module or "").split("."))
    ]
    assert private == []


def test_cli_writes_stdout_only_through_its_writer():
    """One function of the CLI writes to stdout; `main` touches stdout only
    to point it at devnull when the reader is gone, and every `print` goes
    to stderr."""
    tree = ast.parse((SRC / "geodual" / "cli.py").read_text())
    users = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        exempt = set()
        if name == "main":
            for call in ast.walk(top):
                if isinstance(call, ast.Call) and ast.unparse(call.func) == "os.dup2":
                    exempt |= {id(node) for node in ast.walk(call)}
        users += [
            name
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute)
            and ast.unparse(node) == "sys.stdout"
            and id(node) not in exempt
        ]
    assert users == ["_write_lines"]
    prints = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
    ]
    assert prints and all(
        any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords)
        for node in prints
    )


def test_json_dumps_never_runs_per_line():
    """JSON lines quote each label once per command: no module calls
    `json.dumps` inside a loop, a comprehension or a lambda."""
    repeated = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
                ast.Lambda)
    found = []
    for path in sorted((SRC / "geodual").glob("*.py")):
        tree = ast.parse(path.read_text())
        for loop in ast.walk(tree):
            if isinstance(loop, repeated):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(loop)
                    if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps"
                ]
    assert found == []


def test_oracle_subcommands_are_not_told_apart_by_name():
    """Each oracle subcommand's parser binds its handler: the subcommand's
    name is only ever printed, never compared, looked up or inspected."""
    tree = ast.parse((SRC / "geodual" / "cli.py").read_text())
    printed = {
        id(node.value) for node in ast.walk(tree) if isinstance(node, ast.FormattedValue)
    }
    used = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "oracle_command"
        and id(node) not in printed
    ]
    assert used == []


#: The oracle's exhaustive references and the closed flags they all share,
#: and the names none of them may use: the kernel they check, the subset
#: loop and lattice scan they replaced, and the full array of 2^n masks
#: that subcube writes replaced.
ORACLE_REFERENCES = (
    "_closed_flags", "closed_set_masks", "meets_brute", "joins_brute", "mingens_brute",
    "transversals_brute", "maximal_closed_avoiding", "positive_antichain_masks",
)
OFF_ENGINE_NAMES = {"closure_mask", "combinations", "maximal_masks", "arange"}


def test_oracle_references_use_only_the_table():
    """Every exhaustive reference enumerates subsets one way, through the
    closure table, and shares no code with the kernels it checks."""
    tree = ast.parse((SRC / "geodual" / "oracle.py").read_text())
    found = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in ORACLE_REFERENCES:
            used = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            found[top.name] = sorted(used & OFF_ENGINE_NAMES)
    assert found == {name: [] for name in ORACLE_REFERENCES}


@pytest.mark.parametrize(
    "command, err",
    [
        ("ccm layered.imp", None),
        ("sid layered.mf", None),
        ("critical-base layered.imp", None),
        ("rank-check layered.imp", None),
        ("oracle meets layered.imp", None),
        # a command that fails before it writes keeps its own error
        ("ccm missing.imp", "error: {path}: No such file or directory"),
    ],
)
def test_closed_stdout_exits_1(data_dir, command, err):
    # Started with stdout closed, Python sets `sys.stdout` to None; the
    # command reports one line and no traceback.
    *words, name = command.split()
    path = data_dir / name
    proc = subprocess.run(
        [sys.executable, "-m", "geodual.cli", *words, str(path)],
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=lambda: os.close(1),
    )
    err = (err or "error: stdout: Bad file descriptor").format(path=path)
    assert (proc.returncode, proc.stderr.decode()) == (1, err + "\n")


WARNING_CASES = {
    "sid": (
        {"in.mf": (DATA / "layered.mf").read_text() + "1 2 4\n"},
        "sid in.mf",
        "dropped 1 duplicate member set(s)",
    ),
    "ccm": (
        {"in.imp": (DATA / "layered.imp").read_text() + "3 -> 5\n"},
        "ccm in.imp",
        "dropped 1 duplicate implication(s)",
    ),
    "reduce": (
        {
            "in.imp": "elements: z a\n",
            "plus.mf": "elements: z a\nz\na\n",
            "minus.mf": "elements: z a\nz a\n",
        },
        "reduce in.imp --plus plus.mf --minus minus.mf --out-base o.imp --out-meets o.mf",
        "label 'z' already taken; using 'z1' for the fresh element",
    ),
}


@pytest.mark.parametrize("case", sorted(WARNING_CASES))
def test_warning_is_one_stderr_line(tmp_path, case):
    # A warning reads `warning: <message>`, with no source path or code line.
    files, command, message = WARNING_CASES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "geodual.cli", *command.split()],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (proc.returncode, proc.stderr) == (0, f"warning: {message}\n")
    assert proc.stdout


def test_wide_premise_accepted(capsys, tmp_path):
    # The critical base shrinks each premise rather than scanning its
    # subsets, so a 200-element premise is one more rule to reduce.
    path = tmp_path / "wide.imp"
    labels = [f"a{i}" for i in range(201)]
    elements = f"elements: {' '.join(labels)}"
    path.write_text(f"{elements}\n{' '.join(labels[:200])} -> a200\na3 a7 -> a200\n")
    assert run(capsys, "critical-base", path) == (0, f"{elements}\na3 a7 -> a200\n", "")
    assert run(capsys, "roundtrip", path) == (
        0, "roundtrip ok: 202 meets, 1 implications\n", ""
    )
    assert is_ranked_geometry(formats.read_imp(path))


# The modules that `ccm` and `sid` run through: no definitional reference
# code (`geodual.oracle`, exponential) and no numpy may be reached from them.
TRANSLATION_MODULES = (
    "ccm", "sid", "critical", "hypergraphs", "implications", "ranking",
    "formats", "sets", "errors",
)


def test_translation_path_imports_no_oracle_or_numpy():
    offenders = {}
    for module in TRANSLATION_MODULES:
        tree = ast.parse((SRC / "geodual" / f"{module}.py").read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    source = "geodual" + (f".{source}" if source else "")
                imported += [source] + [f"{source}.{alias.name}" for alias in node.names]
        banned = [
            name for name in imported
            if name.split(".")[0] == "numpy" or name.startswith("geodual.oracle")
        ]
        if banned:
            offenders[module] = banned
    assert offenders == {}


def test_translation_path_scans_no_subsets():
    # A subset scan needs a size guard; the translation path has neither.
    # `errors` defines `size_guard` for the oracle.
    offenders = {}
    for module in TRANSLATION_MODULES:
        if module == "errors":
            continue
        tree = ast.parse((SRC / "geodual" / f"{module}.py").read_text())
        found = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [a.name for a in node.names if a.name.endswith("combinations")]
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "size_guard":
                    found.append("size_guard()")
        if found:
            offenders[module] = found
    assert offenders == {}


@pytest.mark.parametrize("jobs", ["0", "1", "2", "5000"])
def test_jobs_flag_is_ignored(capsys, data_dir, jobs):
    # `--jobs` is still accepted on `ccm` and `sid`, and changes nothing.
    commands = [
        ("ccm", name, *flags)
        for name in ("layered.imp", "rung.imp")
        for flags in ((), ("--by-element",), ("--json",))
    ] + [("sid", "layered.mf"), ("sid", "rung.mf")]
    for command, name, *flags in commands:
        plain = run(capsys, command, data_dir / name, *flags)
        assert plain[0] == 0 and len(plain[1].splitlines()) > 1
        assert run(capsys, command, data_dir / name, *flags, "--jobs", jobs) == plain


# Modules that each translation command must leave unloaded: the modules of
# the other commands, and the standard library that only other commands or
# options use.  Only the oracle needs numpy.
NOT_LOADED_BY = {
    ("ccm", "rung.imp"): (
        "geodual.sid", "geodual.critical", "geodual.dualization", "dataclasses",
        "logging", "concurrent.futures", "multiprocessing", "numpy",
    ),
    # `sid` checks its guessed ranks with `ccm`'s walk, so it loads `ccm`.
    ("sid", "rung.mf"): (
        "geodual.critical", "dataclasses", "concurrent.futures", "multiprocessing",
        "numpy",
    ),
}


@pytest.mark.parametrize(
    "command, flags",
    [
        pytest.param(command, flags, id=command[0] + suffix)
        for flags, suffix in (((), ""), (("--jobs", "2"), "-jobs2"))
        for command in NOT_LOADED_BY
    ],
)
def test_translation_commands_load_only_what_they_run(data_dir, command, flags):
    script = (
        "import sys\n"
        "from geodual.cli import main\n"
        "cut = sys.argv.index('--')\n"
        "code = main(sys.argv[1:cut])\n"
        "sys.stderr.write(repr([m for m in sys.argv[cut + 1:] if m in sys.modules]))\n"
        "sys.exit(code)\n"
    )
    name, path = command
    proc = subprocess.run(
        [sys.executable, "-c", script, name, str(data_dir / path), *flags, "--",
         *NOT_LOADED_BY[command]],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]"


def test_readme_command_lines_parse():
    # Every `geodual ...` line of the README's command block, its `\`
    # continuations joined and its comments stripped, is one the parser
    # accepts, so the README lists no option the command line lacks.
    readme = (SRC.parent / "README.md").read_text("utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["geodual"]]
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line rejected: geodual {shlex.join(argv)}")


@pytest.mark.parametrize("command", ["ccm", "roundtrip"])
def test_rank_conflict_is_one_stderr_line(capsys, tmp_path, command):
    # `c -> a` is entailed, but `c` cannot have rank 1 and rank 2 at once.
    path = tmp_path / "entailed.imp"
    path.write_text("elements: a b c\nb -> a\nc -> b\nc -> a\n")
    assert run(capsys, command, path) == (
        2,
        "",
        "precondition violated: base is not ranked: element 'c' would need rank 1 "
        "and rank 2; forced by b -> a, c -> b and c -> a\n",
    )


# The translation commands, by the input suffix they read.
FUZZ_COMMANDS = {
    ".imp": (["ccm"], ["ccm", "--by-element"], ["ccm", "--json"], ["critical-base"],
             ["rank-check"], ["roundtrip"]),
    ".mf": (["sid"],),
    ".hg": (["sid"],),
}
FUZZ_TOKENS = ("->", ".", "#", "elements:", "vertices:", "a", "1", "j", "é", "\x00", "99")


def _mutant(rng, data):
    """`data` after one to three random edits: a line deleted, repeated or
    swapped, a token deleted or inserted, or a byte overwritten."""
    lines = data.split(b"\n")
    for _ in range(rng.randint(1, 3)):
        i, k = rng.randrange(len(lines)), rng.randrange(len(lines))
        tokens = lines[i].split()
        edit = rng.randrange(6)
        if edit == 0:
            del lines[i : i + (len(lines) > 1)]
        elif edit == 1:
            lines.insert(i, lines[k])
        elif edit == 2:
            lines[i], lines[k] = lines[k], lines[i]
        elif edit == 3 and tokens:
            del tokens[rng.randrange(len(tokens))]
            lines[i] = b" ".join(tokens)
        elif edit == 4:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(FUZZ_TOKENS).encode())
            lines[i] = b" ".join(tokens)
        elif lines[i]:
            line = bytearray(lines[i])
            line[rng.randrange(len(line))] = rng.randrange(256)
            lines[i] = bytes(line)
    return b"\n".join(lines)


def test_mutated_inputs_keep_the_exit_code_contract(capsys, tmp_path):
    """200 mutated copies of the test inputs, each through the translation
    commands that read its kind of file, in process: each run ends with exit
    code 0, 1, 2 or 3, and no exception escapes `main`."""
    rng = random.Random(0)
    sources = sorted(DATA.iterdir())
    for i in range(200):
        source = rng.choice(sources)
        path = tmp_path / f"mutant{i}{source.suffix}"
        path.write_bytes(_mutant(rng, source.read_bytes()))
        for command in FUZZ_COMMANDS[source.suffix]:
            assert main([command[0], str(path), *command[1:]]) in (0, 1, 2, 3), (i, command)
            capsys.readouterr()


def _without_the_guess(monkeypatch, capsys, argv):
    """`run` with `sid`'s checked guess turned off, so that the general
    path that a miss falls back to runs alone: the reference for errors."""
    with monkeypatch.context() as patched:
        patched.setattr(geodual.sid, "_checked_guess", lambda family: None)
        return run(capsys, *argv)


@pytest.mark.parametrize(
    "text",
    [
        "elements: 1 2 3\n1\n.\n",
        "elements: a b c d\na b c\na\na d\nc d\n",
        "elements: a b\nb\n",
        "elements: a b c\n",
    ],
    ids=["no-one-element-extension", "reducible-member", "element-in-every-member",
         "empty-family"],
)
def test_sid_errors_do_not_depend_on_the_guess(capsys, monkeypatch, tmp_path, text):
    f = tmp_path / "bad.mf"
    f.write_text(text)
    for argv in (["sid", f], ["sid", f, "--verify"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == _without_the_guess(monkeypatch, capsys, argv)
        assert code == 2 and err.startswith("precondition violated: not a convex-geometry")
        assert out == ("" if "--verify" in argv else text.splitlines()[0] + "\n")


def test_mutated_inputs_give_what_the_general_path_gives(capsys, monkeypatch, tmp_path):
    """The mutants of `test_mutated_inputs_keep_the_exit_code_contract`,
    through the commands that run `sid`'s recovery: the same exit code,
    stdout and stderr as with the guess turned off."""
    sid_commands = {".imp": (["roundtrip"],), ".mf": (["sid"], ["sid", "--verify"]),
                    ".hg": (["sid"], ["sid", "--verify"])}
    rng = random.Random(0)
    sources = sorted(DATA.iterdir())
    for i in range(200):
        source = rng.choice(sources)
        path = tmp_path / f"mutant{i}{source.suffix}"
        path.write_bytes(_mutant(rng, source.read_bytes()))
        for command in sid_commands[source.suffix]:
            argv = [command[0], path, *command[1:]]
            assert run(capsys, *argv) == _without_the_guess(monkeypatch, capsys, argv), (i, command)


@pytest.mark.parametrize(
    "argv, name, header",
    [(["ccm"], "empty.imp", "elements:"), (["sid"], "empty.mf", "elements:"),
     (["oracle", "transversals"], "empty.hg", "vertices:")],
    ids=["ccm", "sid", "oracle-transversals"],
)
def test_a_header_without_labels_exits_1(capsys, tmp_path, argv, name, header):
    f = tmp_path / name
    f.write_text(f"{header}\n")
    assert run(capsys, *argv, f) == (
        1, "", f"error: {f}:1: at least one element label is required\n"
    )


def test_a_cyclic_geometry_ends_the_guess_at_its_cycle(capsys, monkeypatch, tmp_path):
    # The closed sets of the four points a < x < y < b of a line are its
    # intervals.  Every base of that geometry holds a y -> x and x b -> y,
    # and so has no rank.
    text = "elements: a x y b\nx y b\na x y\na\ny b\na x\nb\n"
    f = tmp_path / "line.mf"
    f.write_text(text)
    fam = MeetFamily(*formats.read_mf(f))
    partition_meets(fam)
    with monkeypatch.context() as patched:
        attempts = recorded_attempts(patched)
        assert geodual.sid._checked_guess(fam) is None
    above, result = attempts[-1]
    x, y = fam.ground.position("x"), fam.ground.position("y")
    assert above[x] >> y & 1 and above[y] >> x & 1 and result is None
    # The general path prints a base that is not this geometry's: {a, b}
    # is closed under it.  `--verify` finds that it has no rank.
    argv = ["sid", f]
    assert run(capsys, *argv) == _without_the_guess(monkeypatch, capsys, argv) == (
        0, "elements: a x y b\na y -> x\nx b -> y\n", ""
    )
    code, out, err = run(capsys, "sid", f, "--verify")
    assert (code, out) == (3, "") and "recovered base admits no rank function" in err
