"""Benchmark of the `geodual` command line on layered ranked bases.

    python3 perfbench/run.py --workload ccm-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Each run builds its instances from `--seed`, then invokes `geodual` on
them one after another from this single process (a closed loop with one
client) for `--seconds`, gates every output, and prints the metrics named
in BENCHMARK.json: the end-to-end ones with `--trace 0`, the per-layer
ones from an in-process traced run with `--trace 1`.  The last line of
stdout is one JSON object; the full record, with instance parameters,
environment and spans, goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import env

env.use_source_tree()

import gate  # noqa: E402
import tracing  # noqa: E402
from layered import Shape, instance_seed, layered_base, params  # noqa: E402

from geodual import critical_base, formats, meet_irreducibles  # noqa: E402
from geodual.oracle import meets_brute  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
OUT = HERE / "out"
SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())

# A CLI invocation that runs longer than INVOCATION_LIMIT_S is killed and
# counted as failed: it has hung.  No invocation starts after START_LIMIT_S
# from the start of the run, so a slow but correct build measures fewer
# invocations instead of failing, and RUN_LIMIT_S caps any invocation still
# running, so that every run ends within three minutes.
INVOCATION_LIMIT_S = 60.0
START_LIMIT_S = 90.0
RUN_LIMIT_S = 150.0
SETUP_REPEATS = 3
STARTUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    command: str
    shape: Shape
    instances: int
    # ccm workloads draw their instances from the bases of seeds
    # 0 .. pool-1 recorded in digests.json, keeping only those whose number
    # of meets is within TYPICAL of the pool's median: ccm time follows the
    # number of meets, which varies twofold between seeds.
    pool: int = 0
    # sid-deep draws `candidates` bases per instance and keeps the one whose
    # meet family is closest to `target_meets` (about the median size), so
    # every run measures about the same input size: sid time grows with the
    # square of the family, which varies by a third between seeds.
    candidates: int = 1
    target_meets: int = 0


WORKLOADS = {
    "ccm-deep": Workload("ccm", Shape(6, 8, 3, 2), instances=6, pool=40),
    "ccm-wide": Workload("ccm", Shape(2, 24, 12, 4), instances=8, pool=40),
    "sid-deep": Workload("sid", Shape(4, 8, 3, 2), instances=5, candidates=10,
                         target_meets=1500),
}
TYPICAL = 0.1
# The canary run through both commands on every run and checked against the
# exhaustive oracle: small enough for `oracle.meets_brute` (at most 20
# elements), fixed so that the oracle's cost, which varies twofold between
# seeds, does not blur `setup_s`.
RUNG, RUNG_SEED = Shape(3, 6, 3, 2), 7


@dataclass
class Instance:
    name: str
    argv: list[str]
    check: gate.Check
    params: dict


@dataclass
class Invocation:
    instance: str
    wall: float
    first: float | None
    sets: int
    rss_mb: float
    out: bytes
    failure: str | None = None


class Runner:
    """Runs CLI invocations one at a time through the spawner helper and
    keeps what they returned."""

    def __init__(self, workdir: Path, started: float):
        self.out = workdir / "stdout.txt"
        self.err = workdir / "stderr.txt"
        self.started = started
        self.invocations: list[Invocation] = []
        self.helper = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env.child_env(), cwd=env.ROOT,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.helper.stdin.close()
        self.helper.wait()
        self.helper.stdout.close()

    def run(self, name: str, argv: list[str], keep: bool = True) -> Invocation:
        request = {
            "argv": [sys.executable, "-m", "geodual.cli", *argv],
            "header": "elements:" if argv[0] == "sid" else None,
            "timeout": max(1.0, min(INVOCATION_LIMIT_S,
                                    self.started + RUN_LIMIT_S - perf_counter())),
            "stdout": str(self.out),
            "stderr": str(self.err),
        }
        self.helper.stdin.write(json.dumps(request).encode() + b"\n")
        self.helper.stdin.flush()
        reply = json.loads(self.helper.stdout.readline())
        out = self.out.read_bytes()
        header = request["header"] and out.startswith(request["header"].encode())
        inv = Invocation(name, reply["wall"], reply["first"],
                         out.count(b"\n") - bool(header), reply["rss_kb"] / 1024, out)
        stderr = self.err.read_bytes()
        if reply["status"] is None:
            inv.failure = f"killed after {request['timeout']:.0f} s"
        elif reply["status"] != 0:
            inv.failure = f"exit code {reply['status']}: {stderr[-300:]!r}"
        elif b"Traceback" in stderr:
            inv.failure = f"traceback on stderr: {stderr[-300:]!r}"
        if keep:
            self.invocations.append(inv)
        return inv

    def may_start(self) -> bool:
        return perf_counter() - self.started < START_LIMIT_S


# -- set-up ------------------------------------------------------------------


def setup(workload: Workload, seed: int, workdir: Path, digests: dict):
    """Generate the instances and the rung, their gate references, and the
    input files.  Returns the instances, the rung's `ccm` and `sid`
    instances, and the seconds spent per part."""
    spent = dict.fromkeys(("generate", "meets", "critical_base", "meets_brute", "write"), 0.0)

    def timed(part, fn, *args):
        t = perf_counter()
        result = fn(*args)
        spent[part] += perf_counter() - t
        return result

    shape, cmd = workload.shape, workload.command
    if cmd == "ccm":
        recorded = digests[str(shape)]
        median = statistics.median(r["meets"] for r in recorded.values())
        typical = [int(s) for s, r in recorded.items()
                   if abs(r["meets"] - median) <= TYPICAL * median]
        chosen = random.Random(seed).sample(typical, workload.instances)
    instances = []
    for i in range(workload.instances):
        path = workdir / f"{i}.{'imp' if cmd == 'ccm' else 'mf'}"
        if cmd == "ccm":
            s = chosen[i]
            base = timed("generate", layered_base, shape, s)
            timed("write", formats.write_imp, base, path)
            check = gate.ccm_check(base, recorded[str(s)]["digest"])
            meets = recorded[str(s)]["meets"]
        else:
            drawn = []
            for c in range(workload.candidates):
                s = instance_seed(seed, i * workload.candidates + c)
                base = timed("generate", layered_base, shape, s)
                family = timed("meets", lambda b: [m for _, m in meet_irreducibles(b)], base)
                drawn.append((abs(len(family) - workload.target_meets), s, base, family))
            _, s, base, family = min(drawn, key=lambda d: d[:2])
            expected = timed("critical_base", lambda b: formats.format_imp(critical_base(b)), base)
            timed("write", formats.write_mf, base.ground, family, path)
            check, meets = gate.exact_check(expected), len(family)
        instances.append(Instance(f"i{i}", [cmd, str(path)], check, params(shape, s, base, meets)))

    base = timed("generate", layered_base, RUNG, RUNG_SEED)
    brute = timed("meets_brute", meets_brute, base)
    expected = timed("critical_base", lambda b: formats.format_imp(critical_base(b)), base)
    imp, mf = workdir / "rung.imp", workdir / "rung.mf"
    timed("write", formats.write_imp, base, imp)
    timed("write", formats.write_mf, base.ground, brute, mf)
    record = params(RUNG, RUNG_SEED, base, len(brute))
    rungs = [
        Instance("rung-ccm", ["ccm", str(imp)], gate.rung_check(base, {m.mask for m in brute}), record),
        Instance("rung-sid", ["sid", str(mf)], gate.exact_check(expected), record),
    ]
    return instances, rungs, spent


# -- runs ----------------------------------------------------------------------


def measure(instances, runner: Runner, seconds: float) -> None:
    """Invoke the instances in turn until `seconds` pass, at least once each."""
    end = perf_counter() + seconds
    i = 0
    while (i < len(instances) or perf_counter() < end) and runner.may_start():
        inst = instances[i % len(instances)]
        runner.run(inst.name, inst.argv)
        i += 1


def end_to_end(timed: list[Invocation], setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "cmd_s": statistics.median(inv.wall for inv in timed),
        "sets_per_s": sum(inv.sets for inv in timed) / sum(inv.wall for inv in timed),
        "first_set_s": statistics.median(
            inv.wall if inv.first is None else inv.first for inv in timed),
        "peak_rss_mb": max(inv.rss_mb for inv in timed),
    }


def per_layer(workload, instances, rungs, runner: Runner, seconds: float, spent: dict):
    """The traced run: each instance in process bare and with wrappers, then
    once through the CLI; until `seconds` pass, at least one instance.  The
    layers of the other command are timed on the rung, so that every metric
    is measured on every workload."""
    pipeline = tracing.PIPELINES[workload.command]
    tracer = tracing.Tracer()
    startup = [runner.run("startup", ["--help"], keep=False).wall
               for _ in range(STARTUP_REPEATS)]
    end = perf_counter() + seconds
    rows, bare_s, traced_s, jobs2 = [], 0.0, 0.0, None
    for i, inst in enumerate(instances):
        if rows and (perf_counter() >= end or not runner.may_start()):
            break
        path = inst.argv[1]
        tracer.trace = inst.name
        # Alternate which of the two goes first, so neither always runs
        # right after a CLI process.
        for traced in (i % 2 == 1, i % 2 == 0):
            t = perf_counter()
            if traced:
                with tracer.wrappers(), tracer.span("instance"):
                    counts = pipeline(path, tracer)
                traced_s += perf_counter() - t
            else:
                pipeline(path)
                bare = perf_counter() - t
        bare_s += bare
        cli = runner.run(inst.name, inst.argv)
        rows.append(counts | tracing.span_metrics(tracer.spans, inst.name)
                    | {"cli.overhead_s": cli.wall - bare})
        if jobs2 is None:
            jobs2 = cli.wall / runner.run(inst.name, [*inst.argv, "--jobs", "2"]).wall
    metrics = {m["name"]: statistics.median(row.get(m["name"], 0.0) for row in rows)
               for m in SPEC["per_layer"]}
    for rung in rungs:
        command, path = rung.argv
        if command != workload.command:
            tracer.trace = rung.name
            with tracer.wrappers(), tracer.span("instance"):
                counts = tracing.PIPELINES[command](path, tracer)
            row = counts | tracing.span_metrics(tracer.spans, rung.name)
            metrics |= {name: row[name] for name in tracing.LAYERS[command]}
    metrics |= {
        "critical.critical_base_s": spent["critical_base"],
        "oracle.meets_brute_s": spent["meets_brute"],
        "cli.startup_s": statistics.median(startup),
        "cli.jobs2_speedup": jobs2,
        "trace.overhead": (traced_s - bare_s) / bare_s,
    }
    return metrics, tracer.export(), len(rows)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = perf_counter()
    workload = WORKLOADS[name]
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    digests = gate.load_digests()
    setups = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        instances, rungs, spent = setup(workload, seed, workdir, digests)
        setups.append((perf_counter() - t, spent))
    setup_s = statistics.median(s for s, _ in setups)
    spent = {k: statistics.median(s[k] for _, s in setups) for k in setups[0][1]}

    spans, traced = [], None
    with Runner(workdir, started) as runner:
        if trace:
            metrics, spans, traced = per_layer(workload, instances, rungs, runner, seconds, spent)
        else:
            measure(instances, runner, seconds)
        measured = list(runner.invocations)
        for rung in rungs:
            runner.run(rung.name, rung.argv)

    checks = {inst.name: inst.check for inst in [*instances, *rungs]}
    verdicts = gate.Gate()
    for inv in runner.invocations:
        if inv.failure is None:
            inv.failure = verdicts.failure(inv.instance, inv.out, checks[inv.instance])
    failed = sum(inv.failure is not None for inv in runner.invocations)
    attempted = len(runner.invocations)
    if trace:
        metrics["error_rate"] = failed / attempted
    else:
        metrics = end_to_end(measured, setup_s)

    spec = SPEC["per_layer" if trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env.record(),
        "setup_parts_s": spent,
        "instances": [inst.params for inst in [*instances, rungs[0]]],
        "traced_instances": traced,
        "invocations": [
            {"instance": inv.instance, "wall_s": inv.wall, "first_set_s": inv.first,
             "sets": inv.sets, "rss_mb": inv.rss_mb, "failure": inv.failure}
            for inv in runner.invocations
        ],
        "result": result,
        "spans": spans,
    }
    (OUT / f"{name}-s{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    for inv in runner.invocations:
        if inv.failure:
            print(f"FAILED {inv.instance}: {inv.failure}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        for name, m in result["metrics"].items():
            print(f"{name:32} {m['value']:14.6g} {m['unit']}")
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    correct = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run(name, args.seed, args.seconds, trace)
            correct &= result["correct"]
            print(f"# {name} trace={int(trace)} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"{name:9} {metric:32} {m['value']:14.6g} {m['unit']}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
