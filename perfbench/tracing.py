"""The traced run: the CLI's library calls, in process, with a span per layer.

Each pipeline repeats what one `geodual ccm` or `geodual sid` invocation
does, through public entry points only.  With a `Tracer`, calls into
each layer are wrapped in spans (name, start, end, parent; every span of
one instance shares that instance's trace id) and dualization goes
through a counting backend that wraps `BergeBackend`, one per caller.
Without one, the same pipeline runs bare, so the two timings give the
tracing overhead.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

import geodual.ccm
import geodual.sid
from geodual import BergeBackend, formats, meet_irreducibles
from geodual.sid import MeetFamily

# Module attributes wrapped while tracing, looked up by the library at call
# time: (module, attribute, span name).
WRAPPED = (
    (geodual.ccm, "compute_rank", "ranking.compute_rank"),
    (geodual.sid, "partition_meets", "sid.partition_meets"),
    (geodual.sid, "predecessors", "sid.predecessors"),
    (geodual.sid, "complement_hypergraph", "sid.complement_hypergraph"),
    (geodual.sid, "minimal_transversals", "sid.minimal_transversals"),
)


class Tracer:
    """Spans in memory; `trace` is the id stamped on the spans opened next."""

    def __init__(self):
        self.spans: list[list] = []  # [trace, id, parent, name, start, end]
        self.trace = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [self.trace, len(self.spans), self._open[-1] if self._open else None,
                  name, perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[1])
        try:
            yield
        finally:
            record[5] = perf_counter()
            self._open.pop()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                # Generators do their work when iterated; drain them inside
                # the span.
                return iter(list(result)) if hasattr(result, "__next__") else result

        return traced

    @contextlib.contextmanager
    def wrappers(self):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
        try:
            for module, attr, name in WRAPPED:
                setattr(module, attr, self._wrap(getattr(module, attr), name))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def export(self) -> list[dict]:
        keys = ("trace", "id", "parent", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]


class CountingBackend:
    """`BergeBackend` with a span per call and counts of what went in and out."""

    def __init__(self, tracer: Tracer, caller: str):
        self.tracer = tracer
        self.caller = caller
        self.inner = BergeBackend()
        self.calls = self.edges_in = self.transversals_out = self.max_family = 0

    def transversal_masks(self, edges):
        with self.tracer.span(f"hypergraphs.{self.caller}"):
            out = self.inner.transversal_masks(edges)
        self.calls += 1
        self.edges_in += len(edges)
        self.transversals_out += len(out)
        self.max_family = max(self.max_family, len(out))
        return out

    def counters(self) -> dict[str, int]:
        p = f"hypergraphs.{self.caller}."
        return {p + "calls": self.calls, p + "edges_in": self.edges_in,
                p + "transversals_out": self.transversals_out,
                p + "max_family": self.max_family}


def _span(tracer):
    return tracer.span if tracer else lambda name: contextlib.nullcontext()


def ccm_pipeline(path, tracer: Tracer | None = None) -> dict:
    """`geodual ccm FILE` without the printing: read, then stream the meets."""
    span = _span(tracer)
    backend = CountingBackend(tracer, "ccm") if tracer else None
    with span("formats.read"):
        base = formats.read_imp(path)
    meets, first, delay = 0, None, 0.0
    with span("ccm.meet_irreducibles"):
        start = last = perf_counter()
        for _ in meet_irreducibles(base, backend):
            now = perf_counter()
            if first is None:
                first = now - start
            else:
                delay = max(delay, now - last)
            last = now
            meets += 1
    out = {"ccm.meets": meets, "ccm.first_s": first or 0.0, "ccm.delay_max_s": delay}
    return out | (backend.counters() if backend else {})


def sid_pipeline(path, tracer: Tracer | None = None) -> dict:
    """`geodual sid FILE` without the printing: read, partition, recover."""
    span = _span(tracer)
    backend = CountingBackend(tracer, "sid") if tracer else None
    with span("formats.read"):
        ground, sets = formats.read_mf(path)
    with span("sid.recover"):
        family = MeetFamily(ground, sets)
        partition = geodual.sid.partition_meets(family)
        rules = sum(1 for _ in geodual.sid.iter_recovered_implications(
            family, backend, partition=partition))
    n = ground.size
    out = {"sid.meets_in": len(family), "sid.rules_out": rules,
           "sid.closure_scans": sum(n - len(m) for m in family)}
    return out | (backend.counters() if backend else {})


PIPELINES = {"ccm": ccm_pipeline, "sid": sid_pipeline}

# Metrics that only one command's pipeline produces.
LAYERS = {
    command: tuple(f"hypergraphs.{command}.{c}" for c in
                   ("calls", "busy_s", "edges_in", "transversals_out", "max_family"))
    for command in PIPELINES
}
LAYERS["ccm"] += ("ranking.compute_rank_s", "ccm.total_s", "ccm.self_s", "ccm.meets",
                  "ccm.first_s", "ccm.delay_max_s")
LAYERS["sid"] += ("sid.total_s", "sid.partition_s", "sid.predecessors_s",
                  "sid.complement_hypergraph_s", "sid.transversals_s", "sid.meets_in",
                  "sid.rules_out", "sid.closure_scans")

# Per-layer span totals: metric name -> span name.
SPAN_TOTALS = {
    "formats.read_s": "formats.read",
    "ranking.compute_rank_s": "ranking.compute_rank",
    "ccm.total_s": "ccm.meet_irreducibles",
    "hypergraphs.ccm.busy_s": "hypergraphs.ccm",
    "hypergraphs.sid.busy_s": "hypergraphs.sid",
    "sid.total_s": "sid.recover",
    "sid.partition_s": "sid.partition_meets",
    "sid.predecessors_s": "sid.predecessors",
    "sid.complement_hypergraph_s": "sid.complement_hypergraph",
    "sid.transversals_s": "sid.minimal_transversals",
}


def span_metrics(spans: list[list], trace) -> dict[str, float]:
    """Per-layer seconds of one instance, with `ccm.self_s` as the time
    inside `ccm.meet_irreducibles` not covered by its child spans."""
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    mine = [s for s in spans if s[0] == trace]
    for _, sid, parent, name, start, end in mine:
        total[name] += end - start
        if parent is not None:
            child[parent] += end - start
    metrics = {metric: total[name] for metric, name in SPAN_TOTALS.items()}
    metrics["ccm.self_s"] = sum(
        (end - start - child[sid]
         for _, sid, _, name, start, end in mine
         if name == "ccm.meet_irreducibles"),
        0.0,
    )
    return metrics
