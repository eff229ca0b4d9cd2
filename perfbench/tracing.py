"""Span recorder that times calls into gazefield's layers from outside.

Nothing inside the package is changed: ``installed()`` rebinds the layer
functions that ``gazefield.cli`` imports (and the Horn-Schunck sweep that
``horn_schunck`` looks up in its own module) to wrappers that record one
span per call, and restores the originals on exit.  Spans stay in memory
and are written once, at the end.
"""

from __future__ import annotations

import csv
import importlib
import itertools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# (module, attribute, span name).  The span name is "<layer>.<function>",
# where the layer is the gazefield module that defines the function.
TARGETS = (
    ("gazefield.cli", "load_pgm", "retina.load_pgm"),
    ("gazefield.cli", "gaussian_blur", "retina.gaussian_blur"),
    ("gazefield.cli", "gradient", "retina.gradient"),
    ("gazefield.cli", "temporal_derivative", "retina.temporal_derivative"),
    ("gazefield.cli", "magnitude", "retina.magnitude"),
    ("gazefield.cli", "horn_schunck", "optical_flow.horn_schunck"),
    ("gazefield.optical_flow", "hs_jacobi_step", "optical_flow.hs_jacobi_step"),
    ("gazefield.cli", "ior_step", "mass.ior_step"),
    ("gazefield.cli", "mass_density", "mass.mass_density"),
    ("gazefield.cli", "evolve_potential", "potential.evolve_potential"),
    ("gazefield.cli", "poisson_solve", "potential.poisson_solve"),
    ("gazefield.cli", "convergence_in_c", "potential.convergence_in_c"),
    ("gazefield.cli", "foa_step", "foa.foa_step"),
    ("gazefield.cli", "detect_saccades", "foa.detect_saccades"),
    ("gazefield.cli", "export_scanpath", "cli.export_scanpath"),
    ("gazefield.cli", "export_field", "cli.export_field"),
    ("gazefield.cli", "read_field", "cli.read_field"),
)

# A number recorded with the span, taken from the call's arguments: the
# bytes a field record occupies, and the sweep cap a flow solve runs under.
NOTES = {
    "cli.export_field": lambda args: 12 + 4 * args[0].width * args[0].height,
    "optical_flow.horn_schunck": lambda args: args[3].max_iters,
}


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a run's root span
    run_id: int
    note: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    run_id: int = 0

    def __post_init__(self):
        self._ids = itertools.count(1)
        self._stack = [0]

    @contextmanager
    def span(self, name: str):
        sid, parent = next(self._ids), self._stack[-1]
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run_id))

    @contextmanager
    def run(self):
        """Root span of one workload run; later spans carry its run id."""
        self.run_id += 1
        with self.span("run"):
            yield self.run_id

    def wrap(self, name: str, fn):
        # a plain try/finally instead of span(): this wrapper runs once per
        # substep, so its cost is part of trace.overhead_ratio
        ids, stack, spans = self._ids, self._stack, self.spans
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            sid, parent = next(ids), stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, self.run_id,
                                  note(args) if note else 0))

        return traced

    @contextmanager
    def installed(self):
        """Route every call named in TARGETS through this tracer."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("span_id", "name", "start", "end", "parent", "run_id", "note"))
            for s in self.spans:
                out.writerow((s.span_id, s.name, repr(s.start), repr(s.end),
                              s.parent, s.run_id, s.note))


@dataclass
class LayerStat:
    seconds: float = 0.0       # summed span durations
    self_seconds: float = 0.0  # the same minus the time covered by child spans
    calls: int = 0
    note: int = 0              # summed notes


def run_stats(spans, run_id: int) -> tuple[dict, dict]:
    """Per-name totals of one run, and each span's count of direct children."""
    mine = [s for s in spans if s.run_id == run_id]
    child_seconds: dict = defaultdict(float)
    children: dict = defaultdict(int)
    for s in mine:
        child_seconds[s.parent] += s.seconds
        children[s.parent] += 1
    stats: dict = defaultdict(LayerStat)
    for s in mine:
        st = stats[s.name]
        st.seconds += s.seconds
        st.self_seconds += s.seconds - child_seconds[s.span_id]
        st.calls += 1
        st.note += s.note
    return stats, children
