"""Span tracing of snsflow from the outside, by patching module attributes.

Nothing inside the program is edited: ``Tracer.install()`` replaces the public
functions listed in ``TARGETS`` (and ``scipy.sparse.linalg.splu``) with
wrappers that record one span per call, and ``uninstall()`` puts the originals
back. Spans live in memory; ``write_spans()`` writes them out as JSON lines.

A span's layer is the part of its name before the first dot. Self time is a
span's duration minus the part of its interval its children cover, so the
layers' self times partition the root span when calls run on one thread.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time
from dataclasses import dataclass, field

import scipy.sparse.linalg as spla

from snsflow import assembly, cli, manufactured, noise, solvers, uq

# (module, attribute, span name); the layer is the span name's first part.
# cli and uq import the mesh builders by name, so both bindings are patched.
TARGETS = [
    (uq, "build_structured_mesh", "mesh.build_structured_mesh"),
    (uq, "build_dof_map", "mesh.build_dof_map"),
    (cli, "build_structured_mesh", "mesh.build_structured_mesh"),
    (cli, "build_dof_map", "mesh.build_dof_map"),
    (solvers, "assemble_operators", "assembly.operators"),
    (assembly, "assemble_load", "assembly.body_load"),
    (assembly, "assemble_convection_linearized", "assembly.convection"),
    (assembly, "assemble_noise_load", "assembly.noise_load"),
    (noise, "sample_noise", "noise.sample"),
    (solvers, "linear_saddle_solve", "solvers.system_build"),
    (solvers, "solve_deterministic_ns", "solvers.deterministic"),
    (solvers, "solve_monolithic", "solvers.monolithic"),
    (solvers, "solve_stochastic_full", "solvers.split"),
    (solvers, "solve_stochastic_modified", "solvers.modified"),
    (uq, "run_experiment", "uq.run_experiment"),
    (uq, "error_statistics", "uq.error_statistics"),
    (manufactured, "l2_error", "manufactured.l2_error"),
    (manufactured, "velocity_l2_norm", "manufactured.l2_error"),
    (manufactured, "forcing_l2_norm", "manufactured.forcing_norm"),
    (uq, "write_stats_csv", "cli.write"),
    (uq, "write_samples_csv", "cli.write"),
    (uq, "write_field_csv", "cli.write"),
]
ROOT = "cli.main"
LAYERS = ("mesh", "assembly", "noise", "solvers", "uq", "manufactured", "cli")
SAMPLE_SPANS = ("noise.sample", "assembly.noise_load", "solvers.monolithic",
                "solvers.split", "solvers.modified")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    cpu_start: float
    end: float = 0.0
    cpu: float = 0.0          # CPU time of the opening thread inside the span
    attrs: dict = field(default_factory=dict)


class _FactorProxy:
    """Stands in for a SuperLU object so that ``.solve`` is traced too."""

    def __init__(self, tracer: "Tracer", lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        with self._tracer.span("solvers.triangular_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        # a pool worker's outermost span belongs to the span the main thread
        # is blocked in (uq.run_experiment)
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1] if parent_stack else -1
        with self._lock:
            idx = len(self.spans)
            span = Span(name, 0.0, parent, time.thread_time())
            self.spans.append(span)
        stack.append(idx)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.cpu = time.thread_time() - span.cpu_start
            stack.pop()

    # -- patching --------------------------------------------------------
    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if name in ("solvers.monolithic", "solvers.split"):
                span.attrs["iterations"] = result[1].iterations
            return result

        return traced

    def _wrap_splu(self, fn):
        def traced_splu(matrix, *args, **kwargs):
            with self.span("solvers.factorize") as span:
                lu = fn(matrix, *args, **kwargs)
            # SuperLU's own storage count of L and U; reading it converts nothing
            span.attrs.update(lu_nnz=int(lu.nnz), k_nnz=int(matrix.nnz))
            return _FactorProxy(self, lu)

        return traced_splu

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        self._patch(spla, "splu", self._wrap_splu(spla.splu))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- analysis ----------------------------------------------------------------

def write_spans(path: str, traces: list[list[Span]]) -> None:
    """One JSON line per span; ``call`` numbers the traced calls."""
    with open(path, "w") as fh:
        for call, spans in enumerate(traces):
            for i, s in enumerate(spans):
                fh.write(json.dumps({"call": call, "id": i, "name": s.name,
                                     "parent": s.parent, "start": s.start, "end": s.end,
                                     "cpu": s.cpu, **s.attrs}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    idx = spans[idx].parent
    while idx >= 0:
        if spans[idx].name == name:
            return True
        idx = spans[idx].parent
    return False


def call_metrics(spans: list[Span], samples: int, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced ``cli.main`` call (spans[0] is its root)."""
    if not spans or spans[0].name != ROOT:
        raise ValueError("trace must start with the root span")
    selfs = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, st in zip(spans, selfs):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[s.name.split(".", 1)[0]] += st

    def tot(name):
        return total.get(name, 0.0)

    def iterations(name):
        return sum(s.attrs.get("iterations", 0) for s in spans if s.name == name)

    factors = [i for i, s in enumerate(spans) if s.name == "solvers.factorize"]
    per_sample_factors = sum(1 for i in factors
                             if not _has_ancestor(spans, i, "solvers.deterministic"))
    fills = [spans[i].attrs["lu_nnz"] / spans[i].attrs["k_nnz"] for i in factors]
    lu_nnz = [spans[i].attrs["lu_nnz"] for i in factors]

    run_ids = [i for i, s in enumerate(spans) if s.name == "uq.run_experiment"]
    busy = sum(s.cpu for s in spans
               if s.name in SAMPLE_SPANS and s.parent in run_ids)
    run_wall = sum(spans[i].end - spans[i].start for i in run_ids)
    wall = spans[0].end - spans[0].start

    m = {
        "mesh.build_s": tot("mesh.build_structured_mesh") + tot("mesh.build_dof_map"),
        "assembly.convection_s": tot("assembly.convection"),
        "assembly.convection_calls": calls.get("assembly.convection", 0),
        "assembly.operators_s": tot("assembly.operators"),
        "assembly.body_load_s": tot("assembly.body_load"),
        "assembly.noise_load_s": tot("assembly.noise_load"),
        "noise.sample_s": tot("noise.sample"),
        "noise.sample_calls": calls.get("noise.sample", 0),
        "solvers.factorize_s": tot("solvers.factorize"),
        "solvers.factorize_calls": len(factors),
        "solvers.factorize_per_sample": per_sample_factors / samples,
        "solvers.fill_ratio": statistics.median(fills) if fills else 0.0,
        "solvers.lu_nnz": statistics.median(lu_nnz) if lu_nnz else 0,
        "solvers.system_build_s": sum(st for s, st in zip(spans, selfs)
                                      if s.name == "solvers.system_build"),
        "solvers.triangular_solve_s": tot("solvers.triangular_solve"),
        "solvers.triangular_solve_calls": calls.get("solvers.triangular_solve", 0),
        "solvers.deterministic_s": tot("solvers.deterministic"),
        "solvers.monolithic_s": tot("solvers.monolithic"),
        "solvers.split_s": tot("solvers.split"),
        "solvers.modified_s": tot("solvers.modified"),
        "solvers.newton_iterations.monolithic": iterations("solvers.monolithic"),
        "solvers.newton_iterations.split": iterations("solvers.split"),
        "uq.pool_efficiency": busy / (jobs * run_wall) if run_wall > 0 else 0.0,
        "manufactured.l2_error_s": tot("manufactured.l2_error"),
        "cli.write_s": tot("cli.write"),
        "trace.wall_s": wall,
        "trace.layer_sum_ratio": sum(layer_self.values()) / wall,
    }
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    return m


# metrics that count work; they must repeat exactly between calls of one run
COUNT_METRICS = (
    "assembly.convection_calls", "noise.sample_calls", "solvers.factorize_calls",
    "solvers.factorize_per_sample", "solvers.fill_ratio", "solvers.lu_nnz",
    "solvers.triangular_solve_calls", "solvers.newton_iterations.monolithic",
    "solvers.newton_iterations.split",
)
