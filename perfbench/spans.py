"""Span recorder that traces pergraph from outside the package.

`Recorder.install` replaces every public function of each pergraph layer
module with a timing wrapper, in every pergraph module namespace that holds
the same function object. Calls made through module globals (for example
estimates.compute_bands -> band_analysis.grid_eigenvalues ->
hermitian_eigen_batch) are therefore caught without touching the package.

A span records its name ("<layer>.<function>"), thread id, start, end and the
span that caused it. Self time is a span's duration minus the union of its
child intervals. A wrapped call on a thread with no open span (a worker
thread of a grid sweep) is parented to the innermost open span of the
thread that installed the recorder.

`op_metrics` and `setup_metrics` turn the spans of one operation or one
set-up into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
from time import perf_counter

LAYERS = (
    "graph_core",
    "catalog",
    "fiber_linalg",
    "band_analysis",
    "estimates",
    "cli_io",
)

EIGEN_BATCH = "fiber_linalg.hermitian_eigen_batch"
EIGEN_SCALAR = "fiber_linalg.hermitian_eigen"
ASSEMBLE_SCALAR = (
    "fiber_linalg.assemble_laplacian",
    "fiber_linalg.assemble_schrodinger",
    "fiber_linalg.assemble_nabla",
    "fiber_linalg.fiber_offset",
)
SWEEP = "band_analysis.grid_eigenvalues"
REDUCE = (
    "band_analysis.compute_bands",
    "band_analysis.spectrum_union",
    "band_analysis.gaps",
)
CHECKERS = {
    "estimates.measure_bound_s": ("estimates.check_measure_bound",),
    "estimates.gap_sum_s": ("estimates.check_gap_sum",),
    "estimates.first_band_s": ("estimates.check_first_band",),
    "estimates.effective_mass_bound_s": ("estimates.check_effective_mass_bound",),
    "estimates.loop_graph_s": ("estimates.check_loop_graph",),
    "estimates.bipartite_s": ("estimates.check_bipartite",),
    "estimates.perron_s": (
        "estimates.perron_ground_state",
        "estimates.perron_contrast",
    ),
}
READ = ("cli_io.read_graph", "cli_io.read_potential")

# Functions the per-layer metrics are defined on. One missing at a given
# commit is reported as absent and its metrics read 0.
NAMED = (
    EIGEN_BATCH,
    EIGEN_SCALAR,
    *ASSEMBLE_SCALAR,
    SWEEP,
    *REDUCE,
    "band_analysis.effective_mass",
    "estimates.build_report",
    *(name for names in CHECKERS.values() for name in names),
    "catalog.generate",
    *READ,
    "cli_io.main",
)


class Span:
    __slots__ = ("name", "tid", "parent", "start", "end", "info")

    def __init__(self, name: str, tid: int, parent: "Span | None") -> None:
        self.name = name
        self.tid = tid
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _batch_info(args, kwargs, result) -> dict:
    shape = (args[0] if args else kwargs["matrices"]).shape
    return {"matrices": shape[0], "fiber_bytes": shape[0] * shape[1] ** 2 * 16}


def _table_info(args, kwargs, result) -> dict:
    return {"table_bytes": result.nbytes}


# Sizes read from a call's arguments or result; a signature that no longer
# fits leaves the span without sizes instead of failing the run.
SIZERS = {EIGEN_BATCH: _batch_info, SWEEP: _table_info}


class Recorder:
    """Collects spans from wrapped pergraph functions; see the module doc."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stacks: dict[int, list[Span]] = {}
        self._origin = threading.get_ident()

    def install(self, package: str = "pergraph") -> None:
        namespaces = [importlib.import_module(package)]
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                self.absent.append(f"{package}.{layer}")
                continue
            namespaces.append(module)
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    originals[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(namespace, attr, hit[1])
        wrapped = {wrapper.span_name for _, wrapper in originals.values()}
        self.absent += [name for name in NAMED if name not in wrapped]

    def wrap(self, fn, name: str):
        sizer = SIZERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            elif tid != self._origin and self._stacks.get(self._origin):
                parent = self._stacks[self._origin][-1]
            else:
                parent = None
            span = Span(name, tid, parent)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self.spans.append(span)
            if sizer is not None:
                try:
                    span.info = sizer(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        traced.span_name = name
        return traced


def calibrate(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: wrapped minus plain, median of repeats."""

    def noop():
        return None

    recorder = Recorder()
    traced = recorder.wrap(noop, "calibrate.noop")
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        recorder.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (keyed by id): duration minus union of children."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for a, b in sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(id(span), ())
        ):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        result[id(span)] = span.duration - covered
    return result


def _outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in names that have no ancestor named in names."""
    names = set(names)
    chosen = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and parent.name not in names:
            parent = parent.parent
        if parent is None:
            chosen.append(span)
    return chosen


def _total(spans, names) -> tuple[float, int]:
    chosen = _outermost(spans, names)
    return sum(s.duration for s in chosen), len(chosen)


def _self(spans, selfs, names) -> float:
    return sum(selfs[id(s)] for s in spans if s.name in names)


def _info(spans, name: str, key: str) -> int:
    return sum(s.info.get(key, 0) for s in spans if s.name == name and s.info)


def _threads(spans: list[Span]) -> int:
    """Worker threads that ran traced calls, or 1 when the caller did all."""
    callers = {s.tid for s in spans if s.parent is None}
    workers = {s.tid for s in spans} - callers
    return len(workers) or len(callers)


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation, plus its span count and coverage."""
    selfs = self_times(spans)
    batch_s, batch_calls = _total(spans, (EIGEN_BATCH,))
    scalar_s, scalar_calls = _total(spans, (EIGEN_SCALAR,))
    assemble_s, assemble_calls = _total(spans, ASSEMBLE_SCALAR)
    sweep_s, sweeps = _total(spans, (SWEEP,))
    main_s, _ = _total(spans, ("cli_io.main",))
    return {
        "fiber_linalg.eigen_batch_s": batch_s,
        "fiber_linalg.eigen_batch_calls": batch_calls,
        "fiber_linalg.eigen_batch_matrices": _info(spans, EIGEN_BATCH, "matrices"),
        "fiber_linalg.fiber_bytes": _info(spans, EIGEN_BATCH, "fiber_bytes"),
        "fiber_linalg.eigen_scalar_s": scalar_s,
        "fiber_linalg.eigen_scalar_calls": scalar_calls,
        "fiber_linalg.assemble_scalar_s": assemble_s,
        "fiber_linalg.assemble_scalar_calls": assemble_calls,
        "band_analysis.sweeps": sweeps,
        "band_analysis.sweep_s": sweep_s,
        "band_analysis.table_bytes": _info(spans, SWEEP, "table_bytes"),
        "band_analysis.sweep_self_s": _self(spans, selfs, (SWEEP,)),
        "band_analysis.reduce_self_s": _self(spans, selfs, REDUCE),
        "band_analysis.effective_mass_s": _total(
            spans, ("band_analysis.effective_mass",)
        )[0],
        "band_analysis.threads_seen": _threads(spans),
        "estimates.report_self_s": _self(
            spans, selfs, ("estimates.build_report",)
        ),
        **{key: _total(spans, names)[0] for key, names in CHECKERS.items()},
        "cli_io.main_s": main_s,
        "cli_io.main_self_s": _self(spans, selfs, ("cli_io.main",)),
        # every span's self time counts once, so this is the traced wall time
        "covered_s": sum(selfs.values()),
        "spans": len(spans),
    }


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one set-up (import plus building the graph)."""
    graph_core = [s.name for s in spans if s.name.startswith("graph_core.")]
    catalog = [s.name for s in spans if s.name.startswith("catalog.")]
    return {
        "graph_core.busy_s": _total(spans, graph_core)[0],
        "catalog.generate_s": _total(spans, catalog)[0],
        "cli_io.read_s": _total(spans, READ)[0],
        "covered_s": sum(s.duration for s in spans if s.parent is None),
    }
