"""Spans and kernel counts, recorded from outside the program.

``Tracer.operation`` replaces public functions of the scapre modules by
wrappers, under the names through which ``scapre.pipeline``, ``scapre.cli``
and the modules they call look them up, and counts calls of NumPy's
``eigh``, ``eigvalsh`` and ``svd``; everything is put back when the block
ends. Each wrapper records a span: name, start, end, parent and operation id.
Spans stay in memory until ``write`` at the end of the run.

A span's layer is its name up to the first dot. The benchmark's own root
span has layer ``bench``.
"""

import contextlib
import functools
import gzip
import importlib
import json
import os
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

MB = 2**20

# (module, attribute, span name) for every wrapped function.
WRAPPED = (
    ("scapre", "run_edit", "pipeline.run_edit"),
    ("scapre.cli", "main", "cli.main"),
    ("scapre.cli", "run_edit", "pipeline.run_edit"),
    ("scapre.cli", "generate_model", "harness.generate_model"),
    ("scapre.cli", "load_manifest", "smatio.load_manifest"),
    ("scapre.cli", "read_smat", "smatio.read_smat"),
    ("scapre.cli", "write_smat", "smatio.write_smat"),
    ("scapre.cli", "write_report", "smatio.write_report"),
    ("scapre.cli", "write_csv", "smatio.write_csv"),
    ("scapre.harness", "generate_model", "harness.generate_model"),
    ("scapre.pipeline", "build_s", "stabilizer.build_s"),
    ("scapre.pipeline", "build_r", "stabilizer.build_r"),
    ("scapre.pipeline", "relative_lambda", "stabilizer.relative_lambda"),
    ("scapre.pipeline", "assemble_a", "stabilizer.assemble_a"),
    ("scapre.pipeline", "build_decoupler", "informax.build_decoupler"),
    ("scapre.informax", "channel_mi", "informax.channel_mi"),
    ("scapre.pipeline", "assemble_m", "solver.assemble_m"),
    ("scapre.pipeline", "sylvester_solve_spectral", "solver.sylvester_solve_spectral"),
    ("scapre.pipeline", "bures_distance", "geometry.bures_distance"),
    ("scapre.pipeline", "refine_weights", "geometry.refine_weights"),
    ("scapre.pipeline", "probe_scores", "metrics.probe_scores"),
    ("scapre.stabilizer", "svd", "matkernel.svd"),
    ("scapre.stabilizer", "sym_eig", "matkernel.sym_eig"),
    ("scapre.solver", "sym_eig", "matkernel.sym_eig"),
    ("scapre.geometry", "sym_eig", "matkernel.sym_eig"),
    ("scapre.geometry", "psd_sqrt", "matkernel.psd_sqrt"),
    ("scapre.geometry", "procrustes", "matkernel.procrustes"),
    ("scapre.matkernel", "sym_eig", "matkernel.sym_eig"),
    ("scapre.matkernel", "svd", "matkernel.svd"),
)
KERNELS = ("eigh", "eigvalsh", "svd")
EIG_KERNELS = ("eigh", "eigvalsh")
# Layers whose spans record their tracemalloc peak.
ALLOC_LAYERS = ("stabilizer", "geometry")
# Every layer an operation passes through, in pipeline order.
LAYERS = (
    "cli", "smatio", "pipeline", "stabilizer", "informax",
    "solver", "geometry", "metrics", "matkernel",
)  # fmt: skip


def layer_of(name: str) -> str:
    return name.partition(".")[0]


def _held_bytes(result) -> int:
    """Bytes of the distinct arrays a ``StabilizerA`` holds."""
    held = (result.s, result.r, result.a, result.eig.eigvecs, result.eig.eigvals)
    arrays = {id(a): a for a in held}
    return sum(a.nbytes for a in arrays.values())


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


# Extra numbers a span records after its call returns: name -> (key, how).
MEASURED = {
    "stabilizer.assemble_a": ("result_bytes", lambda args, kwargs, result: _held_bytes(result)),
    "smatio.load_manifest": ("read_bytes", _file_bytes),
    "smatio.read_smat": ("read_bytes", _file_bytes),
    "smatio.write_smat": ("write_bytes", _file_bytes),
    "smatio.write_report": ("write_bytes", _file_bytes),
    "smatio.write_csv": ("write_bytes", _file_bytes),
}


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "kernels", "extra")

    def __init__(self, span_id, name, parent, op, start):
        self.id, self.name, self.parent, self.op = span_id, name, parent, op
        self.start, self.end = start, start
        self.kernels = None
        self.extra = None


class Tracer:
    """Records spans of traced operations; patches only while one runs."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def operation(self, op_id, root: str = "bench.op"):
        """Trace the block as operation ``op_id`` under a root span named ``root``."""
        patched = []
        try:
            for module, attr, name in WRAPPED:
                owner = importlib.import_module(module)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, name))
                patched.append((owner, attr, original))
            for kind in KERNELS:
                original = getattr(np.linalg, kind)
                setattr(np.linalg, kind, self._count(original, kind))
                patched.append((np.linalg, kind, original))
            self._op = op_id
            span = self._open(root)
            try:
                yield
            finally:
                self._close(span)
                self._op = None
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def spans_of(self, op_id) -> list[Span]:
        return [s for s in self.spans if s.op == op_id]

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        track_alloc = layer_of(name) in ALLOC_LAYERS
        measured = MEASURED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            started = track_alloc and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                if measured:
                    key, how = measured
                    span.extra = {key: how(args, kwargs, result)}
                return result
            finally:
                if started:
                    peak = tracemalloc.get_traced_memory()[1]
                    span.extra = {**(span.extra or {}), "peak_alloc": peak}
                    tracemalloc.stop()
                self._close(span)

        return traced

    def _count(self, fn, kind: str):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            span = self._stack[-1]
            if span.kernels is None:
                span.kernels = []
            span.kernels.append((kind, tuple(np.shape(a))))
            return fn(a, *args, **kwargs)

        return counted

    def write(self, path) -> None:
        """Write every span as one JSON line, times in seconds from tracer start."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                row = {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "op": s.op,
                    "start": s.start - self._t0,
                    "end": s.end - self._t0,
                }
                if s.kernels:
                    row["kernels"] = [[k, list(shape)] for k, shape in s.kernels]
                if s.extra:
                    row.update(s.extra)
                fh.write(json.dumps(row) + "\n")


def summarize(spans: list[Span]) -> dict:
    """Numbers of one operation from its spans (the root span first).

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap, because the program runs on one
    thread. Kernel calls count toward the nearest enclosing span outside
    ``matkernel``, the layer that asked for them.
    """
    by_id = {s.id: s for s in spans}
    duration = {s.id: s.end - s.start for s in spans}
    covered = defaultdict(float)
    for s in spans[1:]:
        covered[s.parent] += duration[s.id]
    layer_self = defaultdict(float)
    span_s = defaultdict(float)
    calls = Counter()
    peak = defaultdict(int)
    extra = Counter()
    kernels = defaultdict(Counter)
    for s in spans:
        layer = layer_of(s.name)
        layer_self[layer] += duration[s.id] - covered[s.id]
        span_s[s.name] += duration[s.id]
        calls[s.name] += 1
        for key, value in (s.extra or {}).items():
            if key == "peak_alloc":
                peak[layer] = max(peak[layer], value)
            else:
                extra[key] += value
        if s.kernels:
            caller = s
            while layer_of(caller.name) == "matkernel":
                caller = by_id[caller.parent]
            for kind, shape in s.kernels:
                kernels[layer_of(caller.name)][(kind, shape)] += 1
    return {
        "op_s": duration[spans[0].id],
        "layer_self_s": dict(layer_self),
        "span_s": dict(span_s),
        "calls": dict(calls),
        "peak_alloc": dict(peak),
        "extra": dict(extra),
        "kernels": {layer: dict(c) for layer, c in kernels.items()},
    }


def kernel_table(summary: dict) -> dict:
    """Kernel calls per calling layer, kind and size, for the results file."""
    table = {}
    for layer, counts in summary["kernels"].items():
        rows = table.setdefault(layer, {})
        for (kind, shape), n in sorted(counts.items()):
            size = "x".join(str(d) for d in shape)
            rows.setdefault(kind, {})[size] = n
    return table


def _eig(counts) -> tuple[int, int]:
    """(calls, sum of n^3) over the eigen kernels in ``counts``."""
    calls = n3 = 0
    for (kind, shape), n in counts.items():
        if kind in EIG_KERNELS:
            calls += n
            n3 += n * shape[-1] ** 3
    return calls, n3


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced operation: name -> (value, unit)."""
    s, calls, self_s = summary["span_s"], summary["calls"], summary["layer_self_s"]
    all_kernels = Counter()
    for counts in summary["kernels"].values():
        all_kernels.update(counts)
    geo_calls, geo_n3 = _eig(summary["kernels"].get("geometry", {}))
    eig_calls, eig_n3 = _eig(all_kernels)
    extra, peak = summary["extra"], summary["peak_alloc"]
    op_s = summary["op_s"]
    out = {
        "stabilizer.build_s_s": (s.get("stabilizer.build_s", 0.0), "s"),
        "stabilizer.build_r_s": (s.get("stabilizer.build_r", 0.0), "s"),
        "stabilizer.assemble_a_s": (s.get("stabilizer.assemble_a", 0.0), "s"),
        "stabilizer.result_mb": (extra.get("result_bytes", 0) / MB, "MB"),
        "stabilizer.peak_alloc_mb": (peak.get("stabilizer", 0) / MB, "MB"),
        "informax.build_decoupler_s": (s.get("informax.build_decoupler", 0.0), "s"),
        "informax.channel_mi_calls": (calls.get("informax.channel_mi", 0), "count"),
        "solver.assemble_m_s": (s.get("solver.assemble_m", 0.0), "s"),
        "solver.solve_s": (s.get("solver.sylvester_solve_spectral", 0.0), "s"),
        "geometry.bures_s": (s.get("geometry.bures_distance", 0.0), "s"),
        "geometry.refine_s": (s.get("geometry.refine_weights", 0.0), "s"),
        "geometry.eig_calls": (geo_calls, "count"),
        "geometry.eig_n3": (geo_n3, "n3"),
        "geometry.peak_alloc_mb": (peak.get("geometry", 0) / MB, "MB"),
        "metrics.probe_scores_s": (s.get("metrics.probe_scores", 0.0), "s"),
        "matkernel.eig_calls": (eig_calls, "count"),
        "matkernel.eig_n3": (eig_n3, "n3"),
        "matkernel.svd_calls": (sum(n for (k, _), n in all_kernels.items() if k == "svd"), "count"),
        "pipeline.self_s": (self_s.get("pipeline", 0.0), "s"),
        "smatio.read_s": (s.get("smatio.read_smat", 0.0) + s.get("smatio.load_manifest", 0.0), "s"),
        "smatio.write_s": (
            sum(s.get(f"smatio.{f}", 0.0) for f in ("write_smat", "write_report", "write_csv")),
            "s",
        ),
        "smatio.read_mb": (extra.get("read_bytes", 0) / MB, "MB"),
        "smatio.write_mb": (extra.get("write_bytes", 0) / MB, "MB"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "trace.op_s": (op_s, "s"),
        "trace.unattributed_s": (self_s.get("bench", 0.0), "s"),
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = (self_s.get(layer, 0.0) / op_s, "ratio")
    return out
