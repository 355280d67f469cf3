"""The timed loop, its checks, and the metrics computed from it.

Importing this module imports NumPy: set the BLAS thread count first.
"""

import contextlib
import ctypes
import glob
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
import workloads

MB = 2**20


def blas_threads():
    """Thread count OpenBLAS reports for NumPy's own copy, or None if unknown."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
    }


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


class Loop:
    """Runs and checks operations, one record per operation."""

    def __init__(self, workload, tracer=None):
        self.workload, self.tracer = workload, tracer
        self.instances: list = []
        self.edits: list[list] = []  # per input set, the inputs the checks compare against
        self.records: list[dict] = []
        # Input set -> record of its first good operation, whose output hash
        # every later operation on that set must reproduce.
        self.quality: dict[int, dict] = {}
        # Taken from the first good operation on input set 0, so that no
        # operation's outputs outlive it and hold memory the next one needs.
        self.diagnostics: list[dict] = []

    def add(self, inst) -> int:
        """Add an input set; returns its index."""
        self.instances.append(inst)
        self.edits.append(self.workload.edits(inst))
        return len(self.instances) - 1

    def attempt(self, index: int, traced: bool = False, timed: bool = True) -> dict:
        inst = self.instances[index]
        rec = {"instance": index, "traced": traced, "timed": timed, "problems": []}
        op_id = len(self.records)
        self.records.append(rec)
        if traced:
            rec["op_id"] = op_id
        try:
            with self.tracer.operation(op_id) if traced else contextlib.nullcontext():
                t = time.perf_counter()
                raw = self.workload.operation(inst)
                rec["seconds"] = time.perf_counter() - t
            outputs = self.workload.outputs(inst, raw)
        except Exception:  # a failed operation is counted, and the loop goes on
            rec["problems"].append(traceback.format_exc(limit=4))
            return rec
        erasure, preservation = [], []
        for edit, out in zip(self.edits[index], outputs, strict=True):
            problems, probes = workloads.check_edit(edit, out)
            rec["problems"] += problems
            if probes is not None:
                erasure.append(probes.erasure)
                preservation.append(probes.preservation)
        rec["digest"] = workloads.digest(outputs)
        if rec["problems"]:
            return rec
        if index in self.quality and self.quality[index]["digest"] != rec["digest"]:
            rec["problems"].append("output hash differs from the first run on the same inputs")
            return rec
        rec["max_erasure_err"] = float(np.nanmax(np.concatenate(erasure)))
        rec["median_preserve_err"] = float(np.nanmedian(np.concatenate(preservation)))
        if index not in self.quality:
            self.quality[index] = rec
            if index == 0:
                self.diagnostics = diagnostics(self.workload, self.edits[index], outputs, raw)
        return rec

    def good(self, traced: bool) -> list[dict]:
        """Timed operations of one kind that passed every check."""
        return [
            r for r in self.records if r["timed"] and r["traced"] == traced and not r["problems"]
        ]

    @property
    def failed(self) -> int:
        return sum(bool(r["problems"]) for r in self.records)


def run_loop(loop: Loop, seconds: float, trace: bool) -> None:
    """Closed loop, one caller: the next operation starts when the last returns.

    Operations cycle over the input sets. Under tracing, traced and untraced
    operations alternate, and the pattern shifts by one each round over the
    input sets so that every set runs both ways. The loop runs at least
    ``seconds`` and, under tracing, until both kinds have been attempted.
    """
    k = len(loop.instances)
    start = time.perf_counter()
    j = 0
    while True:
        kinds = {r["traced"] for r in loop.records if r["timed"]}
        if time.perf_counter() - start >= seconds and (kinds == {True, False} if trace else kinds):
            return
        loop.attempt(j % k, traced=trace and (j + j // k) % 2 == 0)
        j += 1


def diagnostics(workload, edits, outputs, raw) -> list[dict]:
    """Non-gated numerical health of one operation, one entry per edit."""
    alphas = workload.alpha(edits, raw)
    return [
        {
            **size,
            "refinement_rank": out.report["refinement_rank"],
            "bures_before": out.report["bures_before"],
            "bures_after": out.report["bures_after"],
            "alpha_min": float(alpha.min()),
            "alpha_max": float(alpha.max()),
        }
        for size, out, alpha in zip(workload.sizes(), outputs, alphas, strict=True)
    ]


def end_to_end(loop: Loop, setup_s: float) -> dict:
    """End-to-end metrics: name -> (value, unit).

    The quality numbers are deterministic per input set, so each input set
    contributes its first good operation and the metric is their median.
    """
    firsts = loop.quality.values()
    return {
        "setup_s": (setup_s, "s"),
        "edit_s": (median(r["seconds"] for r in loop.good(False)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB"),
        "max_erasure_err": (median(r["max_erasure_err"] for r in firsts), "ratio"),
        "median_preserve_err": (median(r["median_preserve_err"] for r in firsts), "ratio"),
    }


def per_layer(loop: Loop, setup_ops: list) -> tuple[dict, dict | None]:
    """Per-layer metrics (name -> (value, unit)), medians over traced operations,
    and the kernel table of the first traced operation."""
    tracer = loop.tracer
    traced = loop.good(True)
    if not traced:
        return {}, None
    summaries = [tracing.summarize(tracer.spans_of(r["op_id"])) for r in traced]
    per_op = [tracing.layer_metrics(s) for s in summaries]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_op), unit)
        for name, (_, unit) in per_op[0].items()
    }
    generate = [
        tracing.summarize(tracer.spans_of(op_id))["span_s"].get("harness.generate_model", 0.0)
        for op_id in setup_ops
    ]
    metrics["harness.generate_s"] = (statistics.median(generate), "s")
    traced_s = statistics.median(r["seconds"] for r in traced)
    untraced_s = median(r["seconds"] for r in loop.good(False))
    if untraced_s is not None:
        metrics["trace.untraced_op_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics, tracing.kernel_table(summaries[0])
