"""One complete edit, end to end.

Fixed stage order: stabilizer assembly from the context tokens and the
gated concept energy, channel decoupler (scored on the unedited weights),
right-hand side, closed-form solve of the edit anchored to the unedited
weights, the line step back toward them, probe scoring. ``solve_edit``
runs the stages up to the solve and ``run_edit`` all of them; every run
returns the edited weights plus a self-describing report.
"""

import functools
import math
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import geometry, solver
# run_edit reports no Bures distance; perfbench/tracing.py patches bures_distance here.
from .geometry import bures_distance, refine_weights  # noqa: F401
from .informax import DecouplerAlpha, build_decoupler
from .matkernel import as_matrix, checked_finite
from .metrics import ProbeScores, probe_scores
# run_edit forms M from the resolved V*; perfbench/tracing.py patches assemble_m here.
from .solver import EraseSpec, assemble_m, resolve_v_star, sylvester_solve_spectral  # noqa: F401
# run_edit assembles A with build_a; the dense reference route stays importable
# here because perfbench/tracing.py patches these names.
from .stabilizer import (  # noqa: F401
    assemble_a,
    build_a,
    build_r,
    build_s,
    relative_lambda,
    validate_concepts,
)

__all__ = [
    "EditConfig",
    "EditIntermediates",
    "EditReport",
    "PipelineStageError",
    "ZeroTargetWarning",
    "run_edit",
    "solve_edit",
]


class PipelineStageError(RuntimeError):
    """A stage failed; the stage name rides along for diagnostics."""

    def __init__(self, stage: str, error: BaseException):
        super().__init__(f"stage '{stage}': {error}")
        self.stage = stage


class ZeroTargetWarning(UserWarning):
    """The replacement outputs are all zero, so the edit maps the concepts toward zero.

    The anchor to ``W0`` still holds the rest of the layer: the edited
    weights are not zero.
    """


_ZERO_TARGET_NOTE = (
    "replacement outputs are zero: the edit maps the concepts toward zero, "
    "and the anchor to W0 holds the rest of the layer"
)


@contextmanager
def _stage(name: str, stage_ms: dict[str, float]):
    """Tag failures of the block with ``name`` and record its wall time in ``stage_ms``."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc
    stage_ms[name] = (time.perf_counter() - t0) * 1e3


@functools.cache
def _environment() -> dict[str, Any]:
    """NumPy version, its BLAS build and the BLAS thread settings, read once per process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older NumPy only prints its build configuration
        blas = {}
    env = {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


@dataclass(frozen=True)
class EditConfig:
    """Run settings echoed into every report.

    ``lam`` is the absolute ridge weight; leave it ``None`` to use the
    relative rule ``lam_scale * mean diag(S)``. The ridge is also the
    weight of the anchor ``lam |W - W0|^2``. ``lam_scale``'s default is the
    one home of the relative rule's default; it was picked from the
    frontier ``bench/stages.py`` measures (see the README). ``beta`` steers
    the step back toward ``W0``: the weights are ``W0 + (1 - beta/2) D`` for
    the solved edit ``D``, so at 0 the closed-form ``W*`` is returned as it
    is. ``interpolation_mode`` is echoed into the report and the CSV
    ``mode`` column; ``"bw-geodesic"`` is the only value, a name kept for
    the benchmark's configs.
    """

    lam: float | None = None
    lam_scale: float = 0.07
    beta: float = 0.5
    interpolation_mode: str = geometry.BW_GEODESIC
    target_mode: str = solver.SUBSTITUTE_TARGET

    def __post_init__(self):
        if self.lam is not None and not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        if not 0.0 < self.lam_scale < math.inf:
            raise ValueError(f"lam_scale must be finite and positive, got {self.lam_scale}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.interpolation_mode != geometry.BW_GEODESIC:
            raise ValueError(
                f"interpolation_mode must be {geometry.BW_GEODESIC!r} (the sqrt-blend "
                f"mode was removed), got {self.interpolation_mode!r}"
            )
        if self.target_mode not in (solver.ZERO_TARGET, solver.SUBSTITUTE_TARGET):
            raise ValueError(f"unknown target_mode {self.target_mode!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "lambda": self.lam if self.lam is not None else {"relative": self.lam_scale},
            "beta": self.beta,
            "interpolation_mode": self.interpolation_mode,
            "target_mode": self.target_mode,
        }


@dataclass(frozen=True)
class EditIntermediates:
    """The decoupler, kept because the benchmark and the tests read its ``alpha``."""

    decoupler: DecouplerAlpha


@dataclass
class EditReport:
    """Everything one run produced (weights travel separately).

    Numbers, plus ``warnings``: one note per raised flag, written from the
    flags themselves (only ``zero_target`` raises one); nothing is captured
    or silenced, so warnings the stages raise reach the caller.
    ``bures_before``, ``bures_after`` and ``refinement_rank`` are NaN (null
    in JSON): the anchored edit has full rank, so they would cost a
    d_out-sized decomposition, and no stage needs them; the names stay for
    the benchmark. ``sylvester_residual`` is a deterministic 16-column
    estimate of the relative residual of the whole anchored equation for
    the edit ``D = W* - W0``, within [1/2, 2] times the true value except
    with probability about 1.1e-3; ``<= 1e-8`` is checked on it.
    ``stage_ms`` is the wall time of each stage in milliseconds;
    ``config`` echoes the ``EditConfig`` and ``lam`` is the ridge it
    resolved to; ``environment`` is the NumPy/BLAS configuration, read once
    per process.
    """

    m: int
    d_in: int
    d_out: int
    lam: float
    sylvester_residual: float
    stabilizer_rank: int
    a_eig_min: float
    a_eig_max: float
    min_denominator: float
    zero_target: bool
    alpha_degenerate: bool
    alpha_min: float
    alpha_median: float
    alpha_max: float
    bures_before: float
    bures_after: float
    refinement_rank: float
    warnings: list[str]
    erasure_errors: list[float]
    preservation_errors: list[float] | None
    excluded_targets: list[int]
    excluded_probes: list[int]
    max_erasure_err: float
    median_preserve_err: float
    wall_ms: float
    stage_ms: dict[str, float]
    config: dict[str, Any]
    environment: dict[str, Any]
    intermediates: EditIntermediates | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if k != "intermediates"}


def solve_edit(w0, spec: EraseSpec, contexts, features, labels, cfg: EditConfig = EditConfig()):
    """The stabilizer, decoupler and anchored solve of ``run_edit``, which calls it.

    Returns ``(stab, dec, v_star, sol, stage_ms)``: V* resolved, ``sol.w_star``
    the edit ``D = W* - W0``, and the three stages' wall times in
    milliseconds. The inputs are checked as ``run_edit`` checks them; the
    zero-target warning is ``run_edit``'s.
    """
    w0_ = as_matrix(w0, "w0")
    if spec.mode != cfg.target_mode:
        raise PipelineStageError(
            "config",
            ValueError(
                f"erase spec mode {spec.mode!r} does not match configured "
                f"target_mode {cfg.target_mode!r}"
            ),
        )
    stage_ms: dict[str, float] = {}

    with _stage("stabilizer", stage_ms):
        contexts = list(contexts)
        if len(contexts) != spec.n_concepts:
            raise ValueError(
                f"{len(contexts)} context groups for {spec.n_concepts} concepts"
            )
        c = validate_concepts(spec.concepts)
        with checked_finite(c):  # build_a validates the contexts
            stab = build_a(contexts, c, cfg.lam, cfg.lam_scale)

    # w0 and the concepts were checked above; the stages take them as they are
    with checked_finite(w0_, c):
        with _stage("informax", stage_ms):
            dec = build_decoupler(w0_, features, labels)

        with _stage("solver", stage_ms):
            # M = V* C^T travels as its factors; the solve never forms it
            v_star = resolve_v_star(w0_, spec)
            sol = sylvester_solve_spectral(dec.alpha, stab, (v_star, c), w0_)
    return stab, dec, v_star, sol, stage_ms


def run_edit(
    w0,
    spec: EraseSpec,
    contexts,
    features,
    labels,
    cfg: EditConfig = EditConfig(),
    preserved=None,
) -> tuple[np.ndarray, EditReport]:
    """Run one edit of ``w0`` and report on it.

    ``contexts`` holds one token array per target concept, ``features`` and
    ``labels`` the activation samples for the decoupler (label 0 = neutral,
    k = concept k), and ``preserved`` optional probe directions scored for
    preservation. ``features`` is an array or a row-block source such as
    ``smatio.SmatRows``, passed to ``build_decoupler`` as it is; the two give
    the same weights. Deterministic: identical inputs give bit-identical
    weights. Each array given is checked for non-finite values once, in the
    stage that first uses it (``w0`` on entry). Every call builds its own
    stabilizer, and nothing of an edit outlives the call.
    """
    t0 = time.perf_counter()
    w0_ = as_matrix(w0, "w0")
    # w0 was checked above; solve_edit and the stages take it as it is
    with checked_finite(w0_):
        stab, dec, v_star, sol, stage_ms = solve_edit(w0_, spec, contexts, features, labels, cfg)
        zero_target = not v_star.any()
        if zero_target:
            warnings.warn(_ZERO_TARGET_NOTE, ZeroTargetWarning, stacklevel=2)

        with _stage("geometry", stage_ms):
            # the weights are written over the solved edit
            w = refine_weights(sol.w_star, w0_, cfg.beta, in_place=True)

        with _stage("metrics", stage_ms):
            probes: ProbeScores = probe_scores(w, w0_, spec, preserved, v_star=v_star)
            erased = probes.erasure[~np.isnan(probes.erasure)]
            max_erasure = float(erased.max()) if erased.size else float("nan")
            usable = probes.preservation[~np.isnan(probes.preservation)]
            median_preserve = float(np.median(usable)) if usable.size else float("nan")

    report = EditReport(
        m=spec.n_concepts,
        d_in=w0_.shape[1],
        d_out=w0_.shape[0],
        lam=stab.lam,
        sylvester_residual=sol.residual,
        stabilizer_rank=stab.rank,
        a_eig_min=stab.eig_min,
        a_eig_max=stab.eig_max,
        min_denominator=sol.min_denominator,
        zero_target=zero_target,
        alpha_degenerate=dec.degenerate,
        alpha_min=float(dec.alpha.min()),
        alpha_median=float(np.median(dec.alpha)),
        alpha_max=float(dec.alpha.max()),
        bures_before=math.nan,
        bures_after=math.nan,
        refinement_rank=math.nan,
        warnings=[_ZERO_TARGET_NOTE] if zero_target else [],
        erasure_errors=[float(x) for x in probes.erasure],
        preservation_errors=(
            [float(x) for x in probes.preservation] if preserved is not None else None
        ),
        excluded_targets=list(probes.excluded_targets),
        excluded_probes=list(probes.excluded_probes),
        max_erasure_err=max_erasure,
        median_preserve_err=median_preserve,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        stage_ms=stage_ms,
        config=cfg.to_dict(),
        environment=dict(_environment()),
        intermediates=EditIntermediates(dec),
    )
    return w, report
