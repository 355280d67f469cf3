"""One complete edit, end to end.

Fixed stage order: stabilizer assembly from the context tokens and the
gated concept energy, channel decoupler (scored on the unedited weights),
right-hand side, closed-form solve of the edit anchored to the unedited
weights, the line step back toward them, probe scoring. Every run returns
the edited weights plus a self-describing report.
"""

import math
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
from .matkernel import as_matrix
from .metrics import ProbeScores, probe_scores
# run_edit forms M from the resolved V*; perfbench/tracing.py patches assemble_m here.
from .solver import EraseSpec, assemble_m, resolve_v_star, sylvester_solve_spectral  # noqa: F401
# run_edit assembles A with build_a; the dense reference route stays importable
# here because perfbench/tracing.py patches these names.
from .stabilizer import assemble_a, build_a, build_r, build_s, relative_lambda  # noqa: F401

__all__ = [
    "EditConfig",
    "EditIntermediates",
    "EditReport",
    "PipelineStageError",
    "ZeroTargetWarning",
    "run_edit",
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
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc
    stage_ms[name] = (time.perf_counter() - t0) * 1e3


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
    the benchmark. ``sylvester_residual`` is that of the anchored equation
    for the edit ``D = W* - W0``. ``stage_ms`` is the wall time of each
    stage in milliseconds; ``config`` echoes the ``EditConfig`` and ``lam``
    is the ridge it resolved to.
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
    intermediates: EditIntermediates | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict[str, Any]:
        out = {k: v for k, v in self.__dict__.items() if k != "intermediates"}
        return out


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
    weights.
    """
    t0 = time.perf_counter()
    w0_ = as_matrix(w0, "w0")
    if spec.mode != cfg.target_mode:
        raise PipelineStageError(
            "config",
            ValueError(
                f"erase spec mode {spec.mode!r} does not match configured "
                f"target_mode {cfg.target_mode!r}"
            ),
        )
    if spec.n_concepts < 1:
        raise PipelineStageError("config", ValueError("no target concepts to erase"))
    stage_ms: dict[str, float] = {}

    with _stage("stabilizer", stage_ms):
        contexts = list(contexts)
        if len(contexts) != spec.n_concepts:
            raise ValueError(
                f"{len(contexts)} context groups for {spec.n_concepts} concepts"
            )
        stab = build_a(contexts, spec.concepts, cfg.lam, cfg.lam_scale)

    with _stage("informax", stage_ms):
        dec = build_decoupler(w0_, features, labels)

    with _stage("solver", stage_ms):
        # M = V* C^T travels as its factors; the solve forms it only a block
        # of rows at a time, for the complement and the residual
        v_star = resolve_v_star(w0_, spec)
        zero_target = not v_star.any()
        if zero_target:
            warnings.warn(_ZERO_TARGET_NOTE, ZeroTargetWarning, stacklevel=2)
        sol = sylvester_solve_spectral(dec.alpha, stab, (v_star, spec.concepts), w0_)

    with _stage("geometry", stage_ms):
        # the weights are written over the solved edit
        w = refine_weights(sol.w_star, w0_, cfg.beta, in_place=True)
    # The report's values; V is dropped before the probes are scored.
    health = dict(
        lam=stab.lam,
        sylvester_residual=sol.residual,
        stabilizer_rank=stab.rank,
        a_eig_min=stab.eig_min,
        a_eig_max=stab.eig_max,
        min_denominator=sol.min_denominator,
        bures_before=math.nan,
        bures_after=math.nan,
        refinement_rank=math.nan,
    )
    del stab, sol

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
        zero_target=zero_target,
        alpha_degenerate=dec.degenerate,
        alpha_min=float(dec.alpha.min()),
        alpha_median=float(np.median(dec.alpha)),
        alpha_max=float(dec.alpha.max()),
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
        intermediates=EditIntermediates(dec),
        **health,
    )
    return w, report
