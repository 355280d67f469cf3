"""Evaluation metrics.

Combines a lower-better unlearning score with a higher-better quality score
into a single harmonic index under three normalizations (sigmoid
standardization, min-max, rank), plus the overall-accuracy harmonic mean and
probe-based erasure/preservation errors for edited weight matrices.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matkernel import as_matrix
from .solver import EraseSpec, resolve_v_star
from .stabilizer import validate_concepts

__all__ = [
    "MethodScore",
    "ProbeScores",
    "UQResult",
    "overall_accuracy",
    "probe_scores",
    "uq_minmax",
    "uq_rank",
    "uq_sigmoid",
]


@dataclass(frozen=True)
class MethodScore:
    """One method's scores: ``unlearn`` lower-better, ``quality`` higher-better."""

    label: str
    unlearn: float
    quality: float

    def __post_init__(self):
        if not (math.isfinite(self.unlearn) and math.isfinite(self.quality)):
            raise ValueError(f"scores for {self.label!r} must be finite")


@dataclass(frozen=True)
class UQResult:
    """Per-method combined scores plus the population convention used.

    ``population`` lists the labels whose scores entered the normalization
    statistics (for the sigmoid variant this may include a baseline row that
    itself receives no score).
    """

    values: dict[str, float]
    normalization: str
    population: tuple[str, ...]


def _check_methods(methods, minimum=2):
    methods = list(methods)
    labels = [s.label for s in methods]
    if len(set(labels)) != len(labels):
        raise ValueError("method labels must be unique")
    if len(methods) < minimum:
        raise ValueError(f"need at least {minimum} method scores, got {len(methods)}")
    return methods


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _harmonic01(a: float, c: float) -> float:
    # A zero on either axis pins the harmonic mean to zero.
    if a <= 0.0 or c <= 0.0:
        return 0.0
    return 2.0 * a * c / (a + c)


def uq_sigmoid(methods, baseline: MethodScore | None = None, include_baseline: bool = True) -> UQResult:
    """Harmonic mean of sigmoid-standardized scores, scaled to [0, 100].

    Scores are standardized against the population mean and population
    (1/N) standard deviation; when a ``baseline`` row is supplied and
    ``include_baseline`` is set, its scores enter those statistics even
    though the baseline itself is not scored. Raises on zero variance.
    """
    methods = _check_methods(methods)
    pop = list(methods)
    if baseline is not None and include_baseline:
        pop = pop + [baseline]
    a = np.array([s.unlearn for s in pop])
    c = np.array([s.quality for s in pop])
    mu_a, sd_a = float(a.mean()), float(a.std())
    mu_c, sd_c = float(c.mean()), float(c.std())
    if sd_a == 0.0 or sd_c == 0.0:
        raise ValueError("population variance is zero on one axis")
    values = {}
    for s in methods:
        a_tilde = _sigmoid((mu_a - s.unlearn) / sd_a)
        c_tilde = _sigmoid((s.quality - mu_c) / sd_c)
        values[s.label] = 100.0 * _harmonic01(a_tilde, c_tilde)
    return UQResult(values, "sigmoid", tuple(s.label for s in pop))


def uq_minmax(methods) -> UQResult:
    """Harmonic mean of min-max normalized scores, in [0, 1].

    The worst method on either axis normalizes to zero there and therefore
    scores zero overall. A baseline row should not be passed; the ranges are
    taken over the methods under comparison only.
    """
    methods = _check_methods(methods)
    a = np.array([s.unlearn for s in methods])
    c = np.array([s.quality for s in methods])
    if a.max() == a.min() or c.max() == c.min():
        raise ValueError("degenerate range: scores are constant on one axis")
    values = {}
    for s in methods:
        a_n = (a.max() - s.unlearn) / (a.max() - a.min())
        c_n = (s.quality - c.min()) / (c.max() - c.min())
        values[s.label] = _harmonic01(float(a_n), float(c_n))
    return UQResult(values, "minmax", tuple(s.label for s in methods))


def _ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..N, best first, ties resolved by first occurrence."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.arange(1, len(values) + 1)
    return ranks


def uq_rank(methods) -> UQResult:
    """Harmonic mean of rank-normalized scores, in [0, 1].

    Rank 1 is the best method on an axis (lowest unlearn score, highest
    quality score) and normalizes to 1; rank N normalizes to 0 and pins the
    combined score to zero. Baseline rows are excluded by convention.
    """
    methods = _check_methods(methods)
    n = len(methods)
    rank_a = _ranks(np.array([s.unlearn for s in methods]))
    rank_c = _ranks(np.array([-s.quality for s in methods]))
    values = {}
    for i, s in enumerate(methods):
        a_n = 1.0 - float(rank_a[i] - 1) / (n - 1)
        c_n = 1.0 - float(rank_c[i] - 1) / (n - 1)
        values[s.label] = _harmonic01(a_n, c_n)
    return UQResult(values, "rank", tuple(s.label for s in methods))


def overall_accuracy(unlearn_acc: float, preserve_acc: float) -> float:
    """Harmonic mean ``2 (100 - A) P / ((100 - A) + P)`` of the two accuracies.

    ``unlearn_acc`` is the residual accuracy on targets (lower is better),
    ``preserve_acc`` the retained accuracy elsewhere (higher is better);
    both are percentages. Defined as 0 when both terms vanish.
    """
    for name, v in (("unlearn_acc", unlearn_acc), ("preserve_acc", preserve_acc)):
        if not 0.0 <= v <= 100.0:
            raise ValueError(f"{name} must be in [0, 100], got {v}")
    erased = 100.0 - unlearn_acc
    denom = erased + preserve_acc
    if denom == 0.0:
        return 0.0
    return 2.0 * erased * preserve_acc / denom


@dataclass(frozen=True)
class ProbeScores:
    """Relative output displacements on target and probe directions.

    Entries whose reference output ``w0 @ c`` has zero norm are excluded
    (NaN in the arrays, index recorded in the flags).
    """

    erasure: np.ndarray
    preservation: np.ndarray
    excluded_targets: tuple[int, ...]
    excluded_probes: tuple[int, ...]


def _relative_errors(delta: np.ndarray, reference: np.ndarray):
    norms = np.linalg.norm(reference, axis=0)
    errors = np.full(norms.shape, np.nan)
    ok = norms > 0.0
    errors[ok] = np.linalg.norm(delta[:, ok], axis=0) / norms[ok]
    return errors, tuple(int(i) for i in np.flatnonzero(~ok))


def probe_scores(w_edited, w0, targets: EraseSpec, preserved=None, *, v_star=None) -> ProbeScores:
    """Erasure and preservation errors of an edit, relative to ``w0`` outputs.

    Erasure error of target k is ``|w_edited c_k - v*_k| / |w0 c_k|``;
    preservation error of probe j is ``|w_edited c_j - w0 c_j| / |w0 c_j|``.
    ``v_star`` is V* (d_out x m) if already resolved from ``w0`` and ``targets``.
    """
    w_ = as_matrix(w_edited, "w_edited")
    w0_ = as_matrix(w0, "w0")
    if w_.shape != w0_.shape:
        raise ValueError(f"w_edited shape {w_.shape} does not match w0 {w0_.shape}")
    v = resolve_v_star(w0_, targets) if v_star is None else np.asarray(v_star)
    if v.shape != (w0_.shape[0], targets.n_concepts):
        raise ValueError(f"v_star shape {v.shape} is not ({w0_.shape[0]}, {targets.n_concepts})")
    c, m = targets.concepts, targets.n_concepts
    if preserved is not None:
        p = validate_concepts(preserved, "preserved")
        if p.shape[0] != w0_.shape[1]:
            raise ValueError(f"probe length {p.shape[0]} does not match w0 ({w0_.shape[1]})")
        c = np.hstack([c, p])
    w_c, w0_c = w_ @ c, w0_ @ c
    erasure, excluded_t = _relative_errors(w_c[:, :m] - v, w0_c[:, :m])
    # with no probes the columns past m are none, and so are the errors
    preservation, excluded_p = _relative_errors(w_c[:, m:] - w0_c[:, m:], w0_c[:, m:])
    return ProbeScores(erasure, preservation, excluded_t, excluded_p)
