"""Synthetic concept models and benchmark sweeps.

Builds toy projection matrices with controlled spectra, concept embeddings
in groups (a prescribed cosine inside a group, orthogonal across groups),
context tokens, and labeled activation samples; runs edit sweeps over
growing concept counts and the confusable-group benchmark, emitting rows
under the fixed CSV schema. One generator, ``generate_model``, draws every
model: a sweep uses one group, the confusable-group benchmark several.
"""

import sys
from dataclasses import dataclass, replace

import numpy as np

from . import solver
from .metrics import overall_accuracy, probe_scores
from .pipeline import EditConfig, EditReport, run_edit
from .smatio import CSV_COLUMNS
from .solver import EraseSpec

__all__ = [
    "ConfuseReport",
    "SyntheticModel",
    "SyntheticModelSpec",
    "confuse_benchmark",
    "generate_model",
    "scaling_sweep",
    "sweep_counts",
    "sweep_row",
]


@dataclass(frozen=True)
class SyntheticModelSpec:
    """Knobs for one synthetic model draw; every draw is seed-deterministic.

    Concepts come in ``n_groups`` groups of ``m_targets`` targets plus
    ``m_preserved`` preserved concepts each, so a model has
    ``n_groups * m_targets`` targets in all. ``similarity`` is the pairwise
    cosine of two concept embeddings in the same group; embeddings in
    different groups are orthogonal (similarity 0 gives an orthogonal
    design).

    ``noise_scale`` perturbs context tokens and target samples relative to
    the embedding norm; keep it small, since token noise leaks into the
    stabilizer's concept-direction curvature and directly inflates erasure
    error. ``embed_scale`` sets the embedding norm; well above 1 it both
    mutes the gated subspace term and keeps the ridge/decoupler displacement
    a small fraction of the concept energy.
    """

    d_in: int
    d_out: int
    m_targets: int
    m_preserved: int = 0
    similarity: float = 0.0
    noise_scale: float = 0.01
    seed: int = 0
    embed_scale: float = 10.0
    tokens_per_concept: int = 1
    samples_per_concept: int = 8
    n_groups: int = 1

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("dimensions must be at least 1")
        if self.n_groups < 1:
            raise ValueError("need at least one group")
        if self.m_targets < 1 or self.m_preserved < 0:
            raise ValueError("need at least one target concept")
        if not 0.0 <= self.similarity < 1.0:
            raise ValueError(f"similarity must be in [0, 1), got {self.similarity}")
        if self.noise_scale < 0.0 or self.embed_scale <= 0.0:
            raise ValueError("noise_scale must be >= 0 and embed_scale > 0")
        if self.tokens_per_concept < 1 or self.samples_per_concept < 1:
            raise ValueError("token and sample counts must be at least 1")


@dataclass(frozen=True)
class SyntheticModel:
    """One generated instance: weights, edit materials, and MI samples."""

    w0: np.ndarray
    erase_spec: EraseSpec
    contexts: list[np.ndarray]
    preserved: np.ndarray | None
    features: np.ndarray
    labels: np.ndarray
    anchor: np.ndarray


def _orthonormal_columns(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, n)))
    return q


def _grouped_directions(rng, d_in, n_groups, size, similarity):
    """Unit vectors in ``n_groups`` groups of ``size``, plus an anchor.

    Inside a group every pairwise cosine is ``similarity``: each member mixes
    the group's shared column with its own. Groups, and the anchor, are
    mutually orthogonal. The columns come out group-major, ``size`` per group.
    """
    width = size + (similarity > 0.0)
    basis = _orthonormal_columns(rng, d_in, n_groups * width + 1)
    anchor = basis[:, -1]
    if similarity == 0.0:
        return basis[:, :-1], anchor
    groups = basis[:, :-1].reshape(d_in, n_groups, width)
    shared, members = groups[:, :, :1], groups[:, :, 1:]
    dirs = np.sqrt(similarity) * shared + np.sqrt(1.0 - similarity) * members
    return dirs.reshape(d_in, n_groups * size), anchor


def _spectrum_weights(rng, d_out, d_in):
    """Weight matrix with singular values log-uniform in [0.1, 10]."""
    k = min(d_out, d_in)
    u = _orthonormal_columns(rng, d_out, k)
    v = _orthonormal_columns(rng, d_in, k)
    sv = np.exp(rng.uniform(np.log(0.1), np.log(10.0), k))
    return (u * sv) @ v.T


def _tokens(rng, concept, count, noise, d_in):
    raw = concept[None, :] + noise * rng.standard_normal((count, d_in)) / np.sqrt(d_in)
    # Scaling by 1/sqrt(count) keeps the group's second moment at one
    # concept's worth of energy regardless of the token count, so the solve's
    # concept images stay consistent with the right-hand side.
    return raw / np.sqrt(count)


def _edit_inputs(rng, spec, targets, anchor, target_mode):
    """Erase spec, contexts, decoupler features and labels for ``targets``.

    ``spec`` supplies the noise, embedding scale and token and sample counts.
    Draws from ``rng`` in a fixed order: every target's context tokens, then
    every target's samples, then as many neutral samples as target samples.
    The samples are drawn and scaled in place in the one features array, so
    they are held once.
    """
    d_in, m = targets.shape
    noise = spec.noise_scale * spec.embed_scale
    contexts = [
        _tokens(rng, targets[:, k], spec.tokens_per_concept, noise, d_in) for k in range(m)
    ]
    per = spec.samples_per_concept
    features = np.empty((2 * per * m, d_in))
    near, neutral = features[: per * m], features[per * m :]
    rng.standard_normal(out=near)
    near *= noise
    near /= np.sqrt(d_in)
    by_concept = near.reshape(m, per, d_in)  # a view: concept k's samples are block k
    by_concept += targets.T[:, None, :]
    rng.standard_normal(out=neutral)
    neutral *= spec.embed_scale
    neutral /= np.sqrt(d_in)
    labels = np.zeros(2 * per * m, dtype=np.int64)
    labels[: per * m] = np.repeat(np.arange(1, m + 1), per)
    if target_mode == solver.ZERO_TARGET:
        erase = EraseSpec(targets, mode=solver.ZERO_TARGET)
    else:
        subs = np.tile(anchor[:, None], (1, m))
        erase = EraseSpec(targets, mode=solver.SUBSTITUTE_TARGET, substitutes=subs)
    return erase, contexts, features, labels


def generate_model(
    spec: SyntheticModelSpec, target_mode: str = solver.SUBSTITUTE_TARGET
) -> SyntheticModel:
    """Draw a full synthetic instance for ``spec``, bit-reproducible per seed.

    Targets and preserved concepts are group-major: target ``k`` belongs to
    group ``k // m_targets`` and preserved concept ``j`` to group
    ``j // m_preserved``. Target samples are drawn from the context-token
    distribution (concept embedding plus noise); neutral samples are
    isotropic Gaussian at the embedding scale. In substitute-target mode all
    targets share one anchor substitute direction, orthogonal to every
    concept. A spec whose concepts do not fit in d_in fails before any draw.
    """
    size = spec.m_targets + spec.m_preserved
    need = spec.n_groups * (size + (spec.similarity > 0.0)) + 1
    if need > spec.d_in:
        raise ValueError(
            f"cannot place {spec.n_groups} group(s) of {size} concepts at cosine "
            f"{spec.similarity} plus an anchor in {spec.d_in} dimensions (need {need})"
        )
    rng = np.random.default_rng(spec.seed)
    w0 = _spectrum_weights(rng, spec.d_out, spec.d_in)
    dirs, anchor_dir = _grouped_directions(rng, spec.d_in, spec.n_groups, size, spec.similarity)
    concepts = (spec.embed_scale * dirs).reshape(spec.d_in, spec.n_groups, size)
    anchor = spec.embed_scale * anchor_dir
    targets = concepts[:, :, : spec.m_targets].reshape(spec.d_in, -1)
    preserved = (
        concepts[:, :, spec.m_targets :].reshape(spec.d_in, -1) if spec.m_preserved else None
    )
    erase, contexts, features, labels = _edit_inputs(rng, spec, targets, anchor, target_mode)
    return SyntheticModel(w0, erase, contexts, preserved, features, labels, anchor)


def sweep_row(run_id: str, report: EditReport) -> dict:
    """Flatten one edit report into the fixed CSV row schema."""
    return {
        "run_id": run_id,
        "m": report.m,
        "d_in": report.d_in,
        "d_out": report.d_out,
        "lambda": report.lam,
        "beta": report.config["beta"],
        "mode": f"{report.config['target_mode']}/{report.config['interpolation_mode']}",
        "sylvester_residual": report.sylvester_residual,
        "bures_before": report.bures_before,
        "bures_after": report.bures_after,
        "max_erasure_err": report.max_erasure_err,
        "median_preserve_err": report.median_preserve_err,
        "wall_ms": report.wall_ms,
    }


def sweep_counts(counts) -> list[int]:
    """The concept counts of a sweep as integers; ValueError unless positive and ascending."""
    counts = [int(c) for c in counts]
    if counts != sorted(counts):
        raise ValueError(f"concept counts must be ascending, got {counts}")
    if min(counts, default=1) < 1:
        raise ValueError("concept counts must be positive")
    return counts


def scaling_sweep(base: SyntheticModelSpec, counts, cfg: EditConfig = EditConfig()) -> list[dict]:
    """Run one edit per concept count, one after another, and collect CSV rows.

    A failing count produces a row with NaN metric cells and a note on
    stderr instead of aborting the sweep.
    """
    rows = []
    for m in sweep_counts(counts):
        run_id = f"m{m:04d}-seed{base.seed}"
        try:
            spec = replace(base, m_targets=m)
            model = generate_model(spec, cfg.target_mode)
            _, report = run_edit(
                model.w0,
                model.erase_spec,
                model.contexts,
                model.features,
                model.labels,
                cfg,
                preserved=model.preserved,
            )
            rows.append(sweep_row(run_id, report))
        except Exception as exc:  # keep the sweep alive, mark the row
            print(f"sweep row m={m} failed: {exc}", file=sys.stderr)
            row = {c: float("nan") for c in CSV_COLUMNS}
            row.update(
                run_id=run_id,
                m=m,
                d_in=base.d_in,
                d_out=base.d_out,
                mode=f"{cfg.target_mode}/{cfg.interpolation_mode}",
            )
            rows.append(row)
    return rows


# Relative output displacement below which a concept counts as unmoved.
_DISPLACEMENT_THRESHOLD = 0.5


@dataclass
class ConfuseReport:
    """Per-concept rows plus accuracy analogs thresholded at ``displacement_threshold``."""

    target_rows: list[dict]
    preserved_rows: list[dict]
    unlearn_acc: float
    preserve_acc: float
    overall_acc: float
    displacement_threshold: float
    edit_report: EditReport


def confuse_benchmark(spec: SyntheticModelSpec, cfg: EditConfig = EditConfig()) -> ConfuseReport:
    """Erase the group targets in one edit and score the similar bystanders.

    ``spec`` describes ``n_groups`` groups of ``m_targets`` targets and
    ``m_preserved`` preserved concepts each, at cosine ``similarity`` inside a
    group; every group needs a preserved concept and at least three concepts.
    The accuracy analogs threshold relative output displacement: a target
    counts as surviving (bad) and a preserved concept as retained (good)
    when its output moved less than 0.5 relative to the unedited output.
    """
    if spec.m_preserved < 1:
        raise ValueError("each group needs at least one target and one preserved concept")
    if spec.m_targets + spec.m_preserved < 3:
        raise ValueError("groups must hold at least three concepts")
    model = generate_model(spec, cfg.target_mode)
    targets = model.erase_spec.concepts
    w_edit, report = run_edit(
        model.w0,
        model.erase_spec,
        model.contexts,
        model.features,
        model.labels,
        cfg,
        preserved=model.preserved,
    )
    # a target's displacement is its preservation error as a probe
    moved = probe_scores(w_edit, model.w0, model.erase_spec, targets).preservation
    target_rows = [
        {
            "group": k // spec.m_targets,
            "concept": k,
            "erasure_err": report.erasure_errors[k],
            "displacement": float(moved[k]),
        }
        for k in range(targets.shape[1])
    ]
    preserved_rows = [
        {
            "group": j // spec.m_preserved,
            "concept": j,
            "preservation_err": err,
            "displacement": err,
        }
        for j, err in enumerate(report.preservation_errors)
    ]
    unlearn = 100.0 * float(
        np.mean([row["displacement"] < _DISPLACEMENT_THRESHOLD for row in target_rows])
    )
    preserve = 100.0 * float(
        np.mean([row["displacement"] < _DISPLACEMENT_THRESHOLD for row in preserved_rows])
    )
    return ConfuseReport(
        target_rows,
        preserved_rows,
        unlearn,
        preserve,
        overall_accuracy(unlearn, preserve),
        _DISPLACEMENT_THRESHOLD,
        report,
    )
