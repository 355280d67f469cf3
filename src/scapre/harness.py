"""Synthetic concept models and benchmark sweeps.

Builds toy projection matrices with controlled spectra, concept embeddings
with a prescribed pairwise cosine, context tokens, and labeled activation
samples; runs edit sweeps over growing concept counts and the confusable-
group benchmark, emitting rows under the fixed CSV schema.
"""

import sys
from dataclasses import dataclass, replace

import numpy as np

from . import solver
from .metrics import overall_accuracy
from .pipeline import EditConfig, EditReport, run_edit
from .smatio import CSV_COLUMNS
from .solver import EraseSpec

__all__ = [
    "ConfuseReport",
    "ConfuseSpec",
    "SyntheticModel",
    "SyntheticModelSpec",
    "confuse_benchmark",
    "generate_model",
    "scaling_sweep",
    "sweep_row",
]


@dataclass(frozen=True)
class SyntheticModelSpec:
    """Knobs for one synthetic model draw; every draw is seed-deterministic.

    ``similarity`` is the pairwise cosine shared by all concept embeddings
    (0 gives an orthogonal design). ``noise_scale`` perturbs context tokens
    and target samples relative to the embedding norm; keep it small, since
    token noise leaks into the stabilizer's concept-direction curvature and
    directly inflates erasure error. ``embed_scale`` sets the embedding norm;
    well above 1 it both mutes the gated subspace term and keeps the
    ridge/decoupler displacement a small fraction of the concept energy.
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

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("dimensions must be at least 1")
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


def _similar_directions(rng, d_in, n, similarity):
    """Unit vectors with every pairwise cosine equal to ``similarity``."""
    if similarity == 0.0:
        if n + 1 > d_in:
            raise ValueError(
                f"cannot place {n} orthogonal concepts plus an anchor in {d_in} dimensions"
            )
        basis = _orthonormal_columns(rng, d_in, n + 1)
        return basis[:, :n], basis[:, n]
    if n + 2 > d_in:
        raise ValueError(
            f"cannot place {n} concepts at pairwise cosine {similarity} plus an "
            f"anchor in {d_in} dimensions"
        )
    basis = _orthonormal_columns(rng, d_in, n + 2)
    shared, individual, anchor = basis[:, :1], basis[:, 1 : n + 1], basis[:, n + 1]
    dirs = np.sqrt(similarity) * shared + np.sqrt(1.0 - similarity) * individual
    return dirs, anchor


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
    """
    d_in, m = targets.shape
    noise = spec.noise_scale * spec.embed_scale
    contexts = [
        _tokens(rng, targets[:, k], spec.tokens_per_concept, noise, d_in) for k in range(m)
    ]
    per = spec.samples_per_concept
    feats, labs = [], []
    for k in range(m):
        feats.append(
            targets[:, k][None, :] + noise * rng.standard_normal((per, d_in)) / np.sqrt(d_in)
        )
        labs.append(np.full(per, k + 1))
    feats.append(spec.embed_scale * rng.standard_normal((per * m, d_in)) / np.sqrt(d_in))
    labs.append(np.zeros(per * m))
    if target_mode == solver.ZERO_TARGET:
        erase = EraseSpec(targets, mode=solver.ZERO_TARGET)
    else:
        subs = np.tile(anchor[:, None], (1, m))
        erase = EraseSpec(targets, mode=solver.SUBSTITUTE_TARGET, substitutes=subs)
    return erase, contexts, np.vstack(feats), np.concatenate(labs).astype(np.int64)


def generate_model(
    spec: SyntheticModelSpec, target_mode: str = solver.SUBSTITUTE_TARGET
) -> SyntheticModel:
    """Draw a full synthetic instance for ``spec``, bit-reproducible per seed.

    Target samples are drawn from the context-token distribution (concept
    embedding plus noise); neutral samples are isotropic Gaussian at the
    embedding scale. In substitute-target mode all targets share one anchor
    substitute direction, orthogonal to every concept.
    """
    rng = np.random.default_rng(spec.seed)
    w0 = _spectrum_weights(rng, spec.d_out, spec.d_in)
    total = spec.m_targets + spec.m_preserved
    dirs, anchor_dir = _similar_directions(rng, spec.d_in, total, spec.similarity)
    concepts = spec.embed_scale * dirs
    anchor = spec.embed_scale * anchor_dir
    targets = concepts[:, : spec.m_targets]
    preserved = concepts[:, spec.m_targets :] if spec.m_preserved else None
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


def scaling_sweep(base: SyntheticModelSpec, counts, cfg: EditConfig = EditConfig()) -> list[dict]:
    """Run one edit per concept count, one after another, and collect CSV rows.

    A failing count produces a row with NaN metric cells and a note on
    stderr instead of aborting the sweep.
    """
    counts = [int(c) for c in counts]
    if counts != sorted(counts):
        raise ValueError(f"concept counts must be ascending, got {counts}")
    if min(counts, default=1) < 1:
        raise ValueError("concept counts must be positive")
    rows = []
    for m in counts:
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


@dataclass(frozen=True)
class ConfuseSpec:
    """Groups of mutually similar concepts, some targeted and some preserved."""

    d_in: int
    d_out: int
    n_groups: int = 5
    targets_per_group: int = 2
    preserved_per_group: int = 3
    similarity: float = 0.8
    noise_scale: float = 0.01
    embed_scale: float = 10.0
    tokens_per_concept: int = 1
    samples_per_concept: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.n_groups < 1:
            raise ValueError("need at least one group")
        if self.targets_per_group < 1 or self.preserved_per_group < 1:
            raise ValueError("each group needs at least one target and one preserved concept")
        if self.targets_per_group + self.preserved_per_group < 3:
            raise ValueError("groups must hold at least three concepts")
        if not 0.0 <= self.similarity < 1.0:
            raise ValueError(f"similarity must be in [0, 1), got {self.similarity}")


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


def _confuse_model(spec: ConfuseSpec):
    """Build grouped concepts: similar within a group, orthogonal across."""
    rng = np.random.default_rng(spec.seed)
    size = spec.targets_per_group + spec.preserved_per_group
    need = spec.n_groups * (size + 1) + 1
    if need > spec.d_in:
        raise ValueError(
            f"{spec.n_groups} groups of {size} concepts need {need} dimensions, "
            f"have {spec.d_in}"
        )
    w0 = _spectrum_weights(rng, spec.d_out, spec.d_in)
    basis = _orthonormal_columns(rng, spec.d_in, need)
    anchor = spec.embed_scale * basis[:, -1]
    targets, preserved, group_of = [], [], []
    col = 0
    for g in range(spec.n_groups):
        shared = basis[:, col : col + 1]
        members = basis[:, col + 1 : col + 1 + size]
        col += size + 1
        dirs = np.sqrt(spec.similarity) * shared + np.sqrt(1.0 - spec.similarity) * members
        dirs *= spec.embed_scale
        targets.append(dirs[:, : spec.targets_per_group])
        preserved.append(dirs[:, spec.targets_per_group :])
        group_of.extend([g] * spec.targets_per_group)
    return w0, np.hstack(targets), np.hstack(preserved), group_of, anchor, rng


def confuse_benchmark(spec: ConfuseSpec, cfg: EditConfig = EditConfig()) -> ConfuseReport:
    """Erase the group targets in one edit and score the similar bystanders.

    The accuracy analogs threshold relative output displacement: a target
    counts as surviving (bad) and a preserved concept as retained (good)
    when its output moved less than 0.5 relative to the unedited output.
    """
    w0, targets, preserved, group_of, anchor, rng = _confuse_model(spec)
    n_targets = targets.shape[1]
    erase, contexts, features, labels = _edit_inputs(rng, spec, targets, anchor, cfg.target_mode)
    w_edit, report = run_edit(w0, erase, contexts, features, labels, cfg, preserved=preserved)

    def displacement(c):
        return float(np.linalg.norm(w_edit @ c - w0 @ c) / np.linalg.norm(w0 @ c))

    target_rows = []
    for k in range(n_targets):
        target_rows.append(
            {
                "group": group_of[k],
                "concept": k,
                "erasure_err": report.erasure_errors[k],
                "displacement": displacement(targets[:, k]),
            }
        )
    preserved_rows = []
    p_per = spec.preserved_per_group
    for j in range(preserved.shape[1]):
        preserved_rows.append(
            {
                "group": j // p_per,
                "concept": j,
                "preservation_err": report.preservation_errors[j],
                "displacement": displacement(preserved[:, j]),
            }
        )
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
