"""Per-output-channel decoupling weights.

Each channel's activations are binarized at an adaptive threshold and scored
by mutual information against target/neutral labels; the normalized scores
``alpha`` weight how strongly each channel participates in an edit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matkernel import as_matrix

__all__ = [
    "DecouplerAlpha",
    "JointCounts",
    "build_decoupler",
    "channel_mi",
    "channel_thresholds",
]

# Bytes of activations the decoupler forms at once: it scores a block of
# channels at a time, so its scratch stays near this budget whatever the
# sample count.
_BLOCK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class JointCounts:
    """2x2 contingency counts ``n_zy`` of (activation state, label) pairs."""

    n00: int
    n01: int
    n10: int
    n11: int

    def __post_init__(self):
        if min(self.n00, self.n01, self.n10, self.n11) < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11


def channel_mi(counts: JointCounts, base: float | None = None) -> float:
    """Mutual information of a 2x2 count table, in nats by default.

    Cells with zero joint probability contribute nothing. ``base`` switches
    the logarithm base (the normalized weights are base-invariant, which
    tests exploit).
    """
    k = counts.total
    if k <= 0:
        raise ValueError("total count must be positive")
    if base is None:
        log = math.log
    else:
        log = lambda x: math.log(x, base)  # noqa: E731
    n = ((counts.n00, counts.n01), (counts.n10, counts.n11))
    pz = ((counts.n00 + counts.n01) / k, (counts.n10 + counts.n11) / k)
    py = ((counts.n00 + counts.n10) / k, (counts.n01 + counts.n11) / k)
    mi = 0.0
    for z in (0, 1):
        for y in (0, 1):
            pzy = n[z][y] / k
            if pzy > 0.0:
                mi += pzy * log(pzy / (pz[z] * py[y]))
    return max(mi, 0.0)


def _mi_table(n00, n01, n10, n11, base: float | None) -> np.ndarray:
    """``channel_mi`` over broadcastable count arrays, term by term in its order."""
    k = n00 + n01 + n10 + n11
    n = ((n00, n01), (n10, n11))
    pz = ((n00 + n01) / k, (n10 + n11) / k)
    py = ((n00 + n10) / k, (n01 + n11) / k)
    log_base = 1.0 if base is None else math.log(base)
    mi = np.zeros(np.shape(k))
    for z in (0, 1):
        for y in (0, 1):
            pzy = n[z][y] / k
            ratio = np.divide(pzy, pz[z] * py[y], out=np.ones_like(pzy), where=pzy > 0.0)
            mi += pzy * (np.log(ratio) / log_base)  # empty cells add 0 * log(1)
    return np.maximum(mi, 0.0)


def _validate_samples(w, shape, labels):
    """``w`` as a matrix and ``labels`` as integers, checked against samples of ``shape``."""
    w_ = as_matrix(w, "w")
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != shape[0]:
        raise ValueError("labels must be one entry per feature row")
    if not np.equal(np.mod(y, 1), 0).all() or (y < 0).any():
        raise ValueError("labels must be nonnegative integers (0 = neutral)")
    y = y.astype(np.int64)
    if shape[1] != w_.shape[1]:
        raise ValueError(
            f"feature length {shape[1]} does not match weight input size {w_.shape[1]}"
        )
    if shape[0] < 2:
        raise ValueError("need at least two activation samples")
    if not (y == 0).any() or not (y > 0).any():
        raise ValueError("samples must include at least one neutral and one target input")
    return w_, y


def channel_thresholds(w, features, labels) -> np.ndarray:
    """Per-channel median activation over the pooled target + neutral samples."""
    f = as_matrix(features, "features")
    w_, _ = _validate_samples(w, f.shape, labels)
    return np.median(f @ w_.T, axis=0)


@dataclass(frozen=True)
class DecouplerAlpha:
    """Channel weights ``alpha`` in [0, 1] with their underlying MI scores.

    ``mi_raw`` is the per-channel maximum over concepts of ``per_concept_mi``;
    ``degenerate`` flags the all-zero-MI case, where ``alpha`` is identically
    zero instead of normalized.
    """

    alpha: np.ndarray
    mi_raw: np.ndarray
    per_concept_mi: np.ndarray
    concept_labels: tuple[int, ...]
    degenerate: bool


def _channels_per_block(n_samples: int) -> int:
    """Channels whose activations one block holds: the budget left beside ``_row_medians``' copy."""
    return max(1, (2 * _BLOCK_BYTES - _BLOCK_BYTES // 8) // (8 * n_samples))


def _row_medians(block: np.ndarray) -> np.ndarray:
    """``np.median(block, axis=1)``, bit for bit, partitioning copies of a few rows at a time.

    The copies share one scratch of at most ``_BLOCK_BYTES // 8`` bytes (at
    least one row).
    """
    n = block.shape[1]
    h = n // 2
    rows = max(1, _BLOCK_BYTES // 8 // (8 * n))
    scratch = np.empty((min(rows, len(block)), n))
    out = np.empty(len(block))
    for i in range(0, len(block), rows):
        part = scratch[: len(block) - i]
        part[...] = block[i : i + rows]
        part.partition(h, axis=1)
        # np.median's rule: the middle value, or the mean of the two middle values
        out[i : i + rows] = part[:, h] if n % 2 else (part[:, :h].max(axis=1) + part[:, h]) / 2
    return out


def build_decoupler(w, features, labels, base: float | None = None) -> DecouplerAlpha:
    """Score every output channel of ``w`` against the labeled samples.

    ``features`` holds one sample per row: an array, or a row-block source
    such as ``smatio.SmatRows``, which has a ``shape`` and a ``blocks()``
    pass yielding ``(first_row, block)`` and is read once per block of
    channels. An array is one block, itself.
    Activations are formed channel-major, ``W F^T``, one block of channels
    at a time under a fixed byte budget, and binarized per channel at the
    exact pooled median, read off one partition of each channel's row (the
    bits of ``channel_thresholds``; ties at the threshold count as
    inactive). Only the bits are kept for counting.
    For each concept label the 2x2 table is built from that concept's samples
    (y=1) against the neutral samples (y=0); per-channel MI is the maximum
    over concepts and ``alpha`` is that maximum normalized by its largest value.
    A channel's tables differ only in the concept's sample count s and its
    active count in 0..s, so the MI is evaluated once per (s, active count)
    on each channel and gathered into the (channel, concept) cells.
    """
    if hasattr(features, "blocks"):
        shape, blocks = features.shape, features.blocks
    else:
        f = as_matrix(features, "features")
        shape, blocks = f.shape, lambda: [(0, f)]
    w_, y = _validate_samples(w, shape, labels)
    bits = np.empty((len(w_), len(y)), dtype=bool)
    step = _channels_per_block(len(y))
    acts = np.empty((min(step, len(w_)), len(y)))
    for i in range(0, len(w_), step):
        w_blk = w_[i : i + step]
        a = acts[: len(w_blk)]
        for start, f_blk in blocks():
            np.matmul(w_blk, f_blk.T, out=a[:, start : start + len(f_blk)])
        del f_blk  # a view of the pass's read buffer: free it before the next pass reads
        np.greater(a, _row_medians(a)[:, None], out=bits[i : i + step])  # strict: ties are state 0
    del acts, a
    z = bits.T
    # Active samples per (channel, label) pair; label 0 (neutral) sorts first
    # and takes what the concepts leave of each channel's active total.
    groups, sizes = np.unique(y, return_counts=True)
    members = np.split(np.argsort(y, kind="stable"), np.cumsum(sizes)[:-1])
    on = np.empty((len(w_), len(groups)), dtype=np.int64)
    for j, rows in enumerate(members[1:], 1):
        on[:, j] = z[rows].sum(axis=0)
    on[:, 0] = np.count_nonzero(bits, axis=1) - on[:, 1:].sum(axis=1)

    per = np.empty((len(w_), len(groups) - 1))
    n0, on0 = sizes[0], on[:, :1]
    for s in np.unique(sizes[1:]):
        cols = np.flatnonzero(sizes[1:] == s)
        grid = np.arange(s + 1)  # every active count a concept of s samples can have
        table = _mi_table(n0 - on0, s - grid, on0, grid, base)
        per[:, cols] = np.take_along_axis(table, on[:, 1 + cols], axis=1)
    concepts = tuple(int(k) for k in groups[1:])

    mi = per.max(axis=1)
    mi_max = float(mi.max())
    if mi_max <= 0.0:
        return DecouplerAlpha(np.zeros_like(mi), mi, per, concepts, True)
    return DecouplerAlpha(mi / mi_max, mi, per, concepts, False)
