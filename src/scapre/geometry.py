"""Covariance-space alignment.

The squared Bures metric compares the row-space covariances of two weight
matrices; interpolation moves an edited covariance partway back toward the
reference, and the refinement step re-factors the interpolated covariance
into weights while rotating as little as possible away from the edit.
"""

import warnings
from dataclasses import dataclass

import numpy as np

# refine_weights takes its polar factor from its own SVD; perfbench/tracing.py
# patches the procrustes name here.
from .matkernel import as_matrix, procrustes, psd_sqrt, svd, sym_eig  # noqa: F401

__all__ = [
    "BW_GEODESIC",
    "SQRT_BLEND",
    "RankDeficiencyWarning",
    "RefinementResult",
    "bures_distance",
    "geodesic_interpolate",
    "refine_weights",
]

# Interpolation modes. "sqrt-blend" mixes the matrix square roots and squares
# the result; its beta=1 endpoint is the root-conjugated reference, not the
# reference itself. "bw-geodesic" is the standard Bures-Wasserstein geodesic,
# whose beta=1 endpoint is the reference (for nonsingular starting points).
SQRT_BLEND = "sqrt-blend"
BW_GEODESIC = "bw-geodesic"
INTERPOLATION_MODES = (SQRT_BLEND, BW_GEODESIC)

# Relative eigenvalue cutoff below which a covariance direction counts as null.
_RANK_CUT = 1e-12


class RankDeficiencyWarning(UserWarning):
    """A spectrum was pseudo-inverted or a rotation choice was not unique."""


def _validate_cov(x, name: str) -> np.ndarray:
    c = as_matrix(x, name)
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"{name} must be square, got {c.shape}")
    scale = np.linalg.norm(c)
    if np.linalg.norm(c - c.T) > 1e-10 * max(scale, np.finfo(np.float64).tiny):
        raise ValueError(f"{name} is not symmetric within 1e-10 relative tolerance")
    c = (c + c.T) / 2.0
    vals = np.linalg.eigvalsh(c)
    vmax = float(np.abs(vals).max()) if vals.size else 0.0
    if vals.min() < -1e-10 * vmax:
        raise ValueError(
            f"{name} is not PSD: min eigenvalue {vals.min():.6e} at scale {vmax:.6e}"
        )
    return c


def _sym(x: np.ndarray) -> np.ndarray:
    return (x + x.T) / 2.0


def _bures_roots(s: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Root of ``s``, the cross root and the squared Bures distance of ``s`` and ``z``.

    Returns ``S^{1/2}``, ``cross = (S^{1/2} Z S^{1/2})^{1/2}`` and
    ``tr S + tr Z - 2 tr cross`` clamped at zero. Takes symmetric PSD ``s``
    and ``z`` of one size.
    """
    root = psd_sqrt(s)
    cross = psd_sqrt(_sym(root @ z @ root))
    dist = max(float(np.trace(s) + np.trace(z) - 2.0 * np.trace(cross)), 0.0)
    return root, cross, dist


def bures_distance(sigma_a, sigma_b) -> float:
    """Squared Bures metric ``tr A + tr B - 2 tr((A^{1/2} B A^{1/2})^{1/2})``.

    Both inputs must be symmetric PSD of the same size. The result is
    clamped at zero against round-off and is symmetric in its arguments.
    """
    a = _validate_cov(sigma_a, "sigma_a")
    b = _validate_cov(sigma_b, "sigma_b")
    if a.shape != b.shape:
        raise ValueError(f"covariance sizes differ: {a.shape} vs {b.shape}")
    return _bures_roots(a, b)[2]


def _clamped_inv_sqrt(sigma: np.ndarray, name: str, size: int) -> np.ndarray:
    """Pseudo-inverse square root on the spectrum above the rank cutoff.

    ``sigma`` may be the compression of a size-by-size covariance to a
    smaller basis that holds its range; the rank is reported out of ``size``.
    """
    dec = sym_eig(sigma)
    vals = np.clip(dec.eigvals, 0.0, None)
    vmax = float(vals.max()) if vals.size else 0.0
    keep = vals > _RANK_CUT * vmax
    if int(keep.sum()) < size:
        warnings.warn(
            f"{name} is rank deficient ({int(keep.sum())}/{size}); "
            "using a pseudo-inverse on the clamped spectrum",
            RankDeficiencyWarning,
            stacklevel=4,
        )
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / np.sqrt(vals[keep])
    return (dec.eigvecs * inv) @ dec.eigvecs.T


def geodesic_interpolate(sigma_star, sigma_zero, beta: float, mode: str = SQRT_BLEND) -> np.ndarray:
    """Move the covariance ``sigma_star`` a fraction ``beta`` toward ``sigma_zero``.

    In ``sqrt-blend`` mode the result is
    ``((1-beta) * S^{1/2} + beta * (S^{1/2} Z S^{1/2})^{1/2})^2``; in
    ``bw-geodesic`` mode it is ``C S C`` with
    ``C = (1-beta) I + beta * S^{-1/2} (S^{1/2} Z S^{1/2})^{1/2} S^{-1/2}``
    (pseudo-inverted on a rank-deficient spectrum, with a warning). Both
    modes return ``sigma_star`` at beta=0 and a symmetric PSD matrix always.
    """
    s = _validate_cov(sigma_star, "sigma_star")
    z = _validate_cov(sigma_zero, "sigma_zero")
    if s.shape != z.shape:
        raise ValueError(f"covariance sizes differ: {s.shape} vs {z.shape}")
    return _interpolate(s, z, beta, mode, s.shape[0])[0]


def _interpolate(s, z, beta: float, mode: str, size: int) -> tuple[np.ndarray, float]:
    """The ``geodesic_interpolate`` result and the squared Bures distance of ``s`` and ``z``.

    Takes symmetric PSD ``s`` and ``z`` of one size; both outputs come from
    one pair of roots. ``size`` is the dimension the pseudo-inverse's rank
    warning counts against: the size of ``s`` itself, or the full size when
    ``s`` and ``z`` are compressions to a basis that holds the range of ``s``.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if mode not in INTERPOLATION_MODES:
        raise ValueError(f"mode must be one of {INTERPOLATION_MODES}, got {mode!r}")
    root, cross, dist = _bures_roots(s, z)
    if mode == SQRT_BLEND:
        blend = (1.0 - beta) * root + beta * cross
        return _sym(blend @ blend), dist
    inv_root = _clamped_inv_sqrt(s, "sigma_star", size)
    transport = (1.0 - beta) * np.eye(s.shape[0]) + beta * _sym(inv_root @ cross @ inv_root)
    return _sym(transport @ s @ transport), dist


@dataclass(frozen=True)
class RefinementResult:
    """Refined weights plus the diagnostics the edit report carries.

    The interpolated covariance is held as ``sigma_q`` in the coordinates of
    ``basis`` (d_out by q with orthonormal columns, or ``None`` for the
    identity); ``sigma_plus`` is ``basis sigma_q basis^T``.
    ``realization_gap`` is the relative Frobenius mismatch between ``w w^T``
    and the interpolated covariance; it is zero (to round-off) whenever the
    rotation problem has full rank. ``bures_before`` and ``bures_after`` are
    the squared Bures distances to ``w0 w0^T`` from ``w_star w_star^T`` and
    from the refined covariance ``w w^T``.
    """

    w: np.ndarray
    basis: np.ndarray | None
    sigma_q: np.ndarray
    rank: int
    rank_deficient: bool
    degenerate: bool
    realization_gap: float
    bures_before: float
    bures_after: float

    @property
    def sigma_plus(self) -> np.ndarray:
        """Dense interpolated covariance, built on each access: d_out*d_out entries.

        For the tests and demos; the edit path never calls it.
        """
        if self.basis is None:
            return self.sigma_q
        return _sym(self.basis @ self.sigma_q @ self.basis.T)


def _column_basis(w: np.ndarray, row_span) -> np.ndarray | None:
    """Orthonormal basis of a space holding the columns of ``w``; ``None`` for the identity.

    ``row_span`` (d_in by p) spans the row space of ``w``, so ``w @ row_span``
    spans its column space and its thin QR gives a d_out-by-p basis. With
    p >= d_out that basis is no smaller than the identity, and neither the
    product nor the QR is formed.
    """
    if row_span is None:
        return None
    span = as_matrix(row_span, "row_span")
    if span.shape[0] != w.shape[1]:
        raise ValueError(f"row_span has {span.shape[0]} rows, w_star has {w.shape[1]} columns")
    if span.shape[1] >= w.shape[0]:
        return None
    return np.linalg.qr(w @ span)[0]


def refine_weights(
    w_star, w0, beta: float, mode: str = SQRT_BLEND, row_span=None
) -> RefinementResult:
    """Pull edited weights toward the reference geometry without re-solving.

    The edited covariance ``w_star w_star^T`` is interpolated toward
    ``w0 w0^T``; the interpolated covariance is eigen-factored and the factor
    is rotated by the orthonormal matrix closest to the edit (a Procrustes
    alignment), so the output keeps the interpolated covariance while staying
    as close to ``w_star`` as an orthogonal rotation allows.

    ``row_span`` (d_in by p), when given, must span the row space of
    ``w_star``. With p < d_out every covariance is then handled in a d_out-by-p
    orthonormal basis ``Q`` that holds the column space of ``w_star``: with
    ``S = w_star w_star^T = Q S_q Q^T`` and ``Z_q = Q^T w0 w0^T Q``, the cross
    root is ``Q (S_q^{1/2} Z_q S_q^{1/2})^{1/2} Q^T``, the bw-geodesic
    transport maps ``Q`` to ``Q ((1-beta) I + beta K)``, and the interpolated
    covariance is ``Q sigma_q Q^T``; only ``tr Z - tr Z_q`` of ``bures_before``
    lies outside ``Q``. Without ``row_span`` (or with p >= d_out) the basis is
    the identity, which is the dense computation; both agree to round-off.
    """
    w_ = as_matrix(w_star, "w_star")
    w0_ = as_matrix(w0, "w0")
    if w_.shape != w0_.shape:
        raise ValueError(f"w_star shape {w_.shape} does not match w0 {w0_.shape}")
    basis = _column_basis(w_, row_span)
    if basis is None:
        w_q, w0_q = w_, w0_
    else:
        w_q, w0_q = basis.T @ w_, basis.T @ w0_
        # |w_star|^2 - |Q^T w_star|^2 is the squared norm left outside Q
        w_sq = float(np.vdot(w_, w_))
        if w_sq - float(np.vdot(w_q, w_q)) > 1e-8 * w_sq:
            raise ValueError("row_span does not span the row space of w_star")
    # Gram matrices of validated weights are symmetric PSD by construction,
    # so they skip _validate_cov; psd_sqrt still rejects a negative spectrum.
    sigma_q, bures_before = _interpolate(
        _sym(w_q @ w_q.T), _sym(w0_q @ w0_q.T), beta, mode, w_.shape[0]
    )
    # tr Z - tr Z_q, the part of w0 w0^T outside the basis (0 for the identity)
    w0_sq = float(np.vdot(w0_, w0_))
    bures_before += w0_sq - float(np.vdot(w0_q, w0_q))
    dec = sym_eig(sigma_q)
    vals = np.clip(dec.eigvals, 0.0, None)
    vmax = float(vals.max()) if vals.size else 0.0
    keep = vals > _RANK_CUT * vmax
    rank = int(keep.sum())
    # factor is in basis coordinates: basis @ factor has the same norm, and
    # its product with w0 is factor^T w0_q.
    factor = dec.eigvecs[:, keep] * np.sqrt(vals[keep])
    # w_tilde w_tilde^T = F F^T, and Bures(X X^T, Y Y^T) =
    # |X|^2 + |Y|^2 - 2 |X^T Y|_* (Bhatia, Jain & Lim 2019): a rank-by-d_in SVD.
    nuclear = float(np.linalg.svd(factor.T @ w0_q, compute_uv=False).sum())
    bures_after = max(float(np.vdot(factor, factor) + w0_sq) - 2.0 * nuclear, 0.0)
    if rank == 0 or vmax == 0.0:
        warnings.warn(
            "interpolated covariance is zero; refinement degenerates to zero weights",
            RankDeficiencyWarning,
            stacklevel=2,
        )
        return RefinementResult(
            np.zeros_like(w_), basis, sigma_q, 0, True, True, 0.0, bures_before, bures_after
        )
    # One SVD of the alignment matrix serves the rank check and the polar
    # factor U V^T (what procrustes(k) returns).
    align = svd(w_q.T @ factor)
    sv = align.sigma
    rank_deficient = bool(sv.min() <= _RANK_CUT * max(float(sv.max()), np.finfo(np.float64).tiny))
    if rank_deficient:
        warnings.warn(
            "alignment matrix lost rank; the refinement rotation is not unique "
            "(tie broken by the SVD sign convention)",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    rotation = align.u @ align.v.T
    w_tilde = factor @ rotation.T
    gap = float(np.linalg.norm(w_tilde @ w_tilde.T - sigma_q) / np.linalg.norm(sigma_q))
    if basis is not None:
        w_tilde = basis @ w_tilde
    return RefinementResult(
        w_tilde, basis, sigma_q, rank, rank_deficient, False, gap, bures_before, bures_after
    )
