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
# Relative floor below which an eigenvalue of W* W*^T is round-off: eigh is
# exact only for a matrix within about eps * lambda_max of its input. Cutting
# at _RANK_CUT instead would drop directions whose roots still count (the
# root of a 1e-13 eigenvalue is 3e-7 of the largest).
_ROUNDOFF_CUT = np.finfo(np.float64).eps


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


def _pinv_sqrt(vals: np.ndarray, name: str, size: int) -> np.ndarray:
    """Reciprocal square roots of the eigenvalues above the rank cutoff, zero below.

    ``vals`` may be the nonzero spectrum of a size-by-size covariance; the
    rank is reported out of ``size``.
    """
    vals = np.clip(vals, 0.0, None)
    vmax = float(vals.max()) if vals.size else 0.0
    keep = vals > _RANK_CUT * vmax
    if int(keep.sum()) < size:
        warnings.warn(
            f"{name} is rank deficient ({int(keep.sum())}/{size}); "
            "using a pseudo-inverse on the clamped spectrum",
            RankDeficiencyWarning,
            stacklevel=3,
        )
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / np.sqrt(vals[keep])
    return inv


def geodesic_interpolate(sigma_star, sigma_zero, beta: float, mode: str = SQRT_BLEND) -> np.ndarray:
    """Move the covariance ``sigma_star`` a fraction ``beta`` toward ``sigma_zero``.

    In ``sqrt-blend`` mode the result is
    ``((1-beta) * S^{1/2} + beta * (S^{1/2} Z S^{1/2})^{1/2})^2``; in
    ``bw-geodesic`` mode it is ``C S C`` with
    ``C = (1-beta) I + beta * S^{-1/2} (S^{1/2} Z S^{1/2})^{1/2} S^{-1/2}``
    (pseudo-inverted on a rank-deficient spectrum, with a warning). Both
    modes return ``sigma_star`` at beta=0 and a symmetric PSD matrix always.
    This is the dense d-by-d computation; ``refine_weights`` works in a
    basis of the range of ``sigma_star`` instead.
    """
    _check_beta_mode(beta, mode)
    s = _validate_cov(sigma_star, "sigma_star")
    z = _validate_cov(sigma_zero, "sigma_zero")
    if s.shape != z.shape:
        raise ValueError(f"covariance sizes differ: {s.shape} vs {z.shape}")
    root, cross, _ = _bures_roots(s, z)
    if mode == SQRT_BLEND:
        blend = (1.0 - beta) * root + beta * cross
        return _sym(blend @ blend)
    dec = sym_eig(s)
    inv_root = (dec.eigvecs * _pinv_sqrt(dec.eigvals, "sigma_star", s.shape[0])) @ dec.eigvecs.T
    transport = (1.0 - beta) * np.eye(s.shape[0]) + beta * _sym(inv_root @ cross @ inv_root)
    return _sym(transport @ s @ transport)


def _check_beta_mode(beta: float, mode: str) -> None:
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if mode not in INTERPOLATION_MODES:
        raise ValueError(f"mode must be one of {INTERPOLATION_MODES}, got {mode!r}")


@dataclass(frozen=True)
class RefinementResult:
    """Refined weights plus the diagnostics the edit report carries.

    ``basis`` (d_out by r, orthonormal columns) spans the numerical range of
    ``w_star w_star^T``: its eigenvectors whose eigenvalues lie above the
    round-off floor. The interpolated covariance is held as ``sigma_r`` in
    the coordinates of that basis; ``sigma_plus`` is
    ``basis sigma_r basis^T``. ``realization_gap`` is the relative Frobenius
    mismatch between ``w w^T`` and the interpolated covariance; it is zero
    (to round-off) whenever the rotation problem has full rank.
    ``bures_before`` and ``bures_after`` are the squared Bures distances to
    ``w0 w0^T`` from ``w_star w_star^T`` and from the refined covariance
    ``w w^T``. ``rank`` counts the interpolated covariance's eigenvalues
    above ``_RANK_CUT``.
    """

    w: np.ndarray
    basis: np.ndarray
    sigma_r: np.ndarray
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
        return _sym(self.basis @ self.sigma_r @ self.basis.T)


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

    The edited covariance ``S = w_star w_star^T`` is interpolated toward
    ``Z = w0 w0^T``; the interpolated covariance is eigen-factored and the
    factor is rotated by the orthonormal matrix closest to the edit (a
    Procrustes alignment), so the output keeps the interpolated covariance
    while staying as close to ``w_star`` as an orthogonal rotation allows.
    At beta=0 nothing is interpolated and ``w_star`` is returned as it is.

    Everything runs at the numerical rank r of ``S``. ``row_span``
    (d_in by p), when given, must span the row space of ``w_star``; with
    p < d_out the thin QR of ``w_star @ row_span`` gives a basis ``Q`` of its
    column space, otherwise ``Q`` is the identity. One eigendecomposition of
    ``(Q^T w_star)(Q^T w_star)^T``, cut at the round-off floor, gives
    ``S = B Lam B^T`` with ``B = Q E_r`` (d_out by r). There the root of
    ``S`` is ``Lam^{1/2}``; with ``Lam^{1/2} B^T w0 = U diag(s) V^T`` the
    cross root ``(S^{1/2} Z S^{1/2})^{1/2}`` is ``B U diag(s) U^T B^T`` and
    ``bures_before`` is ``|w_star|^2 + |w0|^2 - 2 sum(s)``, because
    Bures(X X^T, Y Y^T) = |X|^2 + |Y|^2 - 2 |X^T Y|_* (Bhatia, Jain & Lim
    2019). The interpolated covariance is ``B sigma_r B^T``.
    """
    _check_beta_mode(beta, mode)
    w_ = as_matrix(w_star, "w_star")
    w0_ = as_matrix(w0, "w0")
    if w_.shape != w0_.shape:
        raise ValueError(f"w_star shape {w_.shape} does not match w0 {w0_.shape}")
    w_sq, w0_sq = float(np.vdot(w_, w_)), float(np.vdot(w0_, w0_))
    q = _column_basis(w_, row_span)
    w_q = w_ if q is None else q.T @ w_
    # |w_star|^2 - |Q^T w_star|^2 is the squared norm left outside Q
    if q is not None and w_sq - float(np.vdot(w_q, w_q)) > 1e-8 * w_sq:
        raise ValueError("row_span does not span the row space of w_star")
    # a Gram matrix is symmetric PSD by construction, so it skips _validate_cov
    dec = sym_eig(_sym(w_q @ w_q.T))
    e = dec.eigvecs[:, dec.eigvals > _ROUNDOFF_CUT * max(float(dec.eigvals[0]), 0.0)]
    # Rayleigh-Ritz: round-off in an ungraded Gram matrix (the identity basis)
    # lifts some null directions above the floor; the singular values of
    # e^T w_q resolve them to eps * sigma_max, and the same floor drops them.
    ritz_u, ritz_s, ritz_vt = np.linalg.svd(e.T @ w_q, full_matrices=False)
    lam = ritz_s**2
    lam_max = float(lam[0]) if lam.size else 0.0
    cut = lam > _ROUNDOFF_CUT * lam_max
    lam = lam[cut]
    e_r = e @ ritz_u[:, cut]
    basis = e_r if q is None else q @ e_r
    w_r = ritz_s[cut, None] * ritz_vt[cut]  # B^T w_star, with orthogonal rows
    w0_r = basis.T @ w0_
    root = np.sqrt(lam)
    cross_u, cross_s, _ = np.linalg.svd(root[:, None] * w0_r, full_matrices=False)
    bures_before = max(w_sq + w0_sq - 2.0 * float(cross_s.sum()), 0.0)
    if beta == 0.0:
        rank = int((lam > _RANK_CUT * lam_max).sum())
        return RefinementResult(
            w_, basis, np.diag(lam), rank, False, False, 0.0, bures_before, bures_before
        )
    cross = _sym((cross_u * cross_s) @ cross_u.T)
    if mode == SQRT_BLEND:
        blend = (1.0 - beta) * np.diag(root) + beta * cross
        sigma_r = _sym(blend @ blend)
    else:
        inv = _pinv_sqrt(lam, "sigma_star", w_.shape[0])
        transport = (1.0 - beta) * np.eye(lam.size) + beta * _sym(inv[:, None] * cross * inv)
        sigma_r = _sym((transport * lam) @ transport)
    rank, factor = 0, np.zeros((lam.size, 0))
    if lam.size:
        dec = sym_eig(sigma_r)
        vals = np.clip(dec.eigvals, 0.0, None)
        keep = vals > _RANK_CUT * float(vals[0])
        rank = int(keep.sum())
        factor = dec.eigvecs[:, keep] * np.sqrt(vals[keep])
    # w_tilde w_tilde^T = B F F^T B^T and (B F)^T w0 = F^T w0_r: a rank-by-d_in SVD
    nuclear = float(np.linalg.svd(factor.T @ w0_r, compute_uv=False).sum())
    bures_after = max(float(np.vdot(factor, factor)) + w0_sq - 2.0 * nuclear, 0.0)
    if rank == 0:
        warnings.warn(
            "interpolated covariance is zero; refinement degenerates to zero weights",
            RankDeficiencyWarning,
            stacklevel=2,
        )
        return RefinementResult(
            np.zeros_like(w_), basis, sigma_r, 0, True, True, 0.0, bures_before, bures_after
        )
    # One SVD of the alignment matrix w_star^T B F serves the rank check and
    # the polar factor U V^T (what procrustes(k) returns).
    align = svd(w_r.T @ factor)
    sv = align.sigma
    rank_deficient = bool(sv.min() <= _RANK_CUT * max(float(sv.max()), np.finfo(np.float64).tiny))
    if rank_deficient:
        warnings.warn(
            "alignment matrix lost rank; the refinement rotation is not unique "
            "(tie broken by the SVD sign convention)",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    w_tilde = factor @ (align.u @ align.v.T).T
    gap = float(np.linalg.norm(w_tilde @ w_tilde.T - sigma_r) / np.linalg.norm(sigma_r))
    return RefinementResult(
        basis @ w_tilde, basis, sigma_r, rank, rank_deficient, False, gap, bures_before, bures_after
    )
