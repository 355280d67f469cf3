"""Covariance-space alignment.

The squared Bures metric compares the row-space covariances of two weight
matrices. The refinement applies the optimal transport map between the
edited covariance and the reference, partway, to the edited weights, which
moves their covariance along the Bures-Wasserstein geodesic toward the
reference.
"""

import warnings
from dataclasses import dataclass

import numpy as np

# refine_weights needs no polar factor; perfbench/tracing.py patches the
# procrustes name here.
from .matkernel import as_matrix, check_symmetric, procrustes, psd_sqrt, sym_eig  # noqa: F401

__all__ = [
    "BW_GEODESIC",
    "RankDeficiencyWarning",
    "RefinementResult",
    "bures_distance",
    "geodesic_interpolate",
    "refine_weights",
]

# The one interpolation: the standard Bures-Wasserstein geodesic, whose
# beta=1 endpoint is the reference (for nonsingular starting points).
BW_GEODESIC = "bw-geodesic"

# Relative eigenvalue cutoff below which a covariance direction counts as null.
_RANK_CUT = 1e-12
# Relative floor below which an eigenvalue of W* W*^T is round-off: eigh is
# exact only for a matrix within about eps * lambda_max of its input. Cutting
# at _RANK_CUT instead would drop directions whose roots still count (the
# root of a 1e-13 eigenvalue is 3e-7 of the largest).
_ROUNDOFF_CUT = np.finfo(np.float64).eps
# Rows per block of the refinement's lift, so that writing the refined
# weights takes one block of scratch beside them.
_LIFT_ROWS = 256


class RankDeficiencyWarning(UserWarning):
    """The refined covariance vanished, or the dense oracle pseudo-inverted a spectrum."""


def _validate_cov(x, name: str) -> np.ndarray:
    c = as_matrix(x, name)
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"{name} must be square, got {c.shape}")
    check_symmetric(c, name)
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


def _pinv_sqrt(vals: np.ndarray, name: str) -> np.ndarray:
    """Reciprocal square roots of the eigenvalues above the rank cutoff, zero below."""
    vals = np.clip(vals, 0.0, None)
    vmax = float(vals.max()) if vals.size else 0.0
    keep = vals > _RANK_CUT * vmax
    if int(keep.sum()) < vals.size:
        warnings.warn(
            f"{name} is rank deficient ({int(keep.sum())}/{vals.size}); "
            "using a pseudo-inverse on the clamped spectrum",
            RankDeficiencyWarning,
            stacklevel=3,
        )
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / np.sqrt(vals[keep])
    return inv


def geodesic_interpolate(sigma_star, sigma_zero, beta: float) -> np.ndarray:
    """Move the covariance ``sigma_star`` a fraction ``beta`` toward ``sigma_zero``.

    The result is ``C S C`` with
    ``C = (1-beta) I + beta * S^{-1/2} (S^{1/2} Z S^{1/2})^{1/2} S^{-1/2}``
    (pseudo-inverted on a rank-deficient spectrum, with a warning): the
    Bures-Wasserstein geodesic. It returns ``sigma_star`` at beta=0 and a
    symmetric PSD matrix always. This is the dense d-by-d computation;
    ``refine_weights`` works in a basis of the range of ``sigma_star`` instead.
    """
    _check_beta(beta)
    s = _validate_cov(sigma_star, "sigma_star")
    z = _validate_cov(sigma_zero, "sigma_zero")
    if s.shape != z.shape:
        raise ValueError(f"covariance sizes differ: {s.shape} vs {z.shape}")
    _, cross, _ = _bures_roots(s, z)
    dec = sym_eig(s)
    inv_root = (dec.eigvecs * _pinv_sqrt(dec.eigvals, "sigma_star")) @ dec.eigvecs.T
    transport = (1.0 - beta) * np.eye(s.shape[0]) + beta * _sym(inv_root @ cross @ inv_root)
    return _sym(transport @ s @ transport)


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")


@dataclass(frozen=True)
class RefinementResult:
    """Refined weights plus the diagnostics the edit report carries.

    ``basis`` (d_out by r, orthonormal columns) spans the numerical range of
    ``w_star w_star^T``: its eigenvectors whose eigenvalues lie above the
    round-off floor. The interpolated covariance is held as ``sigma_r`` in
    the coordinates of that basis; ``sigma_plus`` is
    ``basis sigma_r basis^T``. ``realization_gap`` is the relative Frobenius
    mismatch between ``w w^T`` and the interpolated covariance in that
    basis; the transport map realizes it, so the gap is round-off.
    ``bures_before`` and ``bures_after`` are the squared Bures distances to
    ``w0 w0^T`` from ``w_star w_star^T`` and from the refined covariance
    ``w w^T``. ``rank`` counts the interpolated covariance's eigenvalues
    above ``_RANK_CUT``.
    """

    w: np.ndarray
    basis: np.ndarray
    sigma_r: np.ndarray
    rank: int
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


def refine_weights(
    w_star, w0, beta: float, factor=None, in_place: bool = False
) -> RefinementResult:
    """Move edited weights a fraction ``beta`` of the way to the reference geometry.

    With ``S = w_star w_star^T`` and ``Z = w0 w0^T``, the optimal transport
    map from ``S`` to ``Z`` is
    ``T = S^{-1/2} (S^{1/2} Z S^{1/2})^{1/2} S^{-1/2}`` (pseudo-inverted on
    the range of ``S``, without a warning: ``S`` has rank far below d_out in
    a normal edit). The refined weights are
    ``T_beta w_star`` with ``T_beta = (1-beta) I + beta T``, McCann's
    displacement interpolation (1997): their covariance ``T_beta S T_beta``
    is the point a fraction ``beta`` along the Bures-Wasserstein geodesic
    from ``S`` to ``Z``. No covariance is re-factored: ``w_star^T T_beta
    w_star`` is symmetric PSD, so of all factors of ``T_beta S T_beta``
    these weights are the one an orthogonal Procrustes alignment would
    rotate onto ``w_star``. At beta=0 ``w_star`` is returned as it is.

    Everything runs at the numerical rank r of ``S``. ``factor``, when
    given, is ``(w_star R, R)``: ``R`` (d_in by p) has orthonormal columns
    spanning the row space of ``w_star``. With p < d_out, ``x = w_star R``;
    otherwise ``x = w_star``. One eigendecomposition of the smaller Gram
    matrix of ``x``, cut at the round-off floor, and an SVD of ``x`` on the
    kept eigenvectors give ``S = B Lam B^T`` with ``B`` (d_out by r) and
    ``B^T w_star`` directly. There the root of ``S`` is ``Lam^{1/2}``; with
    ``Lam^{1/2} B^T w0 = U diag(s) V^T`` the cross root
    ``(S^{1/2} Z S^{1/2})^{1/2}`` is ``B U diag(s) U^T B^T`` and
    ``bures_before`` is ``|w_star|^2 + |w0|^2 - 2 sum(s)``, because
    Bures(X X^T, Y Y^T) = |X|^2 + |Y|^2 - 2 |X^T Y|_* (Bhatia, Jain & Lim
    2019). ``T`` is ``B M B^T`` with ``M = Lam^{+1/2} U diag(s) U^T
    Lam^{+1/2}``, so the refined weights are
    ``(1-beta) w_star + beta B (M B^T w_star)`` and the interpolated
    covariance is ``B sigma_r B^T``.

    The refined weights are a new array, formed a block of rows at a time.
    With ``in_place`` they are written over ``w_star`` instead, which must
    then be a C-contiguous float64 array, and ``w_star`` itself is returned
    as ``w``.
    """
    _check_beta(beta)
    w_ = as_matrix(w_star, "w_star")
    w0_ = as_matrix(w0, "w0")
    if w_.shape != w0_.shape:
        raise ValueError(f"w_star shape {w_.shape} does not match w0 {w0_.shape}")
    if in_place and w_ is not w_star:
        raise ValueError("in_place needs w_star as a C-contiguous float64 array")
    w_sq, w0_sq = float(np.vdot(w_, w_)), float(np.vdot(w0_, w0_))
    x, right = w_, None
    if factor is not None:
        left, right = as_matrix(factor[0], "factor[0]"), as_matrix(factor[1], "factor[1]")
        if right.shape[0] != w_.shape[1] or left.shape != (w_.shape[0], right.shape[1]):
            raise ValueError(f"factor {left.shape}, {right.shape} does not fit w_star {w_.shape}")
        # two-sided: a left part that is not w_star R in norm fails it, and so
        # does an R that misses a row direction of w_star
        if abs(w_sq - float(np.vdot(left, left))) > 1e-8 * w_sq:
            raise ValueError("factor is not (w_star R, R) for an R spanning the row space of w_star")
        x, right = (left, right) if right.shape[1] < w_.shape[0] else (w_, None)
    # w_star = x R^T; a Gram matrix is symmetric PSD by construction, so it skips _validate_cov
    wide = x.shape[1] >= x.shape[0]
    dec = sym_eig(_sym(x @ x.T if wide else x.T @ x))
    e = dec.eigvecs[:, dec.eigvals > _ROUNDOFF_CUT * max(float(dec.eigvals[0]), 0.0)]
    # Rayleigh-Ritz: round-off in an ungraded Gram matrix (the identity basis)
    # lifts some null directions above the floor; the singular values of x on
    # the kept eigenvectors resolve them to eps * sigma_max, and the same
    # floor drops them.
    ritz_u, ritz_s, ritz_vt = np.linalg.svd(e.T @ x if wide else x @ e, full_matrices=False)
    lam = ritz_s**2
    lam_max = float(lam[0]) if lam.size else 0.0
    cut = lam > _ROUNDOFF_CUT * lam_max
    lam = lam[cut]
    u_r, w_r = ritz_u[:, cut], ritz_s[cut, None] * ritz_vt[cut]
    # B, and B^T x with orthogonal rows
    basis, w_r = (e @ u_r, w_r) if wide else (u_r, w_r @ e.T)
    if right is not None:
        w_r = w_r @ right.T
    w0_r = basis.T @ w0_
    root = np.sqrt(lam)
    cross_u, cross_s, _ = np.linalg.svd(root[:, None] * w0_r, full_matrices=False)
    bures_before = max(w_sq + w0_sq - 2.0 * float(cross_s.sum()), 0.0)
    keep = lam > _RANK_CUT * lam_max
    if beta == 0.0:
        return RefinementResult(
            w_, basis, np.diag(lam), int(keep.sum()), False, 0.0, bures_before, bures_before
        )
    # Lam^{+1/2}: rank(S) < d_out is the normal regime, so the pseudo-inverse
    # on the range does not warn
    inv = np.where(keep, 1.0 / root, 0.0)
    # M and M_beta = (1-beta) I + beta M: T and T_beta in the basis
    transport = _sym(inv[:, None] * ((cross_u * cross_s) @ cross_u.T) * inv)
    step = (1.0 - beta) * np.eye(lam.size) + beta * transport
    f_beta = step * root  # M_beta Lam^{1/2}, whose Gram matrix is sigma_r
    sigma_r = _sym(f_beta @ f_beta.T)
    vals = np.clip(np.linalg.eigvalsh(sigma_r), 0.0, None)
    rank = int((vals > _RANK_CUT * vals.max(initial=0.0)).sum())
    # w_tilde w_tilde^T = B F F^T B^T and (B F)^T w0 = F^T w0_r: a rank-by-d_in SVD
    nuclear = float(np.linalg.svd(f_beta.T @ w0_r, compute_uv=False).sum())
    bures_after = max(float(np.vdot(f_beta, f_beta)) + w0_sq - 2.0 * nuclear, 0.0)
    if rank == 0:
        warnings.warn(
            "interpolated covariance is zero; refinement degenerates to zero weights",
            RankDeficiencyWarning,
            stacklevel=2,
        )
        w = w_ if in_place else np.empty_like(w_)
        w.fill(0.0)
        return RefinementResult(w, basis, sigma_r, 0, True, 0.0, bures_before, bures_after)
    w_c = step @ w_r  # B^T w_tilde
    gap = float(np.linalg.norm(w_c @ w_c.T - sigma_r) / np.linalg.norm(sigma_r))
    # beta / (1 - beta) folds the two weights into the lift, so each block of
    # w_star is added to it unscaled and the sum scaled once
    mapped = transport @ w_r
    if beta != 1.0:
        mapped *= beta / (1.0 - beta)
    w_tilde = w_ if in_place else np.empty_like(w_)
    for i in range(0, len(w_), _LIFT_ROWS):
        rows = slice(i, i + _LIFT_ROWS)
        blk = basis[rows] @ mapped
        if beta != 1.0:
            blk += w_[rows]
            blk *= 1.0 - beta
        w_tilde[rows] = blk
    return RefinementResult(w_tilde, basis, sigma_r, rank, False, gap, bures_before, bures_after)
