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
# Relative floor below which an eigenvalue of W* W*^T is round-off: a squared
# singular value is exact only to about eps * sigma_max^2. Cutting at
# _RANK_CUT instead would drop directions whose roots still count (the root
# of a 1e-13 eigenvalue is 3e-7 of the largest).
_ROUNDOFF_CUT = np.finfo(np.float64).eps
# The range finder stops once the residual x - Q Q^T x has Frobenius norm at
# most _NOISE_FLOOR * eps * sqrt(q) * |x|_F, q = min(x.shape). An inner
# product of length n computed in floating point is off by about
# sqrt(n) * eps of its terms (Higham & Mary 2019), so the products that form
# x = W* V, and the residual itself, carry noise of that order: on the
# benchmark edits the singular values of x past its first 8 sum to
# 0.1-0.3 eps sqrt(q) |x|_F. The factor 4 leaves that noise 13 times or more
# below the stop, so the finder does not chase it round after round, while
# anything it leaves out lies below 4 eps q sigma_max, far under the
# sqrt(eps) sigma_max at which the Ritz step cuts. The Ritz vectors move by
# about the residual over sigma_max, so stopping at that cut would not do.
_NOISE_FLOOR = 4.0
# Columns the range finder takes in its first round; each round doubles it.
_FIRST_BLOCK = 8
# Rows per block of the refinement's lift and of the range finder's residual,
# so that each takes one block of scratch.
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


def _residual_norms(x: np.ndarray, q: np.ndarray, qtx: np.ndarray, scratch: np.ndarray):
    """Squared column norms of ``x - q qtx``, formed a block of rows at a time in ``scratch``."""
    out = np.zeros(x.shape[1])
    for i in range(0, len(x), _LIFT_ROWS):
        blk = scratch[: min(_LIFT_ROWS, len(x) - i)]
        np.matmul(q[i : i + _LIFT_ROWS], qtx, out=blk)
        np.subtract(x[i : i + _LIFT_ROWS], blk, out=blk)
        out += np.einsum("ij,ij->j", blk, blk)
    return out


def _pivots(gram: np.ndarray, noise2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns picked by a pivoted Cholesky of ``gram``, and their upper factor.

    Each step takes the column whose remaining squared norm is largest (the
    first on ties). A column is passed over once its remaining squared norm
    is at most ``noise2`` or ``sqrt(eps)`` of the largest diagonal entry: a
    Gram matrix holds it only to about eps of that entry, so below there
    fewer than half its digits are left (LAPACK's xGEQP3 recomputes a
    downdated column norm at the same point). Returns the picked indices in
    pivot order and ``R`` with ``R^T R = gram[picked][:, picked]``.
    """
    d = np.diag(gram).copy()
    lim = np.maximum(np.sqrt(_ROUNDOFF_CUT) * d.max(initial=0.0), noise2)
    chol = np.empty((len(d), len(d)))
    picked: list[int] = []
    d[d <= lim] = -np.inf
    while len(picked) < len(d):
        j = int(np.argmax(d))
        if d[j] == -np.inf:
            break
        k = len(picked)
        col = (gram[:, j] - chol[:, :k] @ chol[j, :k]) / np.sqrt(d[j])
        chol[:, k] = col
        picked.append(j)
        d -= col * col
        d[j] = -np.inf
        d[d <= lim] = -np.inf
    idx = np.array(picked, dtype=np.intp)
    return idx, np.triu(chol[idx, : len(idx)].T)


def _range_basis(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal ``Q`` spanning the columns of ``x`` to its noise floor, and ``Q^T x``.

    A blocked column-pivoted range finder (Businger & Golub 1965). Each round
    takes as a panel the ``b`` columns with the largest residual norms among
    those above their own share of the noise floor (ties to the first
    index; ``b`` is ``_FIRST_BLOCK`` and doubles every round). A pivoted
    Cholesky of the panel's Gram matrix picks the columns it resolves; they
    join ``Q`` by two passes of block classical Gram-Schmidt, each followed
    by a Cholesky QR, which keeps ``Q`` orthonormal to about eps. The
    pivoting keeps the first pass's condition number near eps^(-1/4), well
    inside the eps^(-1/2) that Cholesky QR tolerates (Fukaya et al. 2014).
    The rest of the panel is deflated and picked from again until none of
    it is above its noise. The round then forms the residual
    ``x - Q Q^T x`` anew; the finder stops once its Frobenius norm is at the
    floor ``_NOISE_FLOOR`` describes, which certifies the basis (Halko,
    Martinsson & Tropp 2011), or once ``Q`` has min(x.shape) columns.
    """
    rows, cols = x.shape
    width = min(rows, cols)
    norms2 = np.einsum("ij,ij->j", x, x)
    noise2 = (_NOISE_FLOOR * _ROUNDOFF_CUT) ** 2 * width * norms2
    floor2, res2 = float(noise2.sum()), norms2
    q, qtx = np.empty((rows, 0)), np.empty((0, cols))
    scratch = np.empty((min(rows, _LIFT_ROWS), cols))
    block = _FIRST_BLOCK
    while q.shape[1] < width and float(res2.sum()) > floor2:
        # the panel: the columns above their noise with the largest residuals
        above = np.flatnonzero(res2 > noise2)
        piv = above[np.argsort(-res2[above], kind="stable")][: min(block, width - q.shape[1])]
        panel = x[:, piv] - q @ qtx[:, piv]
        found = q.shape[1]
        while piv.size:
            picked, r = _pivots(panel.T @ panel, noise2[piv])
            if not picked.size:
                break
            # Cholesky QR, y R^-1 with R^T R = y^T y, after each pass
            new = panel[:, picked] @ np.linalg.inv(r)
            new -= q @ (q.T @ new)
            new = new @ np.linalg.inv(np.linalg.cholesky(new.T @ new).T)
            q = np.hstack([q, new])
            rest = np.ones(piv.size, dtype=bool)
            rest[picked] = False
            piv, panel = piv[rest], panel[:, rest]
            panel -= new @ (new.T @ panel)
        if q.shape[1] == found:
            break  # no column of the panel was resolved above its noise
        qtx = np.vstack([qtx, q[:, found:].T @ x])
        if q.shape[1] == width:
            break  # as wide as the rank of x can be: no column could be added
        res2 = _residual_norms(x, q, qtx, scratch)
        block *= 2
    return q, qtx


@dataclass(frozen=True)
class RefinementResult:
    """Refined weights plus the diagnostics the edit report carries.

    ``basis`` (d_out by r, orthonormal columns) spans the numerical range of
    ``w_star w_star^T``: the left singular vectors of ``w_star`` whose
    squared singular values lie above eps times the largest, which are that
    matrix's eigenvectors above the round-off floor. They come from the
    Rayleigh-Ritz SVD on the range finder's basis, not from an
    eigendecomposition. The interpolated covariance is held as ``sigma_r``
    in the coordinates of that basis; ``sigma_plus`` is
    ``basis sigma_r basis^T``. ``realization_gap`` is the relative
    Frobenius mismatch between ``w w^T`` and the interpolated covariance in
    that basis; the transport map realizes it, so the gap is round-off.
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
    otherwise ``x = w_star``. A blocked column-pivoted range finder on ``x``
    gives an orthonormal ``Q`` (d_out by r', r' a little above r) whose span
    holds the columns of ``x`` to round-off, certified by the residual
    ``x - Q Q^T x``; no Gram matrix of ``x`` is formed and nothing is
    eigendecomposed. The Rayleigh-Ritz SVD of ``Q^T x`` (r' by p), cut where
    the squared singular values fall below eps of the largest, gives
    ``S = B Lam B^T`` with ``B`` (d_out by r) and ``B^T w_star`` directly.
    There the root of ``S`` is ``Lam^{1/2}``; with
    ``Lam^{1/2} B^T w0 = U diag(s) V^T`` the cross root
    ``(S^{1/2} Z S^{1/2})^{1/2}`` is ``B U diag(s) U^T B^T`` and
    ``bures_before`` is ``|w_star|^2 + |w0|^2 - 2 sum(s)``, because
    Bures(X X^T, Y Y^T) = |X|^2 + |Y|^2 - 2 |X^T Y|_* (Bhatia, Jain & Lim
    2019). ``T`` is ``B M B^T`` with ``M = Lam^{+1/2} U diag(s) U^T
    Lam^{+1/2}``, so the refined weights are
    ``(1-beta) w_star + beta B (M B^T w_star)`` and the interpolated
    covariance is ``B sigma_r B^T``. At beta=0 only ``bures_before`` is
    needed, so the SVD of ``Lam^{1/2} B^T w0`` is taken without vectors.

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
    # w_star = x R^T. Rayleigh-Ritz: the range finder's Q may hold directions
    # of round-off size beyond the rank of x; the singular values of Q^T x
    # resolve them to eps * sigma_max, and the round-off floor drops them.
    q, qtx = _range_basis(x)
    ritz_u, ritz_s, ritz_vt = np.linalg.svd(qtx, full_matrices=False)
    lam = ritz_s**2
    lam_max = float(lam[0]) if lam.size else 0.0
    cut = lam > _ROUNDOFF_CUT * lam_max
    lam = lam[cut]
    # B, and B^T x with orthogonal rows
    basis, w_r = q @ ritz_u[:, cut], ritz_s[cut, None] * ritz_vt[cut]
    if right is not None:
        w_r = w_r @ right.T
    w0_r = basis.T @ w0_
    root = np.sqrt(lam)
    keep = lam > _RANK_CUT * lam_max
    if beta == 0.0:
        # only bures_before is reported: the singular values suffice
        cross_s = np.linalg.svd(root[:, None] * w0_r, compute_uv=False)
        bures_before = max(w_sq + w0_sq - 2.0 * float(cross_s.sum()), 0.0)
        return RefinementResult(
            w_, basis, np.diag(lam), int(keep.sum()), False, 0.0, bures_before, bures_before
        )
    cross_u, cross_s, _ = np.linalg.svd(root[:, None] * w0_r, full_matrices=False)
    bures_before = max(w_sq + w0_sq - 2.0 * float(cross_s.sum()), 0.0)
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
