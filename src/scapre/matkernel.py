"""Dense real-matrix kernels shared by every other module.

All routines take and return float64 row-major arrays, produce deterministic
output (descending spectra, sign-fixed bases), and hold no global state.
"""

from typing import NamedTuple

import numpy as np

__all__ = [
    "KRON_BUDGET",
    "SingularDecomposition",
    "SpectralDecomposition",
    "as_matrix",
    "check_symmetric",
    "kron_assemble",
    "procrustes",
    "psd_sqrt",
    "svd",
    "sym_eig",
]

# Largest entry count an assembled Kronecker product may hold.
KRON_BUDGET = 2**24


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate ``x`` as a finite 2-D float64 array and return it row-major.

    Raises ``ValueError`` if the input is not 2-D, has an empty dimension,
    or contains NaN/Inf entries.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def check_symmetric(x: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless ``x`` is symmetric within 1e-10 relative Frobenius."""
    if np.linalg.norm(x - x.T) > 1e-10 * max(np.linalg.norm(x), np.finfo(np.float64).tiny):
        raise ValueError(f"{name} is not symmetric within 1e-10 relative tolerance")


def _fix_signs(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip basis columns so the largest-magnitude entry of each is positive.

    Ties resolve to the first occurrence, which makes the convention
    deterministic across platforms. Returns the fixed columns and the
    applied signs.
    """
    idx = np.argmax(np.abs(vecs), axis=0)
    lead = vecs[idx, np.arange(vecs.shape[1])]
    signs = np.where(lead < 0.0, -1.0, 1.0)
    return vecs * signs, signs


class SpectralDecomposition(NamedTuple):
    """Orthogonal eigenbasis ``eigvecs`` with eigenvalues descending."""

    eigvecs: np.ndarray
    eigvals: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigvecs * self.eigvals) @ self.eigvecs.T


class SingularDecomposition(NamedTuple):
    """Thin SVD factors; ``sigma`` is nonnegative and descending."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


def sym_eig(m) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix.

    Eigenvalues are returned in descending order with ties kept in first
    occurrence order; eigenvector signs follow the largest-entry-positive
    convention.

    Raises ``ValueError`` for non-square input or input that is not
    symmetric within ``1e-10`` relative Frobenius.
    """
    a = as_matrix(m, "m")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"m must be square, got shape {a.shape}")
    check_symmetric(a, "m")
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-vals, kind="stable")
    vecs, _ = _fix_signs(vecs[:, order])
    return SpectralDecomposition(vecs, vals[order])


def svd(m) -> SingularDecomposition:
    """Thin singular value decomposition with sign-fixed left vectors."""
    a = as_matrix(m, "m")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    u, signs = _fix_signs(u)
    return SingularDecomposition(u, s, vt.T * signs)


def psd_sqrt(m) -> np.ndarray:
    """Symmetric PSD square root of a symmetric PSD matrix.

    Eigenvalues in ``[-1e-10 * spectral_norm, 0)`` are treated as round-off
    and clamped to zero; anything below that raises ``ValueError``.
    """
    dec = sym_eig(m)
    vals = dec.eigvals.copy()
    scale = float(np.abs(vals).max()) if vals.size else 0.0
    floor = -1e-10 * scale
    if vals.min() < floor:
        raise ValueError(
            f"matrix is not PSD: min eigenvalue {vals.min():.6e} is below the "
            f"clamp threshold {floor:.6e}"
        )
    np.clip(vals, 0.0, None, out=vals)
    root = (dec.eigvecs * np.sqrt(vals)) @ dec.eigvecs.T
    return (root + root.T) / 2.0


def procrustes(k) -> np.ndarray:
    """Polar factor ``U_K V_K^T`` of ``k``: the orthonormal matrix closest to it.

    For a p-by-q input the result has orthonormal columns when ``p >= q`` and
    orthonormal rows when ``q >= p``; among all such matrices it maximizes
    ``tr(Q^T k)``. Rank-deficient input still yields a valid (non-unique)
    factor, deterministic under the SVD sign convention.
    """
    dec = svd(k)
    return dec.u @ dec.v.T


def kron_assemble(a, b) -> np.ndarray:
    """Dense Kronecker product ``a (x) b``.

    Entry layout: ``(a (x) b)[i*p + k, j*q + l] = a[i, j] * b[k, l]`` for
    ``b`` of shape p-by-q. Refuses to allocate more than ``KRON_BUDGET``
    entries; oversized systems should go through the spectral solver path
    instead.
    """
    a_ = as_matrix(a, "a")
    b_ = as_matrix(b, "b")
    entries = a_.shape[0] * a_.shape[1] * b_.shape[0] * b_.shape[1]
    if entries > KRON_BUDGET:
        raise ValueError(
            f"Kronecker product would hold {entries} entries, over the "
            f"{KRON_BUDGET}-entry budget; use the spectral solver path for this size"
        )
    return np.kron(a_, b_)
