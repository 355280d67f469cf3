"""Covariance-space comparison and the edit's step toward the reference.

The squared Bures metric compares the row-space covariances of two weight
matrices. The refinement moves the anchored edit's weights along the line
from ``W0``: ``W = W0 + (1 - beta/2) D``.
"""

import numpy as np

# perfbench/tracing.py patches the sym_eig, psd_sqrt and procrustes names here.
from .matkernel import as_matrix, check_symmetric, procrustes, psd_sqrt, sym_eig  # noqa: F401

__all__ = ["BW_GEODESIC", "bures_distance", "refine_weights"]

# The one refinement's name, echoed into reports and kept because the
# benchmark's configs pass it: the step is now the line above, not the
# Bures-Wasserstein geodesic.
BW_GEODESIC = "bw-geodesic"


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


def bures_distance(sigma_a, sigma_b) -> float:
    """Squared Bures metric ``tr A + tr B - 2 tr((A^{1/2} B A^{1/2})^{1/2})``.

    Both inputs must be symmetric PSD of the same size. The result is
    clamped at zero against round-off and is symmetric in its arguments.
    """
    a = _validate_cov(sigma_a, "sigma_a")
    b = _validate_cov(sigma_b, "sigma_b")
    if a.shape != b.shape:
        raise ValueError(f"covariance sizes differ: {a.shape} vs {b.shape}")
    root = psd_sqrt(a)
    inner = root @ b @ root
    cross = psd_sqrt((inner + inner.T) / 2.0)
    return max(float(np.trace(a) + np.trace(b) - 2.0 * np.trace(cross)), 0.0)


def refine_weights(delta, w0, beta: float, in_place: bool = False) -> np.ndarray:
    """The edited weights ``W0 + (1 - beta/2) delta``, for ``beta`` in [0, 1].

    ``delta`` is the anchored solve's edit ``D = W* - W0``. At beta=0 the
    result is the solve's ``W*``, and at beta=1 the midpoint of ``W0`` and
    ``W*``. Halving beta on the line puts its (erasure, preservation)
    points on or inside those of the Bures-Wasserstein step at beta (see
    the README). The weights are a new array, or, with ``in_place``, are
    written over ``delta``, which must then be a C-contiguous float64
    array.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    d = as_matrix(delta, "delta")
    w0_ = as_matrix(w0, "w0")
    if d.shape != w0_.shape:
        raise ValueError(f"delta shape {d.shape} does not match w0 {w0_.shape}")
    if in_place and d is not delta:
        raise ValueError("in_place needs delta as a C-contiguous float64 array")
    w = d if in_place else d.copy()
    w *= 1.0 - beta / 2.0
    w += w0_
    return w
