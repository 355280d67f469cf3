"""Input-side stabilizer assembly.

Three parts make up the curvature matrix ``A = lam*I + S + R``: a ridge term,
the second-order statistics ``S`` of the context tokens, and the gated
concept-subspace energy ``R``.
"""

from dataclasses import dataclass

import numpy as np

from .matkernel import SpectralDecomposition, as_matrix, svd, sym_eig

__all__ = [
    "StabilizerA",
    "assemble_a",
    "build_r",
    "build_s",
    "gate_singular",
    "relative_lambda",
    "validate_concepts",
    "validate_contexts",
]


def validate_contexts(contexts) -> list[np.ndarray]:
    """Normalize a context feature set to a list of (T_k, d_in) arrays."""
    groups = list(contexts)
    if not groups:
        raise ValueError("context feature set is empty")
    groups = [as_matrix(g, f"contexts[{k}]") for k, g in enumerate(groups)]
    d_in = groups[0].shape[1]
    for k, g in enumerate(groups):
        if g.shape[1] != d_in:
            raise ValueError(
                f"contexts[{k}] has feature length {g.shape[1]}, expected {d_in}"
            )
    return groups


def validate_concepts(c_e, name: str = "concepts") -> np.ndarray:
    """Validate a d_in-by-m concept embedding matrix; no zero columns allowed."""
    c = as_matrix(c_e, name)
    if (np.linalg.norm(c, axis=0) == 0.0).any():
        raise ValueError(f"{name} contains a zero column")
    return c


def build_s(contexts) -> np.ndarray:
    """Sum of outer products of every context token across all concepts.

    ``contexts`` is one array of token vectors (rows) per concept. The result
    is symmetric PSD of size d_in-by-d_in.
    """
    g = np.vstack(validate_contexts(contexts))
    s = g.T @ g
    return (s + s.T) / 2.0


def gate_singular(sigma) -> np.ndarray:
    """Soft-decay gate ``(1 - sigmoid(s)) * s``, computed as ``s / (1 + e^s)``.

    Large values are suppressed toward zero while small ones pass nearly
    intact; output is nonnegative and never exceeds the input.
    """
    s = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    if not np.isfinite(s).all():
        raise ValueError("singular values contain non-finite entries")
    if (s < 0.0).any():
        raise ValueError("singular values must be nonnegative")
    with np.errstate(over="ignore"):
        return s / (1.0 + np.exp(s))


def build_r(c_e) -> np.ndarray:
    """Gated concept-subspace energy ``U diag(gate(sigma)) U^T``.

    ``U`` and ``sigma`` come from the thin SVD of the concept matrix, so the
    result is symmetric PSD of size d_in-by-d_in with rank at most m.
    """
    c = validate_concepts(c_e)
    dec = svd(c)
    r = (dec.u * gate_singular(dec.sigma)) @ dec.u.T
    return (r + r.T) / 2.0


def relative_lambda(s, scale: float = 0.1) -> float:
    """Ridge weight as a fraction of the mean diagonal of ``S``.

    Keeps the ridge proportionate to the context energy regardless of the
    embedding magnitude. Raises if ``S`` has nonpositive trace; pass an
    absolute weight in that case.
    """
    s_ = as_matrix(s, "s")
    lam = scale * float(np.trace(s_)) / s_.shape[0]
    if lam <= 0.0:
        raise ValueError(
            "relative ridge rule needs a context matrix with positive trace; "
            "supply an absolute ridge weight instead"
        )
    return lam


@dataclass(frozen=True)
class StabilizerA:
    """``a = lam*I + s + r`` together with its parts and eigendecomposition.

    The eigendecomposition is computed once at assembly and reused by the
    spectral solver path.
    """

    lam: float
    s: np.ndarray
    r: np.ndarray
    a: np.ndarray
    eig: SpectralDecomposition


def assemble_a(lam: float, s, r) -> StabilizerA:
    """Assemble the positive definite stabilizer ``lam*I + s + r``.

    ``lam`` must be positive and ``s``, ``r`` symmetric PSD of equal size;
    the assembled matrix then has minimum eigenvalue at least ``lam`` up to
    round-off, which is verified.
    """
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    s_ = as_matrix(s, "s")
    r_ = as_matrix(r, "r")
    if s_.shape[0] != s_.shape[1] or s_.shape != r_.shape:
        raise ValueError(f"s and r must be square and equal size, got {s_.shape} and {r_.shape}")
    for name, x in (("s", s_), ("r", r_)):
        if np.linalg.norm(x - x.T) > 1e-10 * max(np.linalg.norm(x), np.finfo(np.float64).tiny):
            raise ValueError(f"{name} is not symmetric within 1e-10 relative tolerance")
    a = lam * np.eye(s_.shape[0]) + s_ + r_
    a = (a + a.T) / 2.0
    eig = sym_eig(a)
    tol = max(1e-8, 1e-12 * float(np.abs(eig.eigvals).max()))
    if eig.eigvals.min() < lam - tol:
        raise ValueError(
            f"s + r is not positive semidefinite: assembled minimum eigenvalue "
            f"{eig.eigvals.min():.6e} falls below lam={lam:.6e}"
        )
    return StabilizerA(float(lam), s_, r_, a, eig)
