"""Input-side stabilizer assembly.

Three parts make up the curvature matrix ``A = lam*I + S + R``: a ridge term,
the second-order statistics ``S`` of the context tokens, and the gated
concept-subspace energy ``R``. ``build_a`` assembles ``A`` from the factors
of ``S`` and ``R`` and keeps only its eigenpairs off the ridge; the dense
``build_s``, ``build_r`` and ``assemble_a`` are its reference route.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matkernel import SpectralDecomposition, as_matrix, check_symmetric, svd, sym_eig

__all__ = [
    "StabilizerA",
    "assemble_a",
    "build_a",
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


def _ridge(trace: float, d_in: int, scale: float | None) -> float:
    if scale is None:
        raise ValueError("no ridge given: pass an absolute lam or a relative lam_scale")
    lam = scale * trace / d_in
    if not 0.0 < lam < math.inf:  # an infinite ridge would zero the edit
        raise ValueError(
            f"relative ridge rule gave lam={lam}: it needs a finite positive lam_scale "
            "and a context matrix with positive trace; supply an absolute ridge weight instead"
        )
    return lam


def relative_lambda(s, scale: float) -> float:
    """Ridge weight as a fraction ``scale`` of the mean diagonal of ``S``.

    Keeps the ridge proportionate to the context energy regardless of the
    embedding magnitude; ``EditConfig.lam_scale`` holds the default
    fraction. Raises if ``S`` has nonpositive trace; pass an absolute
    weight in that case.
    """
    s_ = as_matrix(s, "s")
    return _ridge(float(np.trace(s_)), s_.shape[0], scale)


@dataclass(frozen=True)
class StabilizerA:
    """``A = lam*I + S + R`` held as its ridge and k eigenpairs.

    The eigenvectors are the last k of ``rows``. With k = d_in they are an
    orthonormal ``V^T``: ``A = V diag(eigvals) V^T``. With k < d_in they are
    ``Phi^T``: ``A = lam*I + Phi Phi^T``, ``lam`` off their span, and
    ``rows = [C^T; Phi^T]`` holds the concepts too, for the solve's one
    product. O(d_in*(m+k)) memory.
    """

    lam: float
    eigvals: np.ndarray
    rows: np.ndarray

    @property
    def rank(self) -> int:
        """Number of eigenpairs held, k."""
        return len(self.eigvals)

    @property
    def eig(self) -> SpectralDecomposition:
        """The eigenpairs, ``V`` or ``Phi`` as d_in-by-k columns."""
        return SpectralDecomposition(self.rows[len(self.rows) - self.rank :].T, self.eigvals)

    @property
    def _has_complement(self) -> bool:
        return self.rank < self.rows.shape[1]

    @property
    def eig_min(self) -> float:
        """Smallest eigenvalue of ``A``, the complement's ``lam`` included."""
        low = float(self.eigvals.min())
        return min(low, self.lam) if self._has_complement else low

    @property
    def eig_max(self) -> float:
        """Largest eigenvalue of ``A``, the complement's ``lam`` included."""
        high = float(self.eigvals.max())
        return max(high, self.lam) if self._has_complement else high

    def times(self, w) -> np.ndarray:
        """``w @ A`` from the factors, without forming ``A``."""
        vecs = self.eig.eigvecs
        wv = w @ vecs
        if not self._has_complement:  # A - lam I = V diag(eigvals - lam) V^T
            wv *= self.eigvals - self.lam
        out = wv @ vecs.T
        out += self.lam * w
        return out

    @property
    def a(self) -> np.ndarray:
        """Dense ``A``, built on each access: d_in*d_in entries.

        For the dense oracles (Kronecker route, gradient descent, objective
        value) and tests; the edit path never calls it.
        """
        a = self.times(np.eye(self.rows.shape[1]))
        return (a + a.T) / 2.0


def _checked(lam: float, eigvals, rows) -> StabilizerA:
    """``StabilizerA`` after verifying that no eigenvalue falls below ``lam``.

    ``S + R`` is PSD, so ``A``'s spectrum sits at or above ``lam`` up to
    round-off; anything further below means the parts were not PSD.
    """
    tol = max(1e-8, 1e-12 * float(np.abs(eigvals).max()))
    if eigvals.min() < lam - tol:
        raise ValueError(
            f"s + r is not positive semidefinite: assembled minimum eigenvalue "
            f"{eigvals.min():.6e} falls below lam={lam:.6e}"
        )
    return StabilizerA(float(lam), eigvals, rows)


def _gate_rows(c: np.ndarray) -> np.ndarray:
    """``diag(sqrt(gate(sigma))) U^T`` for ``c = U diag(sigma) W^T``, from the Gram ``c^T c``.

    The m-by-m Gram's eigenpairs are ``W`` and ``sigma^2``, and
    ``U = c W diag(1/sigma)``, so the rows are
    ``diag(sqrt(gate(sigma)) / sigma) W^T c^T``, and ``rows^T rows`` is R.
    An eigenvalue at or below the Gram's round-off, ``m * eps`` times its
    largest, is a ``sigma`` of 0 and gives a zero row: its gate is at most
    ``sigma``, which the Gram cannot resolve there, and it is not divided by.
    """
    dec = sym_eig(c.T @ c)
    ev = dec.eigvals
    kept = ev > len(ev) * np.finfo(np.float64).eps * ev[0]
    sq = np.where(kept, ev, 1.0)
    scale = np.where(kept, np.sqrt(gate_singular(np.sqrt(sq)) / sq), 0.0)
    return (dec.eigvecs.T @ c.T) * scale[:, None]


def build_a(
    contexts, c_e, lam: float | None = None, lam_scale: float | None = None
) -> StabilizerA:
    """Stabilizer ``lam*I + S + R`` from its factors, with no d_in-by-d_in array.

    With ``G`` the stacked context tokens (T by d_in) and
    ``C = U diag(sigma) W^T`` the concepts, ``S + R = F F^T`` for
    ``F = [G^T, U sqrt(gate(sigma))]``, d_in by k = T+m (``_gate_rows``).
    The smaller Gram of ``F`` is eigendecomposed. When k < d_in,
    ``F^T F = P diag(Lam) P^T`` and ``Phi = F P`` has
    ``Phi^T Phi = diag(Lam)`` and ``Phi Phi^T = S + R``: no orthonormal
    basis is formed. When k >= d_in, ``F F^T`` gives an orthonormal ``V``.
    ``lam=None`` applies the relative rule ``lam_scale * |G|_F^2 / d_in``,
    which is ``lam_scale * trace(S) / d_in``; one of the two must be given
    (``EditConfig.lam_scale`` holds the default fraction). Same result as
    ``assemble_a(lam, build_s(contexts), build_r(c_e))`` up to round-off, in
    O(d_in*(m+k)) memory.
    """
    groups = validate_contexts(contexts)
    c = validate_concepts(c_e)
    d_in = groups[0].shape[1]
    if c.shape[0] != d_in:
        raise ValueError(f"concepts have length {c.shape[0]}, contexts have {d_in}")
    ft = np.vstack([*groups, _gate_rows(c)])  # F^T, k by d_in
    g = ft[: len(ft) - c.shape[1]]
    if lam is None:
        lam = _ridge(float(np.vdot(g, g)), d_in, lam_scale)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if len(ft) >= d_in:
        low = sym_eig(ft.T @ ft)
        return _checked(lam, lam + low.eigvals, low.eigvecs.T)
    gram = sym_eig(ft @ ft.T)
    rows = np.empty((c.shape[1] + len(ft), d_in))
    rows[: c.shape[1]] = c.T
    np.matmul(gram.eigvecs.T, ft, out=rows[c.shape[1] :])  # Phi^T = P^T F^T
    return _checked(lam, lam + gram.eigvals, rows)


def assemble_a(lam: float, s, r) -> StabilizerA:
    """Assemble the positive definite stabilizer ``lam*I + s + r`` densely.

    The reference route for ``build_a``: ``lam`` must be finite and positive
    and ``s``, ``r`` symmetric PSD of equal size; the full d_in-by-d_in
    eigendecomposition then has minimum eigenvalue at least ``lam`` up to
    round-off, which is verified.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    s_ = as_matrix(s, "s")
    r_ = as_matrix(r, "r")
    if s_.shape[0] != s_.shape[1] or s_.shape != r_.shape:
        raise ValueError(f"s and r must be square and equal size, got {s_.shape} and {r_.shape}")
    check_symmetric(s_, "s")
    check_symmetric(r_, "r")
    a = lam * np.eye(s_.shape[0]) + s_ + r_
    dec = sym_eig((a + a.T) / 2.0)
    return _checked(lam, dec.eigvals, dec.eigvecs.T)
