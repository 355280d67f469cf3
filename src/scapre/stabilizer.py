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
    """``A = lam*I + S + R`` held as its ridge and its eigenpairs.

    ``eig`` holds eigenpairs of ``A`` on the span of a d_in-by-k orthonormal
    basis; on the orthogonal complement (empty when k = d_in) every
    eigenvalue of ``A`` is ``lam``. So ``A = lam*I + V diag(eigvals - lam) V^T``
    and the object takes O(d_in*k) memory.
    """

    lam: float
    eig: SpectralDecomposition

    @property
    def rank(self) -> int:
        """Number of eigenpairs held, k."""
        return self.eig.eigvecs.shape[1]

    @property
    def _has_complement(self) -> bool:
        return self.rank < self.eig.eigvecs.shape[0]

    @property
    def eig_min(self) -> float:
        """Smallest eigenvalue of ``A``, the complement's ``lam`` included."""
        low = float(self.eig.eigvals.min())
        return min(low, self.lam) if self._has_complement else low

    @property
    def eig_max(self) -> float:
        """Largest eigenvalue of ``A``, the complement's ``lam`` included."""
        high = float(self.eig.eigvals.max())
        return max(high, self.lam) if self._has_complement else high

    def times(self, w) -> np.ndarray:
        """``w @ A`` from the factors, without forming ``A``."""
        vecs = self.eig.eigvecs
        out = ((w @ vecs) * (self.eig.eigvals - self.lam)) @ vecs.T
        out += self.lam * w
        return out

    @property
    def a(self) -> np.ndarray:
        """Dense ``A``, built on each access: d_in*d_in entries.

        For the dense oracles (Kronecker route, gradient descent, objective
        value) and tests; the edit path never calls it.
        """
        a = self.times(np.eye(self.eig.eigvecs.shape[0]))
        return (a + a.T) / 2.0


def _checked(lam: float, eig: SpectralDecomposition) -> StabilizerA:
    """``StabilizerA`` after verifying that no eigenvalue falls below ``lam``.

    ``S + R`` is PSD, so ``A``'s spectrum sits at or above ``lam`` up to
    round-off; anything further below means the parts were not PSD.
    """
    tol = max(1e-8, 1e-12 * float(np.abs(eig.eigvals).max()))
    if eig.eigvals.min() < lam - tol:
        raise ValueError(
            f"s + r is not positive semidefinite: assembled minimum eigenvalue "
            f"{eig.eigvals.min():.6e} falls below lam={lam:.6e}"
        )
    return StabilizerA(float(lam), eig)


def _reflector_basis(h: np.ndarray, tau: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``Q[:, :k] @ e`` for the Q of a Householder QR, applied from its reflectors.

    ``h`` and ``tau`` are ``np.linalg.qr(X, mode="raw")`` of a d_in-by-k
    ``X`` (k < d_in); ``h`` is overwritten. ``Q = I - Y T Y^T`` in
    compact-WY form (Schreiber & Van Loan 1989), with ``Y`` the unit lower
    trapezoidal reflectors (``h.T``) and, by the UT transform (Joffrain et
    al. 2006), ``T = D (I + striu(Y^T Y) D)^-1`` for ``D = diag(tau)``. The
    unit triangular factor needs no case for ``tau = 0``. So
    ``Q[:, :k] e = [e; 0] - Y T (Y_1^T e)``, ``Y_1`` the top k rows of ``Y``,
    and no Q is formed.
    """
    k = h.shape[0]
    top = h[:, :k]  # Y_1^T: unit upper triangular once R is cleared
    top[...] = np.triu(top, 1)
    np.fill_diagonal(top, 1.0)
    unit = np.triu(h @ h.T, 1) * tau
    np.fill_diagonal(unit, 1.0)
    z = np.linalg.solve(unit, top @ e) * tau[:, None]
    v = h.T @ -z
    v[:k] += e
    return v


def _gate_term(f: np.ndarray) -> np.ndarray:
    """``U diag(gate(sigma)) U^T`` for ``f = U diag(sigma) W^T``, from the Gram ``f^T f``.

    The m-by-m Gram's eigenpairs are ``W`` and ``sigma^2``, and
    ``U = f W diag(1/sigma)``, so the term is
    ``f W diag(gate(sigma)/sigma^2) W^T f^T``. An eigenvalue at or below the
    Gram's round-off, ``m * eps`` times its largest, is a ``sigma`` of 0 and
    contributes nothing: its gate is at most ``sigma``, which the Gram cannot
    resolve there, and it is not divided by.
    """
    dec = sym_eig(f.T @ f)
    ev = dec.eigvals
    kept = ev > len(ev) * np.finfo(np.float64).eps * ev[0]
    sq = np.where(kept, ev, 1.0)
    scale = np.where(kept, gate_singular(np.sqrt(sq)) / sq, 0.0)
    fw = f @ dec.eigvecs
    return (fw * scale) @ fw.T


def build_a(
    contexts, c_e, lam: float | None = None, lam_scale: float | None = None
) -> StabilizerA:
    """Stabilizer ``lam*I + S + R`` from its factors, with no d_in-by-d_in array.

    With ``G`` the stacked context tokens and ``C = U diag(sigma) W^T`` the
    thin SVD of the concepts, ``S + R = G^T G + U diag(gate(sigma)) U^T``.
    A Householder QR ``[C, G^T] = Q [R_C, R_G]`` (k = T+m columns) keeps Q
    as its reflectors. ``R_C`` is zero below its m-by-m triangle ``T_C``, so
    ``C = Q[:, :m] T_C`` and the gate term is ``Q[:, :m]`` times that of
    ``T_C``, taken from the m-by-m Gram ``T_C^T T_C = C^T C``. One k-by-k
    eigendecomposition of ``R_G R_G^T`` plus that gate term in its top
    corner, ``E diag(mu) E^T``, gives the basis ``V = Q E``, applied from
    the reflectors, with eigenvalues ``lam + mu``.
    ``V`` spans the concepts whatever the gates: an underflowed gate leaves
    its direction in the basis with eigenvalue ``lam``. When T+m >= d_in,
    ``Q`` would be square and ``G^T G`` plus the gate term of ``C`` (from
    the Gram ``C^T C``) is eigendecomposed directly. ``lam=None`` applies
    the relative rule ``lam_scale * |G|_F^2 / d_in``, which is
    ``lam_scale * trace(S) / d_in``; one of the two must be given
    (``EditConfig.lam_scale`` holds the default fraction).
    Same result as ``assemble_a(lam, build_s(contexts), build_r(c_e))`` up
    to round-off, in O(d_in*k) memory.
    """
    groups = validate_contexts(contexts)
    c = validate_concepts(c_e)
    d_in = groups[0].shape[1]
    if c.shape[0] != d_in:
        raise ValueError(f"concepts have length {c.shape[0]}, contexts have {d_in}")
    m = c.shape[1]
    xt = np.vstack([c.T, *groups])  # the rows [C^T; G]: X = [C, G^T] in Fortran order
    g = xt[m:]
    if lam is None:
        lam = _ridge(float(np.vdot(g, g)), d_in, lam_scale)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if len(xt) >= d_in:
        # Q would be square, so the identity basis does as well, without the QR
        xdxt = _gate_term(c)
        xdxt += g.T @ g
        low = sym_eig(xdxt)
        return _checked(lam, SpectralDecomposition(low.eigvecs, lam + low.eigvals))
    h, tau = np.linalg.qr(xt.T, mode="raw")
    del xt, g  # h holds all that is used from here: the reflectors and R
    r = np.triu(h[:, : len(h)].T)  # [R_C, R_G], k by k; R_C is zero below row m
    r_g = r[:, m:]
    xdxt = r_g @ r_g.T
    xdxt[:m, :m] += _gate_term(r[:m, :m])
    low = sym_eig(xdxt)
    del r, r_g, xdxt  # the reflectors in h and E are all the basis needs
    v = _reflector_basis(h, tau, low.eigvecs)
    return _checked(lam, SpectralDecomposition(v, lam + low.eigvals))


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
    return _checked(lam, sym_eig((a + a.T) / 2.0))
