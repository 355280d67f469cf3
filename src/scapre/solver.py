"""Closed-form editor core.

Solves ``B W + W A = M`` for the edited projection, where ``A`` is the
input-side stabilizer, ``B = diag(alpha)`` the channel decoupler, and
``M = V* C_E^T`` encodes the concepts to erase and their replacement
outputs. The one route solves in the eigenbasis of ``A``; the vectorized
Kronecker solve is its dense oracle, not a second route, and
``baseline_eq2`` the ridge-anchored normal-equation baseline editor. ``B``
is always diagonal and passed as its vector of entries.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matkernel import as_matrix, kron_assemble, sym_eig
from .stabilizer import StabilizerA, validate_concepts

__all__ = [
    "SUBSTITUTE_TARGET",
    "ZERO_TARGET",
    "EditSolution",
    "EraseSpec",
    "assemble_m",
    "baseline_eq2",
    "objective_value",
    "resolve_v_star",
    "sylvester_solve_kronecker",
    "sylvester_solve_spectral",
]

ZERO_TARGET = "zero-target"
SUBSTITUTE_TARGET = "substitute-target"
_TARGET_MODES = (ZERO_TARGET, SUBSTITUTE_TARGET)


@dataclass(frozen=True)
class EraseSpec:
    """Concepts to erase plus the outputs that should replace them.

    In ``zero-target`` mode every concept maps to zero. In
    ``substitute-target`` mode the replacement outputs are either given
    directly (``v_star``, one column per concept) or derived from substitute
    embeddings as ``w0 @ substitutes`` when the edit is assembled.
    """

    concepts: np.ndarray
    mode: str = SUBSTITUTE_TARGET
    v_star: np.ndarray | None = None
    substitutes: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.concepts)
        if c.ndim == 2 and c.shape[1] == 0:
            raise ValueError("erase spec has no target concepts")
        c = validate_concepts(c)
        object.__setattr__(self, "concepts", c)
        if self.mode not in _TARGET_MODES:
            raise ValueError(f"mode must be one of {_TARGET_MODES}, got {self.mode!r}")
        m = c.shape[1]
        if self.mode == ZERO_TARGET:
            if self.substitutes is not None:
                raise ValueError("zero-target mode takes no substitutes")
            if self.v_star is not None:
                v = as_matrix(self.v_star, "v_star")
                if v.any():
                    raise ValueError("zero-target mode requires v_star to be all zeros")
                object.__setattr__(self, "v_star", v)
            return
        if (self.v_star is None) == (self.substitutes is None):
            raise ValueError(
                "substitute-target mode takes exactly one of v_star or substitutes"
            )
        if self.v_star is not None:
            v = as_matrix(self.v_star, "v_star")
            if v.shape[1] != m:
                raise ValueError(
                    f"v_star has {v.shape[1]} columns for {m} concepts"
                )
            object.__setattr__(self, "v_star", v)
        else:
            sub = as_matrix(self.substitutes, "substitutes")
            if sub.shape != c.shape:
                raise ValueError(
                    f"substitutes shape {sub.shape} does not match concepts {c.shape}"
                )
            object.__setattr__(self, "substitutes", sub)

    @property
    def n_concepts(self) -> int:
        return self.concepts.shape[1]


def resolve_v_star(w0, spec: EraseSpec) -> np.ndarray:
    """Materialize the replacement outputs, one d_out column per concept."""
    w0_ = as_matrix(w0, "w0")
    if w0_.shape[1] != spec.concepts.shape[0]:
        raise ValueError(
            f"w0 input size {w0_.shape[1]} does not match concept length "
            f"{spec.concepts.shape[0]}"
        )
    if spec.mode == ZERO_TARGET:
        return np.zeros((w0_.shape[0], spec.n_concepts))
    if spec.v_star is not None:
        if spec.v_star.shape[0] != w0_.shape[0]:
            raise ValueError(
                f"v_star output size {spec.v_star.shape[0]} does not match w0 "
                f"output size {w0_.shape[0]}"
            )
        return spec.v_star
    return w0_ @ spec.substitutes


def assemble_m(w0, spec: EraseSpec) -> np.ndarray:
    """Right-hand side ``M = V* C_E^T`` of the edit equation (d_out x d_in)."""
    return resolve_v_star(w0, spec) @ spec.concepts.T


@dataclass(frozen=True)
class EditSolution:
    """Solved weights with the relative equation residual and route taken.

    ``w_v`` is ``w_star @ V`` for the basis ``V`` of ``A``'s eigenpairs
    (d_out by k), which the solve forms on the way to ``w_star``.
    ``min_denominator`` is the smallest ``b_i + eigval_j`` over the
    eigenvalues of ``A``, the complement's ``lam`` included: the smallest
    divisor of the spectral route and the smallest eigenvalue of the
    vectorized operator.
    """

    w_star: np.ndarray
    residual: float
    path: str
    min_denominator: float
    w_v: np.ndarray | None = None


def _b_vector(b):
    """Validate the decoupler as the 1-D vector of the diagonal of ``B``."""
    b_ = np.asarray(b, dtype=np.float64)
    if b_.ndim != 1:
        raise ValueError(f"b_diag must be 1-D (the diagonal of B), got shape {b_.shape}")
    if not np.isfinite(b_).all():
        raise ValueError("b_diag contains non-finite entries")
    return b_


def _split_a(a):
    """The stabilizer as a ``StabilizerA`` plus its product ``w -> w @ A``.

    A ``StabilizerA`` is used through its factors. A raw symmetric matrix is
    eigendecomposed in full, so its basis has no complement and any ridge
    represents it; its smallest eigenvalue keeps ``eig_min`` exact. Products
    with a raw matrix stay dense, so the residual is of the equation as given.
    """
    if isinstance(a, StabilizerA):
        return a, a.times
    a_ = as_matrix(a, "a")
    eig = sym_eig(a_)
    return StabilizerA(float(eig.eigvals.min()), eig), lambda w: w @ a_


def _dense_a(a) -> np.ndarray:
    return a.a if isinstance(a, StabilizerA) else as_matrix(a, "a")


def _check_uniqueness(b_vals: np.ndarray, stab: StabilizerA) -> float:
    """Disjoint-spectra guard: B PSD and A PD keep the solve well posed.

    Returns the smallest ``b_i + eigval_j``: every such sum pairs some
    ``b_i`` with an eigenvalue of ``A``, so the smallest pairs the smallest.
    """
    if b_vals.min() < 0.0:
        raise ValueError(f"b entries must be nonnegative, got min {b_vals.min():.6e}")
    a_min = stab.eig_min
    if a_min <= 0.0:
        raise ValueError(f"a must be positive definite, got min eigenvalue {a_min:.6e}")
    return float(b_vals.min() + a_min)


def _squared_residual(times, b_blk, w_blk, m_blk) -> float:
    """Squared Frobenius norm of ``B W + W A - M`` on a block of rows."""
    r = times(w_blk)
    r += b_blk * w_blk
    r -= m_blk
    return float(np.vdot(r, r))


def _relative(num2: float, den2: float) -> float:
    """Relative residual from the squared norms of the residual and of ``M``."""
    return math.sqrt(num2 / den2) if den2 > 0.0 else math.sqrt(num2)


# Rows of W* per block of the spectral solve's complement and residual, so
# that its scratch beside W* is a few block-by-d_in arrays.
_SOLVE_ROWS = 256


def sylvester_solve_spectral(b_diag, a, m) -> EditSolution:
    """Solve ``B W + W A = M`` in the eigenbasis of ``A``.

    With diagonal ``B`` and ``A = lam*I + V diag(eigvals - lam) V^T`` the
    system decouples entrywise:
    ``W = ((M V) / (b + eigvals)) V^T + (M - M V V^T) / (b + lam)``, where
    the second term is the complement of ``V`` and vanishes when ``V`` spans
    all of d_in. ``a`` is a ``StabilizerA`` (no d_in-by-d_in array is formed)
    or a raw symmetric matrix (eigendecomposed in full). ``m`` is the dense
    d_out-by-d_in ``M`` or its factors ``(V*, C)`` with ``M = V* C^T``
    (d_out by m and d_in by m): then ``M V = V* (C^T V)`` and the complement
    is ``(V* / (b + lam)) (C^T - (C^T V) V^T)``. The complement and the
    residual ``B W + W A - M`` are evaluated in blocks of rows of the
    stored ``W``, each with its rows of ``M``, so beside ``W`` the solve
    forms no d_out-by-d_in array: neither the dense ``M`` nor ``W A``.
    """
    b_vals = _b_vector(b_diag)
    stab, times = _split_a(a)
    vecs, vals = stab.eig
    d_out, d_in = b_vals.shape[0], vecs.shape[0]
    # M = left @ right_t, with no left factor (the identity) for a dense M
    if isinstance(m, tuple):
        left, c = as_matrix(m[0], "v_star"), as_matrix(m[1], "c")
        if left.shape[0] != d_out or c.shape != (d_in, left.shape[1]):
            raise ValueError(f"factors {left.shape}, {c.shape} do not multiply to {d_out}x{d_in}")
        right_t = c.T
    else:
        left, right_t = None, as_matrix(m, "m")
        if right_t.shape != (d_out, d_in):
            raise ValueError(f"m must be {d_out}x{d_in} to match b and a, got {right_t.shape}")
    min_denom = _check_uniqueness(b_vals, stab)
    if min_denom < 1e-12:
        raise ValueError(
            f"ill-posed system: smallest eigenvalue sum {min_denom:.6e} is below 1e-12"
        )
    right_v = right_t @ vecs
    w_v = (right_v if left is None else left @ right_v) / (b_vals[:, None] + vals[None, :])
    w = w_v @ vecs.T
    complement = stab.rank < d_in
    if complement and left is not None:
        rest = right_t - right_v @ vecs.T  # the complement's right factor, m by d_in
    num2 = den2 = 0.0
    for i in range(0, d_out, _SOLVE_ROWS):
        rows = slice(i, i + _SOLVE_ROWS)
        m_blk = right_t[rows] if left is None else left[rows] @ right_t
        w_blk, b_blk = w[rows], b_vals[rows, None]
        if complement:
            shift = b_blk + stab.lam
            if left is None:
                gap = m_blk - right_v[rows] @ vecs.T  # M - M V V^T on the block
                gap /= shift
                w_blk += gap
            else:
                w_blk += (left[rows] / shift) @ rest
        num2 += _squared_residual(times, b_blk, w_blk, m_blk)
        den2 += float(np.vdot(m_blk, m_blk))
    return EditSolution(w, _relative(num2, den2), "spectral", min_denom, w_v)


def sylvester_solve_kronecker(b_diag, a, m) -> EditSolution:
    """Solve ``B W + W A = M`` through the column-stacked vectorized system.

    Assembles ``I (x) B + A^T (x) I`` densely, so it is gated by the
    Kronecker entry budget; intended for cross-checks and small systems.
    """
    b_vals = _b_vector(b_diag)
    stab, _ = _split_a(a)
    a_mat = _dense_a(a)
    m_ = as_matrix(m, "m")
    d_out = b_vals.shape[0]
    d_in = a_mat.shape[0]
    if m_.shape != (d_out, d_in):
        raise ValueError(f"m must be {d_out}x{d_in} to match b and a, got {m_.shape}")
    min_denom = _check_uniqueness(b_vals, stab)
    lhs = kron_assemble(np.eye(d_in), np.diag(b_vals)) + kron_assemble(a_mat.T, np.eye(d_out))
    vec_w = np.linalg.solve(lhs, m_.flatten(order="F"))
    w = vec_w.reshape((d_out, d_in), order="F")
    num2 = _squared_residual(lambda x: x @ a_mat, b_vals[:, None], w, m_)
    return EditSolution(w, _relative(num2, float(np.vdot(m_, m_))), "kronecker", min_denom)


def objective_value(w, a, b_diag, m) -> float:
    """Quadratic edit objective ``tr(W A W^T) + tr(W^T B W) - 2 tr(W M^T)``.

    The linear coefficient is 2 so that the unique minimizer is exactly the
    solution of ``B W + W A = M``.
    """
    w_ = as_matrix(w, "w")
    a_mat = _dense_a(a)
    m_ = as_matrix(m, "m")
    b_ = _b_vector(b_diag)
    if w_.shape != m_.shape or w_.shape[1] != a_mat.shape[0]:
        raise ValueError(
            f"inconsistent shapes: w {w_.shape}, a {a_mat.shape}, m {m_.shape}"
        )
    return float(
        np.sum((w_ @ a_mat) * w_) + np.sum((b_[:, None] * w_) * w_) - 2.0 * np.sum(w_ * m_)
    )


def baseline_eq2(
    w0,
    spec: EraseSpec | None,
    preserved=None,
    lambda1: float = 1.0,
    lambda2: float = 0.1,
) -> np.ndarray:
    """Ridge-anchored least-squares editor solved by its normal equations.

    Minimizes the squared residuals of mapping each target concept to its
    replacement output, plus ``lambda1`` times the residuals of keeping the
    ``preserved`` directions fixed, plus ``lambda2`` times the squared
    distance to ``w0``. With no concepts the anchor alone returns ``w0``.
    """
    if lambda1 < 0.0:
        raise ValueError(f"lambda1 must be nonnegative, got {lambda1}")
    if not lambda2 > 0.0:
        raise ValueError(f"lambda2 must be positive, got {lambda2}")
    w0_ = as_matrix(w0, "w0")
    d_in = w0_.shape[1]
    lhs = lambda2 * np.eye(d_in)
    rhs = lambda2 * w0_
    if spec is not None:
        c = spec.concepts
        if c.shape[0] != d_in:
            raise ValueError(f"concept length {c.shape[0]} does not match w0 ({d_in})")
        v = resolve_v_star(w0_, spec)
        lhs += c @ c.T
        rhs += v @ c.T
    if preserved is not None and lambda1 > 0.0:
        p = validate_concepts(preserved, "preserved")
        if p.shape[0] != d_in:
            raise ValueError(f"preserved length {p.shape[0]} does not match w0 ({d_in})")
        lhs += lambda1 * (p @ p.T)
        rhs += lambda1 * ((w0_ @ p) @ p.T)
    lhs = (lhs + lhs.T) / 2.0
    return np.linalg.solve(lhs, rhs.T).T
