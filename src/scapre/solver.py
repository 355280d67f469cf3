"""Closed-form editor core.

Solves ``B W + W A = M`` for the edited projection, where ``A`` is the
input-side stabilizer, ``B = diag(alpha)`` the channel decoupler, and
``M = V* C_E^T`` encodes the concepts to erase and their replacement
outputs. Two routes are provided (eigenbasis and vectorized Kronecker)
plus the ridge-anchored normal-equation baseline editor. ``B`` is always
diagonal and passed as its vector of entries.
"""

from dataclasses import dataclass

import numpy as np

from .matkernel import KRON_BUDGET, as_matrix, kron_assemble, sym_eig
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
    """Solved weights with the relative equation residual and route taken."""

    w_star: np.ndarray
    residual: float
    path: str


def _b_vector(b):
    """Validate the decoupler as the 1-D vector of the diagonal of ``B``."""
    b_ = np.asarray(b, dtype=np.float64)
    if b_.ndim != 1:
        raise ValueError(f"b_diag must be 1-D (the diagonal of B), got shape {b_.shape}")
    if not np.isfinite(b_).all():
        raise ValueError("b_diag contains non-finite entries")
    return b_


def _split_a(a):
    """Accept the stabilizer as a StabilizerA or a raw symmetric matrix."""
    if isinstance(a, StabilizerA):
        return a.a, a.eig
    a_ = as_matrix(a, "a")
    return a_, sym_eig(a_)


def _check_uniqueness(b_vals: np.ndarray, a_vals: np.ndarray):
    """Disjoint-spectra guard: B PSD and A PD keep the solve well posed."""
    if b_vals.min() < 0.0:
        raise ValueError(f"b entries must be nonnegative, got min {b_vals.min():.6e}")
    if a_vals.min() <= 0.0:
        raise ValueError(
            f"a must be positive definite, got min eigenvalue {a_vals.min():.6e}"
        )


def _residual(b_vals, a_mat, w, m) -> float:
    num = float(np.linalg.norm(b_vals[:, None] * w + w @ a_mat - m))
    den = float(np.linalg.norm(m))
    return num / den if den > 0.0 else num


def sylvester_solve_spectral(b_diag, a, m) -> EditSolution:
    """Solve ``B W + W A = M`` in the eigenbasis of ``A``.

    With diagonal ``B`` a single eigendecomposition of ``A`` suffices and the
    system decouples entrywise as ``X[i, j] = Mhat[i, j] / (b[i] + eigval_a[j])``.
    """
    b_vals = _b_vector(b_diag)
    a_mat, a_eig = _split_a(a)
    m_ = as_matrix(m, "m")
    d_out = b_vals.shape[0]
    if m_.shape != (d_out, a_mat.shape[0]):
        raise ValueError(
            f"m must be {d_out}x{a_mat.shape[0]} to match b and a, got {m_.shape}"
        )
    _check_uniqueness(b_vals, a_eig.eigvals)
    denom = b_vals[:, None] + a_eig.eigvals[None, :]
    if denom.min() < 1e-12:
        raise ValueError(
            f"ill-posed system: smallest eigenvalue sum {denom.min():.6e} is below 1e-12"
        )
    x = (m_ @ a_eig.eigvecs) / denom
    w = x @ a_eig.eigvecs.T
    return EditSolution(w, _residual(b_vals, a_mat, w, m_), "spectral")


def sylvester_solve_kronecker(b_diag, a, m, budget: int = KRON_BUDGET) -> EditSolution:
    """Solve ``B W + W A = M`` through the column-stacked vectorized system.

    Assembles ``I (x) B + A^T (x) I`` densely, so it is gated by the
    Kronecker entry budget; intended for cross-checks and small systems.
    """
    b_vals = _b_vector(b_diag)
    a_mat, a_eig = _split_a(a)
    m_ = as_matrix(m, "m")
    d_out = b_vals.shape[0]
    d_in = a_mat.shape[0]
    if m_.shape != (d_out, d_in):
        raise ValueError(f"m must be {d_out}x{d_in} to match b and a, got {m_.shape}")
    _check_uniqueness(b_vals, a_eig.eigvals)
    lhs = kron_assemble(np.eye(d_in), np.diag(b_vals), budget) + kron_assemble(
        a_mat.T, np.eye(d_out), budget
    )
    vec_w = np.linalg.solve(lhs, m_.flatten(order="F"))
    w = vec_w.reshape((d_out, d_in), order="F")
    return EditSolution(w, _residual(b_vals, a_mat, w, m_), "kronecker")


def objective_value(w, a, b_diag, m) -> float:
    """Quadratic edit objective ``tr(W A W^T) + tr(W^T B W) - 2 tr(W M^T)``.

    The linear coefficient is 2 so that the unique minimizer is exactly the
    solution of ``B W + W A = M``.
    """
    w_ = as_matrix(w, "w")
    a_mat = a.a if isinstance(a, StabilizerA) else as_matrix(a, "a")
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
