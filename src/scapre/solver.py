"""Closed-form editor core.

Solves ``B D + D A = M - W0 (A - lam I)`` for the edit ``D = W - W0`` of a
projection ``W0``, where ``A = lam I + S + R`` is the input-side
stabilizer, ``B = diag(alpha)`` the channel decoupler, and ``M = V* C_E^T``
encodes the concepts to erase and their replacement outputs. ``W`` then
minimizes ``tr(W (S+R) W^T) - 2 tr(W M^T) + lam |W - W0|^2
+ tr((W - W0)^T B (W - W0))``: the ridge ``lam`` is also the weight of the
anchor to ``W0`` (as in UCE, Gandikota et al., arXiv 2308.14761). With
``W0 = 0`` the equation is ``B W + W A = M``. The one route solves in the
eigenbasis of ``A``; the vectorized Kronecker solve is its dense oracle,
not a second route, and ``baseline_eq2`` the ridge-anchored
normal-equation baseline editor. ``B`` is always diagonal and passed as
its vector of entries.
"""

import functools
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
    """The solved unknown with the relative equation residual.

    ``w_star`` is the unknown of the equation solved: the edit
    ``D = W - W0`` of an anchored solve, the weights ``W`` themselves when
    ``W0 = 0``. ``residual`` is relative to the right-hand side: exact for
    the Kronecker route, and for the spectral route a deterministic
    16-column estimate of the whole equation's residual, within [1/2, 2]
    times the true value except with probability about 1.1e-3 (chi-square
    of 16 degrees, rank-one worst case); the pipeline's ``<= 1e-8`` is
    checked on it. ``min_denominator`` is the smallest ``b_i + eigval_j``
    over the eigenvalues of ``A``, ``lam`` included where its eigenvectors
    do not span d_in: the smallest eigenvalue of the vectorized operator,
    and at most the spectral route's smallest divisor.
    """

    w_star: np.ndarray
    residual: float
    min_denominator: float


def _b_vector(b):
    """Validate the decoupler as the 1-D vector of the diagonal of ``B``."""
    b_ = np.asarray(b, dtype=np.float64)
    if b_.ndim != 1:
        raise ValueError(f"b_diag must be 1-D (the diagonal of B), got shape {b_.shape}")
    if not np.isfinite(b_).all():
        raise ValueError("b_diag contains non-finite entries")
    return b_


def _split_a(a):
    """The stabilizer as a ``StabilizerA``, plus the ``A`` the residual multiplies by.

    A ``StabilizerA`` is used through its factors, for both. A raw symmetric
    matrix is eigendecomposed in full, so its basis spans d_in and any ridge
    represents it; its smallest eigenvalue keeps ``eig_min`` exact. Products
    with a raw matrix stay dense, so the residual is of the equation as
    given.
    """
    if isinstance(a, StabilizerA):
        return a, a
    a_ = as_matrix(a, "a")
    eig = sym_eig(a_)
    return StabilizerA(float(eig.eigvals.min()), eig.eigvals, eig.eigvecs.T), a_


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


def _relative(num: float, den: float) -> float:
    """Relative residual from the norms of the residual and of the right-hand side."""
    return num / den if den > 0.0 else num


# Columns s of the fixed Gaussian Omega that sketches the spectral solve's
# residual R: |R Omega|_F / sqrt(s) estimates |R|_F.
_SKETCH_COLUMNS = 16


@functools.lru_cache(maxsize=8)
def _sketch(d_in: int) -> np.ndarray:
    """Omega, d_in by ``_SKETCH_COLUMNS``, from seed 0: the same for every solve."""
    omega = np.random.default_rng(0).standard_normal((d_in, _SKETCH_COLUMNS))
    omega.flags.writeable = False
    return omega


def _sketched_residual(b_vals, a, w, rhs_omega) -> float:
    """``|(B W + W A - M) Omega|_F / 4``, the estimate of ``|B W + W A - M|_F``.

    ``rhs_omega`` is ``M Omega``; ``a`` is a ``StabilizerA``, whose
    ``A Omega`` comes from its factors, or a raw matrix, and ``W`` is read
    once. At worst (rank-one ``R``) ``|R Omega|_F^2 / |R|_F^2`` is a
    chi-square of 16 degrees over 16, so the estimate lies within [1/2, 2]
    times ``|R|_F`` except with probability about 1.1e-3.
    """
    omega = _sketch(w.shape[1])
    a_omega = a.times(omega.T).T if isinstance(a, StabilizerA) else a @ omega
    sketch = w @ np.hstack([omega, a_omega])
    r_omega = sketch[:, _SKETCH_COLUMNS:]
    r_omega += b_vals[:, None] * sketch[:, :_SKETCH_COLUMNS]
    r_omega -= rhs_omega
    return float(np.linalg.norm(r_omega)) / math.sqrt(_SKETCH_COLUMNS)


def sylvester_solve_spectral(b_diag, a, m, w0=None) -> EditSolution:
    """Solve ``B D + D A = M - W0 (A - lam I)`` in the eigenvectors ``E`` of ``A``.

    ``w0`` is the d_out-by-d_in ``W0`` (``None`` is zero: ``B W + W A = M``).
    ``a`` is a ``StabilizerA`` (no d_in-by-d_in array is formed) or, with no
    ``w0``, a raw symmetric matrix (eigendecomposed in full). ``m`` is ``M``,
    dense or as its factors ``(V*, C)``, ``M = V* C^T``. With ``H = W0 E``,
    ``J = M E`` and ``c = b + lam``, an orthonormal ``E = V`` that spans
    d_in decouples the system entrywise,
    ``D = ((J - H diag(eigvals - lam)) / (b + eigvals)) V^T``. For ``E = Phi``,
    ``A = lam*I + Phi Phi^T`` with ``Phi^T Phi = diag(Lam)``, Woodbury's
    identity gives ``D = diag(1/c) (M - Z Phi^T)``,
    ``Z = (c H + J) / (c + Lam)``: exact for any ``M``, as the part outside
    the span of ``Phi`` takes the complement's ``1/c``, and nothing divides
    by ``Lam``. Factored, that is one product ``[V*, -Z] [C^T; Phi^T]``, with
    the stabilizer's stored rows when ``C`` is its concepts.

    The residual ``R = B D + D A - M + W0 (A - lam I)`` of the stored ``D``,
    relative to ``|M - W0 (A - lam I)|_F`` (with ``Phi``, from the blocks
    ``C^T C``, ``J`` and ``diag(Lam)`` of the Gram of ``[C, Phi]``), is
    estimated from ``R Omega`` (``_sketched_residual``).
    """
    b_vals = _b_vector(b_diag)
    stab, a_res = _split_a(a)
    vecs, vals = stab.eig
    d_out, d_in = b_vals.shape[0], vecs.shape[0]
    omega = _sketch(d_in)
    factored = isinstance(m, tuple)
    if factored:
        v_star, c = as_matrix(m[0], "v_star"), as_matrix(m[1], "c")
        if v_star.shape[0] != d_out or c.shape != (d_in, v_star.shape[1]):
            raise ValueError(f"factors {v_star.shape}, {c.shape} do not multiply to {d_out}x{d_in}")
        m_v, m_omega = v_star @ (c.T @ vecs), v_star @ (c.T @ omega)
    else:
        m_ = as_matrix(m, "m")
        if m_.shape != (d_out, d_in):
            raise ValueError(f"m must be {d_out}x{d_in} to match b and a, got {m_.shape}")
        m_v, m_omega = m_ @ vecs, m_ @ omega
    if w0 is None:
        h = np.zeros((d_out, vecs.shape[1]))
    elif a_res is not stab:
        raise ValueError("an anchored solve needs a as a StabilizerA, whose ridge weighs the anchor")
    else:
        w0_ = as_matrix(w0, "w0")
        if w0_.shape != (d_out, d_in):
            raise ValueError(f"w0 must be {d_out}x{d_in} to match b and a, got {w0_.shape}")
        h = w0_ @ vecs
    min_denom = _check_uniqueness(b_vals, stab)
    if min_denom < 1e-12:
        raise ValueError(
            f"ill-posed system: smallest eigenvalue sum {min_denom:.6e} is below 1e-12"
        )
    if not stab._has_complement:
        h *= vals - stab.lam  # W0 (A - lam I) V
        m_omega -= h @ (vecs.T @ omega)  # the right-hand side times Omega
        np.subtract(m_v, h, out=m_v)  # the right-hand side times V
        den = float(np.linalg.norm(m_v))
        m_v /= b_vals[:, None] + vals[None, :]
        w = m_v @ vecs.T
        del m_v, h
    else:
        m_omega -= h @ (vecs.T @ omega)  # W0 Phi Phi^T Omega
        lam_k = vals - stab.lam
        m_sq = np.vdot(v_star @ (c.T @ c), v_star) if factored else np.vdot(m_, m_)
        den = math.sqrt(max(m_sq - 2.0 * np.vdot(m_v, h) + lam_k @ np.einsum("ij,ij->j", h, h), 0))
        shift = (b_vals + stab.lam)[:, None]
        denom = b_vals[:, None] + vals[None, :]  # c + Lam
        h *= shift
        h += m_v
        h /= denom  # Z
        # E = Phi^T Phi - diag(Lam), eigh's round-off (about eps * Lam.max()), to first order
        e = vecs.T @ vecs
        e[np.diag_indices_from(e)] -= lam_k
        h -= np.divide(np.matmul(h, e, out=m_v), denom, out=m_v)  # Z E / (c + Lam), in J's memory
        del m_v, denom, e
        if factored:
            rows = stab.rows
            if len(rows) - stab.rank != c.shape[1] or not np.array_equal(rows[: c.shape[1]], c.T):
                rows = np.vstack([c.T, vecs.T])
            lead = np.empty((d_out, len(rows)))  # [V*, -Z] / c
            np.divide(v_star, shift, out=lead[:, : c.shape[1]])
            np.divide(h, -shift, out=lead[:, c.shape[1] :])
            del h
            w = lead @ rows
        else:
            h /= -shift
            w = h @ vecs.T
            w += m_ / shift
    residual = _sketched_residual(b_vals, a_res, w, m_omega)
    return EditSolution(w, _relative(residual, den), min_denom)


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
    res = float(np.linalg.norm(w @ a_mat + b_vals[:, None] * w - m_))
    return EditSolution(w, _relative(res, float(np.linalg.norm(m_))), min_denom)


def objective_value(w, a, b_diag, m) -> float:
    """Quadratic edit objective ``tr(W A W^T) + tr(W^T B W) - 2 tr(W M^T)``.

    The linear coefficient is 2 so that the unique minimizer is exactly the
    solution of ``B W + W A = M``. Given the edit ``D`` and
    ``M - W0 (A - lam I)``, it is the anchored objective of ``W0 + D`` less
    a constant.
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
