"""Independent brute-force verifiers.

These deliberately avoid the closed-form code paths: a gradient-descent
minimizer of the quadratic edit objective, a raw-pair tabulation of the
channel mutual information, and a random-perturbation minimality check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matkernel import as_matrix
from .solver import objective_value
from .stabilizer import StabilizerA

__all__ = [
    "ConvergenceError",
    "OracleConfig",
    "gd_minimize",
    "mi_bruteforce",
    "objective_perturbation_check",
]


# Armijo backtracking: a unit first step, halved until the decrease is at
# least 1e-4 of the step times the squared gradient norm.
_SHRINK = 0.5
_ARMIJO = 1e-4
# Step sizes at which the minimality check probes each direction.
_EPSILONS = (1e-3, 1e-2, 1e-1)


@dataclass(frozen=True)
class OracleConfig:
    """Gradient-descent settings; the line search is Armijo backtracking from a unit step."""

    max_iters: int = 100_000
    grad_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be positive")


class ConvergenceError(RuntimeError):
    """Raised when the descent loop cannot reach the gradient tolerance."""

    def __init__(self, message: str, grad_norm: float):
        super().__init__(f"{message} (last gradient norm {grad_norm:.6e})")
        self.grad_norm = grad_norm


def gd_minimize(a, b_diag, m, cfg: OracleConfig = OracleConfig()) -> np.ndarray:
    """Minimize ``tr(W A W^T) + tr(W^T B W) - 2 tr(W M^T)`` from ``W = 0``.

    Plain gradient descent with Armijo backtracking; the start at zero makes
    agreement with the closed form a statement about the global minimizer of
    the strictly convex objective, not about a shared starting basin. Stops
    when the gradient Frobenius norm falls to ``cfg.grad_tol``; raises
    ``ConvergenceError`` (carrying the last gradient norm) otherwise.
    """
    a_mat = a.a if isinstance(a, StabilizerA) else as_matrix(a, "a")
    m_ = as_matrix(m, "m")
    b = np.asarray(b_diag, dtype=np.float64)
    if b.ndim != 1 or m_.shape != (b.shape[0], a_mat.shape[0]):
        raise ValueError(
            f"inconsistent shapes: b {b.shape}, a {a_mat.shape}, m {m_.shape}"
        )

    def value(w):
        return float(
            np.sum((w @ a_mat) * w) + np.sum((b[:, None] * w) * w) - 2.0 * np.sum(w * m_)
        )

    w = np.zeros_like(m_)
    f_w = value(w)
    grad_norm = math.inf
    for _ in range(cfg.max_iters):
        grad = 2.0 * (w @ a_mat) + 2.0 * (b[:, None] * w) - 2.0 * m_
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= cfg.grad_tol:
            return w
        step = 1.0
        sq = grad_norm * grad_norm
        while True:
            w_next = w - step * grad
            f_next = value(w_next)
            if f_next <= f_w - _ARMIJO * step * sq:
                break
            step *= _SHRINK
            if step < 1e-18:
                # Decrease no longer resolvable in float64; the iterate is as
                # converged as the arithmetic allows.
                raise ConvergenceError(
                    "line search stalled before reaching grad_tol", grad_norm
                )
        w, f_w = w_next, f_next
    raise ConvergenceError(f"no convergence in {cfg.max_iters} iterations", grad_norm)


def mi_bruteforce(pairs) -> float:
    """Mutual information from raw ``(z, y)`` pairs by direct tabulation.

    Coded independently of the channel scorer: counts the four cells from
    the pair list itself and sums the contributing terms in nats.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pairs must be nonempty")
    cells = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    for z, y in pairs:
        if z not in (0, 1) or y not in (0, 1):
            raise ValueError(f"pair entries must be binary, got ({z}, {y})")
        cells[(z, y)] += 1
    total = len(pairs)
    mi = 0.0
    for z in (0, 1):
        for y in (0, 1):
            joint = cells[(z, y)] / total
            if joint > 0.0:
                marg_z = (cells[(z, 0)] + cells[(z, 1)]) / total
                marg_y = (cells[(0, y)] + cells[(1, y)]) / total
                mi += joint * math.log(joint / (marg_z * marg_y))
    return max(mi, 0.0)


def objective_perturbation_check(w, a, b_diag, m, trials: int = 100, seed: int | None = 0) -> bool:
    """True iff no sampled perturbation of ``w`` lowers the edit objective.

    Each trial draws a unit-Frobenius direction and probes it at step sizes
    1e-3, 1e-2 and 1e-1.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    w_ = as_matrix(w, "w")
    base = objective_value(w_, a, b_diag, m)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        delta = rng.standard_normal(w_.shape)
        delta /= np.linalg.norm(delta)
        for eps in _EPSILONS:
            if objective_value(w_ + eps * delta, a, b_diag, m) < base:
                return False
    return True
