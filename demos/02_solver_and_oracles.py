# %% [markdown]
# # Two solver routes and three brute-force oracles
#
# The edit equation `B W + W A = M` (diagonal PSD `B`, positive definite
# `A`) has a unique solution because the spectra of `B` and `-A` cannot
# meet. The library solves it two ways:
#
# - **spectral**: one eigendecomposition of `A`, then an entrywise division
#   — the production route. Given a dense `A` as here it costs `O(d_in^3)`;
#   `run_edit` hands it the factored stabilizer from `build_a`, whose
#   eigenbasis is d_in x k with k = min(d_in, tokens + concepts), and never
#   forms a d_in x d_in matrix.
# - **kronecker**: assemble `I (x) B + A^T (x) I` and solve the vectorized
#   system — quadratically bigger, kept as an independent cross-check.
#
# Everything here is verified against code that shares no path with the
# solvers: gradient descent from zero, and random-perturbation probing.

# %%
import numpy as np

from scapre import (
    OracleConfig,
    gd_minimize,
    objective_perturbation_check,
    objective_value,
    sylvester_solve_kronecker,
    sylvester_solve_spectral,
)

rng = np.random.default_rng(3)
d_out, d_in = 10, 14
g = rng.standard_normal((d_in, d_in))
a = 0.5 * np.eye(d_in) + g @ g.T / d_in
b = rng.uniform(0.0, 1.0, d_out)
m = rng.standard_normal((d_out, d_in))

spectral = sylvester_solve_spectral(b, a, m)
kron = sylvester_solve_kronecker(b, a, m)
print(f"spectral residual  {spectral.residual:.2e}")
print(f"kronecker residual {kron.residual:.2e}")
print(f"route disagreement {np.linalg.norm(spectral.w_star - kron.w_star):.2e}")

# %% [markdown]
# ## Gradient descent from zero
#
# The quadratic objective is strictly convex, so a first-order method from
# `W = 0` must land on the same point — agreement proves the closed form is
# the global minimizer, not a lucky stationary point.

# %%
w_gd = gd_minimize(a, b, m, OracleConfig(grad_tol=1e-6 * np.linalg.norm(m)))
rel = np.linalg.norm(w_gd - spectral.w_star) / np.linalg.norm(spectral.w_star)
print(f"gradient-descent agreement: {rel:.2e} relative")

# %% [markdown]
# ## Perturbation probing
#
# No random unit direction, at any of three step sizes, may lower the
# objective at the solution — and moving the solution must break that.

# %%
print("at the solution:   ",
      objective_perturbation_check(spectral.w_star, a, b, m, trials=200))
print("offset by +2:      ",
      objective_perturbation_check(spectral.w_star + 2.0, a, b, m, trials=200))
print("objective at solve:", f"{objective_value(spectral.w_star, a, b, m):.4f}")
print("objective at zero: ", f"{objective_value(np.zeros_like(m), a, b, m):.4f}")
