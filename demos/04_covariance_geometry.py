# %% [markdown]
# # Covariance geometry: distance, interpolation, refinement
#
# Treating the rows of a weight matrix as a covariance factor, `W W^T`
# captures the second-order structure the matrix imposes on its outputs.
# The squared Bures metric compares two such covariances; it is the natural
# transport distance between centered Gaussians and behaves far better than
# entrywise norms under rotation.

# %%
import numpy as np

from scapre import bures_distance, geodesic_interpolate, refine_weights

rng = np.random.default_rng(21)

sigma = np.diag([1.0, 4.0])
sigma_swapped = np.diag([4.0, 1.0])
print("commuting pair distance:", bures_distance(sigma, sigma_swapped), "= (1-2)^2 + (2-1)^2")

# %% [markdown]
# ## The Bures-Wasserstein geodesic
#
# The optimal transport map `T = S^{-1/2} (S^{1/2} Z S^{1/2})^{1/2} S^{-1/2}`
# carries the covariance `S` onto `Z`: `T S T = Z`. Moving a fraction beta
# of the way, `C = (1-beta) I + beta T`, gives the geodesic point `C S C`,
# which starts at `S` and ends at the reference `Z` itself — in 1x1 the
# roots move linearly, from 2 to 3:

# %%
s, z = np.array([[4.0]]), np.array([[9.0]])
for beta in (0.0, 0.5, 1.0):
    geo = geodesic_interpolate(s, z, beta)[0, 0]
    print(f"beta={beta:.1f}:  covariance {geo:5.2f}   root {np.sqrt(geo):4.2f}")

# %% [markdown]
# ## Refinement: apply the map to the weights
#
# Given an edited matrix `W*`, the refinement applies `C` to the weights
# themselves: `W = C W*`, so `W W^T = C S C` is the geodesic point, with no
# covariance re-factored. Because `W*^T C W*` is symmetric PSD, `C W*` is
# also the factor of `C S C` that an orthogonal Procrustes alignment would
# rotate onto the edit: as close to the edit as any rotation can be.

# %%
w_star = rng.standard_normal((6, 12))
w0 = rng.standard_normal((6, 12))
for beta in (0.0, 0.5, 1.0):
    res = refine_weights(w_star, w0, beta)
    realized = np.linalg.norm(res.w @ res.w.T - res.sigma_plus)
    dist = bures_distance(res.w @ res.w.T, w0 @ w0.T)
    print(
        f"beta={beta:.1f}:  |WW^T - target| = {realized:.2e}   "
        f"covariance gap to reference = {dist:8.4f}   "
        f"moved from edit = {np.linalg.norm(res.w - w_star):6.3f}"
    )

# %% [markdown]
# At beta=0 the refinement is skipped and returns the edit itself; at
# beta=1 the output's covariance matches the reference exactly. In between
# the weights move linearly, and the squared Bures distance to the
# reference is `(1 - beta)^2` times the starting one.
