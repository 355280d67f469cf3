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
# ## Two interpolation modes
#
# `sqrt-blend` mixes the matrix square roots and squares the blend. It is
# cheap and monotone, but its endpoint at beta=1 is the root-conjugated
# reference `S^{1/2} Z S^{1/2}`, *not* `Z` itself — visible already in 1x1:

# %%
s, z = np.array([[4.0]]), np.array([[9.0]])
for beta in (0.0, 0.5, 1.0):
    blend = geodesic_interpolate(s, z, beta, "sqrt-blend")[0, 0]
    geo = geodesic_interpolate(s, z, beta, "bw-geodesic")[0, 0]
    print(f"beta={beta:.1f}:  sqrt-blend {blend:6.2f}   bw-geodesic {geo:6.2f}")
print("(bw-geodesic reaches the reference 9; the blend lands on sqrt(4)*9*sqrt(4) = 36)")

# %% [markdown]
# ## Refinement: re-factor without drifting
#
# Given an edited matrix, the refinement interpolates its covariance toward
# the reference, eigen-factors the result, and rotates the factor onto the
# edit by an orthogonal Procrustes alignment. The output realizes the
# interpolated covariance exactly (full-rank case) while staying as close
# to the edit as any rotation can.

# %%
w_star = rng.standard_normal((6, 12))
w0 = rng.standard_normal((6, 12))
for beta in (0.0, 0.5, 1.0):
    res = refine_weights(w_star, w0, beta, "bw-geodesic")
    realized = np.linalg.norm(res.w @ res.w.T - res.sigma_plus)
    dist = bures_distance(res.w @ res.w.T, w0 @ w0.T)
    print(
        f"beta={beta:.1f}:  |WW^T - target| = {realized:.2e}   "
        f"covariance gap to reference = {dist:8.4f}   "
        f"moved from edit = {np.linalg.norm(res.w - w_star):6.3f}"
    )

# %% [markdown]
# At beta=0 the refinement is skipped and returns the edit itself; at
# beta=1 in geodesic mode the output's covariance matches the reference
# exactly, with the rotation keeping it as close to the edit as possible.
