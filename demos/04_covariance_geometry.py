# %% [markdown]
# # Covariance geometry and the step back toward W0
#
# Treating the rows of a weight matrix as a covariance factor, `W W^T`
# captures the second-order structure the matrix imposes on its outputs.
# The squared Bures metric compares two such covariances; it is the natural
# transport distance between centered Gaussians and behaves far better than
# entrywise norms under rotation.

# %%
import numpy as np

from scapre import (
    EditConfig,
    SyntheticModelSpec,
    bures_distance,
    generate_model,
    probe_scores,
    refine_weights,
    run_edit,
)

sigma = np.diag([1.0, 4.0])
sigma_swapped = np.diag([4.0, 1.0])
print("commuting pair distance:", bures_distance(sigma, sigma_swapped), "= (1-2)^2 + (2-1)^2")

# %% [markdown]
# ## The beta line
#
# The solve anchors the edit to `W0` (the ridge `lam` also weighs
# `lam |W - W0|^2`) and returns the edit `D = W* - W0`. The geometry stage
# then steps back along the line `W = W0 + (1 - beta/2) D`: beta=0 keeps the
# closed-form `W*`, beta=1 the midpoint of `W0` and `W*`. Along the line,
# erasure error (how far each target's output is from its replacement)
# rises and preservation error (how far each held-out probe's output moved)
# falls, both almost linearly in beta.

# %%
model = generate_model(SyntheticModelSpec(d_in=128, d_out=48, m_targets=8, m_preserved=6, seed=11))
w_star, report = run_edit(
    model.w0, model.erase_spec, model.contexts, model.features, model.labels,
    EditConfig(beta=0.0), preserved=model.preserved,
)  # fmt: skip
delta = w_star - model.w0
z = model.w0 @ model.w0.T
for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
    w = refine_weights(delta, model.w0, beta)
    scores = probe_scores(w, model.w0, model.erase_spec, model.preserved)
    print(
        f"beta={beta:.2f}:  max erasure err {np.nanmax(scores.erasure):.4f}   "
        f"median preserve err {np.nanmedian(scores.preservation):.4f}   "
        f"covariance gap to W0 {bures_distance(w @ w.T, z):8.2f}"
    )

# %% [markdown]
# The line replaced a Bures-Wasserstein step, which moved `W* W*^T` along
# the geodesic toward `W0 W0^T`. The anchored `W*` has full rank, so that
# step would need d_out-sized matrix roots on every edit; the line needs
# none. It does not follow the geodesic: the covariance gap printed above
# need not fall as beta grows. The README compares the two steps'
# (erasure, preservation) frontiers.
