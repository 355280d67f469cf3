# %% [markdown]
# # One closed-form concept edit, end to end
#
# A projection matrix `W0` maps input embeddings (d_in) to an attention
# space (d_out). We pick a handful of "concept" directions, decide what
# their outputs should become, and compute the edited matrix in a single
# closed-form solve — no gradient training. The stages:
#
# 1. **Stabilizer** `A = lam*I + S + R`: context second moments plus the
#    gated energy of the concept subspace, on the input side.
# 2. **Decoupler** `alpha`: one weight per output channel, from the mutual
#    information between binarized channel activations and target/neutral
#    labels.
# 3. **Solve** `diag(alpha) W + W A = V* C^T` for the edited weights.
# 4. **Refine** the result back toward `W0`'s covariance geometry.

# %%
import numpy as np

from scapre import EditConfig, SyntheticModelSpec, generate_model, run_edit

spec = SyntheticModelSpec(
    d_in=128,
    d_out=48,
    m_targets=8,
    m_preserved=6,
    seed=11,
)
model = generate_model(spec)
print(f"W0: {model.w0.shape}, targets: {model.erase_spec.concepts.shape[1]}, "
      f"samples: {model.features.shape[0]}")

# %% [markdown]
# ## Pure closed form (beta = 0)
#
# With the geometry refinement off, the edit maps each target almost exactly
# onto its substitute output. The price shows up on the preserved probes:
# the quadratic objective has no anchor to `W0`, so directions outside the
# target/context span are annihilated rather than preserved.

# %%
cfg = EditConfig(beta=0.0)
w_edit, report = run_edit(
    model.w0,
    model.erase_spec,
    model.contexts,
    model.features,
    model.labels,
    cfg,
    preserved=model.preserved,
)
print(f"solve residual       {report.sylvester_residual:.2e}")
print(f"max erasure error    {report.max_erasure_err:.4f}")
print(f"median preserve err  {report.median_preserve_err:.4f}  "
      "(≈1: non-target outputs collapse at beta=0)")
print(f"covariance distance to W0: {report.bures_before:.1f}")

# %% [markdown]
# ## Adding the geometry refinement (beta > 0)
#
# The refinement applies the optimal transport map from the edited
# covariance to `W0 W0^T`, a fraction beta of the way, to the edited weights:
# their covariance moves along the Bures-Wasserstein geodesic toward
# `W0 W0^T`. Watch the covariance gap shrink as beta grows.

# %%
for beta in (0.0, 0.3, 0.6, 1.0):
    cfg = EditConfig(beta=beta)
    _, rep = run_edit(
        model.w0,
        model.erase_spec,
        model.contexts,
        model.features,
        model.labels,
        cfg,
        preserved=model.preserved,
    )
    print(
        f"beta={beta:.1f}  covariance gap {rep.bures_before:8.1f} -> {rep.bures_after:8.1f}"
        f"   max erasure err {rep.max_erasure_err:.3f}"
    )

# %% [markdown]
# The report is self-describing: every run echoes its full configuration,
# flags degenerate situations (zero right-hand side, all-zero channel
# information, a refinement that vanishes or moves away from `W0`), writes
# a note in `warnings` for each raised flag (none here: `W*`'s rank below
# `d_out`, recorded as `w_star_rank`, is the normal regime), and keeps the
# stage outputs on `report.intermediates` for independent verification.

# %%
for key, value in report.to_dict().items():
    if key in ("erasure_errors", "preservation_errors"):
        value = np.round(value, 4).tolist()
    print(f"{key:28s} {value}")
