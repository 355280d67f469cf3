import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import rel_err

from scapre import pipeline
from scapre.geometry import BW_GEODESIC, refine_weights
from scapre.harness import SyntheticModelSpec, generate_model
from scapre.informax import build_decoupler
from scapre.metrics import probe_scores
from scapre.pipeline import EditConfig, PipelineStageError, ZeroTargetWarning, run_edit, solve_edit
from scapre.smatio import write_report
from scapre.solver import (
    SUBSTITUTE_TARGET,
    ZERO_TARGET,
    EraseSpec,
    assemble_m,
    resolve_v_star,
    sylvester_solve_spectral,
)
from scapre.stabilizer import assemble_a, build_a, build_r, build_s, gate_singular

ROOT = Path(__file__).resolve().parents[1]

# The README's determinism example: the default edit of the 768x320, m=50,
# seed-42 synthetic model. Saves the weights to argv[1] and prints the two
# summary errors as JSON.
README_EDIT = """
import json, sys
import numpy as np
from scapre.harness import SyntheticModelSpec, generate_model
from scapre.pipeline import run_edit
m = generate_model(SyntheticModelSpec(d_in=768, d_out=320, m_targets=50, m_preserved=10, seed=42))
w, rep = run_edit(m.w0, m.erase_spec, m.contexts, m.features, m.labels, preserved=m.preserved)
np.save(sys.argv[1], w)
print(json.dumps([rep.max_erasure_err, rep.median_preserve_err]))
"""


def small_model(seed=0, **kw):
    spec = SyntheticModelSpec(d_in=48, d_out=24, m_targets=4, m_preserved=3, seed=seed, **kw)
    return generate_model(spec)


def count_eigendecompositions(monkeypatch) -> list:
    """Record ``(kernel, size)`` for every ``eigh`` and ``eigvalsh`` from here on."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        kernel = getattr(np.linalg, name)

        def counted(a, *args, _kernel=kernel, _name=name, **kwargs):
            calls.append((_name, np.shape(a)[0]))
            return _kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def anchored_rhs(w0, spec, a, lam):
    """``M - W0 (A - lam I)``, densely: the right-hand side of the anchored equation."""
    return assemble_m(w0, spec) - w0 @ (a - lam * np.eye(a.shape[0]))


def dense_reference_a(lam, model):
    """``A`` assembled densely from the model's contexts and concepts."""
    s = build_s(model.contexts)
    return assemble_a(lam, s, build_r(model.erase_spec.concepts)).a


def _generated_inputs(spec):
    model = generate_model(spec)
    return model.w0, model.erase_spec, model.contexts, model.features, model.labels


def _gate_underflow_inputs():
    # at embed scale 800 every concept gate underflows to 0, and the
    # contexts are drawn apart from the concepts
    model = small_model(seed=8, embed_scale=800.0)
    rng = np.random.default_rng(9)
    contexts = [rng.standard_normal((1, 48)) for _ in range(4)]
    return model.w0, model.erase_spec, contexts, model.features, model.labels


def _rank_one_v_star_inputs():
    model = small_model(seed=6)
    rng = np.random.default_rng(10)
    v_star = np.outer(rng.standard_normal(24), rng.standard_normal(4))
    spec = EraseSpec(model.erase_spec.concepts, mode=SUBSTITUTE_TARGET, v_star=v_star)
    return model.w0, spec, model.contexts, model.features, model.labels


# The solve-residual regimes: edit inputs (w0, spec, contexts, features, labels).
RESIDUAL_REGIMES = {
    "768x320": lambda: _generated_inputs(
        SyntheticModelSpec(d_in=768, d_out=320, m_targets=50, seed=42)
    ),
    **{
        f"256x128-noise{noise:g}": lambda noise=noise: _generated_inputs(
            SyntheticModelSpec(
                d_in=256, d_out=128, m_targets=20, tokens_per_concept=2,
                noise_scale=noise, seed=3,
            )  # fmt: skip
        )
        for noise in (0.0, 0.001)
    },
    "gate-underflow": _gate_underflow_inputs,
    # 4 concepts of 12 tokens each at d_in = 48: the basis spans d_in
    "k=d_in": lambda: _generated_inputs(
        SyntheticModelSpec(d_in=48, d_out=24, m_targets=4, tokens_per_concept=12, seed=4)
    ),
    "rank1-vstar": _rank_one_v_star_inputs,
}


def _duplicated_tokens_inputs():
    # 4 concepts of 12 tokens each, every token stacked twice: 96 tokens,
    # k = 100 > d_in = 48, and an exactly rank-deficient token stack
    model = small_model(seed=19, tokens_per_concept=12)
    contexts = [np.vstack([g, g]) for g in model.contexts]
    return model.w0, model.erase_spec, contexts, model.features, model.labels


# The residual regimes and a draw with more tokens than d_in, all duplicated.
DENSE_ROUTE_REGIMES = {**RESIDUAL_REGIMES, "k>d_in-duplicated": _duplicated_tokens_inputs}


class TestRunEdit:
    def test_empty_edit_rejected(self):
        with pytest.raises(ValueError, match="no target"):
            EraseSpec(np.zeros((8, 0)), mode=ZERO_TARGET)

    def test_self_substitute_keeps_concept_outputs(self):
        # mapping a concept to itself must barely displace its output
        rng = np.random.default_rng(1)
        d_in, d_out = 32, 12
        w0 = rng.standard_normal((d_out, d_in))
        c = rng.standard_normal(d_in)
        c *= 10.0 / np.linalg.norm(c)
        spec = EraseSpec(c[:, None], mode=SUBSTITUTE_TARGET, substitutes=c[:, None])
        contexts = [c[None, :]]
        features = np.vstack(
            [
                c[None, :] + 0.05 * rng.standard_normal((8, d_in)),
                10.0 * rng.standard_normal((8, d_in)) / np.sqrt(d_in),
            ]
        )
        labels = np.array([1] * 8 + [0] * 8)
        cfg = EditConfig(beta=0.0)
        w_edit, report = run_edit(w0, spec, contexts, features, labels, cfg)
        assert report.max_erasure_err <= 0.05
        assert np.linalg.norm(w_edit @ c - w0 @ c) <= 0.05 * np.linalg.norm(w0 @ c)

    def test_zero_target_degenerates_with_warning(self):
        # zero replacement outputs: the edit maps the concepts toward zero,
        # and the anchor holds the rest of W0, so the weights are not zero;
        # the one warning reaches the caller and the report notes it
        model = small_model()
        spec = EraseSpec(model.erase_spec.concepts, mode=ZERO_TARGET)
        c = spec.concepts
        for beta in (0.0, 0.5):
            cfg = EditConfig(target_mode=ZERO_TARGET, beta=beta)
            with warnings.catch_warnings(record=True) as raised:
                warnings.simplefilter("always")
                w_edit, report = run_edit(
                    model.w0, spec, model.contexts, model.features, model.labels, cfg
                )
            # the warning points at run_edit's caller
            assert [(e.category, e.filename) for e in raised] == [(ZeroTargetWarning, __file__)]
            assert report.zero_target
            assert report.warnings == [
                "replacement outputs are zero: the edit maps the concepts toward zero, "
                "and the anchor to W0 holds the rest of the layer"
            ]
            assert np.linalg.norm(w_edit - model.w0) < np.linalg.norm(model.w0)
            ratio = np.linalg.norm(w_edit @ c) / np.linalg.norm(model.w0 @ c)
            assert ratio <= (0.05 if beta == 0.0 else 0.55)

    def test_determinism_bit_identical(self):
        model = small_model(seed=7)
        cfg = EditConfig()
        runs = [
            run_edit(
                model.w0,
                model.erase_spec,
                model.contexts,
                model.features,
                model.labels,
                cfg,
                preserved=model.preserved,
            )
            for _ in range(2)
        ]
        assert runs[0][0].tobytes() == runs[1][0].tobytes()
        assert runs[0][1].sylvester_residual == runs[1][1].sylvester_residual

    def test_report_fields_and_config_echo(self):
        model = small_model(seed=3)
        cfg = EditConfig(beta=0.25)
        _, report = run_edit(
            model.w0,
            model.erase_spec,
            model.contexts,
            model.features,
            model.labels,
            cfg,
            preserved=model.preserved,
        )
        assert report.m == 4 and report.d_in == 48 and report.d_out == 24
        assert report.config["lambda"] == {"relative": EditConfig.lam_scale} and report.lam > 0
        assert report.config["beta"] == 0.25
        assert len(report.erasure_errors) == 4
        assert len(report.preservation_errors) == 3
        assert report.wall_ms > 0
        doc = report.to_dict()
        assert "intermediates" not in doc and "config" in doc
        # the config is stated once, under "config"
        assert not {"beta", "interpolation_mode", "target_mode", "lam_rule", "solver_path"} & set(doc)

    def test_residual_recomputable_from_intermediates(self):
        model = small_model(seed=9)
        inputs = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)
        _, report = run_edit(*inputs)
        stab, _, _, sol, _ = solve_edit(*inputs)
        delta = sol.w_star
        # the stabilizer's own dense A and the one the reference route assembles
        for a in (stab.a, dense_reference_a(report.lam, model)):
            rhs = anchored_rhs(model.w0, model.erase_spec, a, report.lam)
            lhs = report.intermediates.decoupler.alpha[:, None] * delta + delta @ a
            residual = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
            assert abs(residual - report.sylvester_residual) < 1e-12

    @pytest.mark.parametrize("tokens", [1, 12])
    def test_numerical_health_matches_dense_reference(self, tokens):
        # 48 inputs: 4 concepts with 1 token each give k = 8 < d_in, with 12
        # tokens each k = d_in and the basis has no complement
        model = small_model(seed=4, tokens_per_concept=tokens)
        _, report = run_edit(
            model.w0, model.erase_spec, model.contexts, model.features, model.labels
        )
        vals = np.linalg.eigvalsh(dense_reference_a(report.lam, model))
        alpha = report.intermediates.decoupler.alpha
        assert report.stabilizer_rank == min(48, 4 * tokens + 4)
        assert report.a_eig_min == pytest.approx(vals.min(), rel=1e-12)
        assert report.a_eig_max == pytest.approx(vals.max(), rel=1e-12)
        denominators = alpha[:, None] + vals[None, :]
        assert report.min_denominator == pytest.approx(denominators.min(), rel=1e-12)
        doc = report.to_dict()
        assert {"stabilizer_rank", "a_eig_min", "a_eig_max", "min_denominator"} <= set(doc)

    def test_no_input_sized_square_matrix(self):
        # d_in^2 float64 entries would be 32 MB; the factored stabilizer and
        # solve hold O(d_in * k) with k = 8 here
        model = generate_model(SyntheticModelSpec(d_in=2048, d_out=16, m_targets=4, seed=2))
        args = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)
        tracemalloc.start()
        try:
            run_edit(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_scratch_is_about_three_weight_arrays(self):
        # the edit D, written over by the weights, and the decoupler's
        # channel blocks: no dense M, no W A and no second activation array
        d_in, d_out = 1024, 512
        model = generate_model(
            SyntheticModelSpec(d_in=d_in, d_out=d_out, m_targets=20, tokens_per_concept=4, seed=3)
        )
        args = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)
        tracemalloc.start()
        try:
            run_edit(*args, EditConfig(beta=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * d_out * d_in * 8

    def test_peak_is_the_result_plus_factors_and_a_block_budget(self):
        # the line step writes over D, so no second weight-sized array lives
        # beside it: the peak is the result, the O((d_in + d_out) k) factors
        # and blocks within a 4 MiB budget. Tall, so the weights dominate.
        d_in, d_out = 256, 4096
        model = generate_model(SyntheticModelSpec(d_in=d_in, d_out=d_out, m_targets=8, seed=3))
        args = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)
        run_edit(*args, EditConfig(beta=0.5))  # warm-up, so one-time caches are not counted
        tracemalloc.start()
        try:
            _, report = run_edit(*args, EditConfig(beta=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = report.stabilizer_rank
        assert peak <= d_out * d_in * 8 + 4 * (d_in + d_out) * k * 8 + 4 * 2**20

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_result_holds_one_weight_array(self, beta):
        # once the edit returns, the weights are the only weight-sized array
        # left alive: the report keeps values and the decoupler, not D or
        # the stabilizer basis V
        d_in, d_out = 1024, 512
        model = generate_model(
            SyntheticModelSpec(d_in=d_in, d_out=d_out, m_targets=20, tokens_per_concept=4, seed=3)
        )
        args = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)
        run_edit(*args, EditConfig(beta=beta))  # warm-up, so one-time caches are not counted
        tracemalloc.start()
        try:
            result = run_edit(*args, EditConfig(beta=beta))  # kept alive while measured
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert result[0].shape == (d_out, d_in)
        assert held <= 1.10 * d_out * d_in * 8

    def test_kernel_calls_per_edit(self, monkeypatch):
        # no SVD and no QR: the gate comes from one m x m eigendecomposition
        # of the concepts' Gram, and the line step decomposes nothing. The
        # only other eigendecomposition is the stabilizer's k x k Gram of
        # F = [G^T, U sqrt(gate)]: F^T F when k < d_in, F F^T when k = d_in
        for tokens in (1, 11):
            model = small_model(seed=5, tokens_per_concept=tokens)
            calls = []
            for name in ("eigh", "svd", "qr"):
                kernel = getattr(np.linalg, name)

                def counted(a, *args, _kernel=kernel, _name=name, _calls=calls, **kwargs):
                    _calls.append((_name, np.shape(a)))
                    return _kernel(a, *args, **kwargs)

                monkeypatch.setattr(np.linalg, name, counted)
            _, report = run_edit(
                model.w0, model.erase_spec, model.contexts, model.features, model.labels
            )
            monkeypatch.undo()
            d_in = model.w0.shape[1]
            k = report.stabilizer_rank
            assert k == min(d_in, 4 * tokens + 4)
            assert calls == [("eigh", (4, 4)), ("eigh", (k, k))]

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("mode", [BW_GEODESIC])
    def test_geometry_eigendecompositions_per_edit(self, monkeypatch, mode, beta):
        # the line step decomposes nothing: the only eighs of a cold edit are
        # the stabilizer's m x m gate and its k x k, at every beta
        model = small_model(seed=5)
        calls = count_eigendecompositions(monkeypatch)
        _, report = run_edit(
            model.w0,
            model.erase_spec,
            model.contexts,
            model.features,
            model.labels,
            EditConfig(beta=beta, interpolation_mode=mode),
        )
        k = report.stabilizer_rank
        assert (k, report.d_out, model.erase_spec.n_concepts) == (8, 24, 4)
        assert calls == [("eigh", 4), ("eigh", k)]

    def test_repeated_edit_rebuilds_its_stabilizer(self, monkeypatch):
        # nothing is kept between calls: a second identical edit decomposes
        # what the first did, the m x m gate and the k x k Gram
        model = small_model(seed=5)
        args = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)
        calls = count_eigendecompositions(monkeypatch)
        _, first = run_edit(*args)
        cold = calls[:]
        del calls[:]
        _, second = run_edit(*args)
        assert cold == calls == [("eigh", 4), ("eigh", second.stabilizer_rank)]
        assert (second.lam, second.a_eig_min, second.a_eig_max) == (
            first.lam, first.a_eig_min, first.a_eig_max
        )  # fmt: skip

    def test_rows_stay_in_the_basis_when_every_gate_underflows(self):
        # at embed scale 800 every singular value of the concepts passes 709,
        # so every gate underflows to 0, and contexts drawn apart from the
        # concepts do not span them: span(Phi) misses the concepts, yet the
        # solve is exact, and the edit D keeps its rows in the span of its
        # basis [C | Phi]
        inputs = _gate_underflow_inputs()
        c = inputs[1].concepts
        assert gate_singular(np.linalg.svd(c, compute_uv=False)).max() == 0.0
        w, report = run_edit(*inputs)
        stab, dec, _, sol, _ = solve_edit(*inputs)
        u, sigma, _ = np.linalg.svd(stab.eig.eigvecs, full_matrices=False)
        phi_span = u[:, sigma > 1e-10 * sigma[0]]
        assert np.linalg.norm(c - phi_span @ (phi_span.T @ c)) >= 0.5 * np.linalg.norm(c)
        basis = np.linalg.qr(stab.rows.T)[0]
        assert basis.shape[1] < report.d_out
        d = sol.w_star
        assert np.linalg.norm(d - (d @ basis) @ basis.T) <= 1e-12 * np.linalg.norm(d)
        a = stab.a
        rhs = anchored_rhs(inputs[0], inputs[1], a, stab.lam)
        dense = np.linalg.norm(dec.alpha[:, None] * d + d @ a - rhs) / np.linalg.norm(rhs)
        assert dense <= 1e-13 and report.sylvester_residual <= 1e-8
        assert np.array_equal(w, refine_weights(sol.w_star, inputs[0], report.config["beta"]))

    @pytest.mark.parametrize("shape", [(128, 64, 8, 42), (256, 96, 20, 7)])
    def test_the_gate_acts_only_at_a_small_embedding_scale(self, monkeypatch, shape):
        # R's gate sigma / (1 + e^sigma) is absolute in sigma: at the
        # harness's embed_scale 10 dropping R moves the edit by about 3e-6 of
        # D, and at embed_scale 1, where the concepts' sigma are small, by
        # about 0.1
        *dims, seed = shape

        def moved(embed_scale):
            spec = SyntheticModelSpec(*dims, m_preserved=5, seed=seed, embed_scale=embed_scale)
            args = (*_generated_inputs(spec), EditConfig(beta=0.0))
            with_r, _ = run_edit(*args)
            with monkeypatch.context() as patch:
                patch.setattr("scapre.stabilizer.gate_singular", np.zeros_like)
                without_r, _ = run_edit(*args)
            return np.linalg.norm(without_r - with_r) / np.linalg.norm(with_r - args[0])

        assert moved(10.0) < 1e-4
        assert moved(1.0) > 1e-2

    @pytest.mark.parametrize("regime", sorted(RESIDUAL_REGIMES))
    def test_residual_estimates_the_dense_residual(self, regime):
        # the reported residual is a 16-column sketch of the whole anchored
        # equation's residual of the stored edit: within a factor 3 of the
        # residual against the dense A, which is round-off
        inputs = RESIDUAL_REGIMES[regime]()
        stab, dec, _, sol, _ = solve_edit(*inputs)
        assert (stab.rank < inputs[0].shape[1]) == (regime != "k=d_in")
        a = stab.a
        rhs = anchored_rhs(inputs[0], inputs[1], a, stab.lam)
        d = sol.w_star
        dense = np.linalg.norm(dec.alpha[:, None] * d + d @ a - rhs) / np.linalg.norm(rhs)
        assert dense / 3.0 <= sol.residual <= 3.0 * dense
        assert dense <= 1e-13

    @pytest.mark.parametrize("regime", sorted(DENSE_ROUTE_REGIMES))
    def test_edit_matches_the_dense_route(self, regime):
        # the edit's residual against its own dense A is round-off, and the
        # edit is the one the dense reference route gives: A assembled from
        # build_s and build_r, solved as a raw matrix on the dense
        # right-hand side M - W0 (A - lam I)
        inputs = DENSE_ROUTE_REGIMES[regime]()
        w0, spec, contexts = inputs[:3]
        stab, dec, _, sol, _ = solve_edit(*inputs)
        d = sol.w_star
        a = stab.a
        rhs = anchored_rhs(w0, spec, a, stab.lam)
        assert np.linalg.norm(dec.alpha[:, None] * d + d @ a - rhs) <= 1e-12 * np.linalg.norm(rhs)
        dense_a = assemble_a(stab.lam, build_s(contexts), build_r(spec.concepts)).a
        dense_rhs = anchored_rhs(w0, spec, dense_a, stab.lam)
        want = sylvester_solve_spectral(dec.alpha, dense_a, dense_rhs).w_star
        assert rel_err(d, want) <= 1e-11

    def test_degenerate_alpha_solves_w_a_equals_m(self):
        # constant decoupler features binarize to one state on every channel,
        # so every channel scores zero mutual information, alpha is zero and
        # the solve is D A = M - W0 (A - lam I)
        model = small_model(seed=7)
        features = np.zeros_like(model.features)
        inputs = (model.w0, model.erase_spec, model.contexts, features, model.labels)
        w, report = run_edit(*inputs)
        assert report.alpha_degenerate
        assert report.alpha_min == report.alpha_max == 0.0
        assert report.sylvester_residual <= 1e-8
        assert np.isfinite(w).all()
        delta = solve_edit(*inputs)[3].w_star
        a = dense_reference_a(report.lam, model)
        assert rel_err(delta @ a, anchored_rhs(model.w0, model.erase_spec, a, report.lam)) <= 1e-8

    def test_no_output_sized_square_matrix(self):
        # d_out^2 float64 entries would be 32 MB; the solve works in a basis
        # of k = 8 columns and the line step in place
        model = generate_model(SyntheticModelSpec(d_in=16, d_out=2048, m_targets=4, seed=2))
        args = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)
        tracemalloc.start()
        try:
            run_edit(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_report_records_warnings_and_alpha_spread(self):
        # the edit D has rank at most k = 8 of d_out = 24: the normal regime,
        # not warned about; no flag is raised, so there is no note
        model = small_model(seed=6)
        args = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = run_edit(*args)
        assert report.warnings == []
        assert report.stabilizer_rank == 8 < report.d_out
        alpha = report.intermediates.decoupler.alpha
        assert report.alpha_min == alpha.min() and report.alpha_max == alpha.max()
        assert report.alpha_median == np.median(alpha)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["warnings"] == report.warnings

    def test_report_carries_the_environment(self, monkeypatch):
        # the NumPy/BLAS settings ride in every report, read once per process:
        # a thread variable changed afterwards does not show
        model = small_model(seed=6)
        args = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)
        _, first = run_edit(*args)
        monkeypatch.setenv("OMP_NUM_THREADS", "not read")
        _, second = run_edit(*args)
        env = first.to_dict()["environment"]
        assert sorted(env) == sorted(
            ["numpy", "blas", "blas_version", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        )
        assert env["numpy"] == np.__version__
        assert second.environment == env and second.environment is not env
        assert env["OMP_NUM_THREADS"] != "not read"

    def test_report_stage_times_rank_and_moved_away(self):
        # refinement_rank and the Bures distances are NaN, null in JSON; the
        # W* rank and the moved-away flag left the report with the transport map
        model = small_model(seed=6)
        args = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)
        for cfg in (EditConfig(beta=0.0), EditConfig(beta=1.0)):
            _, report = run_edit(*args, cfg)
            stages = ["stabilizer", "informax", "solver", "geometry", "metrics"]
            assert list(report.stage_ms) == stages
            assert all(t >= 0.0 for t in report.stage_ms.values())
            assert sum(report.stage_ms.values()) <= report.wall_ms
            doc = report.to_dict()
            assert np.isnan([doc[k] for k in ("refinement_rank", "bures_before", "bures_after")]).all()
            gone = {"w_star_rank", "realization_gap", "refinement_moved_away", "refinement_degenerate"}
            assert not gone & set(doc)
            assert report.warnings == []

    def test_beta_zero_returns_w_star(self):
        # at beta = 0 the weights are the anchored solve's W* = W0 + D
        model = small_model(seed=6)
        args = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, report = run_edit(*args, EditConfig(beta=0.0))
        assert np.array_equal(w, model.w0 + solve_edit(*args)[3].w_star)
        assert report.warnings == []

    @pytest.mark.parametrize("mode", [BW_GEODESIC])
    def test_scale_equivariance(self, mode):
        # every stage is linear or scale-free in W0, so scaling W0 by c scales
        # the edited weights by c; the relative rank cuts keep it that way
        model = small_model(seed=8)
        args = (model.erase_spec, model.contexts, model.features, model.labels)
        cfg = EditConfig(interpolation_mode=mode)  # the default config
        w1, _ = run_edit(model.w0, *args, cfg)
        for c in (0.01, 100.0):
            wc, _ = run_edit(c * model.w0, *args, cfg)
            assert rel_err(wc, c * w1) < 1e-12, c

    def test_other_geometry_warnings_still_propagate(self, monkeypatch):
        # nothing is captured: every warning the geometry stage raises reaches
        # the caller, and the report's notes come from its flags alone
        model = small_model(seed=6)

        def noisy_refine(*args, **kwargs):
            warnings.warn("rank note", UserWarning)
            warnings.warn("other note", RuntimeWarning)
            return refine_weights(*args, **kwargs)

        monkeypatch.setattr("scapre.pipeline.refine_weights", noisy_refine)
        with pytest.warns(RuntimeWarning, match="other note"):
            with pytest.warns(UserWarning, match="rank note"):
                _, report = run_edit(
                    model.w0, model.erase_spec, model.contexts, model.features, model.labels
                )
        assert report.warnings == []

    def test_overlapping_edits_keep_their_own_notes(self, monkeypatch):
        # two edits on two threads, both inside the geometry stage at once;
        # the one that arrived there last leaves last. Swapping the
        # process-wide warning filters and output hook per edit would lose
        # one edit's notes and leave the other's hook installed
        model = small_model(seed=6)
        args = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)
        serial = run_edit(*args)[1].warnings
        barrier, first_done = threading.Barrier(2), threading.Event()
        lock, order, outcomes = threading.Lock(), [], {}

        def overlapping(*a, **kw):
            with lock:
                order.append(threading.current_thread())
            barrier.wait(timeout=60)
            ref = refine_weights(*a, **kw)
            if threading.current_thread() is order[1]:
                first_done.wait(timeout=60)
            return ref

        def edit(slot):
            try:
                outcomes[slot] = run_edit(*args)[1].warnings
            except Exception as exc:  # surfaced by the assertion below
                outcomes[slot] = exc
            finally:
                if order[:1] == [threading.current_thread()]:
                    first_done.set()

        monkeypatch.setattr("scapre.pipeline.refine_weights", overlapping)
        filters, show = list(warnings.filters), warnings._showwarnmsg_impl
        try:
            threads = [threading.Thread(target=edit, args=(slot,)) for slot in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            filters_after, show_after = list(warnings.filters), warnings._showwarnmsg_impl
        finally:
            warnings._showwarnmsg_impl = show
        assert outcomes == {0: serial, 1: serial}
        assert filters_after == filters and show_after is show

    def test_no_usable_probe_reports_nan_median(self, tmp_path):
        # zeroed input columns of W0 map their unit vectors to exactly 0, so
        # every preserved probe is excluded and no median exists
        model = small_model(seed=6)
        w0 = model.w0.copy()
        w0[:, -3:] = 0.0
        probes = np.eye(w0.shape[1])[:, -3:]
        args = (w0, model.erase_spec, model.contexts, model.features, model.labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = run_edit(*args, preserved=probes)
        assert np.isnan(report.median_preserve_err)
        assert report.excluded_probes == [0, 1, 2]
        assert np.isnan(report.preservation_errors).all()
        write_report(tmp_path / "report.json", report.to_dict())
        assert json.loads((tmp_path / "report.json").read_text())["median_preserve_err"] is None

    def test_no_usable_target_reports_nan_max(self, tmp_path):
        # zeroed input columns of W0 map their unit vectors to exactly 0, so
        # every target is excluded and no maximum exists; the nonzero anchor
        # substitute keeps V* nonzero, so the edit is not a zero-target one
        model = generate_model(SyntheticModelSpec(d_in=48, d_out=24, m_targets=2, seed=6))
        w0 = model.w0.copy()
        w0[:, -2:] = 0.0
        subs = np.tile(model.anchor[:, None], (1, 2))
        spec = EraseSpec(np.eye(48)[:, -2:], mode=SUBSTITUTE_TARGET, substitutes=subs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = run_edit(w0, spec, model.contexts, model.features, model.labels)
        assert not report.zero_target
        assert np.isnan(report.max_erasure_err)
        assert report.excluded_targets == [0, 1]
        write_report(tmp_path / "report.json", report.to_dict())
        assert json.loads((tmp_path / "report.json").read_text())["max_erasure_err"] is None

    def test_stage_error_is_tagged(self):
        model = small_model()
        bad_labels = np.ones_like(model.labels)  # no neutral samples
        with pytest.raises(PipelineStageError, match="informax"):
            run_edit(
                model.w0, model.erase_spec, model.contexts, model.features, bad_labels
            )

    def test_mode_mismatch_rejected(self):
        model = small_model()
        cfg = EditConfig(target_mode=ZERO_TARGET)
        with pytest.raises(PipelineStageError, match="config"):
            run_edit(
                model.w0, model.erase_spec, model.contexts, model.features, model.labels, cfg
            )

    def test_context_group_count_checked(self):
        model = small_model()
        with pytest.raises(PipelineStageError, match="stabilizer"):
            run_edit(
                model.w0,
                model.erase_spec,
                model.contexts[:-1],
                model.features,
                model.labels,
            )


def edit_args(model):
    return (model.w0, model.erase_spec, model.contexts, model.features, model.labels)


@pytest.fixture
def builds(monkeypatch):
    """The arguments of every ``build_a`` call ``run_edit`` makes from here on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_a(*args, **kwargs)

    monkeypatch.setattr("scapre.pipeline.build_a", counted)
    return calls


def test_threads_with_different_concept_sets(builds):
    # four threads (more than the cores) on two concept sets, with a short
    # switch interval: all four are inside build_a at once on their first
    # edit, then edit on. Each must get the weights of its own inputs, from
    # a stabilizer of its own.
    models = [small_model(seed=14), small_model(seed=15)]
    cold = [run_edit(*edit_args(m))[0] for m in models]
    n_threads, barrier, local = 4, threading.Barrier(4), threading.local()
    build = pipeline.build_a

    def overlapping(*a, **kw):
        if not getattr(local, "waited", False):
            local.waited = True
            barrier.wait(timeout=60)
        return build(*a, **kw)

    outcomes = {}

    def edit(i):
        try:
            outcomes[i] = [run_edit(*edit_args(models[i % 2]))[0] for _ in range(4)]
        except Exception as exc:  # surfaced by the assertion below
            outcomes[i] = exc

    pipeline.build_a, interval = overlapping, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=edit, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        pipeline.build_a = build
    for i in range(n_threads):
        assert not isinstance(outcomes[i], Exception), outcomes[i]
        assert all(w.tobytes() == cold[i % 2].tobytes() for w in outcomes[i])
    assert len(builds) == 2 + 4 * n_threads  # the two cold edits, then every edit of every thread


def test_run_edit_keeps_no_state_between_calls(monkeypatch):
    # the stabilizer an edit built is freed when run_edit returns, while the
    # caller still holds the weights and the report
    built = []

    def tracked(*args, **kwargs):
        stab = build_a(*args, **kwargs)
        built.append(weakref.ref(stab))
        return stab

    monkeypatch.setattr("scapre.pipeline.build_a", tracked)
    model = small_model(seed=11)
    w, report = run_edit(*edit_args(model), preserved=model.preserved)
    assert len(built) == 1 and built[0]() is None
    assert w.shape == (report.d_out, report.d_in)


class TestCheckOnce:
    @pytest.mark.parametrize("repeat", [False, True])
    def test_each_input_is_scanned_once(self, monkeypatch, repeat):
        # a repeat of an edit already run scans as much: no check is skipped
        # for inputs an earlier call saw
        model = small_model(seed=16)
        args = edit_args(model)
        if repeat:
            run_edit(*args, preserved=model.preserved)
        scanned = []
        isfinite = np.isfinite

        def counted(x, *a, **kw):
            scanned.append(x)
            return isfinite(x, *a, **kw)

        monkeypatch.setattr(np, "isfinite", counted)
        run_edit(*args, preserved=model.preserved)
        monkeypatch.undo()
        inputs = [model.w0, model.features, model.erase_spec.concepts, model.preserved]
        for arr in inputs + model.contexts:
            assert sum(x is arr for x in scanned) == 1

    @pytest.mark.parametrize(
        "where, stage",
        [
            ("w0", None),
            ("features", "informax"),
            ("context", "stabilizer"),
            ("concept", "stabilizer"),
            ("substitutes", "solver"),
            ("preserved", "metrics"),
        ],
    )
    @pytest.mark.parametrize("repeat", [False, True])
    def test_non_finite_input_fails_its_stage(self, where, stage, repeat):
        # the same error and stage as when every stage checked its inputs;
        # an earlier edit of the same content before the NaN changes nothing
        model = small_model(seed=17)
        if repeat:
            run_edit(*edit_args(model), preserved=model.preserved)
        target = {
            "w0": model.w0,
            "features": model.features,
            "context": model.contexts[2],
            "concept": model.erase_spec.concepts,
            "substitutes": model.erase_spec.substitutes,
            "preserved": model.preserved,
        }[where]
        target[0, 1] = np.nan  # in place, after the erase spec was built
        if stage is None:
            with pytest.raises(ValueError, match="w0 contains non-finite") as info:
                run_edit(*edit_args(model), preserved=model.preserved)
            assert not isinstance(info.value, PipelineStageError)
        else:
            with pytest.raises(PipelineStageError, match="non-finite") as info:
                run_edit(*edit_args(model), preserved=model.preserved)
            assert info.value.stage == stage

    def test_stage_functions_still_check_when_called_directly(self):
        model = small_model(seed=18)
        w0, spec = model.w0, model.erase_spec
        stab, dec, _, sol, _ = solve_edit(*edit_args(model))
        bad = w0.copy()
        bad[0, 0] = np.inf
        factors = (resolve_v_star(w0, spec), spec.concepts)
        calls = [
            lambda: build_decoupler(bad, model.features, model.labels),
            lambda: build_decoupler(w0, np.full_like(model.features, np.nan), model.labels),
            lambda: sylvester_solve_spectral(dec.alpha, stab, factors, bad),
            lambda: sylvester_solve_spectral(dec.alpha, stab, (factors[0], bad.T), w0),
            lambda: refine_weights(sol.w_star, bad, 0.5),
            lambda: refine_weights(bad, w0, 0.5),
            lambda: probe_scores(bad, w0, spec),
            lambda: probe_scores(w0, bad, spec),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="non-finite"):
                call()


class TestEditConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="beta"):
            EditConfig(beta=1.5)
        with pytest.raises(ValueError, match="lam"):
            EditConfig(lam=0.0)
        # an infinite ridge would solve to all-zero weights
        with pytest.raises(ValueError, match="lam must be finite"):
            EditConfig(lam=float("inf"))
        with pytest.raises(ValueError, match="lam_scale must be finite"):
            EditConfig(lam_scale=float("inf"))
        with pytest.raises(ValueError, match="interpolation_mode"):
            EditConfig(interpolation_mode="cubic")
        with pytest.raises(ValueError, match="sqrt-blend mode was removed"):
            EditConfig(interpolation_mode="sqrt-blend")
        with pytest.raises(ValueError, match="target_mode"):
            EditConfig(target_mode="extra")

    def test_serialization(self):
        assert EditConfig(lam=2.0).to_dict()["lambda"] == 2.0
        assert EditConfig().to_dict()["lambda"] == {"relative": EditConfig.lam_scale}
        assert EditConfig().to_dict()["interpolation_mode"] == BW_GEODESIC
        assert set(EditConfig().to_dict()) == {
            "lambda", "beta", "interpolation_mode", "target_mode"
        }


# The default edit (beta = 0.5) of the stage bench's seed-42 models:
# (d_in, d_out, m, tokens per concept), a max erasure bound 1.05 times the
# unanchored edit's (0.4271 and 0.3886 before the anchor) and a median
# preservation bound. Without the anchor preservation read 1.00.
ANCHOR_SHAPES = {
    "768x320": ((768, 320, 50, 1), 1.05 * 0.4271, 0.12),
    "2048x1024": ((2048, 1024, 100, 4), 1.05 * 0.3886, 0.06),
}


@pytest.mark.parametrize("shape", sorted(ANCHOR_SHAPES))
def test_anchor_preserves_the_layer(shape):
    (d_in, d_out, m, tokens), max_erasure, median_preserve = ANCHOR_SHAPES[shape]
    model = generate_model(
        SyntheticModelSpec(d_in, d_out, m, 10, tokens_per_concept=tokens, seed=42)
    )
    _, report = run_edit(
        model.w0, model.erase_spec, model.contexts, model.features, model.labels,
        preserved=model.preserved,
    )  # fmt: skip
    assert report.max_erasure_err <= max_erasure
    assert report.median_preserve_err <= median_preserve
    assert report.sylvester_residual <= 1e-12


# The models the edit's symmetries are checked on: 4 tokens per concept,
# similarity 0.5, and the plain harness draw.
SYMMETRY_MODELS = {
    "96x48-tokens4": SyntheticModelSpec(96, 48, 8, 5, tokens_per_concept=4, seed=3),
    "128x64-sim0.5": SyntheticModelSpec(
        128, 64, 10, 5, similarity=0.5, tokens_per_concept=4, seed=7
    ),
    "256x96": SyntheticModelSpec(256, 96, 20, 5, seed=42),
}


@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("name", sorted(SYMMETRY_MODELS))
def test_the_edit_follows_input_rotation_and_concept_order(name, beta):
    # W0 -> W0 Q^T with every input vector x -> Q x turns the edit D into
    # D Q^T (measured within 1.6e-13 of |D|); the concepts permuted with
    # their contexts, substitutes and sample labels leave it as it is (1.0e-13)
    m = generate_model(SYMMETRY_MODELS[name])
    c, subs = m.erase_spec.concepts, m.erase_spec.substitutes

    def delta(w0, c, subs, contexts, features, labels, preserved):
        spec, cfg = EraseSpec(c, substitutes=subs), EditConfig(beta=beta)
        return run_edit(w0, spec, contexts, features, labels, cfg, preserved)[0] - w0

    d = delta(m.w0, c, subs, m.contexts, m.features, m.labels, m.preserved)
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((m.w0.shape[1],) * 2))[0]
    rotated = delta(
        m.w0 @ q.T, q @ c, q @ subs, [g @ q.T for g in m.contexts], m.features @ q.T, m.labels,
        q @ m.preserved,
    )  # fmt: skip
    assert rel_err(rotated, d @ q.T) <= 1e-12
    perm = np.random.default_rng(1).permutation(c.shape[1])
    relabel = np.concatenate([[0], np.argsort(perm) + 1])  # label k + 1 names concept k
    permuted = delta(
        m.w0, c[:, perm], subs[:, perm], [m.contexts[k] for k in perm], m.features,
        relabel[m.labels], m.preserved,
    )  # fmt: skip
    assert rel_err(permuted, d) <= 1e-12


def test_edit_agrees_across_blas_thread_counts(tmp_path):
    # bit-identity holds only at a fixed thread count; across counts BLAS
    # reorders its sums, so outputs must agree to round-off, not bitwise
    runs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(ROOT / "src")}
        path = tmp_path / f"w{threads}.npy"
        proc = subprocess.run(
            [sys.executable, "-c", README_EDIT, str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs[threads] = np.load(path), json.loads(proc.stdout)
    (w1, errs1), (w2, errs2) = runs["1"], runs["2"]
    assert np.linalg.norm(w1 - w2) <= 1e-7 * np.linalg.norm(w1)
    for a, b in zip(errs1, errs2):
        assert abs(a - b) <= 1e-8 * abs(a)
