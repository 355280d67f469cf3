import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scapre.geometry import BW_GEODESIC
from scapre.harness import SyntheticModelSpec, generate_model
from scapre.pipeline import EditConfig, PipelineStageError, ZeroTargetWarning, run_edit
from scapre.solver import SUBSTITUTE_TARGET, ZERO_TARGET, EraseSpec
from scapre.stabilizer import assemble_a, build_r, build_s

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


def dense_reference_a(lam, model):
    """``A`` assembled densely from the model's contexts and concepts."""
    s = build_s(model.contexts)
    return assemble_a(lam, s, build_r(model.erase_spec.concepts)).a


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
        model = small_model()
        spec = EraseSpec(model.erase_spec.concepts, mode=ZERO_TARGET)
        cfg = EditConfig(target_mode=ZERO_TARGET, beta=0.0)
        with pytest.warns(ZeroTargetWarning):
            w_edit, report = run_edit(
                model.w0, spec, model.contexts, model.features, model.labels, cfg
            )
        assert report.zero_target
        assert np.array_equal(report.intermediates.w_star, np.zeros_like(model.w0))
        assert np.array_equal(w_edit, np.zeros_like(model.w0))

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
        assert report.lam_rule == "relative" and report.lam > 0
        assert report.config["beta"] == 0.25
        assert report.solver_path == "spectral"
        assert len(report.erasure_errors) == 4
        assert len(report.preservation_errors) == 3
        assert report.wall_ms > 0
        doc = report.to_dict()
        assert "intermediates" not in doc and "config" in doc

    def test_residual_recomputable_from_intermediates(self):
        model = small_model(seed=9)
        _, report = run_edit(
            model.w0, model.erase_spec, model.contexts, model.features, model.labels
        )
        inter = report.intermediates
        w_star = inter.w_star
        # the stabilizer's own dense A and the one the reference route assembles
        for a in (inter.stabilizer.a, dense_reference_a(report.lam, model)):
            lhs = inter.decoupler.alpha[:, None] * w_star + w_star @ a
            residual = np.linalg.norm(lhs - inter.m_rhs) / np.linalg.norm(inter.m_rhs)
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

    def test_kernel_calls_per_edit(self, monkeypatch):
        # one SVD of the concepts, one of the refined factor against w0 and one
        # of the alignment matrix; the only stabilizer eigendecomposition is k x k
        model = small_model(seed=5)
        calls = []
        for name in ("eigh", "svd"):
            kernel = getattr(np.linalg, name)

            def counted(a, *args, _kernel=kernel, _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _kernel(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        _, report = run_edit(
            model.w0, model.erase_spec, model.contexts, model.features, model.labels
        )
        assert sum(kind == "svd" for kind, _ in calls) == 3
        k = report.stabilizer_rank
        assert ("eigh", (k, k)) in calls
        assert all(shape[0] != model.w0.shape[1] for kind, shape in calls if kind == "eigh")

    def test_bures_improves_on_bw_geodesic_full_rank(self):
        # more targets than output channels makes the edit full rank, so the
        # geodesic step must strictly pull the covariance toward the original
        spec = SyntheticModelSpec(d_in=32, d_out=4, m_targets=8, seed=11)
        model = generate_model(spec)
        # distinct substitutes per target keep the edit full rank
        rng = np.random.default_rng(0)
        subs = 10.0 * rng.standard_normal((32, 8)) / np.sqrt(32)
        erase = EraseSpec(model.erase_spec.concepts, mode=SUBSTITUTE_TARGET, substitutes=subs)
        cfg_before = EditConfig(beta=0.0)
        cfg_after = EditConfig(beta=0.6, interpolation_mode=BW_GEODESIC)
        args = (model.w0, erase, model.contexts, model.features, model.labels)
        _, rep0 = run_edit(*args, cfg_before)
        _, rep1 = run_edit(*args, cfg_after)
        assert rep1.refinement_rank == 4 and not rep1.refinement_rank_deficient
        assert rep1.bures_after <= rep1.bures_before + 1e-9
        assert rep1.bures_after < rep0.bures_after  # beta=0 leaves the gap alone
        assert rep0.bures_before == pytest.approx(rep1.bures_before, rel=1e-9)

    @pytest.mark.parametrize("mode, expected", [("sqrt-blend", 3), (BW_GEODESIC, 4)])
    def test_geometry_eigendecompositions_per_edit(self, monkeypatch, mode, expected):
        # refinement builds each root once (2 eigh, one more for the bw-geodesic
        # pseudo-inverse root, 1 for the refined factor); bures_after comes from
        # that factor, so nothing is validated or decomposed again
        model = small_model(seed=5)
        d_out = model.w0.shape[0]
        calls = []
        for name in ("eigh", "eigvalsh"):
            kernel = getattr(np.linalg, name)

            def counted(a, *args, _kernel=kernel, _name=name, **kwargs):
                if np.shape(a)[0] == d_out:
                    calls.append(_name)
                return _kernel(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        run_edit(
            model.w0,
            model.erase_spec,
            model.contexts,
            model.features,
            model.labels,
            EditConfig(beta=0.5, interpolation_mode=mode),
        )
        assert len(calls) == expected
        assert calls.count("eigvalsh") == 0

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


class TestEditConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="beta"):
            EditConfig(beta=1.5)
        with pytest.raises(ValueError, match="lam"):
            EditConfig(lam=0.0)
        with pytest.raises(ValueError, match="interpolation_mode"):
            EditConfig(interpolation_mode="cubic")
        with pytest.raises(ValueError, match="target_mode"):
            EditConfig(target_mode="extra")

    def test_serialization(self):
        assert EditConfig(lam=2.0).to_dict()["lambda"] == 2.0
        assert EditConfig().to_dict()["lambda"] == {"relative": 0.1}
        assert set(EditConfig().to_dict()) == {
            "lambda", "beta", "interpolation_mode", "target_mode"
        }


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
