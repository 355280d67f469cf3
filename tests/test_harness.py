import warnings

import numpy as np
import pytest

from scapre.harness import (
    ConfuseSpec,
    SyntheticModelSpec,
    confuse_benchmark,
    generate_model,
    scaling_sweep,
)
from scapre.pipeline import EditConfig
from scapre.smatio import CSV_COLUMNS
from scapre.solver import ZERO_TARGET


def cosines(columns):
    unit = columns / np.linalg.norm(columns, axis=0)
    gram = unit.T @ unit
    return gram[np.triu_indices_from(gram, k=1)]


class TestGenerateModel:
    def test_orthogonal_design(self):
        spec = SyntheticModelSpec(d_in=32, d_out=16, m_targets=5, m_preserved=3)
        model = generate_model(spec)
        allc = np.hstack(
            [model.erase_spec.concepts, model.preserved]
        )
        assert np.abs(cosines(allc)).max() < 1e-10

    def test_same_seed_bit_identical(self):
        spec = SyntheticModelSpec(d_in=24, d_out=12, m_targets=3, m_preserved=2, seed=5)
        a = generate_model(spec)
        b = generate_model(spec)
        assert a.w0.tobytes() == b.w0.tobytes()
        assert a.erase_spec.concepts.tobytes() == b.erase_spec.concepts.tobytes()
        assert a.features.tobytes() == b.features.tobytes()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.contexts, b.contexts))

    def test_requested_similarity(self):
        spec = SyntheticModelSpec(d_in=64, d_out=16, m_targets=5, similarity=0.8)
        model = generate_model(spec)
        cos = cosines(model.erase_spec.concepts)
        assert np.abs(cos - 0.8).max() < 0.02

    def test_infeasible_similarity(self):
        with pytest.raises(ValueError, match="cannot place"):
            generate_model(SyntheticModelSpec(d_in=4, d_out=4, m_targets=4, similarity=0.5))

    def test_spectrum_within_bounds(self):
        spec = SyntheticModelSpec(d_in=40, d_out=24, m_targets=2)
        sv = np.linalg.svd(generate_model(spec).w0, compute_uv=False)
        assert sv.max() <= 10.0 + 1e-9 and sv.min() >= 0.1 - 1e-9

    def test_shapes_and_labels(self):
        spec = SyntheticModelSpec(
            d_in=20, d_out=10, m_targets=3, m_preserved=2, samples_per_concept=4
        )
        model = generate_model(spec)
        assert model.w0.shape == (10, 20)
        assert model.erase_spec.concepts.shape == (20, 3)
        assert model.preserved.shape == (20, 2)
        assert len(model.contexts) == 3
        assert model.features.shape[0] == 3 * 4 + 12
        assert set(np.unique(model.labels)) == {0, 1, 2, 3}

    def test_zero_target_mode(self):
        spec = SyntheticModelSpec(d_in=16, d_out=8, m_targets=2)
        model = generate_model(spec, ZERO_TARGET)
        assert model.erase_spec.mode == ZERO_TARGET
        assert model.erase_spec.substitutes is None

    def test_token_count_preserves_group_energy(self):
        # more tokens must not inflate the per-concept second moment
        one = generate_model(SyntheticModelSpec(d_in=16, d_out=8, m_targets=1, seed=2))
        many = generate_model(
            SyntheticModelSpec(d_in=16, d_out=8, m_targets=1, seed=2, tokens_per_concept=6)
        )
        energy_one = np.linalg.norm(one.contexts[0].T @ one.contexts[0], 2)
        energy_many = np.linalg.norm(many.contexts[0].T @ many.contexts[0], 2)
        assert energy_many == pytest.approx(energy_one, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="similarity"):
            SyntheticModelSpec(d_in=8, d_out=4, m_targets=1, similarity=1.0)
        with pytest.raises(ValueError, match="target"):
            SyntheticModelSpec(d_in=8, d_out=4, m_targets=0)


class TestScalingSweep:
    def test_single_row_schema(self):
        base = SyntheticModelSpec(d_in=24, d_out=12, m_targets=1, m_preserved=2)
        rows = scaling_sweep(base, [1], EditConfig())
        assert len(rows) == 1
        assert tuple(rows[0].keys()) == CSV_COLUMNS
        assert rows[0]["m"] == 1
        assert np.isfinite(rows[0]["sylvester_residual"])

    def test_counts_and_residuals(self):
        base = SyntheticModelSpec(d_in=48, d_out=16, m_targets=1, m_preserved=2)
        rows = scaling_sweep(base, [2, 4, 6], EditConfig(beta=0.0))
        assert [row["m"] for row in rows] == [2, 4, 6]
        for row in rows:
            assert row["sylvester_residual"] <= 1e-8
            assert row["max_erasure_err"] <= 0.05

    def test_failed_row_keeps_sweep_alive(self, capsys):
        base = SyntheticModelSpec(d_in=8, d_out=4, m_targets=1)
        rows = scaling_sweep(base, [2, 50], EditConfig())  # 50 won't fit in d=8
        assert len(rows) == 2
        assert np.isfinite(rows[0]["sylvester_residual"])
        assert np.isnan(rows[1]["sylvester_residual"])
        assert "failed" in capsys.readouterr().err

    def test_leaves_the_warning_filters_as_they_were(self):
        # run_edit builds its report notes from its flags and touches no
        # process-wide warning state: a warnings.catch_warnings block would
        # swap the filter list on entry and restore it on exit, so rows run on
        # concurrent threads would restore each other's lists
        base = SyntheticModelSpec(d_in=24, d_out=8, m_targets=1)
        before = list(warnings.filters)
        for _ in range(50):
            scaling_sweep(base, range(2, 10))
            assert warnings.filters == before

    def test_rejects_unsorted_counts(self):
        base = SyntheticModelSpec(d_in=8, d_out=4, m_targets=1)
        with pytest.raises(ValueError, match="ascending"):
            scaling_sweep(base, [5, 2])

    def test_cost_roughly_monotone_in_concept_count(self):
        # coarse check only: a later row may not be dramatically cheaper. Each
        # row keeps its fastest of five sweeps, so neither the one-time warm-up
        # of a fresh process nor a stall of a ~10 ms edit decides the outcome.
        base = SyntheticModelSpec(d_in=192, d_out=64, m_targets=1, m_preserved=2)
        sweeps = [
            scaling_sweep(base, [4, 16, 48], EditConfig(beta=0.0)) for _ in range(5)
        ]
        walls = [min(row["wall_ms"] for row in rows) for rows in zip(*sweeps)]
        for earlier, later in zip(walls, walls[1:]):
            assert later >= earlier / 2.0


class TestConfuseBenchmark:
    def test_row_shape_mirrors_group_design(self):
        spec = ConfuseSpec(
            d_in=64,
            d_out=24,
            n_groups=5,
            targets_per_group=2,
            preserved_per_group=3,
            similarity=0.8,
        )
        report = confuse_benchmark(spec, EditConfig(beta=0.0))
        assert len(report.target_rows) == 10
        assert len(report.preserved_rows) == 15
        assert {row["group"] for row in report.target_rows} == set(range(5))
        assert 0.0 <= report.overall_acc <= 100.0

    def test_targets_move_more_than_orthogonal_bystanders(self):
        spec = ConfuseSpec(
            d_in=48, d_out=16, n_groups=2, targets_per_group=1, preserved_per_group=2,
            similarity=0.0,
        )
        report = confuse_benchmark(spec, EditConfig(beta=0.0))
        target_moves = [row["displacement"] for row in report.target_rows]
        assert min(target_moves) > 0.5

    def test_group_validation(self):
        with pytest.raises(ValueError, match="three"):
            ConfuseSpec(d_in=16, d_out=8, targets_per_group=1, preserved_per_group=1)
        with pytest.raises(ValueError, match="at least one"):
            ConfuseSpec(d_in=16, d_out=8, targets_per_group=0)

    def test_infeasible_dimensions(self):
        with pytest.raises(ValueError, match="dimensions"):
            confuse_benchmark(ConfuseSpec(d_in=16, d_out=8, n_groups=5))
