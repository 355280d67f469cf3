import math

import numpy as np
import pytest

from scapre.metrics import (
    MethodScore,
    overall_accuracy,
    probe_scores,
    uq_minmax,
    uq_rank,
    uq_sigmoid,
)
from scapre.solver import SUBSTITUTE_TARGET, ZERO_TARGET, EraseSpec, resolve_v_star

# Published nine-column score table used for frozen-value reproduction; the
# first row is the unedited reference model.
REFERENCE = MethodScore("ref", 89.9, 31.43)
METHODS = [
    MethodScore("m1", 71.9, 30.62),
    MethodScore("m2", 47.4, 30.81),
    MethodScore("m3", 38.7, 30.14),
    MethodScore("m4", 78.5, 31.02),
    MethodScore("m5", 8.5, 29.45),
    MethodScore("m6", 4.9, 29.27),
    MethodScore("m7", 9.6, 29.25),
    MethodScore("m8", 0.8, 30.43),
]


class TestUqSigmoid:
    def test_frozen_published_values(self):
        res = uq_sigmoid(METHODS, baseline=REFERENCE)
        assert res.values["m8"] == pytest.approx(64.09, abs=0.05)
        assert res.values["m6"] == pytest.approx(32.60, abs=0.05)
        assert REFERENCE.label in res.population
        assert REFERENCE.label not in res.values

    def test_identical_methods_equal(self):
        scores = [
            MethodScore("a", 10.0, 20.0),
            MethodScore("b", 10.0, 20.0),
            MethodScore("c", 40.0, 25.0),
        ]
        res = uq_sigmoid(scores)
        assert res.values["a"] == res.values["b"]

    def test_range(self):
        res = uq_sigmoid(METHODS, baseline=REFERENCE)
        assert all(0.0 <= v <= 100.0 for v in res.values.values())

    def test_shift_invariance_in_unlearn_axis(self):
        shifted = [MethodScore(s.label, s.unlearn + 17.0, s.quality) for s in METHODS]
        a = uq_sigmoid(METHODS)
        b = uq_sigmoid(shifted)
        for label in a.values:
            assert abs(a.values[label] - b.values[label]) < 1e-10

    def test_harmonic_bounded_by_components(self):
        # the harmonic mean sits between min and 2*min of its arguments
        pop = np.array([s.unlearn for s in METHODS])
        qual = np.array([s.quality for s in METHODS])
        res = uq_sigmoid(METHODS)
        for s in METHODS:
            a_t = 1.0 / (1.0 + math.exp(-(pop.mean() - s.unlearn) / pop.std()))
            c_t = 1.0 / (1.0 + math.exp(-(s.quality - qual.mean()) / qual.std()))
            low, high = 100.0 * min(a_t, c_t), 200.0 * min(a_t, c_t)
            assert low - 1e-9 <= res.values[s.label] <= high + 1e-9

    def test_zero_variance_rejected(self):
        flat = [MethodScore("a", 1.0, 2.0), MethodScore("b", 1.0, 3.0)]
        with pytest.raises(ValueError, match="variance"):
            uq_sigmoid(flat)

    def test_needs_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            uq_sigmoid([MethodScore("a", 1.0, 2.0)])

    def test_duplicate_labels_rejected(self):
        dup = [MethodScore("a", 1.0, 2.0), MethodScore("a", 3.0, 4.0)]
        with pytest.raises(ValueError, match="unique"):
            uq_sigmoid(dup)


class TestUqMinmax:
    def test_frozen_published_values(self):
        res = uq_minmax(METHODS)
        assert res.values["m8"] == pytest.approx(0.800, abs=0.001)
        assert res.values["m1"] == pytest.approx(0.153, abs=0.001)
        assert res.values["m4"] == pytest.approx(0.000, abs=0.001)

    def test_best_on_both_axes(self):
        scores = [
            MethodScore("best", 1.0, 9.0),
            MethodScore("mid", 5.0, 5.0),
            MethodScore("worst", 9.0, 1.0),
        ]
        res = uq_minmax(scores)
        assert res.values["best"] == 1.0
        assert res.values["worst"] == 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        scores = [
            MethodScore(f"s{i}", float(u), float(q))
            for i, (u, q) in enumerate(zip(rng.uniform(0, 90, 6), rng.uniform(20, 32, 6)))
        ]
        mapped = [
            MethodScore(s.label, 3.0 * s.unlearn + 7.0, 0.5 * s.quality - 2.0) for s in scores
        ]
        a, b = uq_minmax(scores), uq_minmax(mapped)
        for label in a.values:
            assert abs(a.values[label] - b.values[label]) < 1e-10

    def test_degenerate_range_rejected(self):
        flat = [MethodScore("a", 1.0, 2.0), MethodScore("b", 1.0, 3.0)]
        with pytest.raises(ValueError, match="degenerate"):
            uq_minmax(flat)


class TestUqRank:
    def test_frozen_published_value(self):
        res = uq_rank(METHODS)
        assert res.values["m8"] == pytest.approx(0.727, abs=0.001)

    def test_unique_best(self):
        scores = [
            MethodScore("best", 1.0, 9.0),
            MethodScore("mid", 5.0, 5.0),
            MethodScore("worst", 9.0, 1.0),
        ]
        assert uq_rank(scores).values["best"] == 1.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        scores = [
            MethodScore(f"s{i}", float(u), float(q))
            for i, (u, q) in enumerate(zip(rng.uniform(0, 90, 7), rng.uniform(20, 32, 7)))
        ]
        res = uq_rank(scores)
        perm = rng.permutation(7)
        res_perm = uq_rank([scores[i] for i in perm])
        for s in scores:
            assert res.values[s.label] == res_perm.values[s.label]

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = [
            MethodScore(f"s{i}", float(u), float(q))
            for i, (u, q) in enumerate(zip(rng.uniform(1, 90, 6), rng.uniform(20, 32, 6)))
        ]
        mapped = [
            MethodScore(s.label, math.log(s.unlearn), math.exp(s.quality / 10.0))
            for s in scores
        ]
        a, b = uq_rank(scores), uq_rank(mapped)
        for label in a.values:
            assert a.values[label] == b.values[label]

    def test_ties_first_occurrence(self):
        scores = [
            MethodScore("first", 5.0, 1.0),
            MethodScore("second", 5.0, 2.0),
            MethodScore("third", 9.0, 3.0),
        ]
        res = uq_rank(scores)
        # "first" outranks "second" on the unlearn axis purely by position
        assert res.values["first"] < res.values["second"]


class TestOverallAccuracy:
    def test_frozen_published_values(self):
        assert overall_accuracy(5.8, 76.3) == pytest.approx(84.3, abs=0.05)
        assert overall_accuracy(55.6, 57.7) == pytest.approx(50.2, abs=0.05)

    def test_perfect_edit(self):
        assert overall_accuracy(0.0, 100.0) == 100.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = float(rng.uniform(0, 100))
            p = float(rng.uniform(0, 100))
            assert overall_accuracy(a, p) == pytest.approx(overall_accuracy(100.0 - p, 100.0 - a))

    def test_degenerate_zero(self):
        assert overall_accuracy(100.0, 0.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            overall_accuracy(-1.0, 50.0)
        with pytest.raises(ValueError):
            overall_accuracy(50.0, 101.0)


class TestProbeScores:
    def test_identity_edit_self_targets(self):
        rng = np.random.default_rng(4)
        w0 = rng.standard_normal((4, 6))
        c = rng.standard_normal((6, 2))
        spec = EraseSpec(c, mode=SUBSTITUTE_TARGET, v_star=w0 @ c)
        res = probe_scores(w0, w0, spec, preserved=rng.standard_normal((6, 3)))
        assert np.abs(res.erasure).max() < 1e-12
        assert np.abs(res.preservation).max() < 1e-12

    def test_annihilation_case(self):
        rng = np.random.default_rng(5)
        w0 = rng.standard_normal((3, 5))
        c = rng.standard_normal((5, 2))
        spec = EraseSpec(c, mode=ZERO_TARGET)
        res = probe_scores(np.zeros((3, 5)), w0, spec, preserved=rng.standard_normal((5, 2)))
        assert np.abs(res.erasure).max() < 1e-12
        assert np.allclose(res.preservation, 1.0)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(6)
        w0 = rng.standard_normal((5, 8))
        w_edit = rng.standard_normal((5, 8))
        c = rng.standard_normal((8, 3))
        subs = rng.standard_normal((8, 3))
        probes = rng.standard_normal((8, 4))
        spec = EraseSpec(c, mode=SUBSTITUTE_TARGET, substitutes=subs)
        res = probe_scores(w_edit, w0, spec, preserved=probes)
        for k in range(3):
            want = np.linalg.norm(w_edit @ c[:, k] - w0 @ subs[:, k]) / np.linalg.norm(
                w0 @ c[:, k]
            )
            assert abs(res.erasure[k] - want) < 1e-12
        for j in range(4):
            want = np.linalg.norm((w_edit - w0) @ probes[:, j]) / np.linalg.norm(
                w0 @ probes[:, j]
            )
            assert abs(res.preservation[j] - want) < 1e-12

    def test_resolved_v_star_gives_same_scores(self):
        rng = np.random.default_rng(7)
        w0 = rng.standard_normal((5, 8))
        w_edit = rng.standard_normal((5, 8))
        c = rng.standard_normal((8, 3))
        spec = EraseSpec(c, mode=SUBSTITUTE_TARGET, substitutes=rng.standard_normal((8, 3)))
        probes = rng.standard_normal((8, 4))
        plain = probe_scores(w_edit, w0, spec, probes)
        passed = probe_scores(w_edit, w0, spec, probes, v_star=resolve_v_star(w0, spec))
        assert np.array_equal(plain.erasure, passed.erasure)
        assert np.array_equal(plain.preservation, passed.preservation)
        assert plain.excluded_targets == passed.excluded_targets
        assert plain.excluded_probes == passed.excluded_probes
        with pytest.raises(ValueError, match="v_star shape"):
            probe_scores(w_edit, w0, spec, probes, v_star=np.zeros((5, 2)))

    def test_zero_norm_reference_excluded(self):
        w0 = np.array([[1.0, 0.0], [0.0, 0.0]])  # second axis annihilated
        c = np.eye(2)
        spec = EraseSpec(c, mode=ZERO_TARGET)
        res = probe_scores(np.eye(2), w0, spec)
        assert res.excluded_targets == (1,)
        assert np.isnan(res.erasure[1]) and np.isfinite(res.erasure[0])
