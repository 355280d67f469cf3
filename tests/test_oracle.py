import math

import numpy as np
import pytest
from conftest import random_spd

from scapre.informax import JointCounts, channel_mi
from scapre.oracle import (
    ConvergenceError,
    OracleConfig,
    gd_minimize,
    mi_bruteforce,
    objective_perturbation_check,
)
from scapre.solver import sylvester_solve_spectral
from scapre.stabilizer import build_a


class TestGdMinimize:
    def test_zero_rhs(self):
        w = gd_minimize(np.eye(3), np.ones(3), np.zeros((3, 3)))
        assert np.array_equal(w, np.zeros((3, 3)))

    def test_scalar_case(self):
        w = gd_minimize(
            np.array([[3.0]]),
            np.array([1.0]),
            np.array([[4.0]]),
            OracleConfig(grad_tol=1e-10),
        )
        assert abs(w[0, 0] - 1.0) < 1e-9

    def test_matches_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d_out = int(rng.integers(2, 33))
            d_in = int(rng.integers(2, 33))
            a = random_spd(rng, d_in)
            b = rng.uniform(0, 1, d_out)
            m = rng.standard_normal((d_out, d_in))
            closed = sylvester_solve_spectral(b, a, m).w_star
            tol = 1e-6 * max(1.0, float(np.linalg.norm(m)))
            w = gd_minimize(a, b, m, OracleConfig(grad_tol=tol))
            assert np.linalg.norm(w - closed) / np.linalg.norm(closed) < 1e-4

    def test_matches_factored_stabilizer(self):
        # the oracle works on the dense A the factored stabilizer builds on
        # demand, so agreement checks the low-rank solve against plain
        # descent; M's concepts lie in the span of the stabilizer's, as in
        # an edit
        rng = np.random.default_rng(3)
        for d_in, tokens in ((24, 1), (6, 3)):
            ctx = [rng.standard_normal((tokens, d_in)) for _ in range(3)]
            concepts = 3.0 * rng.standard_normal((d_in, 3))
            stab = build_a(ctx, concepts, lam_scale=0.1)
            b = rng.uniform(0, 1, 4)
            factors = rng.standard_normal((4, 2)), concepts @ rng.standard_normal((3, 2))
            m = factors[0] @ factors[1].T
            closed = sylvester_solve_spectral(b, stab, factors).w_star
            tol = 1e-6 * max(1.0, float(np.linalg.norm(m)))
            w = gd_minimize(stab, b, m, OracleConfig(grad_tol=tol))
            assert np.linalg.norm(w - closed) / np.linalg.norm(closed) < 1e-4
            assert objective_perturbation_check(closed, stab, b, m, trials=20, seed=0)

    def test_nonconvergence_carries_gradient_norm(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 6)
        m = rng.standard_normal((4, 6))
        with pytest.raises(ConvergenceError) as info:
            gd_minimize(a, rng.uniform(0, 1, 4), m, OracleConfig(max_iters=2, grad_tol=1e-14))
        assert info.value.grad_norm > 0.0
        assert "gradient norm" in str(info.value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(max_iters=0)
        with pytest.raises(ValueError):
            OracleConfig(grad_tol=0.0)


class TestMiBruteforce:
    def test_degenerate(self):
        assert mi_bruteforce([(0, 0)] * 10) == 0.0

    def test_alternating_matched(self):
        pairs = [(0, 0), (1, 1)] * 25
        assert abs(mi_bruteforce(pairs) - math.log(2.0)) < 1e-12

    def test_exact_agreement_with_channel_mi(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n00, n01, n10, n11 = (int(x) for x in rng.integers(0, 40, 4))
            if n00 + n01 + n10 + n11 == 0:
                continue
            pairs = (
                [(0, 0)] * n00 + [(0, 1)] * n01 + [(1, 0)] * n10 + [(1, 1)] * n11
            )
            assert mi_bruteforce(pairs) == channel_mi(JointCounts(n00, n01, n10, n11))

    def test_rejects_empty_and_nonbinary(self):
        with pytest.raises(ValueError, match="nonempty"):
            mi_bruteforce([])
        with pytest.raises(ValueError, match="binary"):
            mi_bruteforce([(0, 2)])


class TestPerturbationCheck:
    def test_solution_passes(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 7)
        b = rng.uniform(0, 1, 5)
        m = rng.standard_normal((5, 7))
        w = sylvester_solve_spectral(b, a, m).w_star
        assert objective_perturbation_check(w, a, b, m, trials=100, seed=5)

    def test_offset_fails(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 5)
        b = rng.uniform(0, 1, 4)
        m = rng.standard_normal((4, 5))
        w = sylvester_solve_spectral(b, a, m).w_star + 3.0
        assert not objective_perturbation_check(w, a, b, m, trials=100, seed=6)

    def test_zero_fails_for_nonzero_rhs(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 4)
        b = rng.uniform(0, 1, 4)
        m = rng.standard_normal((4, 4)) + np.eye(4)
        assert not objective_perturbation_check(np.zeros((4, 4)), a, b, m, trials=100, seed=7)
