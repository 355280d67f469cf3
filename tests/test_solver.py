import tracemalloc

import numpy as np
import pytest
from conftest import random_spd, rel_err

from scapre.oracle import OracleConfig, gd_minimize
from scapre.solver import (
    SUBSTITUTE_TARGET,
    ZERO_TARGET,
    EraseSpec,
    _sketch,
    _sketched_residual,
    assemble_m,
    baseline_eq2,
    objective_value,
    resolve_v_star,
    sylvester_solve_kronecker,
    sylvester_solve_spectral,
)
from scapre.stabilizer import assemble_a, build_a


class TestEraseSpec:
    def test_zero_mode_defaults(self):
        spec = EraseSpec(np.eye(3)[:, :2], mode=ZERO_TARGET)
        assert spec.v_star is None and spec.substitutes is None
        assert np.array_equal(resolve_v_star(np.ones((4, 3)), spec), np.zeros((4, 2)))

    def test_zero_mode_rejects_nonzero_v_star(self):
        with pytest.raises(ValueError, match="zeros"):
            EraseSpec(np.eye(2), mode=ZERO_TARGET, v_star=np.ones((3, 2)))

    def test_substitute_mode_needs_exactly_one_source(self):
        c = np.eye(2)
        with pytest.raises(ValueError, match="exactly one"):
            EraseSpec(c, mode=SUBSTITUTE_TARGET)
        with pytest.raises(ValueError, match="exactly one"):
            EraseSpec(c, mode=SUBSTITUTE_TARGET, v_star=np.ones((3, 2)), substitutes=c)

    def test_column_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            EraseSpec(np.eye(2), mode=SUBSTITUTE_TARGET, v_star=np.ones((3, 3)))

    def test_no_targets(self):
        with pytest.raises(ValueError, match="no target"):
            EraseSpec(np.zeros((3, 0)), mode=ZERO_TARGET)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            EraseSpec(np.eye(2), mode="anything-else")


class TestAssembleM:
    def test_zero_mode(self):
        spec = EraseSpec(np.eye(3)[:, :2], mode=ZERO_TARGET)
        assert np.array_equal(assemble_m(np.ones((4, 3)), spec), np.zeros((4, 3)))

    def test_rank_one_product(self):
        c = np.array([[1.0], [0.0]])
        spec = EraseSpec(c, mode=SUBSTITUTE_TARGET, v_star=np.array([[2.0], [3.0]]))
        want = np.array([[2.0, 0.0], [3.0, 0.0]])
        assert np.array_equal(assemble_m(np.eye(2), spec), want)

    def test_self_substitute(self):
        rng = np.random.default_rng(0)
        w0 = rng.standard_normal((4, 6))
        c = rng.standard_normal((6, 1))
        spec = EraseSpec(c, mode=SUBSTITUTE_TARGET, substitutes=c)
        assert rel_err(assemble_m(w0, spec), np.outer(w0 @ c[:, 0], c[:, 0])) < 1e-12

    def test_shape_mismatch(self):
        spec = EraseSpec(np.eye(3)[:, :1], mode=ZERO_TARGET)
        with pytest.raises(ValueError, match="does not match"):
            assemble_m(np.ones((2, 4)), spec)


class TestSpectral:
    def test_identity_halving(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3))
        sol = sylvester_solve_spectral(np.ones(3), np.eye(3), m)
        assert rel_err(sol.w_star, m / 2.0) < 1e-12

    def test_diagonal_decoupling(self):
        sol = sylvester_solve_spectral(
            np.array([1.0, 2.0]), np.array([[3.0]]), np.array([[8.0], [10.0]])
        )
        assert np.allclose(sol.w_star, [[2.0], [2.0]])

    def test_accepts_stabilizer(self):
        rng = np.random.default_rng(2)
        stab = assemble_a(0.7, random_spd(rng, 5, lam=0.0), np.zeros((5, 5)))
        m = rng.standard_normal((3, 5))
        b = rng.uniform(0, 1, 3)
        sol = sylvester_solve_spectral(b, stab, m)
        assert sol.residual < 1e-12

    def test_raw_matrix_takes_factors(self):
        rng = np.random.default_rng(24)
        a = random_spd(rng, 6)
        b = rng.uniform(0, 1, 4)
        v_star, c = rng.standard_normal((4, 2)), rng.standard_normal((6, 2))
        got = sylvester_solve_spectral(b, a, (v_star, c))
        want = sylvester_solve_spectral(b, a, v_star @ c.T)
        assert rel_err(got.w_star, want.w_star) < 1e-12
        assert got.residual < 1e-12

    def test_rejects_negative_b(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sylvester_solve_spectral(np.array([-0.1]), np.eye(1), np.eye(1))

    def test_rejects_indefinite_a(self):
        with pytest.raises(ValueError, match="positive definite"):
            sylvester_solve_spectral(np.ones(2), np.diag([1.0, -1.0]), np.ones((2, 2)))

    def test_ill_posed_denominator_guard(self):
        # a is technically PD but the eigenvalue sum falls under the floor
        with pytest.raises(ValueError, match="ill-posed"):
            sylvester_solve_spectral(np.zeros(2), 1e-13 * np.eye(2), np.ones((2, 2)))

    @pytest.mark.parametrize("factored", [True, False], ids=["factored-m", "dense-m"])
    def test_scratch_is_k_wide_products_and_a_sketch(self, factored):
        # beside the edit D, the stabilizer basis V (made before the solve)
        # and at most three d_out-by-k products with V at a time, the
        # residual's sketch takes a few arrays of 16 columns: no block of
        # rows of D (one of 256 rows would be 2 MiB here). The dense M is
        # solved at k = d_in here.
        rng = np.random.default_rng(23)
        d_out, d_in, m = 512, 1024, 8
        c = rng.standard_normal((d_in, m))
        tokens = 4 if factored else d_in // 4
        stab = build_a([rng.standard_normal((tokens, d_in)) for _ in range(4)], c, lam_scale=0.1)
        assert (stab.rank < d_in) == factored
        b = rng.uniform(0.0, 1.0, d_out)
        v_star = rng.standard_normal((d_out, m))
        w0 = rng.standard_normal((d_out, d_in))
        rhs = (v_star, c) if factored else v_star @ c.T
        sylvester_solve_spectral(b, stab, rhs, w0)  # draws the cached sketch matrix
        tracemalloc.start()
        try:
            sol = sylvester_solve_spectral(b, stab, rhs, w0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak - sol.w_star.nbytes
        assert extra <= 3.25 * d_out * stab.rank * 8 + 4 * 16 * (d_in + d_out) * 8
        assert sol.residual < 1e-12

    def test_dense_m_is_solved_at_any_rank(self):
        # a dense M takes the factored M's route, k < d_in included, and
        # matches the Kronecker oracle, unanchored and anchored
        for case in ("k<d_in", "k=d_in"):
            stab, b, m, w0 = anchored_case(*ANCHORED_CASES[case])
            dense_m = m[0] @ m[1].T
            assert (stab.rank < w0.shape[1]) == (case == "k<d_in")
            for anchor in (None, w0):
                rhs = dense_m if anchor is None else shifted_rhs(stab, m, w0)
                want = sylvester_solve_kronecker(b, stab, rhs).w_star
                sol = sylvester_solve_spectral(b, stab, dense_m, anchor)
                assert rel_err(sol.w_star, want) < 1e-10
                factored = sylvester_solve_spectral(b, stab, m, anchor).w_star
                assert rel_err(sol.w_star, factored) < 1e-12
                assert sol.residual < 1e-12

    def test_factors_outside_the_basis_are_solved(self):
        # C off the span of Phi: Woodbury's identity solves the part outside
        # it too, so the dense residual is round-off at every scale of that
        # part, the solve matches the Kronecker oracle, and the estimate
        # reads round-off as well
        stab, b, (v_star, c), w0 = anchored_case(*ANCHORED_CASES["k<d_in"])
        vecs = stab.eig.eigvecs
        rng = np.random.default_rng(6)
        off = rng.standard_normal(c.shape)
        off -= vecs @ np.linalg.lstsq(vecs, off, rcond=None)[0]
        assert np.linalg.norm(vecs.T @ off) < 1e-12 * np.linalg.norm(vecs) * np.linalg.norm(off)
        for scale in (1e-8, 1e-3, 1.0):
            c_off = c + scale * off
            for anchor in (None, w0):
                sol = sylvester_solve_spectral(b, stab, (v_star, c_off), anchor)
                rhs = shifted_rhs(stab, (v_star, c_off), w0 if anchor is not None else 0 * w0)
                dense = b[:, None] * sol.w_star + sol.w_star @ stab.a - rhs
                assert np.linalg.norm(dense) <= 1e-13 * np.linalg.norm(rhs)
                want = sylvester_solve_kronecker(b, stab, rhs).w_star
                assert rel_err(sol.w_star, want) < 1e-10
                assert sol.residual < 1e-13

    @pytest.mark.parametrize("factored", [True, False], ids=["factored-m", "dense-m"])
    def test_raw_a_residual_estimates_the_dense_residual(self, factored):
        # a raw A is multiplied densely in the sketch: A Omega, not V terms
        rng = np.random.default_rng(25)
        a = random_spd(rng, 40)
        b = rng.uniform(0.0, 1.0, 30)
        v_star, c = rng.standard_normal((30, 3)), rng.standard_normal((40, 3))
        m = v_star @ c.T
        sol = sylvester_solve_spectral(b, a, (v_star, c) if factored else m)
        exact = np.linalg.norm(b[:, None] * sol.w_star + sol.w_star @ a - m) / np.linalg.norm(m)
        assert exact / 3.0 <= sol.residual <= 3.0 * exact
        assert sol.residual < 1e-14

    def test_one_perturbed_entry_shows_in_the_estimate(self):
        # the estimate reads the stored D: one entry moved by an amount that
        # gives a dense relative residual of 1e-5 reads above 1e-6
        stab, b, m, w0 = anchored_case(*ANCHORED_CASES["k<d_in"])
        d = sylvester_solve_spectral(b, stab, m, w0).w_star.copy()
        rhs = shifted_rhs(stab, m, w0)
        rhs_omega = rhs @ _sketch(rhs.shape[1])
        den = np.linalg.norm(rhs)
        assert _sketched_residual(b, stab, d, rhs_omega) / den < 1e-13
        op_row = stab.a[5] + b[3] * np.eye(rhs.shape[1])[5]  # row 3 of R moves by eps times this
        d[3, 5] += 1e-5 * den / np.linalg.norm(op_row)
        exact = np.linalg.norm(b[:, None] * d + d @ stab.a - rhs) / den
        assert exact == pytest.approx(1e-5, rel=1e-6)
        estimate = _sketched_residual(b, stab, d, rhs_omega) / den
        assert estimate > 1e-6
        assert exact / 3.0 <= estimate <= 3.0 * exact

    def test_shape_check(self):
        with pytest.raises(ValueError, match="must be"):
            sylvester_solve_spectral(np.ones(2), np.eye(3), np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"1-D .*shape \(2, 2\)"):
            sylvester_solve_spectral(np.eye(2), np.eye(2), np.ones((2, 2)))


def anchored_case(d_in, tokens, m, d_out=7, seed=0):
    """A stabilizer, decoupler, factored M and W0 for one anchored edit.

    The right-hand side's two concepts are random combinations of the
    stabilizer's, so they lie in the span of its basis, as in an edit.
    """
    rng = np.random.default_rng(seed)
    ctx = [rng.standard_normal((tokens, d_in)) for _ in range(m)]
    concepts = 3.0 * rng.standard_normal((d_in, m))
    stab = build_a(ctx, concepts, lam_scale=0.1)
    b = rng.uniform(0.0, 1.0, d_out)
    v_star, c = rng.standard_normal((d_out, 2)), concepts @ rng.standard_normal((m, 2))
    return stab, b, (v_star, c), rng.standard_normal((d_out, d_in))


def shifted_rhs(stab, m, w0):
    """``M' = M - W0 (A - lam I)``, densely: the anchored equation's right-hand side."""
    a = stab.a
    return m[0] @ m[1].T - w0 @ (a - stab.lam * np.eye(a.shape[0]))


# (d_in, tokens, m): k = T + m below and at d_in.
ANCHORED_CASES = {"k<d_in": (30, 2, 3), "k=d_in": (12, 2, 4)}


class TestAnchored:
    """The anchored solve: ``B D + D A = M - W0 (A - lam I)`` for ``D = W - W0``."""

    @pytest.mark.parametrize("case", sorted(ANCHORED_CASES))
    def test_matches_kronecker_on_the_shifted_rhs(self, case):
        stab, b, m, w0 = anchored_case(*ANCHORED_CASES[case])
        rhs = shifted_rhs(stab, m, w0)
        want = sylvester_solve_kronecker(b, stab, rhs).w_star
        for given in (m, m[0] @ m[1].T):
            sol = sylvester_solve_spectral(b, stab, given, w0)
            assert rel_err(sol.w_star, want) < 1e-10
            dense = b[:, None] * sol.w_star + sol.w_star @ stab.a - rhs
            assert abs(sol.residual - np.linalg.norm(dense) / np.linalg.norm(rhs)) < 1e-12
            assert sol.residual < 1e-12

    def test_matches_gradient_descent(self):
        stab, b, m, w0 = anchored_case(24, 1, 3)
        rhs = shifted_rhs(stab, m, w0)
        delta = sylvester_solve_spectral(b, stab, m, w0).w_star
        tol = 1e-6 * max(1.0, float(np.linalg.norm(rhs)))
        got = gd_minimize(stab, b, rhs, OracleConfig(grad_tol=tol))
        assert rel_err(got, delta) < 1e-4

    def test_zero_w0_is_the_unanchored_solve(self):
        stab, b, m, w0 = anchored_case(*ANCHORED_CASES["k<d_in"])
        plain = sylvester_solve_spectral(b, stab, m)
        zero = sylvester_solve_spectral(b, stab, m, np.zeros_like(w0))
        assert np.array_equal(plain.w_star, zero.w_star)
        assert plain.residual == zero.residual

    def test_the_edit_minimizes_the_anchored_objective(self):
        # W = W0 + D beats nearby W on tr(W (S+R) W^T) - 2 tr(W M^T)
        # + lam |W - W0|^2 + tr((W - W0)^T B (W - W0))
        stab, b, m, w0 = anchored_case(*ANCHORED_CASES["k<d_in"])
        s_r = stab.a - stab.lam * np.eye(stab.a.shape[0])
        m_ = m[0] @ m[1].T

        def objective(w):
            d = w - w0
            return (
                np.sum((w @ s_r) * w) - 2.0 * np.sum(w * m_)
                + stab.lam * np.sum(d * d) + np.sum(b[:, None] * d * d)
            )  # fmt: skip

        w = w0 + sylvester_solve_spectral(b, stab, m, w0).w_star
        rng = np.random.default_rng(5)
        best = objective(w)
        for _ in range(50):
            assert best <= objective(w + 1e-3 * rng.standard_normal(w.shape))

    def test_rejects_a_raw_matrix_and_a_misshapen_w0(self):
        stab, b, m, w0 = anchored_case(*ANCHORED_CASES["k=d_in"])
        with pytest.raises(ValueError, match="StabilizerA"):
            sylvester_solve_spectral(b, stab.a, m, w0)
        with pytest.raises(ValueError, match="w0 must be"):
            sylvester_solve_spectral(b, stab, m, w0[:, :-1])


class TestKronecker:
    def test_identity_halving(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((2, 2))
        sol = sylvester_solve_kronecker(np.ones(2), np.eye(2), m)
        assert rel_err(sol.w_star, m / 2.0) < 1e-12

    def test_scalar(self):
        sol = sylvester_solve_kronecker(np.array([2.0]), np.array([[3.0]]), np.array([[10.0]]))
        assert abs(sol.w_star[0, 0] - 2.0) < 1e-14

    def test_residual_small(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 5)
        b = rng.uniform(0, 1, 6)
        m = rng.standard_normal((6, 5))
        assert sylvester_solve_kronecker(b, a, m).residual < 1e-10

    def test_budget_error(self):
        # I (x) B would hold 65^2 * 64^2 > KRON_BUDGET = 2^24 entries (138 MB);
        # the check refuses before the product is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                sylvester_solve_kronecker(np.ones(64), np.eye(65), np.ones((64, 65)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPathAgreement:
    def test_random_instance(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 9)
        b = rng.uniform(0, 1, 12)
        m = rng.standard_normal((12, 9))
        w_s = sylvester_solve_spectral(b, a, m).w_star
        w_k = sylvester_solve_kronecker(b, a, m).w_star
        assert rel_err(w_s, w_k) < 1e-8

    def test_linearity(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 6)
        b = rng.uniform(0, 1, 4)
        m1 = rng.standard_normal((4, 6))
        m2 = rng.standard_normal((4, 6))
        w1 = sylvester_solve_spectral(b, a, m1).w_star
        w2 = sylvester_solve_spectral(b, a, m2).w_star
        w12 = sylvester_solve_spectral(b, a, m1 + m2).w_star
        assert np.linalg.norm(w12 - (w1 + w2)) < 1e-10 * max(np.linalg.norm(w12), 1.0)

    def test_zero_rhs_gives_zero(self):
        rng = np.random.default_rng(8)
        sol = sylvester_solve_spectral(rng.uniform(0, 1, 3), random_spd(rng, 4), np.zeros((3, 4)))
        assert np.array_equal(sol.w_star, np.zeros((3, 4)))
        assert sol.residual == 0.0


class TestObjective:
    def test_zero_weights(self):
        assert objective_value(np.zeros((2, 2)), np.eye(2), np.ones(2), np.ones((2, 2))) == 0.0

    def test_scalar_case(self):
        got = objective_value(
            np.array([[2.0]]), np.array([[3.0]]), np.array([1.0]), np.array([[10.0]])
        )
        assert got == 3.0 * 4.0 + 1.0 * 4.0 - 2.0 * 20.0

    def test_solution_is_stationary(self):
        # value at the solve must undercut nearby points on a fixed grid
        rng = np.random.default_rng(9)
        a = random_spd(rng, 5)
        b = rng.uniform(0, 1, 4)
        m = rng.standard_normal((4, 5))
        w = sylvester_solve_spectral(b, a, m).w_star
        base = objective_value(w, a, b, m)
        for _ in range(200):
            delta = rng.standard_normal(w.shape)
            delta /= np.linalg.norm(delta)
            assert base <= objective_value(w + 1e-2 * delta, a, b, m)


def eq2_objective(w, w0, spec, preserved, lambda1, lambda2):
    v = resolve_v_star(w0, spec) if spec is not None else None
    total = lambda2 * np.linalg.norm(w - w0) ** 2
    if spec is not None:
        total += np.linalg.norm(w @ spec.concepts - v) ** 2
    if preserved is not None:
        total += lambda1 * np.linalg.norm(w @ preserved - w0 @ preserved) ** 2
    return total


def eq2_gd(w0, spec, preserved, lambda1, lambda2, iters=20000):
    """Test-local gradient descent on the anchored least-squares objective."""
    c = spec.concepts if spec is not None else None
    v = resolve_v_star(w0, spec) if spec is not None else None
    w = np.zeros_like(w0)
    # Lipschitz bound over the quadratic term sets a safe fixed step.
    lip = 2.0 * (
        (np.linalg.norm(c, 2) ** 2 if c is not None else 0.0)
        + (lambda1 * np.linalg.norm(preserved, 2) ** 2 if preserved is not None else 0.0)
        + lambda2
    )
    step = 1.0 / lip
    for _ in range(iters):
        grad = 2.0 * lambda2 * (w - w0)
        if c is not None:
            grad += 2.0 * (w @ c - v) @ c.T
        if preserved is not None:
            grad += 2.0 * lambda1 * ((w @ preserved - w0 @ preserved) @ preserved.T)
        w = w - step * grad
    return w


class TestBaselineEq2:
    def test_anchor_only(self):
        rng = np.random.default_rng(10)
        w0 = rng.standard_normal((3, 4))
        assert rel_err(baseline_eq2(w0, None, lambda2=0.5), w0) < 1e-12

    def test_self_map_fixed_point(self):
        rng = np.random.default_rng(11)
        w0 = rng.standard_normal((3, 5))
        c = rng.standard_normal((5, 1))
        spec = EraseSpec(c, mode=SUBSTITUTE_TARGET, substitutes=c)
        preserved = rng.standard_normal((5, 2))
        got = baseline_eq2(w0, spec, preserved, lambda1=2.0, lambda2=0.3)
        assert rel_err(got, w0) < 1e-10

    def test_matches_gradient_descent(self):
        rng = np.random.default_rng(12)
        w0 = rng.standard_normal((4, 6))
        c = rng.standard_normal((6, 2))
        subs = rng.standard_normal((6, 2))
        spec = EraseSpec(c, mode=SUBSTITUTE_TARGET, substitutes=subs)
        preserved = rng.standard_normal((6, 3))
        got = baseline_eq2(w0, spec, preserved, lambda1=1.0, lambda2=0.2)
        oracle = eq2_gd(w0, spec, preserved, 1.0, 0.2)
        assert rel_err(got, oracle) < 1e-4

    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(13)
        w0 = rng.standard_normal((3, 5))
        c = rng.standard_normal((5, 2))
        spec = EraseSpec(c, mode=ZERO_TARGET)
        preserved = rng.standard_normal((5, 2))
        w = baseline_eq2(w0, spec, preserved, lambda1=0.7, lambda2=0.4)
        base = eq2_objective(w, w0, spec, preserved, 0.7, 0.4)
        for _ in range(1000):
            delta = rng.standard_normal(w.shape)
            delta /= np.linalg.norm(delta)
            eps = rng.choice([1e-3, 1e-2, 1e-1])
            assert base <= eq2_objective(w + eps * delta, w0, spec, preserved, 0.7, 0.4)

    def test_parameter_validation(self):
        w0 = np.eye(2)
        with pytest.raises(ValueError, match="lambda1"):
            baseline_eq2(w0, None, lambda1=-1.0)
        with pytest.raises(ValueError, match="lambda2"):
            baseline_eq2(w0, None, lambda2=0.0)
