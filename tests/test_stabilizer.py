import math

import numpy as np
import pytest
from conftest import rel_err

from scapre.harness import SyntheticModelSpec, generate_model
from scapre.pipeline import EditConfig
from scapre.solver import sylvester_solve_spectral
from scapre.stabilizer import (
    _gate_rows,
    assemble_a,
    build_a,
    build_r,
    build_s,
    gate_singular,
    relative_lambda,
)

# The relative ridge rule's default fraction.
SCALE = EditConfig.lam_scale


def naive_s(groups):
    """Reference accumulation, one outer product at a time."""
    d = groups[0].shape[1]
    s = np.zeros((d, d))
    for g in groups:
        for t in range(g.shape[0]):
            s += np.outer(g[t], g[t])
    return s


class TestBuildS:
    def test_single_token(self):
        s = build_s([np.array([[1.0, 0.0]])])
        assert np.array_equal(s, [[1.0, 0.0], [0.0, 0.0]])

    def test_orthonormal_pair(self):
        s = build_s([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
        assert np.array_equal(s, np.eye(2))

    def test_matches_naive_accumulation(self):
        rng = np.random.default_rng(0)
        groups = [rng.standard_normal((3, 16)) for _ in range(5)]
        assert np.linalg.norm(build_s(groups) - naive_s(groups)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="feature length"):
            build_s([np.zeros((1, 3)) + 1, np.ones((1, 4))])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            build_s([])


class TestGate:
    def test_zero(self):
        assert gate_singular([0.0])[0] == 0.0

    def test_direct_formula(self):
        sigma = 2.0
        want = (1.0 - 1.0 / (1.0 + math.exp(-sigma))) * sigma
        assert abs(gate_singular([sigma])[0] - want) < 1e-12
        assert abs(want - 0.238406) < 1e-6

    def test_large_value_suppressed(self):
        got = gate_singular([10.0])[0]
        assert abs(got - 10.0 / (1.0 + math.exp(10.0))) < 1e-12
        assert got < 1e-3

    def test_monotone_bounded(self):
        rng = np.random.default_rng(1)
        sigma = rng.uniform(0.0, 50.0, 500)
        gated = gate_singular(sigma)
        assert (gated >= 0.0).all() and (gated <= sigma).all()
        assert (gated[sigma >= 10.0] < 1e-3).all()

    def test_huge_value_no_overflow(self):
        assert gate_singular([1e4])[0] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gate_singular([-0.1])


class TestBuildR:
    def test_rank_one(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal(6)
        c *= 2.0 / np.linalg.norm(c)
        u = c / 2.0
        want = gate_singular([2.0])[0] * np.outer(u, u)
        assert np.linalg.norm(build_r(c[:, None]) - want) < 1e-12

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError, match="zero column"):
            build_r(np.zeros((4, 1)))

    def test_two_orthogonal_unit_concepts(self):
        c = np.eye(5)[:, :2]
        g1 = 1.0 - 1.0 / (1.0 + math.exp(-1.0))
        want = g1 * (np.outer(c[:, 0], c[:, 0]) + np.outer(c[:, 1], c[:, 1]))
        assert np.linalg.norm(build_r(c) - want) < 1e-12
        assert abs(g1 - 0.268941) < 1e-6

    def test_rank_bound(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((12, 4))
        r = build_r(c)
        vals = np.linalg.eigvalsh(r)
        assert (vals > 1e-10 * vals.max()).sum() <= 4


class TestAssembleA:
    def test_identity(self):
        stab = assemble_a(1.0, np.zeros((3, 3)), np.zeros((3, 3)))
        assert np.array_equal(stab.a, np.eye(3))

    def test_diagonal_sum(self):
        stab = assemble_a(0.1, np.diag([1.0, 0.0]), np.zeros((2, 2)))
        assert np.allclose(stab.a, np.diag([1.1, 0.1]))

    def test_min_eigenvalue_floor(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(2, 20))
            ctx = [rng.standard_normal((int(rng.integers(1, 4)), d)) for _ in range(3)]
            c = rng.standard_normal((d, 2))
            lam = float(rng.uniform(0.05, 2.0))
            stab = assemble_a(lam, build_s(ctx), build_r(c))
            assert stab.eig.eigvals.min() >= lam - 1e-8

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError, match="positive"):
            assemble_a(0.0, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rejects_indefinite_sum(self):
        with pytest.raises(ValueError, match="semidefinite"):
            assemble_a(0.5, np.diag([-2.0, 0.0]), np.zeros((2, 2)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            assemble_a(1.0, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


class TestPsdProperties:
    def test_s_and_r_psd_on_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(2, 24))
            m = int(rng.integers(1, 6))
            ctx = [
                rng.standard_normal((int(rng.integers(1, 5)), d)) * rng.uniform(0.1, 10)
                for _ in range(m)
            ]
            s = build_s(ctx)
            r = build_r(rng.standard_normal((d, m)) * rng.uniform(0.1, 10))
            for x in (s, r):
                vals = np.linalg.eigvalsh(x)
                assert vals.min() >= -1e-10 * max(abs(vals).max(), 1e-300)


class TestRelativeLambda:
    def test_scales_with_mean_diagonal(self):
        s = np.diag([2.0, 4.0])
        assert relative_lambda(s, 0.1) == pytest.approx(0.1 * 3.0)
        assert relative_lambda(s, scale=0.5) == pytest.approx(1.5)

    def test_rejects_zero_trace(self):
        with pytest.raises(ValueError, match="positive trace"):
            relative_lambda(np.zeros((3, 3)), SCALE)


def factored_case(d_in, tokens, m, d_out=5, seed=0, stack=None):
    """Contexts, concepts, decoupler and right-hand side for one edit system.

    The right-hand side is ``M = V* C^T`` as its factors, with the columns
    of ``C`` random combinations of the concepts, so in the basis's span.
    ``stack`` makes the token stack exactly rank deficient: ``"duplicated"``
    repeats every group's tokens, ``"zero"`` zeroes the first token, which
    leaves the QR's first column zero and its first reflector the identity
    (LAPACK's tau = 0).
    """
    rng = np.random.default_rng(seed)
    ctx = [rng.standard_normal((tokens, d_in)) for _ in range(m)]
    if stack == "duplicated":
        ctx = [np.vstack([g, g, g[:1]]) for g in ctx]
    elif stack == "zero":
        ctx[0][0] = 0.0
    c = 3.0 * rng.standard_normal((d_in, m))
    rhs = rng.standard_normal((d_out, 2)), c @ rng.standard_normal((m, 2))
    return ctx, c, rng.uniform(0.0, 1.0, d_out), rhs


def dense_reference(ctx, c, lam=None):
    s = build_s(ctx)
    return assemble_a(lam if lam is not None else relative_lambda(s, SCALE), s, build_r(c))


# (d_in, tokens, m, stack, absolute lam): k = min(d_in, T + m) below,
# at and above d_in, rank-deficient token stacks, and an absolute ridge.
FACTORED_CASES = {
    "k<d_in": (40, 2, 3, None, None),
    "k=d_in": (12, 2, 4, None, None),
    "k>d_in": (10, 4, 3, None, None),
    "duplicated-tokens": (30, 2, 3, "duplicated", None),
    "zero-token": (30, 2, 3, "zero", None),
    "absolute-lam": (30, 2, 3, None, 0.37),
}


class TestBuildA:
    @pytest.mark.parametrize("case", sorted(FACTORED_CASES))
    def test_solve_matches_dense_route(self, case):
        d_in, tokens, m, stack, lam = FACTORED_CASES[case]
        ctx, c, b, rhs = factored_case(d_in, tokens, m, stack=stack)
        stab = build_a(ctx, c, lam, SCALE)
        dense = dense_reference(ctx, c, lam)
        assert stab.rank == min(d_in, sum(g.shape[0] for g in ctx) + m)
        # an orthonormal V where it spans d_in; below that Phi, whose Gram
        # is diag(eigvals - lam), so that Phi Phi^T = A - lam I
        vecs, vals = stab.eig
        if stab.rank == d_in:
            assert np.abs(vecs.T @ vecs - np.eye(d_in)).max() <= 1e-13
        else:
            assert np.abs(vecs.T @ vecs - np.diag(vals - stab.lam)).max() <= 1e-14 * vals.max()
        assert stab.lam == pytest.approx(dense.lam, rel=1e-14)
        assert rel_err(stab.a, dense.a) < 1e-12
        got = sylvester_solve_spectral(b, stab, rhs)
        want = sylvester_solve_spectral(b, dense, rhs)
        assert rel_err(got.w_star, want.w_star) < 1e-10
        assert got.residual < 1e-12
        assert got.min_denominator == pytest.approx(want.min_denominator, rel=1e-12)

    def test_basis_spans_the_concepts_when_the_gates_underflow(self):
        # every gate is 0 at singular values past 709, and the contexts miss
        # the concepts: span(Phi) misses them too, yet the solve's basis
        # [C | Phi] holds them, and the solve is exact, since Woodbury's
        # identity gives the part of C outside span(Phi) the complement's 1/c
        rng = np.random.default_rng(3)
        ctx = [rng.standard_normal((2, 30)) for _ in range(3)]
        c = 800.0 * np.linalg.qr(rng.standard_normal((30, 3)))[0]
        stab = build_a(ctx, c, lam_scale=SCALE)
        dense = dense_reference(ctx, c)
        assert stab.rank == 9
        assert np.array_equal(stab.rows[:3], c.T)
        u, sigma, _ = np.linalg.svd(stab.eig.eigvecs, full_matrices=False)
        span = u[:, sigma > 1e-10 * sigma[0]]
        assert np.linalg.norm(c - span @ (span.T @ c)) >= 0.5 * np.linalg.norm(c)
        assert rel_err(stab.a, dense.a) < 1e-12
        b = rng.uniform(0.0, 1.0, 5)
        rhs = rng.standard_normal((5, 3)), c
        got = sylvester_solve_spectral(b, stab, rhs)
        want = sylvester_solve_spectral(b, dense, rhs[0] @ c.T)
        assert rel_err(got.w_star, want.w_star) < 1e-12
        assert got.residual < 1e-12

    @pytest.mark.parametrize("case", ["k<d_in", "k>d_in"])
    def test_factored_rhs_matches_dense_rhs(self, case):
        # M = V* C^T with C in the span of the stabilizer's concepts, against
        # the dense reference's full eigenbasis; a dense M is solved at any
        # rank, where k < d_in by the same Woodbury route
        d_in, tokens, m, _, lam = FACTORED_CASES[case]
        ctx, c, b, (v_star, c_rhs) = factored_case(d_in, tokens, m)
        stab = build_a(ctx, c, lam, SCALE)
        rhs = v_star @ c_rhs.T
        got = sylvester_solve_spectral(b, stab, (v_star, c_rhs))
        want = sylvester_solve_spectral(b, dense_reference(ctx, c, lam), rhs)
        assert rel_err(got.w_star, want.w_star) < 1e-12
        assert got.residual < 1e-12
        assert (stab.rank < d_in) == (case == "k<d_in")
        assert rel_err(sylvester_solve_spectral(b, stab, rhs).w_star, want.w_star) < 1e-12
        with pytest.raises(ValueError, match="do not multiply"):
            sylvester_solve_spectral(b, stab, (v_star, c_rhs[:-1]))

    def test_zero_target_solves_to_zero(self):
        ctx, c, b, (v_star, c_rhs) = factored_case(30, 2, 3)
        stab = build_a(ctx, c, lam_scale=SCALE)
        sol = sylvester_solve_spectral(b, stab, (np.zeros_like(v_star), c_rhs))
        assert np.array_equal(sol.w_star, np.zeros((b.size, 30)))
        assert sol.residual == 0.0

    def test_spectrum_matches_dense_eigenvalues(self):
        for case in FACTORED_CASES.values():
            d_in, tokens, m, stack, lam = case
            ctx, c, _, _ = factored_case(d_in, tokens, m, seed=1, stack=stack)
            stab = build_a(ctx, c, lam, SCALE)
            vals = np.linalg.eigvalsh(dense_reference(ctx, c, lam).a)
            assert stab.eig_min == pytest.approx(vals.min(), rel=1e-12)
            assert stab.eig_max == pytest.approx(vals.max(), rel=1e-12)
            assert stab.eig_min >= stab.lam - 1e-8

    def test_times_is_the_dense_product(self):
        ctx, c, _, _ = factored_case(40, 2, 3)
        stab = build_a(ctx, c, lam_scale=SCALE)
        w = np.random.default_rng(1).standard_normal((5, 40))
        assert rel_err(stab.times(w), w @ dense_reference(ctx, c).a) < 1e-13

    def test_rejects_zero_context_energy(self):
        with pytest.raises(ValueError, match="positive trace"):
            build_a([np.zeros((2, 4))], np.ones((4, 1)), lam_scale=SCALE)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError, match="positive"):
            build_a([np.ones((2, 4))], np.ones((4, 1)), lam=0.0)

    def test_needs_a_ridge(self):
        with pytest.raises(ValueError, match="no ridge given"):
            build_a([np.ones((2, 4))], np.ones((4, 1)))

    def test_rejects_infinite_ridge(self):
        # an infinite ridge solves to all-zero weights, so it is no ridge
        ctx, c = [np.ones((2, 4))], np.ones((4, 1))
        with pytest.raises(ValueError, match="lam must be finite"):
            build_a(ctx, c, lam=np.inf)
        with pytest.raises(ValueError, match="finite positive lam_scale"):
            build_a(ctx, c, lam_scale=np.inf)
        with pytest.raises(ValueError, match="finite positive lam_scale"):
            relative_lambda(np.eye(4), scale=np.inf)
        with pytest.raises(ValueError, match="lam must be finite"):
            assemble_a(np.inf, np.eye(4), np.zeros((4, 4)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            build_a([np.ones((2, 4))], np.ones((5, 1)))


def confusable_concepts(tokens, duplicate):
    """Contexts and concepts at pairwise similarity 0.999, d_in = 256.

    The concepts' smallest singular values are about 0.32, where the gate is
    about 0.13 against a ridge of about 0.55. ``duplicate`` appends an exact
    copy of the first concept (with its contexts): a singular value of 0.
    """
    spec = SyntheticModelSpec(
        d_in=256, d_out=128, m_targets=20, similarity=0.999, tokens_per_concept=tokens, seed=3
    )
    model = generate_model(spec)
    c, ctx = model.erase_spec.concepts, list(model.contexts)
    if duplicate:
        c, ctx = np.hstack([c, c[:, :1]]), ctx + ctx[:1]
    return ctx, c


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGateFromGram:
    # the gate comes from the m x m Gram, not an SVD: checked where it is
    # not inert, in both branches of build_a, and at a singular value of 0
    @pytest.mark.parametrize("duplicate", [False, True])
    @pytest.mark.parametrize("tokens", [1, 12])  # k = 2m < d_in, and T + m >= d_in
    def test_stabilizer_matches_the_svd_route(self, tokens, duplicate):
        ctx, c = confusable_concepts(tokens, duplicate)
        sigma = np.linalg.svd(c, compute_uv=False)
        stab = build_a(ctx, c, lam_scale=SCALE)
        assert stab.rank == (256 if tokens == 12 else 2 * c.shape[1])
        assert gate_singular(sigma).max() > 0.2 * stab.lam
        assert (sigma[-1] < 1e-12) == duplicate
        s = build_s(ctx)
        dense = assemble_a(stab.lam, s, build_r(c))
        assert rel_err(stab.a, dense.a) < 1e-12
        # the gate shows at that tolerance: A without R is far off
        assert rel_err(assemble_a(stab.lam, s, np.zeros_like(s)).a, dense.a) > 1e-5

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_gate_term_matches_build_r(self, duplicate):
        # the Gram of the gate rows is R, from C itself and, rotated back,
        # from its QR triangle T_C (C = Q T_C: the rows are rotation
        # equivariant); the Gram squares the condition number, so the term
        # keeps about (sigma_max / sigma_min)^2 * eps
        _, c = confusable_concepts(1, duplicate)
        q, t = np.linalg.qr(c)
        want = build_r(c)
        rows, rotated = _gate_rows(c), _gate_rows(t) @ q.T
        assert rel_err(rows.T @ rows, want) < 1e-10
        assert rel_err(rotated.T @ rotated, want) < 1e-10

    def test_zero_singular_values_contribute_nothing(self):
        # an all-duplicate set has one nonzero singular value; the Gram's
        # round-off eigenvalues, of either sign, add nothing
        c = np.repeat(np.linspace(0.1, 0.3, 6)[:, None], 4, axis=1)
        sigma = np.linalg.norm(c)
        want = gate_singular(sigma)[0] * np.outer(c[:, 0], c[:, 0]) / np.vdot(c[:, 0], c[:, 0])
        rows = _gate_rows(c)
        assert rel_err(rows.T @ rows, want) < 1e-12
        assert not rows[1:].any()

