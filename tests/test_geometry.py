import warnings

import numpy as np
import pytest

from scapre import geometry
from scapre.geometry import (
    BW_GEODESIC,
    RankDeficiencyWarning,
    bures_distance,
    geodesic_interpolate,
    refine_weights,
)
from scapre.matkernel import procrustes, sym_eig


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def random_psd(rng, n, rank=None):
    g = rng.standard_normal((n, rank or n))
    return g @ g.T


def random_orthonormal(rng, p, q):
    m, _ = np.linalg.qr(rng.standard_normal((p, q)))
    return m


def gram(w):
    return (w @ w.T + (w @ w.T).T) / 2.0


def factor_bures(w_star, w0):
    """|W*|^2 + |W0|^2 - 2 |W*^T W0|_*, with a dense d_in-by-d_in SVD."""
    nuclear = np.linalg.svd(w_star.T @ w0, compute_uv=False).sum()
    return np.sum(w_star * w_star) + np.sum(w0 * w0) - 2.0 * nuclear


def dense_transport(w_star, w0, beta):
    """``((1-beta) I + beta T) w_star`` from d_out-by-d_out roots: the oracle.

    This is what ``refine_weights`` computes at rank r.
    ``T = S^{+1/2} (S^{1/2} Z S^{1/2})^{1/2} S^{+1/2}`` is the optimal
    transport map from ``S = w_star w_star^T`` to ``Z = w0 w0^T``, with
    ``S`` pseudo-inverted at the 1e-12 rank cut; every root comes from
    ``np.linalg.eigh``.
    """
    sigma_star, sigma_zero = gram(w_star), gram(w0)
    vals, vecs = np.linalg.eigh(sigma_star)
    vals = np.clip(vals, 0.0, None)
    keep = vals > 1e-12 * vals.max()
    root = (vecs * np.sqrt(vals)) @ vecs.T
    inv_root = (vecs[:, keep] / np.sqrt(vals[keep])) @ vecs[:, keep].T
    inner = root @ sigma_zero @ root
    cross_vals, cross_vecs = np.linalg.eigh((inner + inner.T) / 2.0)
    cross = (cross_vecs * np.sqrt(np.clip(cross_vals, 0.0, None))) @ cross_vecs.T
    return (1.0 - beta) * w_star + beta * (inv_root @ cross @ inv_root @ w_star)


def dense_refinement(w_star, w0, beta):
    """The re-factor route on d_out-by-d_out covariances: a second oracle.

    Interpolates with ``geodesic_interpolate``, eigen-factors the result
    above the 1e-12 rank cut, rotates the factor onto ``w_star`` with
    ``procrustes`` and measures both distances with ``bures_distance``.
    Where the interpolated covariance has the full rank r of ``w_star``,
    the aligned factor is the transport map applied to ``w_star``, because
    ``w_star^T T w_star`` is symmetric PSD.
    """
    sigma_star, sigma_zero = gram(w_star), gram(w0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        sigma_plus = geodesic_interpolate(sigma_star, sigma_zero, beta)
    dec = sym_eig(sigma_plus)
    vals = np.clip(dec.eigvals, 0.0, None)
    keep = vals > 1e-12 * vals.max()
    factor = dec.eigvecs[:, keep] * np.sqrt(vals[keep])
    w = factor @ procrustes(w_star.T @ factor).T
    return {
        "w": w,
        "sigma_plus": sigma_plus,
        "rank": int(keep.sum()),
        "bures_before": bures_distance(sigma_star, sigma_zero),
        "bures_after": bures_distance(gram(w), sigma_zero),
    }


class TestBuresDistance:
    def test_coincident(self):
        rng = np.random.default_rng(0)
        s = random_psd(rng, 5)
        assert bures_distance(s, s) < 1e-8 * np.trace(s)

    def test_commuting_diagonal_pair(self):
        assert abs(bures_distance(np.diag([1.0, 4.0]), np.diag([4.0, 1.0])) - 2.0) < 1e-12

    def test_commuting_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            q = random_orthonormal(rng, n, n)
            a = rng.uniform(0, 5, n)
            b = rng.uniform(0, 5, n)
            got = bures_distance((q * a) @ q.T, (q * b) @ q.T)
            want = np.sum((np.sqrt(a) - np.sqrt(b)) ** 2)
            assert abs(got - want) < 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            s1, s2 = random_psd(rng, n), random_psd(rng, n)
            assert abs(bures_distance(s1, s2) - bures_distance(s2, s1)) < 1e-8

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="PSD"):
            bures_distance(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            bures_distance(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))


class TestGeodesicInterpolate:
    def test_beta_zero_returns_start(self):
        rng = np.random.default_rng(3)
        s = random_psd(rng, 6)
        z = random_psd(rng, 6)
        assert rel_err(geodesic_interpolate(s, z, 0.0), s) < 1e-10

    def test_bw_geodesic_endpoint_is_reference(self):
        rng = np.random.default_rng(4)
        s = random_psd(rng, 5) + 0.5 * np.eye(5)
        z = random_psd(rng, 5) + 0.5 * np.eye(5)
        assert rel_err(geodesic_interpolate(s, z, 1.0), z) < 1e-6

    def test_output_symmetric_psd(self):
        rng = np.random.default_rng(5)
        s = random_psd(rng, 6) + 0.1 * np.eye(6)
        z = random_psd(rng, 6)
        out = geodesic_interpolate(s, z, 0.7)
        assert np.allclose(out, out.T)
        assert np.linalg.eigvalsh(out).min() > -1e-8 * np.linalg.norm(out)

    def test_singular_start_warns_in_bw_mode(self):
        rng = np.random.default_rng(6)
        s = random_psd(rng, 6, rank=2)
        z = random_psd(rng, 6)
        with pytest.warns(RankDeficiencyWarning):
            out = geodesic_interpolate(s, z, 0.5)
        assert np.isfinite(out).all()

    def test_validates_beta(self):
        s = np.eye(2)
        with pytest.raises(ValueError, match="beta"):
            geodesic_interpolate(s, s, 1.5)
        with pytest.raises(ValueError, match="beta"):
            refine_weights(s, s, -0.1)


class TestRefineWeights:
    def test_beta_zero_fixed_point(self):
        rng = np.random.default_rng(7)
        w_star = rng.standard_normal((5, 12))
        w0 = rng.standard_normal((5, 12))
        res = refine_weights(w_star, w0, 0.0)
        assert rel_err(res.w, w_star) < 1e-8
        assert not res.degenerate

    def test_beta_zero_is_a_no_op(self):
        # W* of rank 2 in 12 rows: at beta > 0 the transport map
        # pseudo-inverts on the range, at beta = 0 nothing is interpolated
        rng = np.random.default_rng(20)
        w_star = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 9))
        w0 = rng.standard_normal((12, 9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = refine_weights(w_star, w0, 0.0)
        assert np.array_equal(res.w, w_star)
        assert res.bures_after == res.bures_before
        assert abs(res.bures_before - factor_bures(w_star, w0)) <= 1e-12 * res.bures_before
        assert (res.rank, res.degenerate) == (2, False)
        assert res.realization_gap == 0.0
        assert res.basis.shape == (12, 2)
        assert rel_err(res.sigma_plus, gram(w_star)) < 1e-14

    def test_zero_edit_degenerates(self):
        w0 = np.random.default_rng(8).standard_normal((3, 6))
        with pytest.warns(RankDeficiencyWarning):
            res = refine_weights(np.zeros((3, 6)), w0, 0.5)
        assert np.array_equal(res.w, np.zeros((3, 6)))
        assert res.degenerate and res.rank == 0
        assert res.bures_after == np.sum(w0 * w0)  # Bures(0, W0 W0^T) = |W0|^2

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_in_place_writes_the_same_weights_over_w_star(self, beta):
        # more rows than one block of the lift, so its seams are covered
        rng = np.random.default_rng(22)
        w_star = rng.standard_normal((600, 3)) @ rng.standard_normal((3, 40))
        w0 = rng.standard_normal((600, 40))
        kept = w_star.copy()
        want = refine_weights(w_star, w0, beta)
        assert np.array_equal(w_star, kept)  # by default w_star is left alone
        got = refine_weights(w_star, w0, beta, in_place=True)
        assert got.w is w_star
        assert np.array_equal(got.w, want.w)
        assert (got.bures_after, got.rank) == (want.bures_after, want.rank)

    def test_in_place_zero_edit_and_layout(self):
        w0 = np.random.default_rng(8).standard_normal((3, 6))
        w_star = np.zeros((3, 6))
        with pytest.warns(RankDeficiencyWarning):
            assert refine_weights(w_star, w0, 0.5, in_place=True).w is w_star
        with pytest.raises(ValueError, match="in_place"):
            refine_weights(np.asfortranarray(np.ones((3, 6))), w0, 0.5, in_place=True)

    def test_covariance_realization(self):
        rng = np.random.default_rng(9)
        w_star = rng.standard_normal((8, 16))
        w0 = rng.standard_normal((8, 16))
        res = refine_weights(w_star, w0, 0.5)
        gap = np.linalg.norm(res.w @ res.w.T - res.sigma_plus)
        assert gap <= 1e-8 * np.linalg.norm(res.sigma_plus)
        assert res.realization_gap <= 1e-8

    def test_procrustes_optimality_oracle(self):
        # refined factor beats 1000 random rotations of the same factor
        rng = np.random.default_rng(10)
        w_star = rng.standard_normal((8, 16))
        w0 = rng.standard_normal((8, 16))
        res = refine_weights(w_star, w0, 0.5)
        vals, vecs = np.linalg.eigh(res.sigma_plus)
        keep = vals > 1e-12 * vals.max()
        factor = vecs[:, keep] * np.sqrt(vals[keep])
        best = np.linalg.norm(res.w - w_star)
        for _ in range(1000):
            q = random_orthonormal(rng, 16, int(keep.sum()))
            assert best <= np.linalg.norm(factor @ q.T - w_star) + 1e-10

    def test_low_rank_edit_uses_reduced_factor(self):
        # null covariance directions drop out: the map works at rank 1
        rng = np.random.default_rng(11)
        w_star = np.zeros((4, 8))
        w_star[0] = rng.standard_normal(8)  # rank-1 edit
        w0 = rng.standard_normal((4, 8))
        # rank 1 of 4 is the normal regime: the pseudo-inverse does not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = refine_weights(w_star, w0, 0.5)
        assert res.rank == 1 and res.basis.shape == (4, 1)
        assert res.realization_gap <= 1e-8

    def test_bures_before_is_bures_distance(self):
        # bures_before comes from the factor identity; the dense roots of
        # bures_distance take square roots of the round-off spectrum on the
        # null space of W* W*^T, so they agree only to about sqrt(eps)
        rng = np.random.default_rng(12)
        w0 = rng.standard_normal((6, 10))
        full = rng.standard_normal((6, 10))
        rank_one = np.outer(rng.standard_normal(6), rng.standard_normal(10))
        for w_star in (full, rank_one):
            want = factor_bures(w_star, w0)
            dense = bures_distance(gram(w_star), gram(w0))
            scale = np.sum(w_star * w_star) + np.sum(w0 * w0)
            for beta in (0.0, 0.5):
                got = refine_weights(w_star, w0, beta).bures_before
                assert abs(got - want) <= 1e-12 * want
                assert abs(got - dense) <= 2e-8 * scale

    def test_bures_after_rank_deficient_commuting_closed_form(self):
        # W* = Q diag(a) P^T and W0 = Q diag(b) R^T share left vectors, so at
        # beta=0 the distance is sum (a - b)^2; a has zeros (rank-deficient
        # edit). Dense, and in the column space of W* from a factor of
        # rank + 1 < d_out columns.
        rng = np.random.default_rng(13)
        for rank in (1, 2, 4):
            q = random_orthonormal(rng, 6, 6)
            a = np.zeros(6)
            a[:rank] = rng.uniform(0.5, 3.0, rank)
            b = rng.uniform(0.5, 3.0, 6)
            p = random_orthonormal(rng, 10, 6)
            w_star = (q * a) @ p.T
            w0 = (q * b) @ random_orthonormal(rng, 10, 6).T
            want = np.sum((a - b) ** 2)
            span = np.hstack([p[:, :rank], rng.standard_normal((10, 1))])
            for factor in (None, orthonormal_factor(w_star, span)):
                got = refine_weights(w_star, w0, 0.0, factor=factor).bures_after
                assert abs(got - want) <= 1e-12 * want

    def test_bures_after_matches_dense_distance(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            w_star = rng.standard_normal((6, 10))
            w0 = rng.standard_normal((6, 10))
            sigma_zero = (w0 @ w0.T + (w0 @ w0.T).T) / 2.0
            res = refine_weights(w_star, w0, 0.5)
            sigma_after = (res.w @ res.w.T + (res.w @ res.w.T).T) / 2.0
            want = bures_distance(sigma_after, sigma_zero)
            scale = np.trace(sigma_after) + np.trace(sigma_zero)
            assert abs(res.bures_after - want) <= 1e-10 * scale

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            refine_weights(np.ones((2, 3)), np.ones((3, 2)), 0.5)


def orthonormal_factor(w_star, span):
    """``(W* R, R)`` for ``R`` an orthonormal basis of ``span`` (min(p, d_in) columns)."""
    right = np.linalg.qr(span)[0]
    return w_star @ right, right


def spanned_edit(rng, d_out, d_in, p):
    """A random W* whose rows lie in the span of a random d_in-by-p matrix, and its factor."""
    span = rng.standard_normal((d_in, p))
    w_star = rng.standard_normal((d_out, p)) @ span.T
    return w_star, orthonormal_factor(w_star, span)


class TestColumnSpaceRoute:
    # (d_out, d_in, p) with p < d_out; in "tall-span-past-d_in" the span has
    # more columns than d_in, so its orthonormal basis has only d_in
    SHAPES = {"wide": (8, 20, 5), "tall": (12, 6, 4), "tall-span-past-d_in": (12, 6, 8)}

    @staticmethod
    def check_against_dense(w_star, w0, beta, transport, factor, tol, bures_tol):
        """Compare with and without ``factor``; returns the basis width.

        The weights must match the dense ``transport`` oracle to 1e-12, and also
        the re-factor route wherever the interpolated covariance keeps the
        full rank r of ``w_star``.
        """
        want_w = transport(w_star, w0, beta)
        want = dense_refinement(w_star, w0, beta)
        scale = np.sum(w_star * w_star) + np.sum(w0 * w0)
        scale_after = np.sum(want_w * want_w) + np.sum(w0 * w0)
        exact_before = factor_bures(w_star, w0)
        widths = set()
        for fac in (factor, None):
            got = refine_weights(w_star, w0, beta, factor=fac)
            widths.add(got.basis.shape[1])
            if beta == 0.0:
                assert np.array_equal(got.w, w_star)
                assert got.bures_after == got.bures_before
            else:
                assert rel_err(got.w, want_w) < 1e-12
                if want["rank"] == got.basis.shape[1]:
                    assert rel_err(got.w, want["w"]) < 1e-12
                # like bures_before, bures_after misses the singular values
                # below sqrt(eps) that the cut drops; the map keeps them in w
                exact_after = factor_bures(want_w, w0)
                assert abs(got.bures_after - exact_after) <= bures_tol * exact_after
            assert rel_err(got.sigma_plus, want["sigma_plus"]) < tol
            assert abs(got.bures_before - exact_before) <= bures_tol * exact_before
            # bures_distance's dense roots are good to about sqrt(eps) of the traces
            assert abs(got.bures_before - want["bures_before"]) <= 2e-8 * scale
            assert abs(got.bures_after - want["bures_after"]) <= 2e-8 * scale_after
            assert got.rank == want["rank"]
            assert got.realization_gap <= 1e-8
        (width,) = widths
        return width

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("transport", [dense_transport], ids=[BW_GEODESIC])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_matches_dense_route(self, shape, transport, beta):
        d_out, d_in, p = self.SHAPES[shape]
        rng = np.random.default_rng(15)
        w_star, factor = spanned_edit(rng, d_out, d_in, p)
        w0 = rng.standard_normal((d_out, d_in))
        width = self.check_against_dense(w_star, w0, beta, transport, factor, 1e-12, 1e-12)
        assert width == np.linalg.matrix_rank(w_star) == min(p, d_in)

    @pytest.mark.parametrize("transport", [dense_transport], ids=[BW_GEODESIC])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_wide_2048_spectrum(self, transport, beta):
        # the singular values of W* measured on the 2048x1024, m=100 edit,
        # relative to the largest, then round-off noise: Lam = 1, 7.9e-5 and
        # 6.3e-14 lie above eps, the rest below; the last of the three is
        # below the 1e-12 rank cut, so sigma_plus has rank 2 < r = 3 and the
        # re-factor route drops a direction the map keeps, scaled by 1 - beta
        rng = np.random.default_rng(21)
        d_out, d_in, p = 40, 60, 12
        sv = np.array([1.0, 8.9e-3, 2.5e-7, 8.8e-10, 4.5e-13] + [6e-15] * (p - 5))
        v = random_orthonormal(rng, d_in, p)
        w_star = (random_orthonormal(rng, d_out, p) * sv) @ v.T
        factor = orthonormal_factor(w_star, v @ rng.standard_normal((p, p)))
        w0 = rng.standard_normal((d_out, d_in)) / np.sqrt(d_in)
        # the cut drops singular values below sqrt(eps) of the largest, whose
        # share of |W*^T W0|_* leaves bures_before ~5e-11 off
        width = self.check_against_dense(w_star, w0, beta, transport, factor, 2e-12, 1e-10)
        assert width == 3

    def test_span_as_wide_as_d_out_is_the_dense_route(self):
        rng = np.random.default_rng(16)
        w_star, factor = spanned_edit(rng, 6, 20, 6)
        w0 = rng.standard_normal((6, 20))
        res = refine_weights(w_star, w0, 0.5, factor=factor)
        # p >= d_out: the factor goes unused, and the Gram matrix W* W*^T gives the basis
        assert res.basis.shape == (6, 6)
        assert np.array_equal(res.w, refine_weights(w_star, w0, 0.5).w)

    def test_rejects_a_span_missing_the_rows(self):
        rng = np.random.default_rng(19)
        w_star, (left, right) = spanned_edit(rng, 12, 6, 3)
        w0 = rng.standard_normal((12, 6))
        with pytest.raises(ValueError, match="row space"):
            refine_weights(w_star, w0, 0.5, factor=(left[:, :2], right[:, :2]))
        with pytest.raises(ValueError, match="does not fit"):
            refine_weights(w_star, w0, 0.5, factor=(left, right[:5]))

    @pytest.mark.parametrize("d_out", [12, 4], ids=["p<d_out", "p>=d_out"])
    def test_factor_guard_is_two_sided(self, d_out):
        # |w_star|^2 and |w_star R|^2 must agree to 1e-8 on both sides, at
        # every width: the p >= d_out case leaves the factor unused but still checks it
        rng = np.random.default_rng(20)
        w_star, (left, right) = spanned_edit(rng, d_out, 10, 6)
        w0 = rng.standard_normal((d_out, 10))
        want = refine_weights(w_star, w0, 0.5).w
        assert rel_err(refine_weights(w_star, w0, 0.5, factor=(left, right)).w, want) < 1e-12
        for scale in (1.01, 0.99):
            with pytest.raises(ValueError, match="row space"):
                refine_weights(w_star, w0, 0.5, factor=(scale * left, right))
        with pytest.raises(ValueError, match="row space"):
            refine_weights(w_star, w0, 0.5, factor=(left[:, 1:], right[:, 1:]))


class TestRangeFinder:
    # W* of rank 3 in 10 rows whose 8 columns repeat three
    EDITS = {
        "full-rank-wide": lambda rng: rng.standard_normal((6, 10)),
        "full-rank-tall": lambda rng: rng.standard_normal((12, 5)),
        "duplicated-columns": lambda rng: rng.standard_normal((10, 3))[:, [0, 1, 1, 2, 0, 2, 2, 1]],
    }

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_no_eigendecomposition_of_a_gram_matrix(self, monkeypatch, beta):
        def refuse(*args, **kwargs):
            raise AssertionError("refine_weights eigendecomposed a Gram matrix")

        monkeypatch.setattr(geometry, "sym_eig", refuse)
        rng = np.random.default_rng(24)
        w_star, factor = spanned_edit(rng, 12, 20, 4)
        w0 = rng.standard_normal((12, 20))
        for fac in (factor, None):
            assert refine_weights(w_star, w0, beta, factor=fac).basis.shape == (12, 4)

    @pytest.mark.parametrize("kind", sorted(EDITS))
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_matches_dense_oracles(self, kind, beta):
        rng = np.random.default_rng(25)
        w_star = self.EDITS[kind](rng)
        w0 = rng.standard_normal(w_star.shape)
        factor = orthonormal_factor(w_star, w_star.T)
        width = TestColumnSpaceRoute.check_against_dense(
            w_star, w0, beta, dense_transport, factor, 1e-12, 1e-12
        )
        assert width == np.linalg.matrix_rank(w_star)

    def test_full_row_rank_reaches_the_reference(self):
        # at beta=1 a W* of rank d_out is mapped onto the covariance of W0,
        # so bures_after is round-off of the traces
        rng = np.random.default_rng(25)
        w_star = self.EDITS["full-rank-wide"](rng)
        w0 = rng.standard_normal(w_star.shape)
        res = refine_weights(w_star, w0, 1.0, factor=orthonormal_factor(w_star, w_star.T))
        assert rel_err(gram(res.w), gram(w0)) < 1e-12
        assert rel_err(res.w, dense_transport(w_star, w0, 1.0)) < 1e-12
        assert res.bures_after <= 1e-12 * np.sum(w0 * w0)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_zero_edit_against_dense_distance(self, beta):
        rng = np.random.default_rng(27)
        w0 = rng.standard_normal((12, 6))
        w_star = np.zeros((12, 6))
        want = bures_distance(gram(w_star), gram(w0))
        for fac in (None, (np.zeros((12, 3)), random_orthonormal(rng, 6, 3))):
            with warnings.catch_warnings():
                # only the interpolated covariance vanishing warns
                warnings.simplefilter("ignore" if beta else "error", RankDeficiencyWarning)
                res = refine_weights(w_star, w0, beta, factor=fac)
            assert not res.w.any() and res.basis.shape == (12, 0) and res.rank == 0
            assert res.degenerate == (beta > 0.0)
            assert res.bures_before == res.bures_after == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "sv",
        [
            [1.0, 1e-3, 1e-6, 1e-7, 1e-9, 1e-12],
            [1.0] * 5 + [1e-10] * 3,
            [3.0, 2.0, 1e-5, 1e-14],
            [1.0] * 12,
        ],
    )
    def test_rank_counts_the_singular_values_above_the_round_off_floor(self, sv):
        # the basis width is the report's w_star_rank
        rng = np.random.default_rng(26)
        sv = np.array(sv)
        v = random_orthonormal(rng, 30, sv.size)
        w_star = (random_orthonormal(rng, 12, sv.size) * sv) @ v.T
        w0 = rng.standard_normal((12, 30))
        s = np.linalg.svd(w_star, compute_uv=False)
        want = int((s**2 > np.finfo(np.float64).eps * s[0] ** 2).sum())
        assert want == int((sv**2 > np.finfo(np.float64).eps).sum())
        for fac in (None, orthonormal_factor(w_star, v)):
            for beta in (0.0, 0.5):
                assert refine_weights(w_star, w0, beta, factor=fac).basis.shape[1] == want
