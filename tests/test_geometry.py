import numpy as np
import pytest

from scapre.geometry import bures_distance, refine_weights
from scapre.harness import SyntheticModelSpec, generate_model
from scapre.matkernel import procrustes, psd_sqrt
from scapre.metrics import probe_scores
from scapre.pipeline import EditConfig, run_edit


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def gram(w):
    return (w @ w.T + (w @ w.T).T) / 2.0


def factor_bures(w_star, w0):
    """|W*|^2 + |W0|^2 - 2 |W*^T W0|_*, with a dense d_in-by-d_in SVD."""
    nuclear = np.linalg.svd(w_star.T @ w0, compute_uv=False).sum()
    return np.sum(w_star * w_star) + np.sum(w0 * w0) - 2.0 * nuclear


def random_psd(rng, n, rank=None):
    g = rng.standard_normal((n, rank or n))
    return g @ g.T


def random_orthonormal(rng, p, q):
    m, _ = np.linalg.qr(rng.standard_normal((p, q)))
    return m


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


class TestRefineWeights:
    def test_beta_zero_fixed_point(self):
        # at beta = 0 the weights are the solve's W* = W0 + D
        rng = np.random.default_rng(7)
        delta = rng.standard_normal((5, 12))
        w0 = rng.standard_normal((5, 12))
        assert rel_err(refine_weights(delta, w0, 0.0), w0 + delta) < 1e-15

    def test_beta_zero_is_a_no_op(self):
        # a rank-2 edit in 12 rows: nothing is decomposed, and D is left alone
        rng = np.random.default_rng(20)
        delta = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 9))
        w0 = rng.standard_normal((12, 9))
        kept = delta.copy()
        assert np.array_equal(refine_weights(delta, w0, 0.0), w0 + delta)
        assert np.array_equal(delta, kept)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
    def test_line_step(self, beta):
        # W0 + (1 - beta/2) D: at beta = 1 the midpoint of W0 and W*
        rng = np.random.default_rng(21)
        delta, w0 = rng.standard_normal((2, 7, 11))
        got = refine_weights(delta, w0, beta)
        assert rel_err(got, w0 + (1.0 - beta / 2.0) * delta) < 1e-15
        if beta == 1.0:
            assert rel_err(got, (w0 + (w0 + delta)) / 2.0) < 1e-15

    def test_zero_edit_degenerates(self):
        # a zero edit leaves W0 at every beta, and nothing warns
        w0 = np.random.default_rng(8).standard_normal((3, 6))
        for beta in (0.0, 0.5, 1.0):
            assert np.array_equal(refine_weights(np.zeros((3, 6)), w0, beta), w0)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_in_place_writes_the_same_weights_over_w_star(self, beta):
        rng = np.random.default_rng(22)
        delta = rng.standard_normal((600, 3)) @ rng.standard_normal((3, 40))
        w0 = rng.standard_normal((600, 40))
        kept = delta.copy()
        want = refine_weights(delta, w0, beta)
        assert np.array_equal(delta, kept)  # by default delta is left alone
        got = refine_weights(delta, w0, beta, in_place=True)
        assert got is delta
        assert np.array_equal(got, want)

    def test_in_place_zero_edit_and_layout(self):
        w0 = np.random.default_rng(8).standard_normal((3, 6))
        delta = np.zeros((3, 6))
        assert refine_weights(delta, w0, 0.5, in_place=True) is delta
        assert np.array_equal(delta, w0)
        with pytest.raises(ValueError, match="in_place"):
            refine_weights(np.asfortranarray(np.ones((3, 6))), w0, 0.5, in_place=True)

    def test_procrustes_optimality_oracle(self):
        # a factor of the step's covariance, rotated onto W* by procrustes,
        # beats 1000 random rotations of the same factor
        rng = np.random.default_rng(10)
        w_star = rng.standard_normal((8, 16))
        w0 = rng.standard_normal((8, 16))
        w = refine_weights(w_star - w0, w0, 0.5)
        vals, vecs = np.linalg.eigh(gram(w))
        keep = vals > 1e-12 * vals.max()
        factor = vecs[:, keep] * np.sqrt(vals[keep])
        aligned = factor @ procrustes(w_star.T @ factor).T
        assert rel_err(gram(aligned), gram(w)) < 1e-10
        best = np.linalg.norm(aligned - w_star)
        assert best <= np.linalg.norm(w - w_star) + 1e-10
        for _ in range(1000):
            q = random_orthonormal(rng, 16, int(keep.sum()))
            assert best <= np.linalg.norm(factor @ q.T - w_star) + 1e-10

    def test_bures_before_is_bures_distance(self):
        # bures_distance on W* W*^T against the factor identity; the dense
        # roots take square roots of the round-off spectrum on the null space
        # of W* W*^T, so they agree only to about sqrt(eps)
        rng = np.random.default_rng(12)
        w0 = rng.standard_normal((6, 10))
        full = rng.standard_normal((6, 10))
        rank_one = np.outer(rng.standard_normal(6), rng.standard_normal(10))
        for w_star in (full, rank_one):
            want = factor_bures(w_star, w0)
            dense = bures_distance(gram(w_star), gram(w0))
            scale = np.sum(w_star * w_star) + np.sum(w0 * w0)
            assert abs(dense - want) <= 2e-8 * scale

    def test_bures_after_matches_dense_distance(self):
        # bures_distance on the step's covariance against the factor identity
        rng = np.random.default_rng(14)
        for _ in range(10):
            w_star = rng.standard_normal((6, 10))
            w0 = rng.standard_normal((6, 10))
            w = refine_weights(w_star - w0, w0, 0.5)
            sigma_after, sigma_zero = gram(w), gram(w0)
            got = bures_distance(sigma_after, sigma_zero)
            scale = np.trace(sigma_after) + np.trace(sigma_zero)
            assert abs(got - factor_bures(w, w0)) <= 1e-10 * scale

    def test_validates_beta(self):
        s = np.eye(2)
        for beta in (-0.1, 1.5):
            with pytest.raises(ValueError, match="beta"):
                refine_weights(s, s, beta)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            refine_weights(np.ones((2, 3)), np.ones((3, 2)), 0.5)


def bw_map(w_star, w0):
    """``T W*`` for the optimal transport map ``T`` from ``W* W*^T`` to ``W0 W0^T``: the oracle.

    ``T = S^{-1/2} (S^{1/2} Z S^{1/2})^{1/2} S^{-1/2}`` from dense d_out-by-d_out
    roots; the anchored ``W*`` has full row rank, so ``S`` is invertible.
    The Bures-Wasserstein step at beta is ``(1 - beta) W* + beta T W*``,
    whose covariance lies a fraction beta along the geodesic to ``W0 W0^T``.
    """
    s, z = w_star @ w_star.T, w0 @ w0.T
    root = psd_sqrt(s)
    vals, vecs = np.linalg.eigh(s)
    inner = root @ z @ root
    cross = psd_sqrt((inner + inner.T) / 2.0)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.T
    return inv_root @ cross @ inv_root @ w_star


# Fixed regimes: (d_in, d_out, m targets, preserved probes), generate_model keywords.
FRONTIER_REGIMES = {
    "96x48": ((96, 48, 8, 10), dict(seed=3)),
    "96x48-similar": ((96, 48, 8, 10), dict(similarity=0.5, seed=3)),
    "128x64-3-tokens": ((128, 64, 12, 10), dict(tokens_per_concept=3, seed=5)),
    "768x320": ((768, 320, 50, 10), dict(seed=42)),
}
# The line's median preservation at most this many times the Bures-Wasserstein
# step's lowest at the same or a lower max erasure; the worst measured over
# 21 betas was 1.29x (96x48), which this bound holds, not a design guarantee.
FRONTIER_EXCESS = 1.3


class TestLineFrontier:
    """The line against the Bures-Wasserstein step it replaced, swept over beta.

    Both start at the anchored ``W*`` (beta = 0). Each (max erasure, median
    preservation) point of the line is compared with the best preservation
    the BW step reaches at the same or a lower erasure.
    """

    def test_bw_oracle_endpoint_is_reference(self):
        # the oracle's step at beta = 1 realizes W0 W0^T: T S T = Z
        rng = np.random.default_rng(4)
        w_star, w0 = rng.standard_normal((2, 5, 9))
        end = bw_map(w_star, w0)
        assert rel_err(end @ end.T, w0 @ w0.T) < 1e-10

    @pytest.mark.parametrize("regime", sorted(FRONTIER_REGIMES))
    def test_line_against_bw_frontier(self, regime):
        args, kwargs = FRONTIER_REGIMES[regime]
        model = generate_model(SyntheticModelSpec(*args, **kwargs))
        w_star, _ = run_edit(
            model.w0, model.erase_spec, model.contexts, model.features, model.labels,
            EditConfig(beta=0.0), preserved=model.preserved,
        )  # fmt: skip

        def point(w):
            p = probe_scores(w, model.w0, model.erase_spec, model.preserved)
            return float(np.nanmax(p.erasure)), float(np.nanmedian(p.preservation))

        mapped = bw_map(w_star, model.w0)
        bw = [point((1.0 - b) * w_star + b * mapped) for b in np.linspace(0.0, 1.0, 11)]
        line = [
            point(refine_weights(w_star - model.w0, model.w0, b)) for b in np.linspace(0.0, 1.0, 5)
        ]
        assert np.allclose(line[0], bw[0], rtol=1e-12, atol=0.0)  # both start at W*
        for erasure, preserve in line:
            best = min(p for e, p in bw if e <= erasure + 1e-12)
            assert preserve <= FRONTIER_EXCESS * best
        # the line ends at a lower preservation error than any BW step reaches
        assert line[-1][1] < min(p for _, p in bw)
