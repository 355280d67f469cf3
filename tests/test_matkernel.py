import numpy as np
import pytest

from scapre.matkernel import (
    KRON_BUDGET,
    as_matrix,
    kron_assemble,
    procrustes,
    psd_sqrt,
    svd,
    sym_eig,
)


def random_orthonormal(rng, p, q):
    m, _ = np.linalg.qr(rng.standard_normal((p, q)))
    return m


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[1.0, np.nan]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_matrix([1.0, 2.0])

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError, match="positive dimensions"):
            as_matrix(np.zeros((3, 0)))

    def test_row_major_float64(self):
        out = as_matrix(np.asfortranarray(np.arange(6.0).reshape(2, 3)))
        assert out.flags["C_CONTIGUOUS"] and out.dtype == np.float64


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(3))
        assert np.allclose(dec.eigvals, [1.0, 1.0, 1.0])

    def test_diagonal_values_and_axes(self):
        dec = sym_eig(np.diag([5.0, 2.0, -1.0]))
        assert np.allclose(dec.eigvals, [5.0, 2.0, -1.0])
        # eigenvectors are signed coordinate axes
        assert np.allclose(np.abs(dec.eigvecs), np.eye(3), atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((20, 20))
        a = (g + g.T) / 2
        dec = sym_eig(a)
        assert rel_err(dec.reconstruct(), a) < 1e-8

    def test_reconstruction_property_many_sizes(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            g = rng.standard_normal((n, n))
            a = (g + g.T) / 2
            dec = sym_eig(a)
            assert rel_err(dec.reconstruct(), a) < 1e-8
            assert np.linalg.norm(dec.eigvecs.T @ dec.eigvecs - np.eye(n)) < 1e-10 * n
            assert (np.diff(dec.eigvals) <= 1e-12).all()

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((8, 8))
        a = (g + g.T) / 2
        v = sym_eig(a).eigvecs
        lead = np.abs(v).argmax(axis=0)
        assert (v[lead, np.arange(8)] > 0).all()
        assert np.array_equal(v, sym_eig(a.copy()).eigvecs)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            sym_eig(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSvd:
    def test_diagonal(self):
        dec = svd(np.diag([3.0, 4.0]))
        assert np.allclose(dec.sigma, [4.0, 3.0])

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(4)
        u *= 2.0 / np.linalg.norm(u)
        v = rng.standard_normal(4)
        v *= 3.0 / np.linalg.norm(v)
        dec = svd(np.outer(u, v))
        assert abs(dec.sigma[0] - 6.0) < 1e-10
        assert np.all(dec.sigma[1:] < 1e-10)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 5))
        dec = svd(a)
        assert rel_err(dec.reconstruct(), a) < 1e-8

    def test_reconstruction_property_many_sizes(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, q = (int(rng.integers(2, 65)) for _ in range(2))
            a = rng.standard_normal((p, q))
            dec = svd(a)
            k = min(p, q)
            assert rel_err(dec.reconstruct(), a) < 1e-8
            assert np.linalg.norm(dec.u.T @ dec.u - np.eye(k)) < 1e-10 * k
            assert np.linalg.norm(dec.v.T @ dec.v - np.eye(k)) < 1e-10 * k
            assert (dec.sigma >= 0).all() and (np.diff(dec.sigma) <= 1e-12).all()


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(5)), np.eye(5))

    def test_squaring_oracle(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((10, 10))
        m = g.T @ g
        r = psd_sqrt(m)
        assert np.allclose(r, r.T)
        assert rel_err(r @ r, m) < 1e-8

    def test_clamps_tiny_negative(self):
        m = np.diag([1.0, -1e-12])
        r = psd_sqrt(m)
        assert r[1, 1] == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestProcrustes:
    def test_identity(self):
        assert np.allclose(procrustes(np.eye(3)), np.eye(3))

    def test_polar_factor_of_scaled_rotation(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        assert np.allclose(procrustes(2.5 * q), q, atol=1e-10)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(8)
        k = rng.standard_normal((6, 4))
        q = procrustes(k)
        assert np.linalg.norm(q.T @ q - np.eye(4)) < 1e-10

    def test_trace_maximality_oracle(self):
        # polar factor must beat 1000 random column-orthonormal alternatives
        rng = np.random.default_rng(9)
        k = rng.standard_normal((6, 4))
        best = np.trace(procrustes(k).T @ k)
        for _ in range(1000):
            q = random_orthonormal(rng, 6, 4)
            assert best >= np.trace(q.T @ k) - 1e-10


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron_assemble(np.eye(2), np.eye(3)), np.eye(6))

    def test_scalar_factor(self):
        b = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(kron_assemble([[2.0]], b), 2.0 * b)

    def test_index_formula(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 3))
        out = kron_assemble(a, b)
        p, q = b.shape
        for i in range(3):
            for j in range(2):
                for k in range(p):
                    for l in range(q):
                        assert out[i * p + k, j * q + l] == a[i, j] * b[k, l]

    def test_vec_identity(self):
        # vec(B X A^T) = (A kron B) vec(X), with column-stacking vec
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((3, 2))
        x = rng.standard_normal((2, 5))
        lhs = (b @ x @ a.T).flatten(order="F")
        rhs = kron_assemble(a, b) @ x.flatten(order="F")
        assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_budget(self):
        with pytest.raises(ValueError, match="budget"):
            kron_assemble(np.eye(65), np.eye(64))  # 65^2 * 64^2 entries
        assert KRON_BUDGET == 2**24
