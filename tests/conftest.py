"""Matrix helpers shared by the test modules, which import them with ``from conftest import ...``."""

import numpy as np


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def random_spd(rng, n, lam=0.5):
    g = rng.standard_normal((n, n))
    return lam * np.eye(n) + g @ g.T / n


def random_orthonormal(rng, p, q):
    m, _ = np.linalg.qr(rng.standard_normal((p, q)))
    return m
