"""Shared test set-up: an empty stabilizer slot before every test, and matrix helpers.

``run_edit`` keeps the last stabilizer it built between calls, the library's
only state that outlives a call. Emptying that slot before each test makes
every test start as it would alone in a fresh process, whatever ran before
it; a test that needs a warm slot fills it itself. Test modules import the
helpers below with ``from conftest import ...``.
"""

import numpy as np
import pytest

from scapre import pipeline


@pytest.fixture(autouse=True)
def empty_stabilizer_slot():
    pipeline._clear_stabilizer_slot()


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def random_spd(rng, n, lam=0.5):
    g = rng.standard_normal((n, n))
    return lam * np.eye(n) + g @ g.T / n


def random_orthonormal(rng, p, q):
    m, _ = np.linalg.qr(rng.standard_normal((p, q)))
    return m
