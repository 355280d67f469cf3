"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single ``ACCEPTANCE n (name): PASS|FAIL`` line (visible
with ``pytest -s`` or in the captured output of a failing run) and then
asserts, so a red criterion is both greppable and a normal test failure.
"""

import json
import math
import time

import numpy as np
import pytest

from scapre.cli import main as cli_main
from scapre.geometry import bures_distance, refine_weights
from scapre.harness import SyntheticModelSpec, generate_model
from scapre.informax import JointCounts, build_decoupler, channel_mi
from scapre.matkernel import procrustes
from scapre.metrics import MethodScore, overall_accuracy, uq_minmax, uq_rank, uq_sigmoid
from scapre.oracle import OracleConfig, gd_minimize, mi_bruteforce, objective_perturbation_check
from scapre.pipeline import EditConfig, run_edit
from scapre.smatio import read_smat, write_smat
from scapre.solver import sylvester_solve_kronecker, sylvester_solve_spectral
from scapre.stabilizer import assemble_a, build_r, build_s


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def random_spd(rng, n, lam=0.5):
    g = rng.standard_normal((n, n))
    return lam * np.eye(n) + g @ g.T / n


def random_orthonormal(rng, p, q):
    m, _ = np.linalg.qr(rng.standard_normal((p, q)))
    return m


def test_criterion_1_closed_form_residuals():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        d_out = int(rng.integers(2, 257))
        d_in = int(rng.integers(2, 129))
        a = random_spd(rng, d_in, lam=float(rng.uniform(0.05, 1.0)))
        b = rng.uniform(0.0, 1.0, d_out)
        m = rng.standard_normal((d_out, d_in))
        sol = sylvester_solve_spectral(b, a, m)
        residual = np.linalg.norm(b[:, None] * sol.w_star + sol.w_star @ a - m)
        worst = max(worst, residual / np.linalg.norm(m))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "closed-form correctness",
        worst <= 1e-8 and elapsed < 30.0,
        f"worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_path_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for d_out in range(1, 13):
        for d_in in range(1, 13):
            for _ in range(20):
                a = random_spd(rng, d_in, lam=float(rng.uniform(0.05, 1.0)))
                b = rng.uniform(0.0, 1.0, d_out)
                m = rng.standard_normal((d_out, d_in))
                w_s = sylvester_solve_spectral(b, a, m).w_star
                w_k = sylvester_solve_kronecker(b, a, m).w_star
                diff = np.linalg.norm(w_s - w_k) / max(np.linalg.norm(w_k), 1e-300)
                worst = max(worst, diff)
    report(2, "path equivalence", worst <= 1e-8, f"worst relative diff {worst:.2e}")


def test_criterion_3_oracle_agreement():
    rng = np.random.default_rng(102)
    worst = 0.0
    all_checks = True
    for _ in range(50):
        d_out = int(rng.integers(2, 33))
        d_in = int(rng.integers(2, 33))
        a = random_spd(rng, d_in)
        b = rng.uniform(0.0, 1.0, d_out)
        m = rng.standard_normal((d_out, d_in))
        closed = sylvester_solve_spectral(b, a, m).w_star
        tol = 1e-6 * max(1.0, float(np.linalg.norm(m)))
        w_gd = gd_minimize(a, b, m, OracleConfig(grad_tol=tol))
        worst = max(worst, np.linalg.norm(w_gd - closed) / np.linalg.norm(closed))
        all_checks &= objective_perturbation_check(closed, a, b, m, trials=100, seed=0)
    report(
        3,
        "oracle agreement",
        worst <= 1e-4 and all_checks,
        f"worst relative diff {worst:.2e}, perturbation checks {'ok' if all_checks else 'FAILED'}",
    )


def test_criterion_4_stabilizer_soundness():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 32))
        m = int(rng.integers(1, 6))
        scale = float(rng.uniform(0.1, 10.0))
        ctx = [
            scale * rng.standard_normal((int(rng.integers(1, 5)), d)) for _ in range(m)
        ]
        s = build_s(ctx)
        r = build_r(scale * rng.standard_normal((d, m)))
        for x in (s, r):
            vals = np.linalg.eigvalsh(x)
            ok &= vals.min() >= -1e-10 * max(abs(vals).max(), 1e-300)
        lam = float(rng.uniform(0.01, 2.0))
        stab = assemble_a(lam, s, r)
        ok &= stab.eig.eigvals.min() >= lam - 1e-8
    report(4, "stabilizer soundness", ok)


def test_criterion_5_informax_correctness():
    rng = np.random.default_rng(104)
    exact = True
    for _ in range(1000):
        n00, n01, n10, n11 = (int(x) for x in rng.integers(0, 60, 4))
        if n00 + n01 + n10 + n11 == 0:
            continue
        pairs = [(0, 0)] * n00 + [(0, 1)] * n01 + [(1, 0)] * n10 + [(1, 1)] * n11
        exact &= mi_bruteforce(pairs) == channel_mi(JointCounts(n00, n01, n10, n11))

    independence = channel_mi(JointCounts(25, 25, 25, 25)) <= 1e-12
    dependence = abs(channel_mi(JointCounts(50, 0, 0, 50)) - math.log(2.0)) <= 1e-12

    w = rng.standard_normal((8, 5))
    feats = rng.standard_normal((60, 5))
    labels = rng.integers(0, 3, 60)
    labels[:2] = [0, 1]
    base_invariant = (
        np.abs(
            build_decoupler(w, feats, labels).alpha
            - build_decoupler(w, feats, labels, base=2.0).alpha
        ).max()
        <= 1e-12
    )

    d = 16
    hits = 0
    for _ in range(100):
        q = random_orthonormal(rng, d, d).T
        planted = int(rng.integers(d))
        concept = 10.0 * q[planted]
        feats_p = np.vstack(
            [concept + rng.standard_normal((50, d)), rng.standard_normal((50, d))]
        )
        labels_p = np.array([1] * 50 + [0] * 50)
        hits += int(np.argmax(build_decoupler(q, feats_p, labels_p).alpha) == planted)

    ok = exact and independence and dependence and base_invariant and hits >= 99
    report(
        5,
        "informax correctness",
        ok,
        f"bruteforce exact {exact}, planted recovery {hits}/100",
    )


def test_criterion_6_geometry():
    rng = np.random.default_rng(105)
    ok = True

    # commuting closed form
    for _ in range(20):
        n = int(rng.integers(2, 10))
        q = random_orthonormal(rng, n, n)
        a_diag = rng.uniform(0.0, 5.0, n)
        b_diag = rng.uniform(0.0, 5.0, n)
        got = bures_distance((q * a_diag) @ q.T, (q * b_diag) @ q.T)
        ok &= abs(got - np.sum((np.sqrt(a_diag) - np.sqrt(b_diag)) ** 2)) <= 1e-8

    # the line step's endpoints: W* = W0 + D at beta = 0, the midpoint at 1
    delta = rng.standard_normal((8, 16))
    w0 = rng.standard_normal((8, 16))
    ok &= np.array_equal(refine_weights(delta, w0, 0.0), w0 + delta)
    mid = refine_weights(delta, w0, 1.0)
    ok &= np.linalg.norm(mid - (w0 + delta / 2.0)) <= 1e-15 * np.linalg.norm(mid)

    # polar-factor optimality on its own
    k = rng.standard_normal((6, 4))
    best_trace = np.trace(procrustes(k).T @ k)
    for _ in range(1000):
        ok &= best_trace >= np.trace(random_orthonormal(rng, 6, 4).T @ k) - 1e-10

    report(6, "geometry", ok)


def test_criterion_7_metric_reproduction():
    baseline = MethodScore("ref", 89.9, 31.43)
    methods = [
        MethodScore("m1", 71.9, 30.62),
        MethodScore("m2", 47.4, 30.81),
        MethodScore("m3", 38.7, 30.14),
        MethodScore("m4", 78.5, 31.02),
        MethodScore("m5", 8.5, 29.45),
        MethodScore("m6", 4.9, 29.27),
        MethodScore("m7", 9.6, 29.25),
        MethodScore("m8", 0.8, 30.43),
    ]
    sig = uq_sigmoid(methods, baseline=baseline).values
    mm = uq_minmax(methods).values
    rk = uq_rank(methods).values
    checks = [
        abs(sig["m8"] - 64.09) <= 0.05,
        abs(sig["m6"] - 32.60) <= 0.05,
        abs(mm["m8"] - 0.800) <= 0.001,
        abs(mm["m1"] - 0.153) <= 0.001,
        abs(mm["m4"] - 0.000) <= 0.001,
        abs(rk["m8"] - 0.727) <= 0.001,
        abs(overall_accuracy(5.8, 76.3) - 84.3) <= 0.05,
        abs(overall_accuracy(55.6, 57.7) - 50.2) <= 0.05,
    ]
    report(
        7,
        "metric reproduction",
        all(checks),
        f"sigmoid {sig['m8']:.2f}/{sig['m6']:.2f}, minmax {mm['m8']:.3f}, rank {rk['m8']:.3f}",
    )


def test_criterion_8_desk_scale_edit():
    spec = SyntheticModelSpec(d_in=768, d_out=320, m_targets=50, m_preserved=10, seed=42)
    cfg = EditConfig(beta=0.0)
    model = generate_model(spec)
    args = (model.w0, model.erase_spec, model.contexts, model.features, model.labels)

    t0 = time.perf_counter()
    w_first, rep = run_edit(*args, cfg, preserved=model.preserved)
    elapsed = time.perf_counter() - t0

    w_second, _ = run_edit(*args, cfg, preserved=model.preserved)
    identical = w_first.tobytes() == w_second.tobytes()
    ok = (
        elapsed < 10.0
        and rep.max_erasure_err <= 0.05
        and rep.sylvester_residual <= 1e-8
        and identical
    )
    report(
        8,
        "desk-scale 50-concept edit",
        ok,
        f"{elapsed:.2f}s, max erasure err {rep.max_erasure_err:.4f}, bit-identical {identical}",
    )


def test_criterion_9_io_bit_exactness(tmp_path):
    rng = np.random.default_rng(106)
    ok = True

    # bit-exact round trips, including signed zero and subnormals
    edge = np.array([[-0.0, 5e-324, 1.0], [2.0**-1060, -1.0, 3.14]])
    write_smat(tmp_path / "edge.smat", edge)
    ok &= read_smat(tmp_path / "edge.smat").tobytes() == edge.tobytes()
    m = rng.standard_normal((37, 11))
    write_smat(tmp_path / "m.smat", m)
    ok &= (tmp_path / "m.smat").stat().st_size == 24 + 8 * 37 * 11
    ok &= read_smat(tmp_path / "m.smat").tobytes() == m.tobytes()

    # exit-code table on induced failures
    gen_dir = tmp_path / "model"
    ok &= (
        cli_main(
            [
                "gen",
                "--d-in", "24",
                "--d-out", "12",
                "--targets", "3",
                "--preserved", "2",
                "--out-dir", str(gen_dir),
            ]
        )
        == 0
    )
    manifest = gen_dir / "manifest.json"
    ok &= cli_main(["edit", str(manifest)]) == 0

    doc = json.loads(manifest.read_text())
    doc["mystery"] = True
    bad_manifest = tmp_path / "bad.json"
    bad_manifest.write_text(json.dumps(doc))
    ok &= cli_main(["edit", str(bad_manifest)]) == 2

    labels_path = gen_dir / "samples_labels.smat"
    good_labels = read_smat(labels_path)
    write_smat(labels_path, np.ones_like(good_labels))
    ok &= cli_main(["edit", str(manifest)]) == 3
    write_smat(labels_path, good_labels)

    w0_path = gen_dir / "w0.smat"
    blob = w0_path.read_bytes()
    w0_path.write_bytes(blob[:-8])
    ok &= cli_main(["edit", str(manifest)]) == 4
    w0_path.write_bytes(blob)
    w0_path.unlink()
    ok &= cli_main(["edit", str(manifest)]) == 4

    report(9, "io bit-exactness and exit codes", ok)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
