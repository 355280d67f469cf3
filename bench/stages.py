"""Stage bench: `run_edit` end to end and stage by stage, with its memory and quality.

    python bench/stages.py --out BENCH_40.json --reference BENCH_39.json
    python bench/stages.py --out /tmp/bench.json --size tiny --runs 1

One timing rule holds for every section: `--runs` untraced runs give the
median wall time and the median of each stage's `stage_ms`, and where a
traced peak is recorded it comes from one more run under tracemalloc,
whose time is not used.

For each shape, a seed-42 `generate_model` model with `m_preserved=10` is
edited with the default `EditConfig`; the traced run also gives the memory
still held after it returns (the result kept alive), and the quality
numbers. Where d_in is at most `DENSE_MAX_D_IN` (768x320 and the CLI edit
at full size) the stages are rerun and the exact residual of the edit
against the dense A is recorded as `dense_residual`, beside the report's
estimate. Then `scapre edit` of a `scapre gen` manifest at 512x512, m=300,
beta=0, with its outputs written to a temporary directory and the stage
times read from its report. `build_decoupler` on the same seed-42 model's
samples runs traced too, once given as an array in memory (its bytes not
counted) and once read from the manifest's file.

Last, the frontier: on every shape above and on the CLI edit's model (the
seed-42 model `scapre gen` writes), max erasure and median preservation
at every point of the grid `LAM_SCALES` x `BETAS`. The solve does not
depend on beta, so one `run_edit` per `lam_scale`, at beta 0, gives the
edit `D = W* - W0`, and each beta is scored on the pipeline's own line
step `W0 + (1 - beta/2) D`. With `--reference`, a stage-bench JSON of an
earlier commit, the frontier also records the largest `lam_scale` by the
rule fixed before measuring: max erasure at most `RULE_RATIO` times the
reference's on every shape at beta=0.5, and on the CLI shape at beta=0.
`EditConfig.lam_scale` is recorded beside it.

The BLAS thread count is read from the environment, as NumPy reads it:
set `OPENBLAS_NUM_THREADS` before running. The sources edited are those of
this checkout's `src/`.
"""

import argparse
import contextlib
import io
import json
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from scapre import cli  # noqa: E402
from scapre.geometry import refine_weights  # noqa: E402
from scapre.harness import SyntheticModelSpec, generate_model  # noqa: E402
from scapre.informax import build_decoupler  # noqa: E402
from scapre.metrics import probe_scores  # noqa: E402
from scapre.pipeline import EditConfig, _environment, run_edit  # noqa: E402
from scapre.smatio import SmatRows  # noqa: E402
from scapre.solver import resolve_v_star, sylvester_solve_spectral  # noqa: E402
from scapre.stabilizer import build_a  # noqa: E402

MIB = 2**20
SEED = 42
M_PRESERVED = 10
# (d_in, d_out, m, tokens per concept): the ROADMAP's Baseline table, and
# small stand-ins for checking the script itself.
SHAPES = {
    "full": [(768, 320, 50, 1), (2048, 1024, 100, 4), (4096, 1024, 200, 4)],
    "tiny": [(48, 16, 4, 1), (64, 32, 6, 4)],
}
# (d_in, d_out, m) of the traced CLI edit; beta is 0 at every size.
CLI_SHAPE = {"full": (512, 512, 300), "tiny": (32, 32, 12)}
# The frontier's grid, and the rule that picks the default lam_scale from it.
LAM_SCALES = (0.03, 0.05, 0.07, 0.1, 0.15)
BETAS = (0.0, 0.25, 0.5, 0.75, 1.0)
RULE_RATIO = 1.05
RULE_BETA = 0.5
# The largest d_in whose d_in x d_in A is formed for the exact residual.
DENSE_MAX_D_IN = 1024


def _traced(fn):
    """``fn()``'s result, its tracemalloc peak and what it still holds, in MiB."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / MIB, held / MIB


def dense_residual(w0, spec, contexts, features, labels, cfg) -> float | None:
    """The exact relative residual of ``run_edit``'s solve against the dense ``A``.

    The stages are rerun as ``run_edit`` runs them, so the edit ``D`` is
    the one whose residual the report estimates. None where d_in exceeds
    ``DENSE_MAX_D_IN``.
    """
    if w0.shape[1] > DENSE_MAX_D_IN:
        return None
    stab = build_a(contexts, spec.concepts, cfg.lam, cfg.lam_scale)
    alpha = build_decoupler(w0, features, labels).alpha
    v_star = resolve_v_star(w0, spec)
    d = sylvester_solve_spectral(alpha, stab, (v_star, spec.concepts), w0).w_star
    a = stab.a
    rhs = v_star @ spec.concepts.T - w0 @ (a - stab.lam * np.eye(len(a)))
    return float(np.linalg.norm(alpha[:, None] * d + d @ a - rhs) / np.linalg.norm(rhs))


def bench_shape(d_in, d_out, m, tokens, runs) -> dict:
    model = generate_model(
        SyntheticModelSpec(
            d_in, d_out, m, M_PRESERVED, tokens_per_concept=tokens, seed=SEED
        )
    )
    cfg = EditConfig()

    def edit():
        return run_edit(
            model.w0, model.erase_spec, model.contexts, model.features, model.labels,
            cfg, preserved=model.preserved,
        )  # fmt: skip

    walls, stages = [], []
    for _ in range(runs):
        t = time.perf_counter()
        _, report = edit()
        walls.append(time.perf_counter() - t)
        stages.append(report.stage_ms)
    (_, report), peak, held = _traced(edit)
    alpha = report.intermediates.decoupler.alpha
    return {
        "d_in": d_in,
        "d_out": d_out,
        "m": m,
        "tokens_per_concept": tokens,
        "wall_s": statistics.median(walls),
        "stage_ms": _median_stages(stages),
        "traced_peak_mib": peak,
        "held_after_mib": held,
        "max_erasure_err": report.max_erasure_err,
        "median_preserve_err": report.median_preserve_err,
        "sylvester_residual": report.sylvester_residual,
        "dense_residual": dense_residual(
            model.w0, model.erase_spec, model.contexts, model.features, model.labels, cfg
        ),
        "alpha": {
            "min": float(alpha.min()),
            "median": float(np.median(alpha)),
            "max": float(alpha.max()),
        },
    }


def _median_stages(stages: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in stages) for k in stages[0]}


def bench_cli(d_in, d_out, m, runs) -> dict:
    """``scapre edit`` of a ``scapre gen`` manifest, timed as the shapes are.

    The dense residual and the decoupler's peaks are taken from the same
    seed-42 model in memory.
    """
    model = generate_model(SyntheticModelSpec(d_in, d_out, m, M_PRESERVED, seed=SEED))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            "gen", "--d-in", str(d_in), "--d-out", str(d_out), "--targets", str(m),
            "--preserved", str(M_PRESERVED), "--beta", "0", "--seed", str(SEED),
            "--out-dir", tmp,
        ]  # fmt: skip
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError("scapre gen failed")
        manifest, report_path = Path(tmp) / "manifest.json", Path(tmp) / "report.json"
        outputs = [Path(tmp) / name for name in json.loads(manifest.read_text())["outputs"].values()]

        def edit():
            # no outputs to replace, whose flush would be timed (README,
            # "Replacing existing outputs costs a disk flush per file")
            for path in outputs:
                path.unlink(missing_ok=True)
            if cli.main(["edit", str(manifest)]) != 0:
                raise RuntimeError("scapre edit failed")

        walls, stages = [], []
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(runs):
                t = time.perf_counter()
                edit()
                walls.append(time.perf_counter() - t)
                stages.append(json.loads(report_path.read_text())["stage_ms"])
            _, peak, _ = _traced(edit)
        report = json.loads(report_path.read_text())
        _, array_peak, _ = _traced(lambda: build_decoupler(model.w0, model.features, model.labels))
        with SmatRows(Path(tmp) / "samples_features.smat") as rows:
            _, file_peak, _ = _traced(lambda: build_decoupler(model.w0, rows, model.labels))
    exact = dense_residual(
        model.w0, model.erase_spec, model.contexts, model.features, model.labels,
        EditConfig(beta=0.0),
    )  # fmt: skip
    return {
        "d_in": d_in,
        "d_out": d_out,
        "m": m,
        "beta": 0.0,
        "wall_s": statistics.median(walls),
        "stage_ms": _median_stages(stages),
        "traced_peak_mib": peak,
        "decoupler_array_peak_mib": array_peak,
        "decoupler_file_peak_mib": file_peak,
        "max_erasure_err": report["max_erasure_err"],
        "median_preserve_err": report["median_preserve_err"],
        "sylvester_residual": report["sylvester_residual"],
        "dense_residual": exact,
    }


def _reduced(errors: np.ndarray, reduce) -> float:
    """``reduce`` of the errors that are not NaN, as ``run_edit`` reports them; NaN if none are."""
    kept = errors[~np.isnan(errors)]
    return float(reduce(kept)) if kept.size else float("nan")


def frontier_shape(d_in, d_out, m, tokens) -> dict:
    """Max erasure and median preservation at every point of the grid on one model.

    One ``run_edit`` per ``lam_scale``, at beta 0, gives the edit
    ``D = W* - W0`` and its residual, which do not depend on beta; each
    beta's weights are ``refine_weights`` of that edit, scored by
    ``probe_scores`` as ``run_edit`` scores them.
    """
    model = generate_model(
        SyntheticModelSpec(d_in, d_out, m, M_PRESERVED, tokens_per_concept=tokens, seed=SEED)
    )
    v_star = resolve_v_star(model.w0, model.erase_spec)
    points = []
    for lam_scale in LAM_SCALES:
        w_star, report = run_edit(
            model.w0, model.erase_spec, model.contexts, model.features, model.labels,
            EditConfig(lam_scale=lam_scale, beta=0.0), preserved=model.preserved,
        )  # fmt: skip
        delta = w_star - model.w0
        for beta in BETAS:
            scores = probe_scores(
                refine_weights(delta, model.w0, beta), model.w0, model.erase_spec,
                model.preserved, v_star=v_star,
            )  # fmt: skip
            points.append(
                {
                    "lam_scale": lam_scale,
                    "beta": beta,
                    "max_erasure_err": _reduced(scores.erasure, np.max),
                    "median_preserve_err": _reduced(scores.preservation, np.median),
                    "sylvester_residual": report.sylvester_residual,
                }
            )
    return {"d_in": d_in, "d_out": d_out, "m": m, "tokens_per_concept": tokens, "points": points}


def rule_pick(shapes: list[dict], reference: dict) -> float | None:
    """The largest ``lam_scale`` whose max erasure meets the rule on every shape, or None.

    ``shapes`` are the frontier's, the CLI shape last; ``reference`` is a
    stage-bench document whose ``shapes`` and ``cli_edit`` give the max
    erasure each must stay within ``RULE_RATIO`` of.
    """
    refs = [*reference["shapes"], reference["cli_edit"]]
    betas = [RULE_BETA] * (len(shapes) - 1) + [0.0]
    dims = [[(s["d_in"], s["d_out"], s["m"]) for s in x] for x in (shapes, refs)]
    if dims[0] != dims[1]:
        raise ValueError(f"the reference's shapes {dims[1]} are not the frontier's {dims[0]}")

    def meets(lam_scale):
        return all(
            p["max_erasure_err"] <= RULE_RATIO * ref["max_erasure_err"]
            for shape, ref, beta in zip(shapes, refs, betas)
            for p in shape["points"]
            if p["lam_scale"] == lam_scale and p["beta"] == beta
        )

    passing = [x for x in LAM_SCALES if meets(x)]
    return max(passing) if passing else None


def frontier(size: str, reference: dict | None) -> dict:
    shapes = [frontier_shape(*shape) for shape in [*SHAPES[size], (*CLI_SHAPE[size], 1)]]
    return {
        "config": {
            "seed": SEED,
            "m_preserved": M_PRESERVED,
            "lam_scales": list(LAM_SCALES),
            "betas": list(BETAS),
            "rule": (
                f"largest lam_scale with max erasure <= {RULE_RATIO} x the reference's on "
                f"every shape at beta={RULE_BETA} and on the CLI shape (last) at beta=0"
            ),
        },
        "shapes": shapes,
        "rule_pick": rule_pick(shapes, reference) if reference is not None else None,
        "chosen_lam_scale": EditConfig().lam_scale,
    }


def run(size: str, runs: int, reference: dict | None = None) -> dict:
    return {
        "config": {
            "size": size,
            "runs": runs,
            "seed": SEED,
            "m_preserved": M_PRESERVED,
            "edit_config": EditConfig().to_dict(),
        },
        "environment": {"python": platform.python_version(), **_environment()},
        "shapes": [bench_shape(*shape, runs) for shape in SHAPES[size]],
        "cli_edit": bench_cli(*CLI_SHAPE[size], runs),
        "frontier": frontier(size, reference),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="where to write the JSON results")
    p.add_argument("--size", choices=sorted(SHAPES), default="full")
    p.add_argument("--runs", type=int, default=5, help="timed runs per shape")
    p.add_argument(
        "--reference", default=None, help="an earlier stage-bench JSON the frontier's rule reads"
    )
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    reference = json.loads(Path(args.reference).read_text()) if args.reference else None
    doc = run(args.size, args.runs, reference)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for s in doc["shapes"]:
        print(
            f"{s['d_in']}x{s['d_out']} m={s['m']}: {s['wall_s']:.3f} s, "
            f"peak {s['traced_peak_mib']:.1f} MiB, held {s['held_after_mib']:.1f} MiB, "
            f"max erasure {s['max_erasure_err']:.3f}, "
            f"median preserve {s['median_preserve_err']:.4f}"
        )
    c = doc["cli_edit"]
    print(
        f"scapre edit {c['d_in']}x{c['d_out']} m={c['m']}: {c['wall_s']:.3f} s, "
        f"peak {c['traced_peak_mib']:.1f} MiB; "
        f"build_decoupler on the array {c['decoupler_array_peak_mib']:.1f} MiB, "
        f"on the file {c['decoupler_file_peak_mib']:.1f} MiB"
    )
    f = doc["frontier"]
    print(f"frontier: rule pick {f['rule_pick']}, chosen lam_scale {f['chosen_lam_scale']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
