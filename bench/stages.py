"""Stage bench: `run_edit` end to end and stage by stage, with its memory and quality.

    python bench/stages.py --out BENCH_17.json
    python bench/stages.py --out /tmp/bench.json --size tiny --runs 1

For each shape, a seed-42 `generate_model` model with `m_preserved=10` is
edited with the default `EditConfig`: `--runs` timed runs give the median
wall time and the median of each stage's `stage_ms`; one more, untimed run
under tracemalloc gives the traced peak and the memory still held after it
returns (the result kept alive). The quality numbers are those of that run.
Last, one `scapre edit` of a `scapre gen` manifest at 512x512, m=300,
beta=0 runs traced, with its outputs written to a temporary directory,
and so does `build_decoupler` on that manifest's samples, once given as a
loaded array (its bytes not counted) and once read from their file.

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
from scapre.harness import SyntheticModelSpec, generate_model  # noqa: E402
from scapre.informax import build_decoupler  # noqa: E402
from scapre.pipeline import EditConfig, run_edit  # noqa: E402
from scapre.smatio import SmatRows, read_smat  # noqa: E402

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


def _traced(fn):
    """``fn()``'s result, its tracemalloc peak and what it still holds, in MiB."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / MIB, held / MIB


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
        "stage_ms": {k: statistics.median(s[k] for s in stages) for k in stages[0]},
        "traced_peak_mib": peak,
        "held_after_mib": held,
        "max_erasure_err": report.max_erasure_err,
        "median_preserve_err": report.median_preserve_err,
        "sylvester_residual": report.sylvester_residual,
        "w_star_rank": report.w_star_rank,
        "alpha": {
            "min": float(alpha.min()),
            "median": float(np.median(alpha)),
            "max": float(alpha.max()),
        },
    }


def bench_cli(d_in, d_out, m) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            "gen", "--d-in", str(d_in), "--d-out", str(d_out), "--targets", str(m),
            "--preserved", str(M_PRESERVED), "--beta", "0", "--seed", str(SEED),
            "--out-dir", tmp,
        ]  # fmt: skip
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError("scapre gen failed")
            t = time.perf_counter()
            code, peak, _ = _traced(lambda: cli.main(["edit", str(Path(tmp) / "manifest.json")]))
            wall = time.perf_counter() - t
        if code != 0:
            raise RuntimeError(f"scapre edit exited with {code}")
        report = json.loads((Path(tmp) / "report.json").read_text())
        w0 = read_smat(Path(tmp) / "w0.smat")
        labels = read_smat(Path(tmp) / "samples_labels.smat").ravel()
        samples = Path(tmp) / "samples_features.smat"
        features = read_smat(samples)
        _, array_peak, _ = _traced(lambda: build_decoupler(w0, features, labels))
        del features
        with SmatRows(samples) as rows:
            _, file_peak, _ = _traced(lambda: build_decoupler(w0, rows, labels))
    return {
        "d_in": d_in,
        "d_out": d_out,
        "m": m,
        "beta": 0.0,
        "traced_wall_s": wall,
        "traced_peak_mib": peak,
        "decoupler_array_peak_mib": array_peak,
        "decoupler_file_peak_mib": file_peak,
        "max_erasure_err": report["max_erasure_err"],
        "median_preserve_err": report["median_preserve_err"],
        "sylvester_residual": report["sylvester_residual"],
    }


def run(size: str, runs: int) -> dict:
    return {
        "config": {
            "size": size,
            "runs": runs,
            "seed": SEED,
            "m_preserved": M_PRESERVED,
            "edit_config": EditConfig().to_dict(),
        },
        "environment": {"python": platform.python_version(), **cli._environment()},
        "shapes": [bench_shape(*shape, runs) for shape in SHAPES[size]],
        "cli_edit": bench_cli(*CLI_SHAPE[size]),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="where to write the JSON results")
    p.add_argument("--size", choices=sorted(SHAPES), default="full")
    p.add_argument("--runs", type=int, default=5, help="timed runs per shape")
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    doc = run(args.size, args.runs)
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
        f"scapre edit {c['d_in']}x{c['d_out']} m={c['m']}: peak {c['traced_peak_mib']:.1f} MiB; "
        f"build_decoupler on the array {c['decoupler_array_peak_mib']:.1f} MiB, "
        f"on the file {c['decoupler_file_peak_mib']:.1f} MiB"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
