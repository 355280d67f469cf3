"""Command-line entry points.

Subcommands: ``edit`` (full pipeline from a manifest), ``solve`` (the
closed-form equation alone), ``mi`` (channel decoupler), ``eval`` (score
tables), ``oracle`` (brute-force verification), ``gen`` (synthetic model
files), ``sweep`` (scaling benchmark).

Exit codes are stable: 0 success, 2 configuration error, 3 numerical error
(with the failing stage named), 4 I/O error.
"""

import argparse
import csv as _csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .harness import SyntheticModelSpec, generate_model, scaling_sweep, sweep_row
from .informax import build_decoupler
from .metrics import MethodScore, uq_minmax, uq_rank, uq_sigmoid
from .oracle import ConvergenceError, OracleConfig, gd_minimize, objective_perturbation_check
from .pipeline import EditConfig, PipelineStageError, run_edit
from .smatio import (
    ManifestError,
    RunManifest,
    SmatFormatError,
    SmatRows,
    load_manifest,
    read_smat,
    write_csv,
    write_report,
    write_smat,
)
from .solver import (
    SUBSTITUTE_TARGET,
    ZERO_TARGET,
    EraseSpec,
    sylvester_solve_spectral,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _read_vector(path, name):
    arr = read_smat(path)
    if 1 not in arr.shape:
        raise ManifestError(f"{name} must be a row or column vector, got {arr.shape}")
    return arr.ravel()


def _read_labels(path):
    raw = _read_vector(path, "sample_labels")
    if not np.equal(np.mod(raw, 1), 0).all():
        raise ManifestError("sample labels must be integers")
    return raw.astype(np.int64)


def _split_contexts(stacked, groups):
    if sum(groups) != stacked.shape[0]:
        raise ManifestError(
            f"context_groups sum to {sum(groups)} rows but the context matrix has "
            f"{stacked.shape[0]}"
        )
    out, row = [], 0
    for count in groups:
        out.append(stacked[row : row + count])
        row += count
    return out


def _erase_spec_from_manifest(manifest: RunManifest, concepts):
    mode = manifest.cfg.target_mode
    if mode == ZERO_TARGET:
        return EraseSpec(concepts, mode=ZERO_TARGET)
    if "substitutes" in manifest.inputs:
        return EraseSpec(
            concepts, mode=mode, substitutes=read_smat(manifest.inputs["substitutes"])
        )
    if "v_star" in manifest.inputs:
        return EraseSpec(concepts, mode=mode, v_star=read_smat(manifest.inputs["v_star"]))
    raise ManifestError("substitute-target mode needs inputs.substitutes or inputs.v_star")


def cmd_edit(args) -> int:
    manifest = load_manifest(args.manifest)
    w0 = read_smat(manifest.inputs["w0"])
    concepts = read_smat(manifest.inputs["concepts"])
    spec = _erase_spec_from_manifest(manifest, concepts)
    contexts = _split_contexts(
        read_smat(manifest.inputs["contexts"]), manifest.inputs["context_groups"]
    )
    # The samples stay in their file: the decoupler reads them a block of
    # rows at a time.
    with SmatRows(manifest.inputs["sample_features"]) as features:
        labels = _read_labels(manifest.inputs["sample_labels"])
        preserved = (
            read_smat(manifest.inputs["preserved"]) if "preserved" in manifest.inputs else None
        )
        w_edit, report = run_edit(
            w0, spec, contexts, features, labels, manifest.cfg, preserved=preserved
        )

    write_smat(manifest.outputs["weights"], w_edit)
    doc = report.to_dict()
    doc["seed"] = manifest.seed
    doc["outputs"] = {k: str(v) for k, v in manifest.outputs.items()}
    write_report(manifest.outputs["report"], doc)
    write_csv(manifest.outputs["csv"], [sweep_row(f"edit-seed{manifest.seed}", report)])
    print(
        f"edited {report.d_out}x{report.d_in} weights for {report.m} concepts: "
        f"residual {report.sylvester_residual:.3e}, "
        f"max erasure err {report.max_erasure_err:.4f}, "
        f"wrote {manifest.outputs['weights']}"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    b = _read_vector(args.b, "b")
    a = read_smat(args.a)
    m = read_smat(args.m)
    sol = sylvester_solve_spectral(b, a, m)
    write_smat(args.out, sol.w_star)
    print(json.dumps({"residual": sol.residual, "out": str(args.out)}))
    return EXIT_OK


def cmd_mi(args) -> int:
    w = read_smat(args.weights)
    with SmatRows(args.features) as features:
        labels = _read_labels(args.labels)
        dec = build_decoupler(w, features, labels)
    write_smat(args.out, dec.alpha[:, None])
    print(
        json.dumps(
            {
                "channels": int(dec.alpha.shape[0]),
                "concepts": list(dec.concept_labels),
                "degenerate": dec.degenerate,
                "max_mi_nats": float(dec.mi_raw.max()),
                "argmax_channel": int(np.argmax(dec.mi_raw)),
                "out": str(args.out),
            }
        )
    )
    return EXIT_OK


def _score(path, row, column) -> float:
    """One score cell as a finite number; anything else names its row and column."""
    try:
        value = float(row[column])
    except (TypeError, ValueError):  # TypeError: a short row leaves the cell None
        value = math.nan
    if not math.isfinite(value):
        raise ManifestError(f"{path}: row {row['label']!r}, column {column} is not a finite number")
    return value


def _read_scores(path, baseline_label):
    with open(path, newline="") as fh:
        reader = _csv.DictReader(fh)
        if reader.fieldnames is None or set(reader.fieldnames) != {
            "label",
            "unlearn",
            "quality",
        }:
            raise ManifestError(
                f"{path}: score tables need exactly the columns label,unlearn,quality"
            )
        rows = [
            MethodScore(r["label"], _score(path, r, "unlearn"), _score(path, r, "quality"))
            for r in reader
        ]
    baseline = None
    if baseline_label is not None:
        matches = [r for r in rows if r.label == baseline_label]
        if not matches:
            raise ManifestError(f"baseline label {baseline_label!r} not found in {path}")
        baseline = matches[0]
        rows = [r for r in rows if r.label != baseline_label]
    return rows, baseline


def cmd_eval(args) -> int:
    methods, baseline = _read_scores(args.scores, args.baseline)
    wanted = ("sigmoid", "minmax", "rank") if args.normalization == "all" else (args.normalization,)
    results = {}
    if "sigmoid" in wanted:
        results["sigmoid"] = uq_sigmoid(
            methods, baseline=baseline, include_baseline=not args.exclude_baseline_stats
        )
    if "minmax" in wanted:
        results["minmax"] = uq_minmax(methods)
    if "rank" in wanted:
        results["rank"] = uq_rank(methods)

    header = ["label"] + [f"uq_{name}" for name in wanted]
    lines = [",".join(header)]
    labels = ([baseline.label] if baseline is not None else []) + [s.label for s in methods]
    for label in labels:
        cells = [label]
        for name in wanted:
            value = results[name].values.get(label)
            cells.append("" if value is None else repr(value))
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_oracle(args) -> int:
    b = _read_vector(args.b, "b")
    a = read_smat(args.a)
    m = read_smat(args.m)
    sol = sylvester_solve_spectral(b, a, m)
    cfg = OracleConfig(max_iters=args.max_iters, grad_tol=args.grad_tol)
    w_gd = gd_minimize(a, b, m, cfg)
    denom = max(float(np.linalg.norm(sol.w_star)), np.finfo(np.float64).tiny)
    rel = float(np.linalg.norm(w_gd - sol.w_star)) / denom
    ok = objective_perturbation_check(sol.w_star, a, b, m, trials=args.trials, seed=args.seed)
    print(
        json.dumps(
            {
                "closed_form_residual": sol.residual,
                "gd_rel_diff": rel,
                "perturbation_check": ok,
                "trials": args.trials,
            }
        )
    )
    return EXIT_OK


def _model_spec_from_args(args) -> SyntheticModelSpec:
    return SyntheticModelSpec(
        d_in=args.d_in,
        d_out=args.d_out,
        m_targets=args.targets,
        m_preserved=args.preserved,
        similarity=args.similarity,
        noise_scale=args.noise,
        seed=args.seed,
        embed_scale=args.embed_scale,
        tokens_per_concept=args.tokens,
        samples_per_concept=args.samples,
    )


def cmd_gen(args) -> int:
    spec = _model_spec_from_args(args)
    model = generate_model(spec, args.target_mode)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_smat(out / "w0.smat", model.w0)
    write_smat(out / "concepts.smat", model.erase_spec.concepts)
    groups = [c.shape[0] for c in model.contexts]
    write_smat(out / "contexts.smat", np.vstack(model.contexts))
    write_smat(out / "samples_features.smat", model.features)
    write_smat(out / "samples_labels.smat", model.labels[:, None].astype(np.float64))
    inputs = {
        "w0": "w0.smat",
        "concepts": "concepts.smat",
        "contexts": "contexts.smat",
        "context_groups": groups,
        "sample_features": "samples_features.smat",
        "sample_labels": "samples_labels.smat",
    }
    if model.erase_spec.substitutes is not None:
        write_smat(out / "substitutes.smat", model.erase_spec.substitutes)
        inputs["substitutes"] = "substitutes.smat"
    if model.preserved is not None:
        write_smat(out / "preserved.smat", model.preserved)
        inputs["preserved"] = "preserved.smat"

    manifest = {
        "lambda": {"relative": EditConfig.lam_scale},
        "beta": args.beta,
        "target_mode": args.target_mode,
        "seed": spec.seed,
        "inputs": inputs,
        "outputs": {
            "weights": "w_edited.smat",
            "report": "report.json",
            "csv": "report_row.csv",
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote model files and manifest.json under {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = _model_spec_from_args(args)
    counts = [int(c) for c in args.counts.split(",")]
    cfg = EditConfig(beta=args.beta, target_mode=args.target_mode)
    t0 = time.perf_counter()
    rows = scaling_sweep(base, counts, cfg)
    write_csv(args.out, rows)
    print(f"wrote {len(rows)} sweep rows to {args.out} in {time.perf_counter() - t0:.1f}s")
    return EXIT_OK


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-in", type=int, default=768, dest="d_in")
    p.add_argument("--d-out", type=int, default=320, dest="d_out")
    p.add_argument("--targets", type=int, default=10)
    p.add_argument("--preserved", type=int, default=10)
    spec = SyntheticModelSpec  # the model knobs' defaults are the spec's
    p.add_argument("--similarity", type=float, default=spec.similarity)
    p.add_argument("--noise", type=float, default=spec.noise_scale)
    p.add_argument("--embed-scale", type=float, default=spec.embed_scale, dest="embed_scale")
    p.add_argument("--tokens", type=int, default=spec.tokens_per_concept)
    p.add_argument("--samples", type=int, default=spec.samples_per_concept)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument(
        "--target-mode",
        choices=[ZERO_TARGET, SUBSTITUTE_TARGET],
        default=SUBSTITUTE_TARGET,
        dest="target_mode",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scapre",
        description="Closed-form concept-unlearning edits on projection matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edit", help="run one full edit from a JSON manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("solve", help="solve B W + W A = M from SMAT inputs")
    p.add_argument("--b", required=True, help="channel weights, SMAT vector")
    p.add_argument("--a", required=True, help="input-side stabilizer, SMAT")
    p.add_argument("--m", required=True, help="right-hand side, SMAT")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("mi", help="build the channel decoupler from samples")
    p.add_argument("--weights", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("eval", help="combined unlearn/quality scores from a CSV table")
    p.add_argument("--scores", required=True, help="CSV with columns label,unlearn,quality")
    p.add_argument("--normalization", choices=["sigmoid", "minmax", "rank", "all"], default="all")
    p.add_argument("--baseline", default=None, help="label of the unedited reference row")
    p.add_argument(
        "--exclude-baseline-stats",
        action="store_true",
        help="keep the baseline row out of the sigmoid population statistics",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="verify a solve against the gradient-descent oracle")
    p.add_argument("--b", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--max-iters", type=int, default=100_000, dest="max_iters")
    p.add_argument("--grad-tol", type=float, default=1e-6, dest="grad_tol")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate synthetic model files plus a ready manifest")
    _add_model_flags(p)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="scaling sweep over concept counts, CSV out")
    _add_model_flags(p)
    p.add_argument("--counts", default="5,10,25,50")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ManifestError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PipelineStageError as exc:
        if isinstance(exc.__cause__, (SmatFormatError, OSError)):
            # a stage that reads its samples from their file failed the read
            print(f"io error: {exc.__cause__}", file=sys.stderr)
            return EXIT_IO
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SmatFormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConvergenceError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
