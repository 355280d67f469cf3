"""The benchmark's workloads: inputs drawn from a seed, and one operation on them.

An operation is one public call as a user makes it: ``scapre.run_edit`` once
per projection for the in-process workloads, ``scapre.cli.main(["edit",
manifest])`` for the CLI workload. Every input is drawn by
``scapre.harness.generate_model`` or written by ``scapre gen`` from the
workload seed, so the program sees only generated arrays and files.

Importing this module imports NumPy: set the BLAS thread count first.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import scapre
import scapre.cli
import scapre.harness
from scapre import smatio
from scapre.harness import SyntheticModelSpec

# The report's solve residual must stay at or below this (README claim).
RESIDUAL_MAX = 1e-8
# Input sets drawn per run. Set-up runs once per set, and the quality metrics
# are medians over the sets, which narrows their spread from seed to seed.
INPUT_SETS = 2


@dataclass(frozen=True)
class Edit:
    """The inputs of one ``run_edit`` call."""

    w0: np.ndarray
    spec: scapre.EraseSpec
    contexts: list
    features: np.ndarray
    labels: np.ndarray
    preserved: np.ndarray | None
    cfg: scapre.EditConfig


@dataclass(frozen=True)
class EditOutput:
    """What one edit returned: the weights and the report as a plain dict."""

    w: np.ndarray
    report: dict


def child_seed(seed: int, *path: int) -> int:
    """A generator seed for one part of one input set, fixed by ``seed``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


class EditWorkload:
    """In-process edits: an operation runs ``scapre.run_edit`` once per ``d_out``.

    All projections of an input set share one concept set, its contexts,
    decoupler samples and preserved probes (drawn with the first ``d_out``);
    each projection has its own ``w0``.
    """

    def __init__(self, name, d_in, d_outs, m, preserved, tokens, cfg):
        self.name = name
        self.d_in, self.d_outs, self.m = d_in, tuple(d_outs), m
        self.preserved, self.tokens, self.cfg = preserved, tokens, cfg

    def sizes(self) -> list[dict]:
        return [
            {"d_in": self.d_in, "d_out": d, "m": self.m, "mode": self.cfg.interpolation_mode}
            for d in self.d_outs
        ]

    def setup(self, seed: int, index: int, workdir: Path) -> list[Edit]:
        first = scapre.harness.generate_model(
            SyntheticModelSpec(
                self.d_in,
                self.d_outs[0],
                self.m,
                self.preserved,
                tokens_per_concept=self.tokens,
                seed=child_seed(seed, index, 0),
            )
        )
        shared = Edit(
            first.w0,
            first.erase_spec,
            first.contexts,
            first.features,
            first.labels,
            first.preserved,
            self.cfg,
        )
        edits = [shared]
        for part, d_out in enumerate(self.d_outs[1:], start=1):
            w0 = scapre.harness.generate_model(
                SyntheticModelSpec(self.d_in, d_out, self.m, seed=child_seed(seed, index, part))
            ).w0
            edits.append(replace(shared, w0=w0))
        return edits

    def edits(self, inst: list[Edit]) -> list[Edit]:
        return inst

    def operation(self, inst: list[Edit]):
        return [
            scapre.run_edit(
                e.w0, e.spec, e.contexts, e.features, e.labels, e.cfg, preserved=e.preserved
            )
            for e in inst
        ]

    def outputs(self, inst, raw) -> list[EditOutput]:
        return [EditOutput(w, report.to_dict()) for w, report in raw]

    def alpha(self, edits, raw) -> list[np.ndarray]:
        return [report.intermediates.decoupler.alpha for _, report in raw]


def _quiet_cli(argv: list[str]) -> int:
    """``scapre.cli.main`` with its progress line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return scapre.cli.main(argv)


class CliWorkload:
    """``scapre edit manifest.json`` in-process, on files written by ``scapre gen``."""

    def __init__(self, name, d_in, d_out, m, preserved, beta):
        self.name = name
        self.d_in, self.d_out, self.m = d_in, d_out, m
        self.preserved, self.beta = preserved, beta

    def sizes(self) -> list[dict]:
        return [{"d_in": self.d_in, "d_out": self.d_out, "m": self.m, "mode": "sqrt-blend"}]

    def setup(self, seed: int, index: int, workdir: Path) -> Path:
        argv = [
            "gen",
            "--d-in", str(self.d_in),
            "--d-out", str(self.d_out),
            "--targets", str(self.m),
            "--preserved", str(self.preserved),
            "--beta", repr(self.beta),
            "--seed", str(child_seed(seed, index, 0)),
            "--out-dir", str(workdir),
        ]  # fmt: skip
        code = _quiet_cli(argv)
        if code != 0:
            raise RuntimeError(f"scapre gen exited with {code}")
        return workdir / "manifest.json"

    def edits(self, manifest: Path) -> list[Edit]:
        run = smatio.load_manifest(manifest)
        inputs = run.inputs
        concepts = smatio.read_smat(inputs["concepts"])
        spec = scapre.EraseSpec(
            concepts,
            mode=run.cfg.target_mode,
            substitutes=smatio.read_smat(inputs["substitutes"]),
        )
        stacked = smatio.read_smat(inputs["contexts"])
        bounds = np.cumsum(inputs["context_groups"])[:-1]
        return [
            Edit(
                smatio.read_smat(inputs["w0"]),
                spec,
                np.split(stacked, bounds),
                smatio.read_smat(inputs["sample_features"]),
                smatio.read_smat(inputs["sample_labels"]).ravel().astype(np.int64),
                smatio.read_smat(inputs["preserved"]),
                run.cfg,
            )
        ]

    def operation(self, manifest: Path) -> int:
        return _quiet_cli(["edit", str(manifest)])

    def outputs(self, manifest: Path, raw: int) -> list[EditOutput]:
        if raw != 0:
            raise RuntimeError(f"scapre edit exited with {raw}")
        outputs = smatio.load_manifest(manifest).outputs
        report = json.loads(Path(outputs["report"]).read_text())
        return [EditOutput(smatio.read_smat(outputs["weights"]), report)]

    def alpha(self, edits, raw) -> list[np.ndarray]:
        # The report file carries no alpha, so score the channels again here.
        return [scapre.build_decoupler(e.w0, e.features, e.labels).alpha for e in edits]


def workloads(tiny: bool = False) -> dict:
    """The benchmark's workloads by name; ``tiny`` shrinks every size for the smoke test.

    Why each workload exists is in BENCHMARK.json and README.md.
    """
    listed = [
        EditWorkload(
            "wide-2048",
            **(dict(d_in=64, d_outs=(32,), m=6, preserved=3) if tiny
               else dict(d_in=2048, d_outs=(1024,), m=100, preserved=10)),
            tokens=4,
            cfg=scapre.EditConfig(beta=0.5),
        ),
        EditWorkload(
            "crossattn-768",
            **(dict(d_in=48, d_outs=(8, 16, 24), m=5, preserved=3) if tiny
               else dict(d_in=768, d_outs=(320, 640, 1280), m=50, preserved=10)),
            tokens=1,
            cfg=scapre.EditConfig(beta=0.5, interpolation_mode=scapre.BW_GEODESIC),
        ),
        CliWorkload(
            "cli-many-concepts",
            **(dict(d_in=32, d_out=32, m=12, preserved=3) if tiny
               else dict(d_in=512, d_out=512, m=300, preserved=10)),
            beta=0.0,
        ),
    ]  # fmt: skip
    return {w.name: w for w in listed}


def check_edit(edit: Edit, out: EditOutput):
    """Check one edit's output; returns (problems, probe scores or None)."""
    if out.w.shape != edit.w0.shape:
        return [f"weights have shape {out.w.shape}, expected {edit.w0.shape}"], None
    if not np.isfinite(out.w).all():
        return ["weights contain non-finite entries"], None
    problems = []
    residual = out.report.get("sylvester_residual")
    if residual is None or not residual <= RESIDUAL_MAX:
        problems.append(f"sylvester_residual {residual} is above {RESIDUAL_MAX}")
    probes = scapre.probe_scores(out.w, edit.w0, edit.spec, edit.preserved)
    for name, mine in (("erasure", probes.erasure), ("preservation", probes.preservation)):
        listed = out.report.get(f"{name}_errors") or []
        theirs = np.array([np.nan if v is None else v for v in listed], dtype=np.float64)
        if mine.shape != theirs.shape or not np.allclose(
            mine, theirs, rtol=1e-12, atol=0.0, equal_nan=True
        ):
            problems.append(f"{name} errors recomputed from the weights differ from the report")
    return problems, probes


def digest(outputs: list[EditOutput]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(np.ascontiguousarray(out.w).tobytes())
    return h.hexdigest()
