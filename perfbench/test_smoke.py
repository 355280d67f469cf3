"""Smoke test of the benchmark itself: every workload at tiny sizes.

    python3 -m pytest perfbench

Each workload runs once untraced and once traced. The test checks that every
metric BENCHMARK.json names appears with its unit, that the layer shares
account for the traced operation, and that the exact kernel counts of an
edit hold. The counts are those of the edit pipeline as this benchmark was
defined; a change to the pipeline that alters them must update them here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]  # fmt: skip
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "results" / f"{workload}-seed3-trace{trace}.json").read_text())
    return result, detail


def expected_counts(sizes: list[dict]) -> dict:
    """Kernel and call counts of one operation, from its edit sizes.

    Per edit: the stabilizer makes one d_in eigendecomposition and one SVD of
    the concepts. Geometry makes 7 eigh and 6 eigvalsh of size d_out (two
    Bures distances and one refinement), one more eigh for the pseudo-inverse
    root on the bw-geodesic branch, and two SVDs. The decoupler scores every
    channel against every concept.
    """
    counts = dict.fromkeys(
        ("geometry.eig_calls", "geometry.eig_n3", "matkernel.eig_calls", "matkernel.eig_n3",
         "matkernel.svd_calls", "informax.channel_mi_calls"), 0)  # fmt: skip
    for e in sizes:
        geo = 14 if e["mode"] == "bw-geodesic" else 13
        counts["geometry.eig_calls"] += geo
        counts["geometry.eig_n3"] += geo * e["d_out"] ** 3
        counts["matkernel.eig_calls"] += geo + 1
        counts["matkernel.eig_n3"] += geo * e["d_out"] ** 3 + e["d_in"] ** 3
        counts["matkernel.svd_calls"] += 3
        counts["informax.channel_mi_calls"] += e["d_out"] * e["m"]
    return counts


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    result, detail = result_of(workload, 0)
    check_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert detail["fail_frac"] == 0
    assert detail["environment"]["seed"] == 3
    assert detail["environment"]["nproc"] >= 1
    assert {"refinement_rank", "bures_before", "bures_after", "alpha_min", "alpha_max"} <= set(
        detail["diagnostics"][0]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer(workload):
    result, detail = result_of(workload, 1)
    check_metrics(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name, count in expected_counts(detail["sizes"]).items():
        assert metrics[name] == count, name
    shares = sum(v for name, v in metrics.items() if name.startswith("share."))
    unattributed = metrics["trace.unattributed_s"] / metrics["trace.op_s"]
    assert shares + unattributed == pytest.approx(1.0, abs=0.05)
    assert (HERE / "results" / f"{workload}-seed3-trace1.spans.jsonl.gz").is_file()
    cli = workload.startswith("cli")
    for name in ("smatio.read_mb", "smatio.write_mb", "share.cli"):
        assert (metrics[name] > 0) == cli, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        ignore = shutil.ignore_patterns("results", ".work", "__pycache__")
        shutil.copytree(ROOT / path, tmp_path / path, ignore=ignore)
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
