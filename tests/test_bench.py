import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SHAPE_KEYS = {
    "d_in", "d_out", "m", "tokens_per_concept", "wall_s", "stage_ms", "traced_peak_mib",
    "held_after_mib", "max_erasure_err", "median_preserve_err", "sylvester_residual",
    "w_star_rank", "alpha",
}  # fmt: skip
STAGES = {"stabilizer", "informax", "solver", "geometry", "metrics"}
CLI_KEYS = {
    "d_in", "d_out", "m", "beta", "traced_wall_s", "traced_peak_mib",
    "decoupler_array_peak_mib", "decoupler_file_peak_mib", "max_erasure_err",
    "median_preserve_err", "sylvester_residual",
}  # fmt: skip


def numbers(value):
    """Every number in a JSON document, booleans aside."""
    if isinstance(value, dict):
        for v in value.values():
            yield from numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def test_stage_bench_at_tiny_sizes(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("stages", ROOT / "bench" / "stages.py")
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)
    out = tmp_path / "bench.json"
    assert stages.main(["--out", str(out), "--size", "tiny", "--runs", "2"]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "environment", "shapes", "cli_edit"}
    assert doc["config"]["size"] == "tiny" and doc["config"]["runs"] == 2
    assert {"numpy", "blas", "OPENBLAS_NUM_THREADS"} <= set(doc["environment"])
    assert len(doc["shapes"]) == len(stages.SHAPES["tiny"])
    for shape in doc["shapes"]:
        assert set(shape) == SHAPE_KEYS
        assert set(shape["stage_ms"]) == STAGES
        assert set(shape["alpha"]) == {"min", "median", "max"}
        assert 0.0 <= shape["alpha"]["min"] <= shape["alpha"]["max"] <= 1.0
        assert shape["held_after_mib"] <= shape["traced_peak_mib"]
        assert shape["sylvester_residual"] <= 1e-8
    assert set(doc["cli_edit"]) == CLI_KEYS
    found = list(numbers(doc))
    assert found and all(math.isfinite(x) for x in found)
