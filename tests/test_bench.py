import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SHAPE_KEYS = {
    "d_in", "d_out", "m", "tokens_per_concept", "wall_s", "stage_ms", "traced_peak_mib",
    "held_after_mib", "max_erasure_err", "median_preserve_err", "sylvester_residual", "alpha",
}  # fmt: skip
STAGES = {"stabilizer", "informax", "solver", "geometry", "metrics"}
HIGH_RANK_KEYS = {
    "d_in", "d_out", "m", "beta", "v_star_seed", "wall_s", "stage_ms",
}  # fmt: skip
CLI_KEYS = {
    "d_in", "d_out", "m", "beta", "traced_wall_s", "stage_ms", "traced_peak_mib",
    "decoupler_array_peak_mib", "decoupler_file_peak_mib", "max_erasure_err",
    "median_preserve_err", "sylvester_residual",
}  # fmt: skip
FRONTIER_KEYS = {"config", "shapes", "rule_pick", "chosen_lam_scale"}
POINT_KEYS = {"lam_scale", "beta", "max_erasure_err", "median_preserve_err", "sylvester_residual"}


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
    # a reference every grid point meets: the rule picks the largest lam_scale
    shapes = [dict(zip(("d_in", "d_out", "m"), s), max_erasure_err=1e9) for s in stages.SHAPES["tiny"]]
    cli = dict(zip(("d_in", "d_out", "m"), stages.CLI_SHAPE["tiny"]), max_erasure_err=1e9)
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"shapes": shapes, "cli_edit": cli}))
    argv = ["--out", str(out), "--size", "tiny", "--runs", "2", "--reference", str(reference)]
    assert stages.main(argv) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "environment", "shapes", "high_rank", "cli_edit", "frontier"}
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
    high = doc["high_rank"]
    assert set(high) == HIGH_RANK_KEYS and set(high["stage_ms"]) == STAGES
    assert set(doc["cli_edit"]) == CLI_KEYS
    assert set(doc["cli_edit"]["stage_ms"]) == STAGES
    frontier = doc["frontier"]
    assert set(frontier) == FRONTIER_KEYS
    assert len(frontier["shapes"]) == len(stages.SHAPES["tiny"]) + 1  # the CLI shape last
    grid = len(stages.LAM_SCALES) * len(stages.BETAS)
    for shape in frontier["shapes"]:
        assert len(shape["points"]) == grid
        assert all(set(p) == POINT_KEYS and p["sylvester_residual"] <= 1e-8 for p in shape["points"])
    assert frontier["rule_pick"] == max(stages.LAM_SCALES)
    assert frontier["chosen_lam_scale"] == stages.EditConfig().lam_scale
    # a reference no grid point meets: no pick
    for ref in shapes + [cli]:
        ref["max_erasure_err"] = 0.0
    assert stages.rule_pick(frontier["shapes"], {"shapes": shapes, "cli_edit": cli}) is None
    found = list(numbers(doc))
    assert found and all(math.isfinite(x) for x in found)
