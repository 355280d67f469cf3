import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SHAPE_KEYS = {
    "d_in", "d_out", "m", "tokens_per_concept", "generate_peak_mib", "generate_held_mib",
    "wall_s", "stage_ms", "traced_peak_mib", "held_after_mib", "max_erasure_err",
    "median_preserve_err", "sylvester_residual", "dense_residual", "alpha",
}  # fmt: skip
STAGES = {"stabilizer", "informax", "solver", "geometry", "metrics"}
CLI_KEYS = {
    "d_in", "d_out", "m", "beta", "generate_peak_mib", "generate_held_mib", "wall_s",
    "stage_ms", "traced_peak_mib", "decoupler_array_peak_mib", "decoupler_file_peak_mib",
    "max_erasure_err", "median_preserve_err", "sylvester_residual", "dense_residual",
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


def estimate_within_3x(section) -> bool:
    """The solve's residual estimate within a factor 3 of the exact one, formed at tiny sizes."""
    exact = section["dense_residual"]
    return exact / 3 <= section["sylvester_residual"] <= 3 * exact


def load_stages():
    spec = importlib.util.spec_from_file_location("stages", ROOT / "bench" / "stages.py")
    stages = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stages)
    return stages


def test_stage_bench_at_tiny_sizes(tmp_path, capsys):
    stages = load_stages()
    out = tmp_path / "bench.json"
    # a reference every grid point meets: the rule picks the largest lam_scale
    shapes = [dict(zip(("d_in", "d_out", "m"), s), max_erasure_err=1e9) for s in stages.SHAPES["tiny"]]
    cli = dict(zip(("d_in", "d_out", "m"), stages.CLI_SHAPE["tiny"]), max_erasure_err=1e9)
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps({"shapes": shapes, "cli_edit": cli}))
    argv = ["--out", str(out), "--size", "tiny", "--runs", "2", "--reference", str(reference)]
    assert stages.main(argv) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "environment", "shapes", "cli_edit", "frontier"}
    assert doc["config"]["size"] == "tiny" and doc["config"]["runs"] == 2
    assert {"numpy", "blas", "OPENBLAS_NUM_THREADS"} <= set(doc["environment"])
    assert len(doc["shapes"]) == len(stages.SHAPES["tiny"])
    for shape in [*doc["shapes"], doc["cli_edit"]]:
        assert 0.0 < shape["generate_held_mib"] <= shape["generate_peak_mib"]
    for shape in doc["shapes"]:
        assert set(shape) == SHAPE_KEYS
        assert set(shape["stage_ms"]) == STAGES
        assert set(shape["alpha"]) == {"min", "median", "max"}
        assert 0.0 <= shape["alpha"]["min"] <= shape["alpha"]["max"] <= 1.0
        assert shape["held_after_mib"] <= shape["traced_peak_mib"]
        assert shape["sylvester_residual"] <= 1e-8
        assert estimate_within_3x(shape)
    assert set(doc["cli_edit"]) == CLI_KEYS
    assert estimate_within_3x(doc["cli_edit"])
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


def test_cli_edit_runs_as_often_as_the_shapes(monkeypatch):
    # --runs untraced edits give the times and stage_ms, one traced edit the peak
    stages = load_stages()
    edits = []
    main = stages.cli.main

    def counted(argv):
        if argv[0] == "edit":
            edits.append(tracemalloc.is_tracing())
        return main(argv)

    monkeypatch.setattr(stages.cli, "main", counted)
    section = stages.bench_cli(*stages.CLI_SHAPE["tiny"], 3)
    assert edits == [False, False, False, True]
    assert set(section) == CLI_KEYS and set(section["stage_ms"]) == STAGES


def test_frontier_makes_one_edit_per_ridge(monkeypatch):
    # one solve per lam_scale, and no full edit
    stages = load_stages()
    calls = []
    solve_edit = stages.solve_edit

    def counted(*args, **kwargs):
        calls.append(args[5].lam_scale)
        return solve_edit(*args, **kwargs)

    monkeypatch.setattr(stages, "solve_edit", counted)
    monkeypatch.setattr(stages, "run_edit", lambda *a, **kw: calls.append("run_edit"))
    for shape in stages.SHAPES["tiny"]:
        del calls[:]
        stages.frontier_shape(*shape)
        assert calls == list(stages.LAM_SCALES)


def test_frontier_points_equal_full_edits():
    # each beta's line step of the beta-0 edit scores as a full edit at that beta
    stages = load_stages()
    for shape in [*stages.SHAPES["tiny"], (*stages.CLI_SHAPE["tiny"], 1)]:
        d_in, d_out, m, tokens = shape
        model = stages.generate_model(
            stages.SyntheticModelSpec(
                d_in, d_out, m, stages.M_PRESERVED, tokens_per_concept=tokens, seed=stages.SEED
            )
        )
        points = stages.frontier_shape(*shape)["points"]
        assert len(points) == len(stages.LAM_SCALES) * len(stages.BETAS)
        for point in points:
            cfg = stages.EditConfig(lam_scale=point["lam_scale"], beta=point["beta"])
            _, report = stages.run_edit(
                model.w0, model.erase_spec, model.contexts, model.features, model.labels,
                cfg, preserved=model.preserved,
            )  # fmt: skip
            for key in ("max_erasure_err", "median_preserve_err", "sylvester_residual"):
                assert math.isclose(point[key], getattr(report, key), rel_tol=1e-12, abs_tol=0.0)
