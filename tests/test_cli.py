import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scapre.cli import _model_spec_from_args, build_parser, main
from scapre.harness import SyntheticModelSpec
from scapre.pipeline import EditConfig, run_edit
from scapre.smatio import load_manifest, read_smat, write_smat
from scapre.solver import EraseSpec


def run_gen(tmp_path, *extra):
    args = [
        "gen",
        "--d-in", "24",
        "--d-out", "12",
        "--targets", "3",
        "--preserved", "2",
        "--seed", "1",
        "--out-dir", str(tmp_path),
    ]
    assert main(args + list(extra)) == 0


def _spoil(path, fault):
    """Cut a SMAT file short, give it trailing bytes, or put a NaN in its last entry."""
    blob = bytearray(path.read_bytes())
    if fault == "truncated":
        blob = blob[:-8]
    elif fault == "trailing":
        blob += bytes(8)
    else:
        blob[-8:] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(blob))


class TestEditCommand:
    def test_gen_then_edit_succeeds(self, tmp_path, capsys):
        run_gen(tmp_path)
        assert main(["edit", str(tmp_path / "manifest.json")]) == 0
        out = capsys.readouterr().out
        assert "residual" in out
        weights = read_smat(tmp_path / "w_edited.smat")
        assert weights.shape == (12, 24)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["m"] == 3
        assert report["config"]["target_mode"] == "substitute-target"
        assert report["config"]["interpolation_mode"] == "bw-geodesic"
        assert isinstance(report["warnings"], list)
        assert report["alpha_min"] <= report["alpha_median"] <= report["alpha_max"]
        assert sorted(report["stage_ms"]) == ["geometry", "informax", "metrics", "solver", "stabilizer"]
        # kept for the benchmark, no longer computed: null in the JSON
        assert report["refinement_rank"] is report["bures_before"] is report["bures_after"] is None
        assert "w_star_rank" not in report and "refinement_moved_away" not in report
        env = report["environment"]
        assert sorted(env) == sorted(
            ["numpy", "blas", "blas_version", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        )
        assert env["numpy"] == np.__version__
        csv_text = (tmp_path / "report_row.csv").read_text()
        assert csv_text.startswith("run_id,m,d_in,d_out,lambda,beta,mode,")

    def test_gen_manifest_and_no_lambda_take_the_default_ridge(self, tmp_path, monkeypatch):
        # the relative ridge's default, and every other setting's, lives in
        # EditConfig alone: a manifest without the keys takes EditConfig's
        run_gen(tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        assert doc["lambda"] == {"relative": EditConfig().lam_scale}
        assert load_manifest(path).cfg.lam_scale == EditConfig().lam_scale
        for key in ("lambda", "beta", "target_mode"):  # gen writes no interpolation_mode
            del doc[key]
        path.write_text(json.dumps(doc))
        assert load_manifest(path).cfg == EditConfig()
        moved = functools.partial(EditConfig, beta=0.25, target_mode="zero-target")
        monkeypatch.setattr("scapre.smatio.EditConfig", moved)  # a changed default shows
        assert load_manifest(path).cfg == moved()

    def test_edit_deterministic_outputs(self, tmp_path):
        run_gen(tmp_path)
        manifest = str(tmp_path / "manifest.json")
        assert main(["edit", manifest]) == 0
        first = (tmp_path / "w_edited.smat").read_bytes()
        assert main(["edit", manifest]) == 0
        assert (tmp_path / "w_edited.smat").read_bytes() == first

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        run_gen(tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["surprise"] = 1
        path.write_text(json.dumps(doc))
        assert main(["edit", str(path)]) == 2
        assert "surprise" in capsys.readouterr().err

    def test_removed_sqrt_blend_mode_exit_2(self, tmp_path, capsys):
        run_gen(tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        assert "interpolation_mode" not in doc
        doc["interpolation_mode"] = "sqrt-blend"
        path.write_text(json.dumps(doc))
        assert main(["edit", str(path)]) == 2
        assert "sqrt-blend mode was removed" in capsys.readouterr().err

    @pytest.mark.parametrize("ridge", ['1e999', '{"relative": 1e999}'])
    def test_infinite_lambda_exit_2(self, tmp_path, capsys, ridge):
        # JSON's 1e999 parses to inf, a ridge that would zero the weights
        run_gen(tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["lambda"] = "RIDGE"
        path.write_text(json.dumps(doc).replace('"RIDGE"', ridge))
        assert main(["edit", str(path)]) == 2
        assert "lambda" in capsys.readouterr().err
        assert not (tmp_path / "w_edited.smat").exists()

    def test_missing_input_exit_4(self, tmp_path):
        run_gen(tmp_path)
        (tmp_path / "w0.smat").unlink()
        assert main(["edit", str(tmp_path / "manifest.json")]) == 4

    def test_truncated_smat_exit_4(self, tmp_path):
        run_gen(tmp_path)
        w0 = tmp_path / "w0.smat"
        w0.write_bytes(w0.read_bytes()[:-4])
        assert main(["edit", str(tmp_path / "manifest.json")]) == 4

    def test_weights_equal_run_edit_on_the_same_arrays(self, tmp_path):
        # the CLI streams the samples from their file; run_edit gets them as an array
        run_gen(tmp_path)
        assert main(["edit", str(tmp_path / "manifest.json")]) == 0
        run = load_manifest(tmp_path / "manifest.json")
        inputs = {k: read_smat(v) for k, v in run.inputs.items() if k != "context_groups"}
        bounds = np.cumsum(run.inputs["context_groups"])[:-1]
        spec = EraseSpec(
            inputs["concepts"], mode=run.cfg.target_mode, substitutes=inputs["substitutes"]
        )
        w, _ = run_edit(
            inputs["w0"], spec, np.split(inputs["contexts"], bounds),
            inputs["sample_features"], inputs["sample_labels"].ravel().astype(np.int64),
            run.cfg, preserved=inputs["preserved"],
        )  # fmt: skip
        assert read_smat(tmp_path / "w_edited.smat").tobytes() == w.tobytes()

    @pytest.mark.parametrize("fault", ["truncated", "trailing", "non-finite"])
    def test_bad_sample_file_exit_4_names_it(self, tmp_path, capsys, fault):
        run_gen(tmp_path)
        path = tmp_path / "samples_features.smat"
        _spoil(path, fault)
        assert main(["edit", str(tmp_path / "manifest.json")]) == 4
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "w_edited.smat").exists()

    def test_fifty_concept_manifest(self, tmp_path):
        args = [
            "gen",
            "--d-in", "768",
            "--d-out", "320",
            "--targets", "50",
            "--preserved", "10",
            "--out-dir", str(tmp_path),
        ]
        assert main(args) == 0
        assert main(["edit", str(tmp_path / "manifest.json")]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["m"] == 50
        assert report["sylvester_residual"] <= 1e-8

    def test_numerical_failure_exit_3_names_stage(self, tmp_path, capsys):
        run_gen(tmp_path)
        # wipe the neutral samples so the decoupler preconditions fail
        labels = read_smat(tmp_path / "samples_labels.smat")
        write_smat(tmp_path / "samples_labels.smat", np.ones_like(labels))
        assert main(["edit", str(tmp_path / "manifest.json")]) == 3
        assert "informax" in capsys.readouterr().err


class TestSolveCommand:
    def test_trivial_halving(self, tmp_path, capsys):
        write_smat(tmp_path / "b.smat", np.ones((3, 1)))
        write_smat(tmp_path / "a.smat", np.eye(3))
        m = np.arange(9.0).reshape(3, 3) + 1.0
        write_smat(tmp_path / "m.smat", m)
        out = tmp_path / "w.smat"
        assert (
            main(
                [
                    "solve",
                    "--b", str(tmp_path / "b.smat"),
                    "--a", str(tmp_path / "a.smat"),
                    "--m", str(tmp_path / "m.smat"),
                    "--out", str(out),
                ]
            )
            == 0
        )
        assert np.allclose(read_smat(out), m / 2.0)
        assert sorted(json.loads(capsys.readouterr().out)) == ["out", "residual"]

    def test_indefinite_a_exit_3(self, tmp_path):
        write_smat(tmp_path / "b.smat", np.ones((2, 1)))
        write_smat(tmp_path / "a.smat", np.diag([1.0, -1.0]))
        write_smat(tmp_path / "m.smat", np.ones((2, 2)))
        code = main(
            [
                "solve",
                "--b", str(tmp_path / "b.smat"),
                "--a", str(tmp_path / "a.smat"),
                "--m", str(tmp_path / "m.smat"),
                "--out", str(tmp_path / "w.smat"),
            ]
        )
        assert code == 3


class TestMiCommand:
    def test_writes_alpha(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        write_smat(tmp_path / "w.smat", rng.standard_normal((6, 4)))
        write_smat(tmp_path / "f.smat", rng.standard_normal((40, 4)))
        labels = np.array([0] * 20 + [1] * 20, dtype=float)[:, None]
        write_smat(tmp_path / "l.smat", labels)
        assert (
            main(
                [
                    "mi",
                    "--weights", str(tmp_path / "w.smat"),
                    "--features", str(tmp_path / "f.smat"),
                    "--labels", str(tmp_path / "l.smat"),
                    "--out", str(tmp_path / "alpha.smat"),
                ]
            )
            == 0
        )
        alpha = read_smat(tmp_path / "alpha.smat")
        assert alpha.shape == (6, 1)
        assert (alpha >= 0).all() and (alpha <= 1).all()
        summary = json.loads(capsys.readouterr().out)
        assert summary["channels"] == 6


    @pytest.mark.parametrize("fault", ["truncated", "trailing", "non-finite"])
    def test_bad_sample_file_exit_4_names_it(self, tmp_path, capsys, fault):
        rng = np.random.default_rng(1)
        write_smat(tmp_path / "w.smat", rng.standard_normal((6, 4)))
        write_smat(tmp_path / "f.smat", rng.standard_normal((40, 4)))
        write_smat(tmp_path / "l.smat", np.repeat([0.0, 1.0], 20)[:, None])
        _spoil(tmp_path / "f.smat", fault)
        argv = ["mi", "--weights", str(tmp_path / "w.smat"), "--features", str(tmp_path / "f.smat"),
                "--labels", str(tmp_path / "l.smat"), "--out", str(tmp_path / "alpha.smat")]  # fmt: skip
        assert main(argv) == 4
        assert str(tmp_path / "f.smat") in capsys.readouterr().err
        assert not (tmp_path / "alpha.smat").exists()


class TestEvalCommand:
    def test_uq_table(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "label,unlearn,quality\n"
            "ref,89.9,31.43\n"
            "m1,71.9,30.62\n"
            "m2,47.4,30.81\n"
            "m3,38.7,30.14\n"
            "m4,78.5,31.02\n"
            "m5,8.5,29.45\n"
            "m6,4.9,29.27\n"
            "m7,9.6,29.25\n"
            "m8,0.8,30.43\n"
        )
        out = tmp_path / "uq.csv"
        assert (
            main(
                [
                    "eval",
                    "--scores", str(scores),
                    "--baseline", "ref",
                    "--out", str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "label,uq_sigmoid,uq_minmax,uq_rank"
        table = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert table["ref"] == ["", "", ""]
        assert float(table["m8"][0]) == pytest.approx(64.09, abs=0.05)
        assert float(table["m8"][1]) == pytest.approx(0.800, abs=0.001)
        assert float(table["m8"][2]) == pytest.approx(0.727, abs=0.001)

    def test_missing_baseline_label_exit_2(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("label,unlearn,quality\na,1,2\nb,3,4\n")
        assert main(["eval", "--scores", str(scores), "--baseline", "zzz"]) == 2

    def test_bad_columns_exit_2(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("name,acc\nx,1\n")
        assert main(["eval", "--scores", str(scores)]) == 2

    def test_non_numeric_score_exit_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("label,unlearn,quality\na,1,2\nb,x,4\n")
        assert main(["eval", "--scores", str(scores)]) == 2
        assert "row 'b', column unlearn" in capsys.readouterr().err

    def test_non_finite_score_exit_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("label,unlearn,quality\na,1,nan\nb,3,4\n")
        assert main(["eval", "--scores", str(scores)]) == 2
        assert "row 'a', column quality" in capsys.readouterr().err


class TestOracleCommand:
    def test_agreement_report(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((5, 5))
        write_smat(tmp_path / "a.smat", 0.5 * np.eye(5) + g @ g.T / 5)
        write_smat(tmp_path / "b.smat", rng.uniform(0, 1, (4, 1)))
        write_smat(tmp_path / "m.smat", rng.standard_normal((4, 5)))
        assert (
            main(
                [
                    "oracle",
                    "--b", str(tmp_path / "b.smat"),
                    "--a", str(tmp_path / "a.smat"),
                    "--m", str(tmp_path / "m.smat"),
                    "--trials", "20",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["gd_rel_diff"] < 1e-4
        assert doc["perturbation_check"] is True


class TestSweepCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert (
            main(
                [
                    "sweep",
                    "--d-in", "32",
                    "--d-out", "12",
                    "--preserved", "2",
                    "--counts", "1,2",
                    "--out", str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--counts", "5,abc"],
        ["sweep", "--counts", "10,5"],
        ["sweep", "--counts", "0"],
        ["sweep", "--similarity", "1.5"],
        ["sweep", "--beta", "1.5"],
        ["sweep", "--targets", "999"],
        ["gen", "--targets", "0"],
        ["gen", "--d-in", "8", "--targets", "10"],
        ["gen", "--beta", "1.5"],
    ],
)
def test_invalid_flags_exit_2_before_any_work(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path / "s.csv")] if argv[0] == "sweep" else ["--out-dir", str(tmp_path)]
    assert main(argv + out) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["gen", "--out-dir", "x"], ["sweep", "--out", "x"]])
def test_model_flags_default_to_the_spec(argv, monkeypatch):
    # every knob left unset on the command line takes SyntheticModelSpec's
    # default, and --beta EditConfig's: a changed default shows
    monkeypatch.setattr(EditConfig, "beta", 0.25)
    args = build_parser().parse_args(argv)
    # gen draws --targets concepts; sweep has no count of its own, each row
    # takes one from --counts
    m = args.targets if argv[0] == "gen" else 7
    assert (args.targets is None) == (argv[0] == "sweep")
    sizes = {"d_in": args.d_in, "d_out": args.d_out, "m_targets": m}
    assert _model_spec_from_args(args, m) == SyntheticModelSpec(**sizes, m_preserved=args.preserved)
    assert args.beta == 0.25


class TestSubprocessEntry:
    # the child finds the package from a bare checkout, as the demos test does
    ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def test_module_invocation(self, tmp_path):
        run_gen(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "scapre", "edit", str(tmp_path / "manifest.json")],
            env=self.ENV,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_usage_error_exit_2(self):
        proc = subprocess.run(
            # every input but --b
            [sys.executable, "-m", "scapre", "solve", "--a", "a.smat", "--m", "m.smat",
             "--out", "w.smat"],
            env=self.ENV,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "--b" in proc.stderr
