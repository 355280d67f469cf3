import builtins
import json
import struct

import numpy as np
import pytest

from scapre import smatio
from scapre.smatio import (
    CSV_COLUMNS,
    ManifestError,
    SmatFormatError,
    format_csv,
    load_manifest,
    read_smat,
    write_csv,
    write_report,
    write_smat,
)


class TestSmatRoundTrip:
    def test_single_zero(self, tmp_path):
        path = tmp_path / "z.smat"
        write_smat(path, np.array([[0.0]]))
        assert path.stat().st_size == 32
        back = read_smat(path)
        assert back.shape == (1, 1) and back[0, 0] == 0.0

    def test_negative_zero_and_subnormal_bits(self, tmp_path):
        m = np.array([[-0.0, 5e-324], [1.0, -1.0]])
        path = tmp_path / "edge.smat"
        write_smat(path, m)
        back = read_smat(path)
        assert back.tobytes() == m.tobytes()
        assert np.signbit(back[0, 0])
        assert back[0, 1] == 5e-324

    def test_random_size_formula(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((100, 64))
        path = tmp_path / "r.smat"
        write_smat(path, m)
        assert path.stat().st_size == 24 + 8 * 100 * 64
        assert read_smat(path).tobytes() == m.tobytes()

    def test_write_read_write_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((7, 3))
        p1, p2 = tmp_path / "a.smat", tmp_path / "b.smat"
        write_smat(p1, m)
        write_smat(p2, read_smat(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.smat"
        write_smat(path, np.array([[1.5, 2.5, 3.5]]))
        blob = path.read_bytes()
        magic, version, flags, rows, cols = struct.unpack_from("<4sHHQQ", blob)
        assert magic == b"SMAT" and version == 1 and flags == 0
        assert (rows, cols) == (1, 3)
        assert struct.unpack_from("<3d", blob, 24) == (1.5, 2.5, 3.5)


class TestSmatErrors:
    def test_truncated_cites_byte_counts(self, tmp_path):
        path = tmp_path / "t.smat"
        write_smat(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SmatFormatError, match=r"expected 152 bytes.*got 144"):
            read_smat(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.smat"
        path.write_bytes(b"SMAT\x01\x00")
        with pytest.raises(SmatFormatError, match="header"):
            read_smat(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.smat"
        write_smat(path, np.ones((1, 1)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(SmatFormatError, match="magic"):
            read_smat(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.smat"
        write_smat(path, np.ones((1, 1)))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(SmatFormatError, match="version"):
            read_smat(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "n.smat"
        write_smat(path, np.ones((1, 2)))
        blob = bytearray(path.read_bytes())
        blob[24:32] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(SmatFormatError, match="non-finite"):
            read_smat(path)

    def test_write_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            write_smat(tmp_path / "x.smat", np.array([[np.inf]]))


def minimal_manifest(tmp_path, **overrides):
    doc = {
        "lambda": {"relative": 0.1},
        "beta": 0.5,
        "interpolation_mode": "bw-geodesic",
        "target_mode": "zero-target",
        "seed": 3,
        "inputs": {
            "w0": "w0.smat",
            "concepts": "c.smat",
            "contexts": "ctx.smat",
            "context_groups": [1, 1],
            "sample_features": "f.smat",
            "sample_labels": "l.smat",
        },
        "outputs": {"weights": "w.smat", "report": "r.json", "csv": "row.csv"},
    }
    doc.update(overrides)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = load_manifest(minimal_manifest(tmp_path))
        assert manifest.seed == 3
        assert manifest.cfg.lam is None and manifest.cfg.lam_scale == 0.1
        assert manifest.cfg.target_mode == "zero-target"
        assert manifest.inputs["w0"] == (tmp_path / "w0.smat").resolve()
        assert manifest.outputs["report"].name == "r.json"

    def test_absolute_lambda(self, tmp_path):
        manifest = load_manifest(minimal_manifest(tmp_path, **{"lambda": 0.7}))
        assert manifest.cfg.lam == 0.7

    def test_unknown_top_key_named(self, tmp_path):
        path = minimal_manifest(tmp_path, extra_knob=1)
        with pytest.raises(ManifestError, match="extra_knob"):
            load_manifest(path)

    def test_unknown_input_key_named(self, tmp_path):
        path = minimal_manifest(
            tmp_path,
            inputs={
                "w0": "w0.smat",
                "concepts": "c.smat",
                "contexts": "ctx.smat",
                "context_groups": [1],
                "sample_features": "f.smat",
                "sample_labels": "l.smat",
                "bogus": "x.smat",
            },
        )
        with pytest.raises(ManifestError, match="bogus"):
            load_manifest(path)

    def test_missing_required_input(self, tmp_path):
        path = minimal_manifest(
            tmp_path,
            inputs={
                "w0": "w0.smat",
                "concepts": "c.smat",
                "contexts": "ctx.smat",
                "context_groups": [1],
                "sample_features": "f.smat",
            },
        )
        with pytest.raises(ManifestError, match="sample_labels"):
            load_manifest(path)

    def test_bad_lambda_shape(self, tmp_path):
        path = minimal_manifest(tmp_path, **{"lambda": "big"})
        with pytest.raises(ManifestError, match="lambda"):
            load_manifest(path)

    def test_bad_beta_value(self, tmp_path):
        path = minimal_manifest(tmp_path, beta=2.0)
        with pytest.raises(ManifestError, match="beta"):
            load_manifest(path)

    @pytest.mark.parametrize("beta", [True, "0.5", None])
    def test_beta_must_be_a_number(self, tmp_path, beta):
        path = minimal_manifest(tmp_path, beta=beta)
        with pytest.raises(ManifestError, match="beta must be a number"):
            load_manifest(path)

    def test_interpolation_mode_defaults_to_the_geodesic(self, tmp_path):
        path = minimal_manifest(tmp_path)
        doc = json.loads(path.read_text())
        del doc["interpolation_mode"]
        path.write_text(json.dumps(doc))
        assert load_manifest(path).cfg.interpolation_mode == "bw-geodesic"
        path = minimal_manifest(tmp_path, interpolation_mode="sqrt-blend")
        with pytest.raises(ManifestError, match="sqrt-blend mode was removed"):
            load_manifest(path)

    def test_bad_context_groups(self, tmp_path):
        path = minimal_manifest(tmp_path)
        doc = json.loads(path.read_text())
        doc["inputs"]["context_groups"] = [1, 0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="context_groups"):
            load_manifest(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError, match="JSON"):
            load_manifest(path)


class TestReportAndCsv:
    def test_report_json_strict(self, tmp_path):
        path = tmp_path / "rep.json"
        write_report(path, {"ok": 1.5, "bad": float("nan"), "nest": {"inf": float("inf")}})
        doc = json.loads(path.read_text())
        assert doc == {"ok": 1.5, "bad": None, "nest": {"inf": None}}

    def test_csv_schema_order(self):
        row = {c: 0.0 for c in CSV_COLUMNS}
        row.update(run_id="r0", m=2, d_in=4, d_out=3, mode="zero-target/bw-geodesic")
        text = format_csv([row])
        header, line = text.strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert line.startswith("r0,2,4,3,")

    def test_csv_floats_full_precision(self):
        row = {c: 0.0 for c in CSV_COLUMNS}
        row.update(run_id="r", m=1, d_in=1, d_out=1, mode="x", sylvester_residual=1e-300)
        assert "1e-300" in format_csv([row])


def _csv_row():
    row = {c: 0.0 for c in CSV_COLUMNS}
    row.update(run_id="r", m=1, d_in=1, d_out=1, mode="x")
    return row


class _FailingHalfway:
    """File handle that writes half of what it is given, then raises."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


WRITERS = {
    "smat": (write_smat, np.ones((3, 4)), np.zeros((2, 2))),
    "report": (write_report, {"run": 1.0}, {"run": 2.0, "more": [1, 2, 3]}),
    "csv": (write_csv, [_csv_row()], [_csv_row(), _csv_row()]),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, kind):
        write, old, new = WRITERS[kind]
        path = tmp_path / f"out.{kind}"
        write(path, old)
        before = path.read_bytes()
        monkeypatch.setattr(
            smatio, "open", lambda p, mode: _FailingHalfway(builtins.open(p, mode)), raising=False
        )
        with pytest.raises(OSError, match="no space"):
            write(path, new)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_overwrite_leaves_no_temporary(self, tmp_path, kind):
        write, old, new = WRITERS[kind]
        path = tmp_path / f"out.{kind}"
        write(path, old)
        write(path, new)
        reference = tmp_path / "reference"
        write(reference, new)
        assert path.read_bytes() == reference.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, "reference"])
