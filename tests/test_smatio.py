import builtins
import io
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from scapre import informax, smatio
from scapre.smatio import (
    CSV_COLUMNS,
    ManifestError,
    SmatFormatError,
    SmatRows,
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

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.smat"
        write_smat(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(SmatFormatError, match=r"expected 56 bytes.*got 57"):
            read_smat(path)

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        # a header claiming 2^20 x 2^20 entries (8 TiB) on a 24-byte file
        path = tmp_path / "huge.smat"
        path.write_bytes(struct.pack("<4sHHQQ", b"SMAT", 1, 0, 2**20, 2**20))
        tracemalloc.start()
        try:
            with pytest.raises(SmatFormatError, match=r"expected 8796093022232 bytes.*got 24"):
                read_smat(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_short_read_rejected(self):
        # a file that ends before its size said it would
        with pytest.raises(SmatFormatError, match="short read, expected 16 bytes, got 8"):
            smatio._read_exact(io.BytesIO(b"x" * 8), bytearray(16), "f.smat")

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


class TestSmatBuffers:
    @pytest.mark.parametrize("layout", ["fortran", "big-endian", "strided"])
    def test_layouts_write_their_c_ordered_little_endian_bytes(self, tmp_path, layout):
        source = np.random.default_rng(5).standard_normal((12, 30))
        m = {
            "fortran": np.asfortranarray(source),
            "big-endian": source.astype(">f8"),
            "strided": source[::2, 1::3],
        }[layout]
        write_smat(tmp_path / "m.smat", m)
        write_smat(tmp_path / "ref.smat", np.ascontiguousarray(m, dtype="<f8"))
        assert (tmp_path / "m.smat").read_bytes() == (tmp_path / "ref.smat").read_bytes()
        assert np.array_equal(read_smat(tmp_path / "m.smat"), m)

    def test_write_and_read_make_no_copy(self, tmp_path):
        # the writer sends the array's own buffer, the reader fills the
        # array it returns; both keep only the finite check's byte per entry
        m = np.random.default_rng(6).standard_normal((256, 512))
        path = tmp_path / "big.smat"
        tracemalloc.start()
        try:
            write_smat(path, m)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = read_smat(path)
            read_peak = tracemalloc.get_traced_memory()[1] - back.nbytes
        finally:
            tracemalloc.stop()
        assert write_peak < 0.25 * m.nbytes
        assert read_peak < 0.25 * m.nbytes
        assert back.tobytes() == m.tobytes()


def _passes(rows: SmatRows, count: int = 1) -> list[np.ndarray]:
    """Each of ``count`` passes of ``rows``, stacked, checking that blocks start where the last ended."""
    out = []
    for _ in range(count):
        parts, at = [], 0
        for start, block in rows.blocks():
            assert start == at
            parts.append(block.copy())
            at += len(block)
        out.append(np.vstack(parts))
    return out


def _malformed(path, kind):
    write_smat(path, np.ones((4, 3)))
    blob = path.read_bytes()
    path.write_bytes(
        {
            "truncated": blob[:-8],
            "trailing": blob + b"\0" * 8,
            "oversized": struct.pack("<4sHHQQ", b"SMAT", 1, 0, 2**20, 2**20),
            "bad-magic": b"NOPE" + blob[4:],
            "short-header": blob[:6],
        }[kind]
    )


class TestSmatRows:
    @pytest.mark.parametrize("per_block", [1, 7, 37, 100])
    def test_blocks_are_the_rows_of_read_smat(self, tmp_path, monkeypatch, per_block):
        # blocks of 1 and 7 rows, one block of all 37 and a budget beyond the file
        m = np.random.default_rng(7).standard_normal((37, 5))
        path = tmp_path / "f.smat"
        write_smat(path, m)
        monkeypatch.setattr(informax, "_BLOCK_BYTES", per_block * 8 * 5)
        with SmatRows(path) as rows:
            assert rows.shape == (37, 5)
            first, second = _passes(rows, 2)
        assert first.tobytes() == second.tobytes() == read_smat(path).tobytes()

    @pytest.mark.parametrize(
        "kind", ["truncated", "trailing", "oversized", "bad-magic", "short-header"]
    )
    def test_header_errors_are_read_smats(self, tmp_path, kind):
        path = tmp_path / "bad.smat"
        _malformed(path, kind)
        with pytest.raises(SmatFormatError) as expected:
            read_smat(path)
        with pytest.raises(SmatFormatError) as got:
            SmatRows(path)
        assert str(got.value) == str(expected.value)
        assert str(path) in str(got.value)

    def test_non_finite_block_fails_its_pass(self, tmp_path, monkeypatch):
        m = np.ones((9, 2))
        m[7, 1] = np.inf
        path = tmp_path / "n.smat"
        write_smat(path, np.ones((9, 2)))
        with open(path, "r+b") as fh:  # write_smat itself rejects the inf
            fh.seek(24)
            fh.write(m.tobytes())
        monkeypatch.setattr(informax, "_BLOCK_BYTES", 2 * 8 * 2)
        with SmatRows(path) as rows:
            starts = []
            with pytest.raises(SmatFormatError, match=f"{path}: payload contains non-finite"):
                for start, _ in rows.blocks():
                    starts.append(start)
        assert starts == [0, 2, 4]  # the block of rows 6 and 7 fails

    def test_keeps_reading_its_own_file_after_a_rename_over_the_path(self, tmp_path):
        old = np.arange(12.0).reshape(4, 3)
        path = tmp_path / "f.smat"
        write_smat(path, old)
        with SmatRows(path) as rows:
            write_smat(path, -np.ones((6, 3)))  # a new file renamed over the path
            (got,) = _passes(rows)
        assert np.array_equal(got, old)
        assert read_smat(path).shape == (6, 3)

    def test_a_file_cut_short_after_opening_is_a_short_read(self, tmp_path):
        path = tmp_path / "f.smat"
        write_smat(path, np.ones((4, 3)))
        with SmatRows(path) as rows:
            os.truncate(path, 24 + 8 * 3 * 2)
            with pytest.raises(SmatFormatError, match=f"{path}: short read"):
                _passes(rows)


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
