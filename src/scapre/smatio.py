"""On-disk formats: the SMAT matrix container, run manifests, reports, CSV.

SMAT layout (little-endian, 24-byte header):

    offset  size  field
    0       4     magic "SMAT"
    4       2     version, uint16 (currently 1)
    6       2     flags, uint16 (currently 0)
    8       8     rows, uint64
    16      8     cols, uint64
    24      ...   rows*cols IEEE-754 binary64, row-major

Total file size is exactly ``24 + 8*rows*cols`` bytes and write-then-read
round trips are bit-identical, negative zeros and subnormals included.
"""

import json
import math
import os
import secrets
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import informax
from .matkernel import as_matrix
from .pipeline import EditConfig

__all__ = [
    "CSV_COLUMNS",
    "ManifestError",
    "RunManifest",
    "SmatFormatError",
    "SmatRows",
    "format_csv",
    "load_manifest",
    "read_smat",
    "write_csv",
    "write_report",
    "write_smat",
]

_MAGIC = b"SMAT"
_VERSION = 1
_HEADER = struct.Struct("<4sHHQQ")

# Fixed, versioned sweep/report row schema; the column order never changes.
CSV_COLUMNS = (
    "run_id",
    "m",
    "d_in",
    "d_out",
    "lambda",
    "beta",
    "mode",
    "sylvester_residual",
    "bures_before",
    "bures_after",
    "max_erasure_err",
    "median_preserve_err",
    "wall_ms",
)


class SmatFormatError(ValueError):
    """Malformed or truncated SMAT payload."""


class ManifestError(ValueError):
    """Malformed run manifest (unknown keys, bad values, missing entries)."""


def _write_atomic(path, *chunks) -> None:
    """Write ``chunks`` to a temporary file beside ``path``, then rename it over ``path``.

    Each chunk is a bytes-like object, such as a C-contiguous array.

    A failure part-way leaves the previous file (or no file) in place and
    removes the temporary one, so readers never see a truncated output.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_smat(path, m) -> None:
    """Write ``m`` to ``path`` in SMAT form, atomically.

    The header is followed by the array's own buffer, so a C-ordered
    little-endian float64 matrix is written without a copy; any other
    layout or byte order is converted once.
    """
    arr = np.ascontiguousarray(as_matrix(m, "matrix"), dtype="<f8")
    header = _HEADER.pack(_MAGIC, _VERSION, 0, arr.shape[0], arr.shape[1])
    _write_atomic(path, header, arr)


def _read_exact(fh, buf, path) -> None:
    """Fill ``buf`` from ``fh``; a file that ends first is a short read."""
    view = memoryview(buf).cast("B")
    got = 0
    while got < len(view):
        n = fh.readinto(view[got:])
        if not n:
            raise SmatFormatError(f"{path}: short read, expected {len(view)} bytes, got {got}")
        got += n


def _read_header(fh, path) -> tuple[int, int]:
    """Check the header of the SMAT file open as ``fh`` against its size; return its shape.

    Leaves ``fh`` at the start of the payload; nothing is allocated first, so
    a header that claims more than the file holds fails at once.
    """
    size = os.fstat(fh.fileno()).st_size
    if size < _HEADER.size:
        raise SmatFormatError(
            f"{path}: truncated header, expected at least {_HEADER.size} bytes, got {size}"
        )
    head = bytearray(_HEADER.size)
    _read_exact(fh, head, path)
    magic, version, flags, rows, cols = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise SmatFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise SmatFormatError(f"{path}: unsupported version {version}")
    if flags != 0:
        raise SmatFormatError(f"{path}: unsupported flags {flags:#06x}")
    if rows < 1 or cols < 1:
        raise SmatFormatError(f"{path}: dimensions must be positive, got {rows}x{cols}")
    expected = _HEADER.size + 8 * rows * cols
    if size != expected:
        raise SmatFormatError(f"{path}: expected {expected} bytes for {rows}x{cols}, got {size}")
    return rows, cols


def _read_payload(fh, arr, path) -> np.ndarray:
    """Fill the little-endian ``arr`` from ``fh``, check it is finite, return it as float64."""
    _read_exact(fh, arr, path)
    if not np.isfinite(arr).all():
        raise SmatFormatError(f"{path}: payload contains non-finite entries")
    return arr.astype(np.float64, copy=False)  # a copy only on a big-endian host


def read_smat(path) -> np.ndarray:
    """Read a SMAT file back into a float64 array, bit-exactly.

    The header is checked against the file's size before anything is
    allocated, and the payload is read straight into the returned array.
    """
    with open(path, "rb", buffering=0) as fh:
        shape = _read_header(fh, path)
        return _read_payload(fh, np.empty(shape, dtype="<f8"), path)


class SmatRows:
    """A SMAT matrix read a block of rows at a time, never whole.

    Opening checks the header against the file's size, as ``read_smat``
    does, and keeps that one descriptor until ``close``: every pass reads
    the file that was opened, even after another is renamed over the path.
    Each pass of ``blocks`` reads the payload into one buffer of about
    ``informax._BLOCK_BYTES`` (at least one row) and checks each block for
    finite values, so a bad payload fails on the first pass.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb", buffering=0)
        try:
            self.shape = _read_header(self._fh, path)
        except BaseException:
            self._fh.close()
            raise

    def blocks(self):
        """Yield ``(first_row, block)`` over the rows in order.

        Each block is a view of the pass's buffer, which the next block
        overwrites.
        """
        rows, cols = self.shape
        step = min(rows, max(1, informax._BLOCK_BYTES // (8 * cols)))
        buf = np.empty((step, cols), dtype="<f8")
        self._fh.seek(_HEADER.size)
        for start in range(0, rows, step):
            yield start, _read_payload(self._fh, buf[: min(step, rows - start)], self.path)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_TOP_KEYS = {
    "lambda",
    "beta",
    "interpolation_mode",
    "target_mode",
    "seed",
    "inputs",
    "outputs",
}
_INPUT_KEYS = {
    "w0",
    "concepts",
    "substitutes",
    "v_star",
    "contexts",
    "context_groups",
    "sample_features",
    "sample_labels",
    "preserved",
}
_REQUIRED_INPUTS = ("w0", "concepts", "contexts", "context_groups", "sample_features", "sample_labels")
_OUTPUT_KEYS = {"weights", "report", "csv"}


@dataclass(frozen=True)
class RunManifest:
    """One edit run, fully specified: config, seed, resolved file paths."""

    cfg: EditConfig
    seed: int
    inputs: dict[str, Any]
    outputs: dict[str, Path]


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ManifestError(f"unknown {where} key '{key}'")


def _number(raw, name: str) -> float:
    """A JSON number as a finite float: ``1e999`` parses to inf, which no setting takes."""
    try:
        if isinstance(raw, (int, float)) and not isinstance(raw, bool) and math.isfinite(raw):
            return float(raw)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ManifestError(f"{name} must be a number and finite, got {raw!r}")


def _parse_lambda(raw) -> dict[str, float]:
    """The ridge's ``EditConfig`` fields; with no ``"lambda"`` key, the config's default."""
    if raw is None:
        return {}
    if isinstance(raw, dict):
        _reject_unknown(raw, {"relative"}, "lambda")
        return {"lam_scale": _number(raw.get("relative"), "lambda.relative")}
    return {"lam": _number(raw, "lambda")}


def load_manifest(path) -> RunManifest:
    """Parse and validate a manifest; unknown keys are rejected by name.

    Relative paths resolve against the manifest's own directory.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "manifest")
    # the keys the manifest leaves out take EditConfig's defaults
    settings = {k: doc[k] for k in ("beta", "interpolation_mode", "target_mode") if k in doc}
    settings.update(_parse_lambda(doc.get("lambda")))
    if "beta" in settings:
        settings["beta"] = _number(settings["beta"], "beta")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ManifestError("seed must be an integer")

    inputs = doc.get("inputs")
    if not isinstance(inputs, dict):
        raise ManifestError("manifest needs an 'inputs' object")
    _reject_unknown(inputs, _INPUT_KEYS, "inputs")
    for key in _REQUIRED_INPUTS:
        if key not in inputs:
            raise ManifestError(f"inputs is missing required key '{key}'")

    outputs = doc.get("outputs")
    if not isinstance(outputs, dict):
        raise ManifestError("manifest needs an 'outputs' object")
    _reject_unknown(outputs, _OUTPUT_KEYS, "outputs")
    for key in _OUTPUT_KEYS:
        if key not in outputs:
            raise ManifestError(f"outputs is missing required key '{key}'")

    try:
        cfg = EditConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"{path}: {exc}") from exc

    base = path.parent
    groups = inputs["context_groups"]
    if not (
        isinstance(groups, list)
        and groups
        and all(isinstance(g, int) and not isinstance(g, bool) and g >= 1 for g in groups)
    ):
        raise ManifestError("context_groups must be a nonempty list of positive integers")

    resolved_inputs: dict[str, Any] = {"context_groups": list(groups)}
    for key, value in inputs.items():
        if key == "context_groups":
            continue
        if not isinstance(value, str):
            raise ManifestError(f"inputs.{key} must be a path string")
        resolved_inputs[key] = (base / value).resolve()
    resolved_outputs = {
        key: (base / value).resolve() if isinstance(value, str) else _bad_output(key)
        for key, value in outputs.items()
    }
    return RunManifest(cfg, seed, resolved_inputs, resolved_outputs)


def _bad_output(key: str):
    raise ManifestError(f"outputs.{key} must be a path string")


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def write_report(path, report: dict) -> None:
    """Write a report dict as stable, strictly valid JSON (NaN/Inf -> null), atomically."""
    text = json.dumps(_json_safe(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_atomic(path, text.encode())


def format_csv(rows) -> str:
    """Render rows under the fixed schema; floats keep full precision."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            value = row[col]
            if isinstance(value, float):
                cells.append(repr(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(path, rows) -> None:
    """Write rows under the fixed schema, atomically."""
    _write_atomic(path, format_csv(rows).encode())
