"""Flat binary container for coding tensors, mask sets, and model weights.

Layout (all little-endian):

    offset  size        field
    0       4           magic b"MGT1"
    4       16          kind, ASCII, NUL-padded
    20      4           ndim (uint32)
    24      4 * ndim    dims (uint32 each)
    ...     8           span_deg (float64; 0 when not grid-shaped)
    ...     4           theta_count (uint32; 0 when not grid-shaped)
    ...     4           seed (uint32; 0 when not applicable)
    ...     4 * prod    payload, float32, C order

Payloads are 32-bit floats, so round-tripping float64 data quantizes it;
the format targets interchange, not lossless archival. Kind "params" is
the one special case: its dims are the three layer sizes (input, hidden,
output) and the payload is the flattened concatenation w1, b1, w2, b2.

The JSON artifacts (truth.json, doas.json) are read by load_json under the
same rule: every fault in a file's bytes is a FormatError.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .coding import CODING_KINDS, CodingTensor, MaskSet, SpatialGrid
from .errors import ConfigError, FormatError, NumericError
from .estimator import EstimatorParams

MAGIC = b"MGT1"
_KIND_BYTES = 16


def _build(path, make):
    """make(); the built object's own value or shape check is a file fault."""
    try:
        return make()
    except ConfigError as err:
        raise FormatError(f"{path}: {err}") from None


def _write(path, kind: str, dims, blocks, span_deg: float = 0.0,
           theta_count: int = 0, seed: int = 0) -> None:
    """Pack the header once, then write each block's <f4 payload in turn."""
    raw = kind.encode("ascii")
    if not raw or len(raw) > _KIND_BYTES:
        raise ConfigError(f"kind must be 1..{_KIND_BYTES} ASCII bytes, got {kind!r}")
    # The struct "s" field NUL-pads the kind to _KIND_BYTES.
    header = struct.pack(f"<4s{_KIND_BYTES}sI{len(dims)}IdII", MAGIC, raw,
                         len(dims), *dims, float(span_deg), theta_count, seed)
    with open(path, "wb") as fh:
        fh.write(header)
        for block in blocks:
            np.asarray(block, dtype="<f4").tofile(fh)


def write_array(path, kind: str, array: np.ndarray, span_deg: float = 0.0,
                theta_count: int = 0, seed: int = 0) -> None:
    """Write one array under the given kind tag."""
    arr = np.asarray(array, dtype="<f4", order="C")
    _write(path, kind, arr.shape, [arr], span_deg, theta_count, seed)


def _parse(blob: bytes, name: str):
    """(kind, header dims, float64 payload, span, theta, seed) of a container."""
    if len(blob) < 4 + _KIND_BYTES + 4 or blob[:4] != MAGIC:
        raise FormatError(f"{name}: not a container file")
    kind = blob[4 : 4 + _KIND_BYTES].rstrip(b"\x00").decode("ascii", "replace")
    (ndim,) = struct.unpack_from("<I", blob, 4 + _KIND_BYTES)
    pos = 8 + _KIND_BYTES + 4 * ndim + 16  # payload offset
    if ndim > 8 or len(blob) < pos:
        raise FormatError(f"{name}: truncated header")
    fields = struct.unpack_from(f"<{ndim}IdII", blob, 8 + _KIND_BYTES)
    dims, (span, theta, seed) = fields[:ndim], fields[ndim:]
    shape = dims
    if kind == "params" and len(dims) == 3:
        # Parameter files store layer sizes, not payload dims; the payload
        # is the concatenation of two weight matrices and two bias vectors.
        f_in, hidden, out = dims
        shape = (f_in * hidden + hidden + hidden * out + out,)
    count = math.prod(shape)
    if len(blob) - pos != 4 * count:
        raise FormatError(f"{name}: payload holds {len(blob) - pos} bytes, "
                          f"dims {dims} need {4 * count}")
    arr = np.frombuffer(blob, "<f4", count, pos).reshape(shape).astype(np.float64)
    return kind, dims, arr, span, theta, seed


def read_array(path):
    """Read any container; returns (kind, float64 array, span, theta, seed).

    Raises:
        FormatError: wrong magic, truncated header, or payload size mismatch.
    """
    kind, _, arr, span, theta, seed = _parse(Path(path).read_bytes(), str(path))
    return kind, arr, span, theta, seed


def save_coding(path, coding: CodingTensor) -> None:
    write_array(path, f"coding:{coding.kind}", coding.values,
                span_deg=coding.grid.span_deg,
                theta_count=coding.grid.theta_count)


def load_coding(path) -> CodingTensor:
    kind, arr, span, theta, _ = read_array(path)
    if not kind.startswith("coding:") or kind[7:] not in CODING_KINDS:
        raise FormatError(f"{path}: kind {kind!r} is not a coding tensor")
    return _build(path, lambda: CodingTensor(arr, SpatialGrid(theta, span), kind[7:]))


def save_masks(path, masks: MaskSet, span_deg: float = 0.0) -> None:
    write_array(path, "maskset", masks.values, span_deg=span_deg)


def load_masks(path) -> MaskSet:
    kind, arr, _, _, _ = read_array(path)
    if kind != "maskset":
        raise FormatError(f"{path}: kind {kind!r} is not a mask set")
    return _build(path, lambda: MaskSet(np.clip(arr, 0.0, None)))


def save_params(path, params: EstimatorParams) -> None:
    """Weights as four stacked payload blocks; dims carry the layer sizes.

    The header dims are (input_dim, hidden_dim, output_dim) rather than the
    flat payload length, which the reader reconstructs.

    Raises:
        NumericError: a weight beyond the float32 range, which would be
            stored as inf; nothing is written.
    """
    blocks = [params.w1, params.b1, params.w2, params.b2]
    limit = np.finfo(np.float32).max
    if not all(np.all(np.abs(b) <= limit) for b in blocks):
        raise NumericError(f"{path}: a weight exceeds the float32 maximum "
                           f"{limit:.4g} and would be stored as inf")
    _write(path, "params",
           (params.input_dim, params.hidden_dim, params.output_dim),
           blocks, seed=params.seed)


def load_params(path) -> EstimatorParams:
    kind, dims, flat, _, _, seed = _parse(Path(path).read_bytes(), str(path))
    if kind != "params":
        raise FormatError(f"{path}: kind {kind!r} is not a parameter file")
    if len(dims) != 3:
        raise FormatError(f"{path}: parameter container must have 3 dims")
    f_in, hidden, out = dims
    w1, b1, w2, b2 = np.split(flat, np.cumsum([f_in * hidden, hidden,
                                                hidden * out]))
    return _build(path, lambda: EstimatorParams(
        w1.reshape(f_in, hidden), b1, w2.reshape(hidden, out), b2, seed))


def _checked(value, schema, where: str):
    """value matched to schema: float (finite; an int is accepted), int,
    [item schema] or {key: schema}; a mismatch is a FormatError."""
    if isinstance(schema, dict) and type(value) is dict:
        return {k: _checked(value.get(k), s, f"{where}.{k}")
                for k, s in schema.items()}
    if isinstance(schema, list) and type(value) is list:
        return [_checked(v, schema[0], f"{where}[{i}]")
                for i, v in enumerate(value)]
    if (schema in (int, float) and type(value) in (int, schema)
            and abs(value) < 1e300):
        return schema(value)
    name = getattr(schema, "__name__", type(schema).__name__)
    raise FormatError(f"{where}: expected {name}, got {value!r:.40}")


def load_json(path, schema, build):
    """build(fields) of the JSON artifact at path, typed by schema; bad or
    too deeply nested JSON, a missing or mistyped field, or a value build
    rejects is a FormatError."""
    try:
        data = json.loads(Path(path).read_bytes().decode("utf-8", "replace"))
        fields = _checked(data, schema, str(path))
    except (json.JSONDecodeError, RecursionError) as err:
        raise FormatError(f"{path}: {err}") from None
    return _build(path, lambda: build(fields))
