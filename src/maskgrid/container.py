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

Files are written piece by piece to a sibling ".tmp" file that takes the
path's place once complete. Readers check the file size against the dims
before reading any payload byte; `CodingFile` reads a frame at a time.

The JSON artifacts (truth.json, doas.json) are read by load_json under the
same rule: every fault in a file's bytes is a FormatError.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .coding import (CODING_KINDS, CodingTensor, FrameSource, MaskSet,
                     SpatialGrid)
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


@contextmanager
def _writer(path, kind: str, dims, span_deg: float = 0.0,
            theta_count: int = 0, seed: int = 0):
    """Yield put(block), which appends block's <f4 payload after the header.

    The bytes go to path + ".tmp", which is renamed to path only once the
    block exits without error, so a failed write leaves no partial file.
    The former file is removed just before the rename: on ext4, renaming
    over an existing file makes the kernel flush the new data first, and
    writing 46 MB that way measured slower than writing in place.
    """
    raw = kind.encode("ascii")
    if not raw or len(raw) > _KIND_BYTES:
        raise ConfigError(f"kind must be 1..{_KIND_BYTES} ASCII bytes, got {kind!r}")
    # The struct "s" field NUL-pads the kind to _KIND_BYTES.
    header = struct.pack(f"<4s{_KIND_BYTES}sI{len(dims)}IdII", MAGIC, raw,
                         len(dims), *dims, float(span_deg), theta_count, seed)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            yield lambda block: np.asarray(block, dtype="<f4").tofile(fh)
        path.unlink(missing_ok=True)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already after the rename


def write_array(path, kind: str, array: np.ndarray, span_deg: float = 0.0,
                theta_count: int = 0, seed: int = 0) -> None:
    """Write one array under the given kind tag."""
    arr = np.asarray(array, dtype="<f4", order="C")
    with _writer(path, kind, arr.shape, span_deg, theta_count, seed) as put:
        put(arr)


def _header(fh, name: str):
    """(kind, header dims, payload shape, span, theta, seed) of the
    container open in fh, which is left at the payload. The payload's size
    is checked against the file's before any payload byte is read."""
    head = fh.read(8 + _KIND_BYTES)
    if len(head) < 8 + _KIND_BYTES or head[:4] != MAGIC:
        raise FormatError(f"{name}: not a container file")
    kind = head[4 : 4 + _KIND_BYTES].rstrip(b"\x00").decode("ascii", "replace")
    (ndim,) = struct.unpack_from("<I", head, 4 + _KIND_BYTES)
    rest = fh.read(4 * ndim + 16) if ndim <= 8 else b""
    if len(rest) < 4 * ndim + 16:
        raise FormatError(f"{name}: truncated header")
    fields = struct.unpack(f"<{ndim}IdII", rest)
    dims, (span, theta, seed) = fields[:ndim], fields[ndim:]
    shape = dims
    if kind == "params" and len(dims) == 3:
        # Parameter files store layer sizes, not payload dims; the payload
        # is the concatenation of two weight matrices and two bias vectors.
        f_in, hidden, out = dims
        shape = (f_in * hidden + hidden + hidden * out + out,)
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != 4 * math.prod(shape):
        raise FormatError(f"{name}: payload holds {size} bytes, "
                          f"dims {dims} need {4 * math.prod(shape)}")
    # numpy rejects a float64 shape whose nonzero dims multiply beyond its
    # byte range, even when another dim is 0 and the payload is empty.
    if math.prod(d for d in shape if d) > sys.maxsize // 8:
        raise FormatError(f"{name}: dims {dims} are too large for an array")
    return kind, dims, shape, span, theta, seed


def _payload(fh, name: str, shape) -> np.ndarray:
    """The next prod(shape) float32 values of fh, as a float64 array."""
    count = math.prod(shape)
    arr = np.fromfile(fh, "<f4", count)
    if arr.size != count:  # the file shrank after its size was checked
        raise FormatError(f"{name}: payload ends after {arr.size} of "
                          f"{count} values")
    return arr.reshape(shape).astype(np.float64)


def read_array(path):
    """Read any container; returns (kind, float64 array, span, theta, seed).

    Raises:
        FormatError: wrong magic, truncated header, or payload size mismatch.
    """
    with open(path, "rb") as fh:
        kind, _, shape, span, theta, seed = _header(fh, str(path))
        arr = _payload(fh, str(path), shape)
    return kind, arr, span, theta, seed


def written(path, coding) -> FrameSource:
    """`coding` (a coding source, see coding.CodingTensor) as a FrameSource
    whose iteration writes it to path a frame at a time and yields each
    frame's float32 values as written, so another consumer shares the
    write pass. The file takes path's place once the last frame is written;
    an iteration stopped early leaves the former file."""
    grid = coding.grid

    def frames():
        stored = np.empty((coding.bins, grid.theta_count), dtype="<f4")
        with _writer(path, f"coding:{coding.kind}",
                     (coding.frames, coding.bins, grid.theta_count),
                     span_deg=grid.span_deg,
                     theta_count=grid.theta_count) as put:
            for frame in coding:
                np.copyto(stored, frame)
                # Held, a fresh frame would sit beside the source's next one.
                del frame
                put(stored)
                yield stored

    return FrameSource(coding.frames, coding.bins, grid, coding.kind, frames)


def save_coding(path, coding) -> None:
    """Write a coding source a frame at a time; a FrameBlocks or FrameSource
    is never held as a full tensor."""
    for _ in written(path, coding):
        pass


class CodingFile:
    """A coding.bin as a coding source (see coding.CodingTensor): each
    iteration reads the file again, a frame's float32 values at a time into
    one reused array, so its full tensor is never held. The header, kind
    tag and grid are checked here (a coding needs at least one bin), and
    each frame as it is read: NaN or inf in it is a FormatError."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            kind, dims, _, span, theta, _ = _header(fh, str(path))
            self._offset = fh.tell()
        if not kind.startswith("coding:") or kind[7:] not in CODING_KINDS:
            raise FormatError(f"{path}: kind {kind!r} is not a coding tensor")
        empty = _build(path, lambda: CodingTensor(
            np.empty((0,) + dims[1:]), SpatialGrid(theta, span), kind[7:]))
        if dims[1] == 0:
            raise FormatError(f"{path}: dims {dims} hold no frequency bin")
        self.frames, self.bins = dims[0], dims[1]
        self.grid, self.kind = empty.grid, empty.kind

    def __iter__(self):
        frame = np.empty((self.bins, self.grid.theta_count), dtype="<f4")
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            for t in range(self.frames):
                got = fh.readinto(frame)
                if got != frame.nbytes:  # the file shrank after opening
                    raise FormatError(
                        f"{self.path}: payload ends after "
                        f"{t * frame.size + got // 4} of "
                        f"{self.frames * frame.size} values")
                if not np.isfinite(frame).all():
                    raise FormatError(f"{self.path}: frame {t} holds NaN or inf")
                yield frame


def save_masks(path, masks: MaskSet, span_deg: float = 0.0) -> None:
    write_array(path, "maskset", masks.values, span_deg=span_deg)


def load_masks(path) -> MaskSet:
    kind, arr, _, _, _ = read_array(path)
    if kind != "maskset":
        raise FormatError(f"{path}: kind {kind!r} is not a mask set")
    masks = _build(path, lambda: MaskSet(np.clip(arr, 0.0, None)))
    finite = np.isfinite(arr).all(axis=(0, 2))
    if not finite.all():
        raise FormatError(f"{path}: frame {finite.argmin()} holds NaN or inf")
    return masks


def save_params(path, params: EstimatorParams) -> None:
    """Weights as four stacked payload blocks; dims carry the layer sizes.

    The header dims are (input_dim, hidden_dim, output_dim) rather than the
    flat payload length, which the reader reconstructs.

    Raises:
        NumericError: a weight beyond the float32 range, which would be
            stored as inf; nothing is written.
    """
    if not params.fits(np.float32):
        raise NumericError(f"{path}: a weight exceeds the float32 maximum "
                           f"{np.finfo(np.float32).max:.4g} and would be "
                           f"stored as inf")
    with _writer(path, "params",
                 (params.input_dim, params.hidden_dim, params.output_dim),
                 seed=params.seed) as put:
        for block in (params.w1, params.b1, params.w2, params.b2):
            put(block)


def load_params(path) -> EstimatorParams:
    with open(path, "rb") as fh:
        kind, dims, shape, _, _, seed = _header(fh, str(path))
        flat = _payload(fh, str(path), shape)
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
