"""Container bytes against the former writers, and malformed files.

Every typed loader ends a malformed file in FormatError (exit 4): neither
the ValueError or ShapeError of the object it builds nor any other
exception escapes.
"""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from maskgrid.coding import CodingTensor, MaskSet, SpatialGrid
from maskgrid.container import (_KIND_BYTES, MAGIC, CodingFile, load_masks,
                                load_params, read_array, save_coding,
                                save_masks, save_params, write_array)
from maskgrid.decode import DoaCluster, DoaEstimates, sample_masks
from maskgrid.errors import FormatError
from maskgrid.estimator import EstimatorParams, init_params


def read_coding(path):
    """Every check and read that staged decode makes of a coding.bin: a
    CodingFile, one pass over its frames and one mask sample at its first
    and last cells."""
    source = CodingFile(path)
    for _ in source:
        pass
    grid = source.grid
    sample_masks(source, DoaEstimates(tuple(
        DoaCluster(grid.angle_of(g), 1) for g in (0, grid.theta_count - 1))))


LOADERS = (read_array, read_coding, load_masks, load_params)


def _kind_bytes(kind: str) -> bytes:
    """Former header kind packer, kept for the byte oracles below."""
    raw = kind.encode("ascii")
    if not raw or len(raw) > _KIND_BYTES:
        raise ValueError(f"kind must be 1..{_KIND_BYTES} ASCII bytes, got {kind!r}")
    return raw.ljust(_KIND_BYTES, b"\x00")


def _oracle_write_array(path, kind, array, span_deg=0.0, theta_count=0, seed=0):
    """Former write_array (header + arr.tobytes()), kept as the byte oracle."""
    arr = np.ascontiguousarray(array, dtype=np.float32)
    header = MAGIC + _kind_bytes(kind) + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    header += struct.pack("<dII", float(span_deg), theta_count, seed)
    Path(path).write_bytes(header + arr.tobytes(order="C"))


def _oracle_save_params(path, params):
    """Former save_params with its own header copy, kept as the byte oracle."""
    payload = np.concatenate([params.w1.ravel(), params.b1,
                              params.w2.ravel(), params.b2]).astype(np.float32)
    header = MAGIC + _kind_bytes("params") + struct.pack("<I", 3)
    header += struct.pack("<3I", params.input_dim, params.hidden_dim,
                          params.output_dim)
    header += struct.pack("<dII", 0.0, 0, params.seed)
    Path(path).write_bytes(header + payload.tobytes(order="C"))


def _same_bytes(tmp_path, write, oracle):
    write(tmp_path / "new.bin")
    oracle(tmp_path / "old.bin")
    return (tmp_path / "new.bin").read_bytes() == (tmp_path / "old.bin").read_bytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("container")


class TestWriterMatchesFormerBytes:
    @pytest.mark.parametrize("array", [
        np.array([0.1, -2.5, np.nan, np.inf]),
        np.zeros((0, 3)), np.arange(24.0).reshape(2, 3, 4)[:, ::2, ::-1],
        np.arange(12, dtype=np.float32).reshape(3, 4).T,
        np.arange(6).reshape(2, 3), [[0.25, 0.5]]],
        ids=["special", "empty", "strided", "f4_transposed", "int",
             "list"])
    def test_write_array(self, tmp_path, array):
        def write(path):
            write_array(path, "x", array, 360.0, 7, 4294967295)

        def oracle(path):
            _oracle_write_array(path, "x", array, 360.0, 7, 4294967295)

        assert _same_bytes(tmp_path, write, oracle)

    def test_real_coding(self, tmp_path, two_speaker_scene):
        coding = two_speaker_scene.coding
        assert _same_bytes(
            tmp_path, lambda p: save_coding(p, coding),
            lambda p: _oracle_write_array(p, "coding:mwslc", coding.values,
                                          span_deg=360.0, theta_count=720))

    @pytest.mark.parametrize("dims", [(9, 6, 10), (1, 1, 1), (7, 0, 3)])
    def test_save_params(self, tmp_path, dims):
        params = init_params(*dims, seed=3, output_bias=-4.0)
        assert _same_bytes(tmp_path, lambda p: save_params(p, params),
                           lambda p: _oracle_save_params(p, params))

    def test_save_params_from_strided_weights(self, tmp_path, rng):
        w1 = rng.standard_normal((6, 9)).T
        w2 = rng.standard_normal((10, 6))[:, ::-1].T
        params = EstimatorParams(w1, rng.standard_normal(6), w2,
                                 rng.standard_normal(10), seed=11)
        assert _same_bytes(tmp_path, lambda p: save_params(p, params),
                           lambda p: _oracle_save_params(p, params))

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @settings(max_examples=60, deadline=None)
    # The former writer widened 0-d arrays to shape (1,), so it is the byte
    # oracle only from ndim 1; test_container.py round-trips 0-d arrays.
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=4, min_side=0,
                                           max_side=5)),
           st.text("abc:_", min_size=1, max_size=16),
           st.floats(allow_nan=False), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1))
    def test_write_array_property(self, scratch, array, kind, span, theta, seed):
        assert _same_bytes(
            scratch, lambda p: write_array(p, kind, array, span, theta, seed),
            lambda p: _oracle_write_array(p, kind, array, span, theta, seed))


class TestTypedLoadersRaiseFormatError:
    def test_dims_whose_product_wraps_int64(self, tmp_path):
        # 65536**4 = 2**64 is 0 in int64 arithmetic, which would match an
        # empty payload; the exact count needs 2**66 bytes.
        path = tmp_path / "wrap.bin"
        path.write_bytes(struct.pack("<4s16sI4IdII", MAGIC, b"maskset", 4,
                                     *[65536] * 4, 0.0, 0, 0))
        for loader in LOADERS:
            with pytest.raises(FormatError, match="need 73786976294838206464"):
                loader(path)

    @pytest.mark.parametrize("theta", [0, 1])
    def test_coding_with_too_few_cells(self, tmp_path, theta):
        path = tmp_path / "coding.bin"
        write_array(path, "coding:mwslc", np.zeros((2, 3, theta)),
                    span_deg=360.0, theta_count=theta)
        with pytest.raises(FormatError, match="at least 2 cells"):
            CodingFile(path)

    @pytest.mark.parametrize("span", [0.0, -90.0, 360.5, math.inf, math.nan])
    def test_coding_span_outside_range(self, tmp_path, span):
        path = tmp_path / "coding.bin"
        write_array(path, "coding:mwslc", np.zeros((2, 3, 4)), span_deg=span,
                    theta_count=4)
        with pytest.raises(FormatError, match="span must be in"):
            CodingFile(path)

    @pytest.mark.parametrize("shape", [(), (4,), (3, 4), (1, 2, 3, 4)])
    def test_masks_not_three_dimensional(self, tmp_path, shape):
        path = tmp_path / "masks.bin"
        write_array(path, "maskset", np.zeros(shape))
        with pytest.raises(FormatError, match="3-D"):
            load_masks(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_params_non_finite_weight(self, tmp_path, bad):
        path = tmp_path / "params.bin"
        save_params(path, init_params(3, 2, 4, seed=1))
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", bad))
        with pytest.raises(FormatError, match="finite"):
            load_params(path)


def _valid_containers():
    """One small valid file's bytes per loader kind."""
    grid = SpatialGrid(4)
    values = np.linspace(0.0, 1.0, 24).reshape(2, 3, 4)
    out = {}
    writers = {
        "array": lambda p: write_array(p, "x", values[0, 0], seed=5),
        "coding": lambda p: save_coding(p, CodingTensor(values, grid, "mwslc")),
        "masks": lambda p: save_masks(p, MaskSet(values), span_deg=360.0),
        "params": lambda p: save_params(p, init_params(3, 2, 4, seed=1)),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in writers.items():
            path = Path(tmp) / f"{name}.bin"
            write(path)
            out[name] = path.read_bytes()
    return out


VALID = _valid_containers()


def _assert_loaders_return_or_raise_format_error(path, blob):
    path.write_bytes(blob)
    for loader in LOADERS:
        try:
            loader(path)
        except FormatError:
            pass


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
class TestFuzzedContainers:
    def test_valid_files_load(self, tmp_path):
        path = tmp_path / "valid.bin"
        for name, loader in (("coding", read_coding), ("masks", load_masks),
                             ("params", load_params), ("array", read_array)):
            path.write_bytes(VALID[name])
            loader(path)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=120),
                     st.binary(max_size=120).map(lambda b: MAGIC + b)))
    def test_any_byte_string(self, scratch, blob):
        _assert_loaders_return_or_raise_format_error(scratch / "any.bin", blob)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(VALID)), st.data())
    def test_truncated_or_extended(self, scratch, name, data):
        blob = VALID[name]
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        tail = data.draw(st.binary(max_size=40), label="tail")
        _assert_loaders_return_or_raise_format_error(
            scratch / "cut.bin", blob[:cut] + tail)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(VALID)), st.data())
    def test_overwritten_bytes(self, scratch, name, data):
        # Header fields (dims, span, theta_count) and payload values alike.
        blob = VALID[name]
        start = data.draw(st.integers(0, len(blob) - 1), label="start")
        patch = data.draw(st.binary(min_size=1, max_size=8), label="patch")
        patched = (blob[:start] + patch + blob[start + len(patch):])[:len(blob)]
        _assert_loaders_return_or_raise_format_error(
            scratch / "patched.bin", patched)
