"""Binary container round trips and corruption handling."""

import gc
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from maskgrid.coding import (ENCODERS, CodingTensor, FrameBlocks, MaskSet,
                             SpatialGrid)
from maskgrid.container import (MAGIC, CodingFile, load_masks, load_params,
                                read_array, save_coding, save_masks,
                                save_params, write_array, written)
from maskgrid.decode import DoaCluster, DoaEstimates, sample_masks
from maskgrid.errors import FormatError, NumericError
from maskgrid.estimator import EstimatorParams, init_params


def _f4_exact(rng, shape):
    """Random values exactly representable in float32."""
    return np.round(rng.uniform(-1, 1, shape) * 1024) / 1024


class TestWriteRead:
    def test_round_trip_preserves_everything(self, tmp_path, rng):
        path = tmp_path / "a.bin"
        data = _f4_exact(rng, (3, 5, 7))
        write_array(path, "coding:mwslc", data, span_deg=360.0,
                    theta_count=7, seed=42)
        kind, arr, span, theta, seed = read_array(path)
        assert kind == "coding:mwslc"
        assert arr.dtype == np.float64
        np.testing.assert_array_equal(arr, data)
        assert (span, theta, seed) == (360.0, 7, 42)

    def test_float32_quantization(self, tmp_path):
        path = tmp_path / "q.bin"
        value = 0.1  # not f4-representable
        write_array(path, "x", np.array([value]))
        _, arr, _, _, _ = read_array(path)
        assert arr[0] != value
        assert arr[0] == pytest.approx(value, rel=1e-7)

    @pytest.mark.parametrize("value", [np.float64(0.1), np.float64(2.5),
                                       np.array(-3.0), 7],
                             ids=["scalar", "exact", "0d_array", "int"])
    def test_scalar_round_trips_as_0d(self, tmp_path, value):
        # The header records ndim 0 and no dims; the payload is one float32.
        path = tmp_path / "s.bin"
        write_array(path, "x", value, 360.0, 7, 4294967295)
        assert path.stat().st_size == 4 + 16 + 4 + 16 + 4
        kind, arr, span, theta, seed = read_array(path)
        assert arr.shape == ()
        assert arr == np.float32(value)
        assert (kind, span, theta, seed) == ("x", 360.0, 7, 4294967295)

    def test_bad_magic_rejected(self, tmp_path, rng):
        path = tmp_path / "bad.bin"
        write_array(path, "x", _f4_exact(rng, (2, 2)))
        blob = path.read_bytes()
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(FormatError):
            read_array(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(MAGIC + b"\x00" * 10)
        with pytest.raises(FormatError):
            read_array(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        path = tmp_path / "trunc.bin"
        write_array(path, "x", _f4_exact(rng, (4, 4)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            read_array(path)

    def test_oversized_payload_rejected(self, tmp_path, rng):
        path = tmp_path / "fat.bin"
        write_array(path, "x", _f4_exact(rng, (4, 4)))
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(FormatError):
            read_array(path)

    def test_kind_too_long_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_array(tmp_path / "k.bin", "x" * 17, np.zeros(1))


class TestCoding:
    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "coding.bin"
        grid = SpatialGrid(16)
        coding = CodingTensor(np.clip(_f4_exact(rng, (3, 4, 16)), 0, 1),
                              grid, "mwslc")
        save_coding(path, coding)
        loaded = CodingFile(path)
        assert loaded.kind == "mwslc"
        assert loaded.grid.theta_count == 16
        assert loaded.grid.span_deg == 360.0
        frames = [frame.copy() for frame in loaded]
        np.testing.assert_array_equal(np.array(frames), coding.values)

    def test_wrong_kind_rejected(self, tmp_path, rng):
        path = tmp_path / "m.bin"
        save_masks(path, MaskSet(np.clip(_f4_exact(rng, (2, 3, 4)), 0, 1)))
        with pytest.raises(FormatError):
            CodingFile(path)

    def test_theta_mismatch_rejected(self, tmp_path, rng):
        path = tmp_path / "bad_theta.bin"
        write_array(path, "coding:mwslc", np.zeros((3, 4, 16)),
                    span_deg=360.0, theta_count=8)
        with pytest.raises(FormatError):
            CodingFile(path)

    def test_unknown_coding_label_rejected(self, tmp_path):
        path = tmp_path / "alien.bin"
        write_array(path, "coding:alien", np.zeros((1, 1, 4)),
                    span_deg=360.0, theta_count=4)
        with pytest.raises(FormatError):
            CodingFile(path)

    @pytest.mark.parametrize("frames", [0, 5])
    def test_no_bins_rejected(self, tmp_path, frames):
        # Its frequency average would be the mean of no values, NaN.
        path = tmp_path / "flat.bin"
        write_array(path, "coding:mwslc", np.zeros((frames, 0, 8)),
                    span_deg=360.0, theta_count=8)
        with pytest.raises(FormatError, match="no frequency bin"):
            CodingFile(path)


class TestMasks:
    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "masks.bin"
        masks = MaskSet(np.clip(_f4_exact(rng, (2, 5, 6)), 0, 1))
        save_masks(path, masks, span_deg=360.0)
        np.testing.assert_array_equal(load_masks(path).values, masks.values)

    def test_negative_payload_clipped(self, tmp_path):
        path = tmp_path / "neg.bin"
        write_array(path, "maskset", np.array([[[-0.25, 0.5]]]))
        loaded = load_masks(path)
        np.testing.assert_array_equal(loaded.values, [[[0.0, 0.5]]])

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        write_array(path, "coding:mwslc", np.zeros((1, 1, 4)),
                    span_deg=360.0, theta_count=4)
        with pytest.raises(FormatError):
            load_masks(path)


class TestParams:
    def _quantized_params(self, seed=5):
        p = init_params(9, 6, 10, seed=seed)
        as_f4 = lambda a: a.astype(np.float32).astype(np.float64)
        return EstimatorParams(as_f4(p.w1), as_f4(p.b1), as_f4(p.w2),
                               as_f4(p.b2), p.seed)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "params.bin"
        params = self._quantized_params()
        save_params(path, params)
        loaded = load_params(path)
        np.testing.assert_array_equal(loaded.w1, params.w1)
        np.testing.assert_array_equal(loaded.b1, params.b1)
        np.testing.assert_array_equal(loaded.w2, params.w2)
        np.testing.assert_array_equal(loaded.b2, params.b2)
        assert loaded.seed == params.seed
        assert (loaded.input_dim, loaded.hidden_dim, loaded.output_dim) == (9, 6, 10)

    def test_generic_reader_sees_layer_sizes(self, tmp_path):
        # dims carry layer sizes while the payload is the flat weight vector.
        path = tmp_path / "params.bin"
        params = self._quantized_params()
        save_params(path, params)
        kind, arr, _, _, seed = read_array(path)
        assert kind == "params"
        assert arr.shape == (9 * 6 + 6 + 6 * 10 + 10,)
        assert seed == params.seed

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "not_params.bin"
        write_array(path, "maskset", np.zeros((1, 1, 2)))
        with pytest.raises(FormatError):
            load_params(path)

    @pytest.mark.parametrize("value", [1e39, -3.5e38])
    def test_weight_beyond_float32_not_written(self, tmp_path, value):
        # Cast to <f4 it would be stored as inf, which load_params rejects.
        p = self._quantized_params()
        w2 = p.w2.copy()
        w2[1, 2] = value
        path = tmp_path / "params.bin"
        with pytest.raises(NumericError, match="float32"):
            save_params(path, EstimatorParams(p.w1, p.b1, w2, p.b2, p.seed))
        assert not path.exists()

    def test_float32_maximum_round_trips(self, tmp_path):
        p = self._quantized_params()
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "params.bin"
        save_params(path, EstimatorParams(p.w1, np.full_like(p.b1, top), p.w2,
                                          p.b2))
        assert np.all(load_params(path).b1 == top)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "params.bin"
        save_params(path, self._quantized_params())
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FormatError):
            load_params(path)


READERS = (read_array, load_masks, load_params, CodingFile)


class TestSizeChecks:
    def test_declared_payload_is_checked_before_it_is_allocated(self,
                                                                 tmp_path):
        # 2**32 float32 values (16 GiB) declared on a 100-byte file; apart
        # from its size, the header is a valid 2048-cell coding.
        path = tmp_path / "huge.bin"
        header = struct.pack("<4s16sI3IdII", MAGIC, b"coding:mwslc", 3, 1024,
                             2048, 2048, 360.0, 2048, 0)
        path.write_bytes(header + bytes(100 - len(header)))
        for read in READERS:
            tracemalloc.start()
            try:
                with pytest.raises(FormatError, match="need 17179869184"):
                    read(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (read.__name__, peak)

    def test_empty_payload_of_an_unrepresentable_shape(self, tmp_path):
        # No float64 array has the nonzero dims 2**32 - 1 twice, even with
        # 0 frames; numpy's ValueError used to escape the loaders.
        path = tmp_path / "wide.bin"
        path.write_bytes(struct.pack("<4s16sI3IdII", MAGIC, b"coding:mwslc",
                                     3, 0, 2**32 - 1, 2**32 - 1, 360.0,
                                     2**32 - 1, 0))
        for read in READERS:
            with pytest.raises(FormatError, match="too large"):
                read(path)


class TestWholeFileWrites:
    def test_rewrite_leaves_no_temporary_file(self, tmp_path, rng):
        path = tmp_path / "a.bin"
        write_array(path, "x", _f4_exact(rng, (3, 4)))
        data = _f4_exact(rng, (2, 5))
        write_array(path, "x", data)
        np.testing.assert_array_equal(read_array(path)[1], data)
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_failed_write_keeps_the_former_file(self, tmp_path, rng):
        grid = SpatialGrid(6)
        path = tmp_path / "coding.bin"
        save_coding(path, CodingTensor(_f4_exact(rng, (5, 2, 6)), grid,
                                       "mwslc"))
        before = path.read_bytes()

        class Failing:
            frames, bins, grid, kind = 5, 2, SpatialGrid(6), "mwslc"

            def __iter__(self):
                yield from np.ones((4, 2, 6))
                raise OSError("disk full")

        def consume(source):
            for t, _ in enumerate(source):
                if t == 2:
                    raise RuntimeError("consumer failed")

        with pytest.raises(OSError, match="disk full"):
            save_coding(path, Failing())
        with pytest.raises(RuntimeError, match="consumer failed"):
            consume(written(path, CodingTensor(np.ones((5, 2, 6)), grid,
                                               "mwslc")))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["coding.bin"]


class TestCodingFile:
    """A coding.bin read a frame at a time, and a coding written from its
    frames."""

    @pytest.mark.parametrize("frames", [0, 1, 4, 9])
    def test_blocks_are_the_file_in_order(self, tmp_path, rng, frames):
        path = tmp_path / "coding.bin"
        values = np.clip(_f4_exact(rng, (frames, 3, 8)), 0, 1)
        save_coding(path, CodingTensor(values, SpatialGrid(8, 180.0),
                                       "mwsbc"))
        source = CodingFile(path)
        assert (source.frames, source.bins, source.grid, source.kind) == (
            frames, 3, SpatialGrid(8, 180.0), "mwsbc")
        for _ in range(2):  # each iteration reads the file again
            read = [(id(frame), frame.copy()) for frame in source]
            assert len(read) == frames
            # One array, refilled for each frame.
            assert len({key for key, _ in read}) <= 1
            for t, (_, frame) in enumerate(read):
                assert frame.dtype == np.float32
                assert frame.astype(np.float64).tobytes() == \
                    values[t].tobytes()

    def test_file_cut_after_opening(self, tmp_path, rng):
        path = tmp_path / "coding.bin"
        save_coding(path, CodingTensor(np.clip(_f4_exact(rng, (9, 3, 8)), 0,
                                               1), SpatialGrid(8), "mwslc"))
        source = CodingFile(path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="ends after 215 of 216 values"):
            for _ in source:
                pass
        doas = DoaEstimates((DoaCluster(0.0, 1), DoaCluster(315.0, 1)))
        with pytest.raises(FormatError, match="ends after"):
            sample_masks(source, doas)

    def test_iteration_stopped_early_closes_the_file(self, tmp_path, rng):
        path = tmp_path / "coding.bin"
        save_coding(path, CodingTensor(np.clip(_f4_exact(rng, (9, 3, 8)), 0,
                                               1), SpatialGrid(8), "mwslc"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            frames = iter(CodingFile(path))
            next(frames)
            del frames
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("kind", sorted(ENCODERS))
    def test_frame_blocks_write_the_full_tensor_bytes(self, tmp_path, kind,
                                                      two_speaker_scene):
        # 62 frames, written one at a time.
        bundle, grid = two_speaker_scene, SpatialGrid(360)
        save_coding(tmp_path / "full.bin", ENCODERS[kind](
            bundle.masks, bundle.truth, grid, 6.0))
        save_coding(tmp_path / "blocks.bin", FrameBlocks(
            kind, bundle.masks, bundle.truth, grid, 6.0))
        assert (tmp_path / "blocks.bin").read_bytes() == \
            (tmp_path / "full.bin").read_bytes()
