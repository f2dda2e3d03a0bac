"""Estimator network tests: features, hand-written gradients, SGD loop."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from maskgrid import estimator
from maskgrid.coding import (ENCODERS, CodingTensor, DoaSet, FrameBlocks,
                             MaskSet, SpatialGrid)
from maskgrid.errors import ShapeError, TrainingError
from maskgrid.estimator import (EstimatorParams, Gradients, TrainConfig,
                                _mean_loss, _sigmoid, backward, corrupt_blocks,
                                corrupt_oracle, features, forward,
                                forward_blocks, init_params, train)
from maskgrid.stft import Spectrogram


def _oracle_sigmoid(z):
    """Reference sigmoid: masked stable branches, kept as the test oracle."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _oracle_backward(params, feats, target):
    """Reference backward pass with fresh temporaries, kept as the test oracle."""
    t, k, f = feats.shape
    if target.values.shape != (t, k, params.output_dim):
        raise ShapeError(f"target shape {target.values.shape} does not match "
                         f"({t}, {k}, {params.output_dim})")
    x = feats.reshape(t * k, f)
    tgt = target.values.reshape(t * k, params.output_dim)
    h = np.tanh(x @ params.w1 + params.b1)
    y = _oracle_sigmoid(h @ params.w2 + params.b2)
    diff = y - tgt
    loss = float(np.mean(diff * diff))
    if not np.isfinite(loss):
        raise TrainingError("non-finite loss in backward pass")
    dz2 = (2.0 / diff.size) * diff * y * (1.0 - y)
    gw2 = h.T @ dz2
    gb2 = dz2.sum(axis=0)
    dh = dz2 @ params.w2.T
    dz1 = dh * (1.0 - h * h)
    gw1 = x.T @ dz1
    gb1 = dz1.sum(axis=0)
    return Gradients(gw1, gb1, gw2, gb2), loss


def _assert_matches_oracle(got, want):
    """(Gradients, loss) pairs agree to 1e-12 relative, each array also to
    1e-12 of its largest magnitude: a sum over frames rounds differently
    from one product over all rows."""
    (grads, loss), (want_grads, want_loss) = got, want
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)
    for name in ("w1", "b1", "w2", "b2"):
        expected = getattr(want_grads, name)
        np.testing.assert_allclose(getattr(grads, name), expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max(),
                                   err_msg=name)


def _assert_same_bits(got, want):
    """(Gradients, loss) pairs are bit-identical."""
    assert got[1] == want[1]
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(got[0], name), getattr(want[0], name)), name


def _oracle_corrupt_oracle(coding, noise_std=0.0, blur_cells=0, seed=0):
    """Reference corruption with fresh temporaries, kept as the test oracle."""
    if noise_std < 0 or blur_cells < 0:
        raise ValueError("noise_std and blur_cells must be non-negative")
    values = coding.values
    theta = coding.grid.theta_count
    if blur_cells > 0:
        width = 2 * blur_cells + 1
        if width >= theta:
            values = np.broadcast_to(values.mean(axis=2, keepdims=True),
                                     values.shape).copy()
        else:
            acc = np.zeros_like(values)
            for off in range(-blur_cells, blur_cells + 1):
                acc += np.roll(values, off, axis=2)
            values = acc / width
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        noise = np.clip(rng.normal(0.0, noise_std, values.shape),
                        -5.0 * noise_std, 5.0 * noise_std)
        values = values + noise
    if noise_std > 0 or blur_cells > 0:
        values = np.clip(values, 0.0, 1.0)
    return CodingTensor(values, coding.grid, coding.kind)


def _sigmoid_with_scratch(z):
    """_sigmoid of z given den/pos scratch, then in place (out=z) with and
    without scratch, each on a copy of z. The scratch starts as NaN and
    True, so a value read before it is written shows in the result."""
    def scratch():
        return np.full(z.shape, np.nan), np.ones(z.shape, bool)

    den, pos = scratch()
    yield _sigmoid(z, den=den, pos=pos)
    for extra in ({}, dict(zip(("den", "pos"), scratch()))):
        copy = z.copy()
        got = _sigmoid(copy, out=copy, **extra)
        assert got is copy
        yield got


def _toy_problem(rng, t=3, k=4, f=5, hidden=6, theta=8):
    feats = rng.standard_normal((t, k, f))
    target = CodingTensor(rng.uniform(0, 1, (t, k, theta)),
                          SpatialGrid(theta), "mwslc")
    params = init_params(f, hidden, theta, seed=0)
    return feats, target, params


class TestFeatures:
    def test_shape(self, two_speaker_scene):
        feats = features(two_speaker_scene.mixture_spec)
        assert feats.shape == (62, 257, 9)

    def test_channel_vector_normalized(self, two_speaker_scene):
        feats = features(two_speaker_scene.mixture_spec)
        complex_part = feats[:, :, :4] + 1j * feats[:, :, 4:8]
        norms = np.linalg.norm(complex_part, axis=2)
        assert norms.max() <= 1.0 + 1e-12
        # Speech-bearing bins sit essentially on the unit sphere.
        assert np.median(norms) > 0.999

    def test_scale_invariant(self, two_speaker_scene, rng):
        # Unit-modulus cells keep every channel vector well away from the
        # normalization stabilizer, so rescaling is a near-exact no-op.
        base = two_speaker_scene.mixture_spec
        values = np.exp(2j * np.pi * rng.uniform(size=(4, 10, 257)))
        spec = Spectrogram(values, base.config, base.sample_rate_hz)
        scaled = Spectrogram(7.5 * values, base.config, base.sample_rate_hz)
        np.testing.assert_allclose(features(scaled), features(spec), atol=1e-7)

    def test_bin_index_channel(self, two_speaker_scene):
        feats = features(two_speaker_scene.mixture_spec)
        np.testing.assert_allclose(feats[0, :, 8], np.arange(257) / 257)

    def test_mono_rejected(self, two_speaker_scene):
        with pytest.raises(ShapeError):
            features(two_speaker_scene.mixture_spec.channel(0))


class TestParams:
    def test_init_dimensions(self):
        params = init_params(9, 16, 720, seed=1)
        assert params.input_dim == 9
        assert params.hidden_dim == 16
        assert params.output_dim == 720

    def test_output_bias_applied(self):
        params = init_params(4, 4, 10, output_bias=-12.0)
        np.testing.assert_array_equal(params.b2, -12.0)

    def test_deterministic_per_seed(self):
        a = init_params(4, 4, 10, seed=5)
        b = init_params(4, 4, 10, seed=5)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            EstimatorParams(np.zeros((3, 4)), np.zeros(4), np.zeros((5, 2)),
                            np.zeros(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            EstimatorParams(np.full((2, 2), np.nan), np.zeros(2),
                            np.zeros((2, 2)), np.zeros(2))


class TestForwardBackward:
    def test_forward_shape_and_range(self, rng):
        feats, target, params = _toy_problem(rng)
        out = forward(params, feats, target.grid)
        assert out.kind == "estimated"
        assert out.values.shape == (3, 4, 8)
        assert np.all(out.values > 0) and np.all(out.values < 1)

    def test_forward_grid_mismatch_rejected(self, rng):
        feats, target, params = _toy_problem(rng)
        with pytest.raises(ShapeError):
            forward(params, feats, SpatialGrid(9))

    def test_backward_loss_matches_forward(self, rng):
        feats, target, params = _toy_problem(rng)
        out = forward(params, feats, target.grid)
        _, loss = backward(params, feats, target)
        assert loss == pytest.approx(np.mean((out.values - target.values) ** 2))

    def test_gradients_match_finite_differences(self, rng):
        feats, target, params = _toy_problem(rng)
        grads, _ = backward(params, feats, target)
        h = 1e-6

        def loss_with(name, arr):
            fields = {"w1": params.w1, "b1": params.b1,
                      "w2": params.w2, "b2": params.b2, "seed": 0}
            fields[name] = arr
            return backward(EstimatorParams(**fields), feats, target)[1]

        for name, grad in (("w1", grads.w1), ("b1", grads.b1),
                           ("w2", grads.w2), ("b2", grads.b2)):
            base = getattr(params, name)
            flat = base.ravel()
            for idx in rng.choice(flat.size, size=4, replace=False):
                bumped = flat.copy()
                bumped[idx] += h
                up = loss_with(name, bumped.reshape(base.shape))
                bumped[idx] -= 2 * h
                down = loss_with(name, bumped.reshape(base.shape))
                fd = (up - down) / (2 * h)
                assert grad.ravel()[idx] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_target_shape_mismatch_rejected(self, rng):
        feats, target, params = _toy_problem(rng)
        bad = CodingTensor(np.zeros((3, 5, 8)), target.grid, "mwslc")
        with pytest.raises(ShapeError):
            backward(params, feats, bad)

    @pytest.mark.parametrize("t, k", [(0, 4), (3, 0)])
    def test_no_rows_rejected(self, rng, t, k):
        feats, target, params = _toy_problem(rng, t=t, k=k)
        with pytest.raises(ShapeError, match="no \\(frame, bin\\) rows"):
            backward(params, feats, target)
        with pytest.raises(ShapeError, match="no \\(frame, bin\\) rows"):
            _mean_loss(params, [(feats, target)])


class TestOracleIdentity:
    """The in-place passes reproduce the reference formulas: the sigmoid
    and forward bit for bit, the frame sums of backward and the validation
    loss to 1e-12 relative."""

    EDGES = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 709.0, -709.0,
             746.0, -746.0, 1e308, -1e308]

    def test_sigmoid_edge_values(self):
        z = np.array(self.EDGES)
        got = _sigmoid(z)
        np.testing.assert_array_equal(got, _oracle_sigmoid(z))
        assert np.array_equal(np.signbit(got), np.signbit(_oracle_sigmoid(z)))
        np.testing.assert_array_equal(z, self.EDGES)
        for got in _sigmoid_with_scratch(z):
            np.testing.assert_array_equal(got, _oracle_sigmoid(z))
            assert np.array_equal(np.signbit(got),
                                  np.signbit(_oracle_sigmoid(z)))

    def test_sigmoid_in_place_over_blocks(self, rng):
        # In place over 165k elements, where the result overwrites z.
        z = rng.normal(0.0, 20.0, (5000, 33))
        expected = _oracle_sigmoid(z)
        out = _sigmoid(z, out=z)
        assert out is z
        np.testing.assert_array_equal(z, expected)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0,
                                           max_side=12),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_sigmoid_matches_oracle(self, z):
        got = _sigmoid(z)
        assert np.array_equal(got, _oracle_sigmoid(z))
        assert np.all((got >= 0.0) & (got <= 1.0))
        for got in _sigmoid_with_scratch(z):
            assert np.array_equal(got, _oracle_sigmoid(z))
            assert np.array_equal(np.signbit(got),
                                  np.signbit(_oracle_sigmoid(z)))

    @pytest.mark.parametrize("output_bias", [0.0, -12.0])
    def test_backward_matches_oracle(self, rng, output_bias):
        feats, target, _ = _toy_problem(rng)
        params = init_params(5, 6, 8, seed=3, output_bias=output_bias)
        _assert_matches_oracle(backward(params, feats, target),
                               _oracle_backward(params, feats, target))

    def test_backward_matches_oracle_at_scene_size(self, two_speaker_scene):
        bundle = two_speaker_scene
        feats = features(bundle.mixture_spec)
        params = init_params(feats.shape[2], 16, bundle.grid.theta_count,
                             seed=1)
        _assert_matches_oracle(backward(params, feats, bundle.coding),
                               _oracle_backward(params, feats, bundle.coding))

    @settings(max_examples=100, deadline=None)
    @given(frames=st.integers(1, 6), bins=st.integers(1, 5),
           hidden=st.integers(1, 6), cells=st.integers(2, 9),
           output_bias=st.sampled_from([0.0, -12.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_frame_sums_match_oracle(self, frames, bins, hidden, cells,
                                     output_bias, seed):
        # A SpatialGrid has at least 2 cells.
        feats, target, _ = _toy_problem(np.random.default_rng(seed), frames,
                                        bins, 5, hidden, cells)
        params = init_params(5, hidden, cells, seed=seed,
                             output_bias=output_bias)
        want = _oracle_backward(params, feats, target)
        _assert_matches_oracle(backward(params, feats, target), want)
        assert _mean_loss(params, [(feats, target)]) == pytest.approx(
            want[1], rel=1e-12, abs=0.0)

    def test_forward_matches_oracle(self, rng):
        feats, target, params = _toy_problem(rng)
        x = feats.reshape(-1, feats.shape[2])
        want = _oracle_sigmoid(np.tanh(x @ params.w1 + params.b1) @ params.w2
                               + params.b2)
        got = forward(params, feats, target.grid).values
        assert np.array_equal(got, want.reshape(got.shape))

    def test_validation_loss_equals_backward_loss(self, rng):
        pairs = [_toy_problem(rng)[:2] for _ in range(3)]
        params = init_params(5, 6, 8, seed=4)
        want = float(np.mean([backward(params, f, t)[1] for f, t in pairs]))
        assert _mean_loss(params, pairs) == want

    def test_validation_rejects_mismatched_target(self, rng):
        feats, target, params = _toy_problem(rng)
        bad = CodingTensor(np.zeros((3, 5, 8)), target.grid, "mwslc")
        with pytest.raises(ShapeError):
            _mean_loss(params, [(feats, bad)])

    def test_nonfinite_loss_raises(self, rng):
        feats, target, params = _toy_problem(rng)
        bad = CodingTensor(np.full(target.values.shape, np.inf), target.grid,
                           "mwslc")
        with pytest.raises(TrainingError):
            backward(params, feats, bad)
        with pytest.raises(TrainingError):
            _mean_loss(params, [(feats, bad)])


def _scene_targets(bundle, kind, theta=90):
    """A real scene's target kind at theta cells, full and as FrameBlocks."""
    grid = SpatialGrid(theta)
    full = ENCODERS[kind](bundle.masks, bundle.truth, grid, 6.0)
    return full, FrameBlocks(kind, bundle.masks, bundle.truth, grid, 6.0)


class TestFrameBlockTargets:
    """A target encoded a frame at a time per use gives the full tensor's
    loss and gradients bit for bit, and the same shape checks."""

    @pytest.mark.parametrize("kind", ["mwslc", "mwsbc"])
    def test_backward_matches_the_full_tensor(self, two_speaker_scene, kind):
        feats = features(two_speaker_scene.mixture_spec)
        full, blocks = _scene_targets(two_speaker_scene, kind)
        params = init_params(feats.shape[2], 8, 90, seed=2)
        got = backward(params, feats, blocks)
        _assert_same_bits(got, backward(params, feats, full))
        _assert_matches_oracle(got, _oracle_backward(params, feats, full))

    @pytest.mark.parametrize("kind", ["mwslc", "mwsbc"])
    def test_validation_loss_matches_the_full_tensor(self, two_speaker_scene,
                                                     kind):
        feats = features(two_speaker_scene.mixture_spec)
        full, blocks = _scene_targets(two_speaker_scene, kind)
        params = init_params(feats.shape[2], 8, 90, seed=3)
        assert (_mean_loss(params, [(feats, blocks)])
                == _mean_loss(params, [(feats, full)])
                == backward(params, feats, full)[1])

    def test_train_matches_the_full_tensors(self, rng):
        grid = SpatialGrid(12)
        truth = DoaSet(np.array([40.0, 200.0]))
        scenes = [(rng.standard_normal((9, 5, 7)),
                   MaskSet(rng.uniform(0.0, 1.0, (2, 9, 5))))
                  for _ in range(4)]
        full = [(f, ENCODERS["mwslc"](m, truth, grid, 30.0))
                for f, m in scenes]
        blocks = [(f, FrameBlocks("mwslc", m, truth, grid, 30.0))
                  for f, m in scenes]
        cfg = TrainConfig(learning_rate=0.5, epochs=3, batch_size=2, seed=5)
        params_a, hist_a = train(full[:3], full[3:], cfg, hidden_dim=6)
        params_b, hist_b = train(blocks[:3], blocks[3:], cfg, hidden_dim=6)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(params_a, name),
                                  getattr(params_b, name)), name
        assert hist_a == hist_b

    def test_frame_count_mismatch_rejected(self, two_speaker_scene):
        feats = features(two_speaker_scene.mixture_spec)[:-1]
        _, blocks = _scene_targets(two_speaker_scene, "mwslc")
        params = init_params(feats.shape[2], 4, 90)
        with pytest.raises(ShapeError, match="target shape"):
            backward(params, feats, blocks)
        with pytest.raises(ShapeError, match="target shape"):
            _mean_loss(params, [(feats, blocks)])

    def test_cell_count_mismatch_rejected(self, two_speaker_scene):
        feats = features(two_speaker_scene.mixture_spec)
        _, blocks = _scene_targets(two_speaker_scene, "mwslc")
        params = init_params(feats.shape[2], 4, 91)
        with pytest.raises(ShapeError, match="target shape"):
            backward(params, feats, blocks)

    def test_feature_dim_mismatch_rejected(self, two_speaker_scene):
        feats = features(two_speaker_scene.mixture_spec)
        _, blocks = _scene_targets(two_speaker_scene, "mwslc")
        params = init_params(feats.shape[2] + 1, 4, 90)
        with pytest.raises(ShapeError, match="feature dim"):
            backward(params, feats, blocks)
        with pytest.raises(ShapeError, match="feature dim"):
            _mean_loss(params, [(feats, blocks)])


class TestBackwardMemory:
    def test_peak_is_a_frame_not_a_scene(self, two_speaker_scene):
        # One (rows, cells) float64 array of the default scene (62 x 257
        # rows, 720 cells) is 88 MiB; the whole-scene pass peaked at 192
        # MiB at 64 hidden units. A frame's arrays are 1.4 MiB each.
        bundle = two_speaker_scene
        feats = features(bundle.mixture_spec)
        params = init_params(feats.shape[2], 64, 720, seed=1)
        peaks = []
        for copies in (1, 2):
            masks = MaskSet(np.concatenate([bundle.masks.values] * copies,
                                           axis=1))
            target = FrameBlocks("mwslc", masks, bundle.truth, bundle.grid,
                                 6.0)
            scene = np.concatenate([feats] * copies)
            tracemalloc.start()
            try:
                backward(params, scene, target)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 16 * 2**20, peaks
        assert peaks[1] <= peaks[0] + 64 * 2**10, peaks


class TestFrameBuffers:
    """A pass of the network writes every frame into one set of buffers;
    each test holds the former frame's arrays, so fresh arrays per frame
    could not reuse its memory."""

    def test_backward_steps_share_h_y_and_diff(self, rng, monkeypatch):
        feats, target, params = _toy_problem(rng, t=5)
        want = backward(params, feats, target)
        inner = estimator._squared_error
        held = []

        def recording(params, feats, target, step=None):
            def record(x, h, y, diff):
                held.append((h, y, diff))
                step(x, h, y, diff)
            return inner(params, feats, target, record)

        monkeypatch.setattr(estimator, "_squared_error", recording)
        got = backward(params, feats, target)
        assert got[1] == want[1]
        for name in ("w1", "b1", "w2", "b2"):
            assert getattr(got[0], name).tobytes() == \
                getattr(want[0], name).tobytes()
        pointers = {tuple(a.ctypes.data for a in arrays) for arrays in held}
        assert len(held) == 5 and len(pointers) == 1
        assert len(set(*pointers)) == 3

    def test_forward_blocks_frames_share_memory(self, rng):
        feats, target, params = _toy_problem(rng, t=4)
        frames = iter(forward_blocks(params, feats, target.grid))
        held = next(frames)
        for frame in frames:
            assert np.shares_memory(held, frame)
            held = frame



def _flat(grads):
    """The four gradients as one vector."""
    return np.concatenate([getattr(grads, name).ravel()
                           for name in ("w1", "b1", "w2", "b2")])


class TestFloat32Pass:
    """The network pass runs in the features' floating type; its gradient
    sums, the loss sum and the parameters stay float64."""

    @pytest.mark.parametrize("feature_dtype, pass_dtype", [
        (np.float16, np.float32), (np.float32, np.float32),
        (np.float64, np.float64), (np.int64, np.float64)])
    def test_buffers_take_the_features_dtype(self, rng, feature_dtype,
                                             pass_dtype):
        feats, target, params = _toy_problem(rng)
        feats = (feats * 4).astype(feature_dtype)
        for x, h, y, spare in estimator._passes(params, feats):
            assert x.dtype == feature_dtype
            assert h.dtype == y.dtype == spare.dtype == pass_dtype
        grads, loss = backward(params, feats, target)
        assert type(loss) is float
        assert all(getattr(grads, name).dtype == np.float64
                   for name in ("w1", "b1", "w2", "b2"))

    @settings(max_examples=100, deadline=None)
    @given(frames=st.integers(1, 6), bins=st.integers(1, 5),
           hidden=st.integers(1, 6), cells=st.integers(2, 9),
           output_bias=st.sampled_from([0.0, -12.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_float32_pass_agrees_with_float64(self, frames, bins, hidden,
                                              cells, output_bias, seed):
        # On the same float32 features, the loss agrees to 1e-5 relative
        # and the four gradients, as one vector, to 1e-5 relative in norm.
        # 12 000 random problems of these shapes gave at most 3e-7 and
        # 7e-7; a real 1 s scene at 64 hidden units and 720 cells, 2e-10
        # and, gradient by gradient, 4e-7. A single gradient of a toy
        # problem can cancel to far less than its terms (1e-4 was seen).
        feats, target, _ = _toy_problem(np.random.default_rng(seed), frames,
                                        bins, 5, hidden, cells)
        feats32 = feats.astype(np.float32)
        params = init_params(5, hidden, cells, seed=seed,
                             output_bias=output_bias)
        want_grads, want = backward(params, feats32.astype(np.float64),
                                    target)
        grads, loss = backward(params, feats32, target)
        assert loss == pytest.approx(want, rel=1e-5, abs=0.0)
        assert (np.linalg.norm(_flat(grads) - _flat(want_grads))
                <= 1e-5 * np.linalg.norm(_flat(want_grads)))
        assert _mean_loss(params, [(feats32, target)]) == pytest.approx(
            want, rel=1e-5, abs=0.0)

    def test_loss_sums_float32_squares_in_float64(self, two_speaker_scene):
        # Each frame's float32 squared differences, summed exactly (fsum)
        # in float64: numpy's float64 sum agrees to 1e-12 relative, while
        # float32 accumulation (BLAS sdot) strayed by 6e-9 on this scene.
        feats = features(two_speaker_scene.mixture_spec).astype(np.float32)
        full, blocks = _scene_targets(two_speaker_scene, "mwslc")
        params = init_params(feats.shape[2], 8, 90, seed=5)
        want = 0.0
        for y, rows in zip(forward_blocks(params, feats, full.grid), full):
            diff = (y - rows).astype(np.float32)
            want += math.fsum(np.square(diff).astype(np.float64).ravel())
        want /= full.values.size
        assert backward(params, feats, blocks)[1] == pytest.approx(
            want, rel=1e-12, abs=0.0)
        assert _mean_loss(params, [(feats, blocks)]) == pytest.approx(
            want, rel=1e-12, abs=0.0)

    def test_weights_beyond_float32_raise_before_the_cast(self, rng):
        feats, target, params = _toy_problem(rng)
        big = EstimatorParams(params.w1, params.b1, params.w2,
                              np.full_like(params.b2, 1e39))
        assert big.fits(np.float64) and not big.fits(np.float32)
        for run in (lambda: backward(big, feats.astype(np.float32), target),
                    lambda: _mean_loss(big, [(feats.astype(np.float32),
                                              target)])):
            with pytest.raises(TrainingError, match="float32 maximum"):
                run()
        backward(big, feats, target)

    def test_overflow_in_the_pass_is_a_training_error(self, rng):
        # Weights at the float32 maximum cast without inf, but x w1 sums
        # beyond it: a numeric fault, never a RuntimeWarning traceback.
        feats, target, params = _toy_problem(rng)
        top = float(np.finfo(np.float32).max)
        huge = EstimatorParams(np.full_like(params.w1, top), params.b1,
                               params.w2, params.b2)
        with pytest.raises(TrainingError, match="overflow"):
            backward(huge, np.abs(feats).astype(np.float32), target)

class TestTrainConfig:
    def test_decay_schedule(self):
        cfg = TrainConfig(learning_rate=0.001, decay_factor=0.63,
                          decay_every_epochs=10)
        assert cfg.rate_at(0) == 0.001
        assert cfg.rate_at(9) == 0.001
        assert cfg.rate_at(10) == pytest.approx(0.00063)
        assert cfg.rate_at(20) == pytest.approx(0.001 * 0.63 ** 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(decay_factor=1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestTrain:
    def _pairs(self, rng, count, t=4, k=5, theta=12):
        pairs = []
        for _ in range(count):
            feats = rng.standard_normal((t, k, 9))
            target = CodingTensor(rng.uniform(0, 1, (t, k, theta)),
                                  SpatialGrid(theta), "mwslc")
            pairs.append((feats, target))
        return pairs

    def test_loss_decreases(self, rng):
        pairs = self._pairs(rng, 6)
        cfg = TrainConfig(learning_rate=0.5, epochs=30, batch_size=2, seed=0)
        _, history = train(pairs[:4], pairs[4:], cfg, hidden_dim=8)
        losses = [e.train_loss for e in history.epochs]
        assert losses[-1] < losses[0]

    def test_reproducible(self, rng):
        pairs = self._pairs(rng, 4)
        cfg = TrainConfig(epochs=3, batch_size=2, seed=7)
        params_a, hist_a = train(pairs[:3], pairs[3:], cfg, hidden_dim=8)
        params_b, hist_b = train(pairs[:3], pairs[3:], cfg, hidden_dim=8)
        np.testing.assert_array_equal(params_a.w2, params_b.w2)
        assert [e.train_loss for e in hist_a.epochs] == \
            [e.train_loss for e in hist_b.epochs]

    def test_history_schedule_and_length(self, rng):
        pairs = self._pairs(rng, 3)
        cfg = TrainConfig(epochs=12, batch_size=5, decay_every_epochs=10,
                          patience=50, seed=0)
        _, history = train(pairs[:2], pairs[2:], cfg, hidden_dim=8)
        assert len(history.epochs) == 12
        assert history.epochs[0].learning_rate == 0.001
        assert history.epochs[10].learning_rate == pytest.approx(0.00063)

    def test_early_stop_on_patience(self, rng):
        # A huge learning rate stalls validation improvement quickly.
        pairs = self._pairs(rng, 4)
        cfg = TrainConfig(learning_rate=50.0, epochs=100, batch_size=2,
                          patience=3, seed=0)
        _, history = train(pairs[:3], pairs[3:], cfg, hidden_dim=8)
        assert history.stopped_early
        assert len(history.epochs) < 100

    def test_empty_split_rejected(self, rng):
        pairs = self._pairs(rng, 2)
        with pytest.raises(TrainingError):
            train(pairs, [], TrainConfig())


class TestCorruptOracle:
    def test_identity_at_zero(self, rng):
        theta = 24
        coding = CodingTensor(rng.uniform(0, 1, (3, 2, theta)),
                              SpatialGrid(theta), "mwslc")
        out = corrupt_oracle(coding, 0.0, 0)
        np.testing.assert_array_equal(out.values, coding.values)
        assert out.kind == coding.kind

    def test_noise_bounded_and_clipped(self, rng):
        theta = 24
        coding = CodingTensor(np.zeros((2, 2, theta)), SpatialGrid(theta), "mwslc")
        out = corrupt_oracle(coding, 0.05, 0, seed=3)
        assert out.values.min() >= 0.0
        assert out.values.max() <= 5 * 0.05

    def test_noise_deterministic_per_seed(self, rng):
        theta = 24
        coding = CodingTensor(rng.uniform(0, 1, (2, 2, theta)),
                              SpatialGrid(theta), "mwslc")
        a = corrupt_oracle(coding, 0.1, 0, seed=9)
        b = corrupt_oracle(coding, 0.1, 0, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_blur_averages_neighbors(self):
        theta = 12
        values = np.zeros((1, 1, theta))
        values[0, 0, 4] = 1.0
        coding = CodingTensor(values, SpatialGrid(theta), "mwslc")
        out = corrupt_oracle(coding, 0.0, 1)
        np.testing.assert_allclose(out.values[0, 0, 3:6], 1 / 3)
        assert out.values[0, 0, 0] == 0.0

    def test_blur_wraps_circularly(self):
        theta = 12
        values = np.zeros((1, 1, theta))
        values[0, 0, 0] = 1.0
        out = corrupt_oracle(CodingTensor(values, SpatialGrid(theta), "mwslc"),
                             0.0, 1)
        assert out.values[0, 0, 11] == pytest.approx(1 / 3)
        assert out.values[0, 0, 1] == pytest.approx(1 / 3)

    def test_full_circle_blur_flattens(self, rng):
        theta = 8
        coding = CodingTensor(rng.uniform(0, 1, (1, 1, theta)),
                              SpatialGrid(theta), "mwslc")
        out = corrupt_oracle(coding, 0.0, theta)
        np.testing.assert_allclose(out.values[0, 0], coding.values.mean())

    def test_negative_knobs_rejected(self, rng):
        coding = CodingTensor(np.zeros((1, 1, 8)), SpatialGrid(8), "mwslc")
        with pytest.raises(ValueError):
            corrupt_oracle(coding, -0.1, 0)


class TestCorruptOracleIdentity:
    """The in-place corruption is bitwise equal to the fresh-temporary one."""

    @pytest.mark.parametrize("noise, blur", [(0.05, 0), (0.15, 0), (0.05, 2),
                                             (0.15, 2), (0.15, 400)])
    def test_real_scene(self, two_speaker_scene, noise, blur):
        # The first 16 frames keep the real values at a quarter of the size.
        full = two_speaker_scene.coding
        coding = CodingTensor(full.values[:16], full.grid, full.kind)
        before = coding.values.tobytes()
        got = corrupt_oracle(coding, noise, blur, seed=3)
        expected = _oracle_corrupt_oracle(coding, noise, blur, seed=3)
        assert got.values.tobytes() == expected.values.tobytes()
        assert coding.values.tobytes() == before

    @pytest.mark.parametrize("blur", [0, 1, 3])
    def test_blur_only_leaves_input_untouched(self, rng, blur):
        coding = CodingTensor(rng.uniform(0, 1, (4, 3, 12)), SpatialGrid(12),
                              "mwslc")
        before = coding.values.copy()
        got = corrupt_oracle(coding, 0.0, blur)
        expected = _oracle_corrupt_oracle(coding, 0.0, blur)
        assert got.values.tobytes() == expected.values.tobytes()
        assert coding.values.tobytes() == before.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(1, 4),
                                        st.integers(2, 40)),
                  elements=st.floats(0.0, 1.0)),
           st.integers(1, 25))
    @example(np.linspace(0.0, 1.0, 24).reshape(1, 2, 12), 5)   # width 11
    @example(np.linspace(0.0, 1.0, 24).reshape(1, 2, 12), 6)   # width 13
    def test_blur_equals_the_roll_loop(self, values, blur):
        # Slices added in the rolls' offset order, and the mean when the
        # window covers the grid, bit for bit.
        coding = CodingTensor(values, SpatialGrid(values.shape[2]), "mwslc")
        got = corrupt_oracle(coding, 0.0, blur)
        expected = _oracle_corrupt_oracle(coding, 0.0, blur)
        assert got.values.tobytes() == expected.values.tobytes()


class TestNoiseDrawnInFrameBlocks:
    """What corrupt_blocks rests on: one Generator.normal draw over
    (frames, bins, cells) is the same stream as the same generator's draws
    over C-order blocks of frames, a short last block included."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), frames=st.integers(0, 14),
           bins=st.integers(1, 9), cells=st.integers(1, 13),
           block=st.integers(1, 6), scale=st.floats(0.01, 2.0))
    def test_blocked_draws_equal_one_draw(self, seed, frames, bins, cells,
                                          block, scale):
        shape = (frames, bins, cells)
        whole = np.random.default_rng(seed).normal(0.0, scale, shape)
        rng = np.random.default_rng(seed)
        blocked = np.empty(shape)
        for t0 in range(0, frames, block):
            n = min(block, frames - t0)
            blocked[t0:t0 + n] = rng.normal(0.0, scale, (n, bins, cells))
        assert blocked.tobytes() == whole.tobytes()


def _blocks_of(source):
    """The source's frames stacked, after checking that it yields one
    (bins, cells) frame per frame; each is copied, as a source may reuse
    its array."""
    frames = [frame.copy() for frame in source]
    assert [f.shape for f in frames] == \
        [(source.bins, source.grid.theta_count)] * source.frames
    return np.array(frames).reshape(source.frames, source.bins,
                                    source.grid.theta_count)


class TestStreamedSources:
    """forward_blocks and corrupt_blocks hand out a frame at a time what one
    forward or corrupt_oracle call gives for the whole scene."""

    @settings(max_examples=80, deadline=None)
    @given(frames=st.integers(0, 7), bins=st.integers(1, 40),
           hidden=st.integers(1, 40), cells=st.integers(2, 64),
           seed=st.integers(0, 2**32 - 1))
    def test_forward_blocks_match_one_forward(self, frames, bins, hidden,
                                              cells, seed):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((frames, bins, 5))
        params = init_params(5, hidden, cells, seed=seed % 997,
                             output_bias=-1.0)
        grid = SpatialGrid(cells)
        source = forward_blocks(params, feats, grid)
        assert (source.frames, source.bins, source.grid, source.kind) == (
            frames, bins, grid, "estimated")
        got = _blocks_of(source)
        assert got.tobytes() == forward(params, feats, grid).values.tobytes()

    @pytest.mark.parametrize("hidden, cells", [(64, 720), (8, 180)])
    def test_forward_blocks_bit_equal_at_the_cli_shapes(
            self, two_speaker_scene, hidden, cells):
        # The default model (64 hidden units, 720 cells) and the CLI tests'
        # untrained one on 257 bins; 62 frames.
        feats = features(two_speaker_scene.mixture_spec)
        params = init_params(feats.shape[2], hidden, cells, seed=3,
                             output_bias=-1.0)
        grid = SpatialGrid(cells)
        got = _blocks_of(forward_blocks(params, feats, grid))
        assert got.tobytes() == forward(params, feats, grid).values.tobytes()

    def test_forward_blocks_check_shapes_before_any_block(self, rng):
        feats = rng.standard_normal((3, 4, 5))
        with pytest.raises(ShapeError, match="output dim"):
            forward_blocks(init_params(5, 2, 8), feats, SpatialGrid(9))
        with pytest.raises(ShapeError, match="feature dim"):
            forward_blocks(init_params(6, 2, 8), feats, SpatialGrid(8))
        with pytest.raises(ShapeError, match="3-D"):
            forward(init_params(5, 2, 8), feats[0], SpatialGrid(8))

    @settings(max_examples=80, deadline=None)
    @given(frames=st.integers(1, 6), bins=st.integers(1, 6),
           cells=st.integers(2, 24), noise=st.sampled_from([0.0, 0.15, 0.4]),
           blur=st.sampled_from(["none", "one", "whole"]),
           seed=st.integers(0, 2**32 - 1))
    @example(frames=1, bins=3, cells=5, noise=0.15, blur="whole", seed=0)
    @example(frames=1, bins=2, cells=7, noise=0.0, blur="one", seed=1)
    def test_corrupt_blocks_match_one_call(self, frames, bins, cells, noise,
                                           blur, seed):
        # "whole": 2 * blur_cells + 1 >= cells, so the blur is the mean.
        blur_cells = {"none": 0, "one": 1, "whole": cells // 2}[blur]
        rng = np.random.default_rng(seed)
        grid = SpatialGrid(cells)
        masks = MaskSet(rng.uniform(0.0, 1.0, (2, frames, bins)))
        truth = DoaSet(grid.centers()[rng.choice(cells, 2, replace=False)])
        want = corrupt_oracle(ENCODERS["mwslc"](masks, truth, grid, 30.0),
                              noise, blur_cells, seed).values
        source = corrupt_blocks(FrameBlocks("mwslc", masks, truth, grid, 30.0),
                                noise, blur_cells, seed)
        assert (source.frames, source.bins, source.grid, source.kind) == (
            frames, bins, grid, "mwslc")
        for _ in range(2):  # each pass draws from a fresh generator
            assert _blocks_of(source).tobytes() == want.tobytes()
