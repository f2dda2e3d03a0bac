"""Scene geometry, steering, and image-source render tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskgrid.errors import ConfigError, DegenerateInputError
from maskgrid.scene import (ArrayGeometry, RenderedScene, RoomSpec, SceneSpec,
                            SourceSpec, linear_array, simulate_anechoic,
                            simulate_shoebox, steering_matrix, synth_source,
                            unit_vector)
from maskgrid.signal import TimeSignal, peak_normalize
from maskgrid.stft import StftConfig


def _scene(doas, distances, duration_s=0.25, room=None):
    sources = tuple(
        SourceSpec(doa, dist, synth_source("modulated-noise", duration_s, seed=i))
        for i, (doa, dist) in enumerate(zip(doas, distances)))
    return SceneSpec(sources, room=room)


class TestGeometry:
    def test_linear_array_positions(self):
        pos = linear_array(4, 0.05)
        np.testing.assert_allclose(pos[:, 0], [0.0, 0.05, 0.10, 0.15])
        np.testing.assert_array_equal(pos[:, 1:], 0.0)

    def test_default_geometry(self):
        geom = ArrayGeometry()
        assert geom.channels == 4
        assert geom.reference_mic == 0

    def test_rejects_single_mic(self):
        with pytest.raises(ConfigError):
            ArrayGeometry(np.zeros((1, 3)))

    def test_rejects_duplicate_positions(self):
        with pytest.raises(ConfigError):
            ArrayGeometry(np.zeros((2, 3)))

    def test_rejects_bad_reference(self):
        with pytest.raises(ConfigError):
            ArrayGeometry(linear_array(), reference_mic=4)


class TestSceneSpec:
    def test_truth_carries_doas(self):
        spec = _scene([50.0, 120.0], [2.0, 2.2])
        np.testing.assert_allclose(spec.truth.angles_deg, [50.0, 120.0])

    def test_truth_is_the_validated_doa_set(self):
        spec = _scene([50.0, 120.0], [2.0, 2.2])
        assert spec.truth is spec.truth

    def test_minimum_gap_enforced(self):
        with pytest.raises(ConfigError):
            _scene([50.0, 60.0], [2.0, 2.0])

    def test_gap_wraps_around_zero(self):
        with pytest.raises(ConfigError):
            _scene([356.0, 4.0], [2.0, 2.0])

    def test_doa_outside_span_rejected(self):
        with pytest.raises(ConfigError):
            _scene([50.0, 360.0], [2.0, 2.0])

    @pytest.mark.parametrize("doas", [[math.nan, 120.0], [50.0, math.inf],
                                      [-math.inf], [-1.0], []])
    def test_non_finite_out_of_span_and_empty_rejected(self, doas):
        with pytest.raises(ConfigError):
            _scene(doas, [2.0] * len(doas))

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ConfigError):
            SourceSpec(10.0, 0.0, synth_source("modulated-noise", 0.1))

    def test_stereo_source_rejected(self):
        with pytest.raises(ConfigError):
            SourceSpec(10.0, 1.0, TimeSignal(np.zeros((2, 100))))


class TestSteering:
    def test_unit_vector_axes(self):
        np.testing.assert_allclose(unit_vector(0.0), [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(unit_vector(90.0), [0.0, 1.0, 0.0], atol=1e-15)

    def test_reference_component_is_one(self):
        sv = steering_matrix(ArrayGeometry(), 37.0, StftConfig())[100]
        assert sv[0] == 1.0 + 0.0j

    def test_unit_modulus(self):
        mat = steering_matrix(ArrayGeometry(), 123.0, StftConfig())
        np.testing.assert_allclose(np.abs(mat), 1.0, atol=1e-12)

    def test_broadside_is_all_ones(self):
        # Source perpendicular to a linear array: zero inter-mic delay.
        mat = steering_matrix(ArrayGeometry(), 90.0, StftConfig())
        np.testing.assert_allclose(mat, 1.0, atol=1e-12)

    def test_endfire_phase_sign_and_value(self):
        # At 0 deg the second mic (x = 0.05 m) is closer to the source, so
        # it leads the reference: phase +2 pi f d / c at bin frequency f.
        cfg = StftConfig()
        k = 16
        f = k * 16000 / 512
        sv = steering_matrix(ArrayGeometry(), 0.0, cfg)[k]
        expected = 2 * np.pi * f * 0.05 / 343.0
        assert np.angle(sv[1]) == pytest.approx(expected, abs=1e-12)

    def test_zero_frequency_bin_is_flat(self):
        sv = steering_matrix(ArrayGeometry(), 10.0, StftConfig())[0]
        np.testing.assert_allclose(sv, 1.0, atol=1e-15)

    def test_matrix_shape(self):
        mat = steering_matrix(ArrayGeometry(), 45.0, StftConfig())
        assert mat.shape == (257, 4)


class TestAnechoicRender:
    def test_shapes_and_mixture_sum(self):
        geom = ArrayGeometry()
        rendered = simulate_anechoic(_scene([50.0, 120.0], [2.0, 2.2]), geom)
        assert rendered.mixture.channels == 4
        assert len(rendered.source_images) == 2
        total = np.sum([img.samples for img in rendered.source_images], axis=0)
        np.testing.assert_allclose(rendered.mixture.samples, total, atol=1e-15)

    def test_inter_mic_delay_matches_geometry(self):
        # Endfire source 2 m out along +x: mic 3 at x=0.15 is nearer, so
        # its signal leads mic 0 by 0.15 / 343 * fs = 7.0 samples.
        geom = ArrayGeometry()
        rendered = simulate_anechoic(_scene([0.0], [2.0]), geom)
        img = rendered.source_images[0].samples
        corr = [np.correlate(img[3], np.roll(img[0], lag)).item()
                for lag in range(-12, 13)]
        best = int(np.argmax(corr)) - 12
        assert best == -7

    def test_spherical_attenuation(self):
        # Colinear endfire geometry: mic 0 at 2.0 m, mic 3 at 1.85 m.
        geom = ArrayGeometry()
        rendered = simulate_anechoic(_scene([0.0], [2.0]), geom)
        img = rendered.source_images[0].samples
        e0 = np.linalg.norm(img[0])
        e3 = np.linalg.norm(img[3])
        assert e0 / e3 == pytest.approx(1.85 / 2.0, rel=1e-3)

    def test_deterministic(self):
        geom = ArrayGeometry()
        a = simulate_anechoic(_scene([50.0, 120.0], [2.0, 2.2]), geom)
        b = simulate_anechoic(_scene([50.0, 120.0], [2.0, 2.2]), geom)
        np.testing.assert_array_equal(a.mixture.samples, b.mixture.samples)

    def test_mixed_sample_rates_rejected(self):
        sources = (SourceSpec(0.0, 1.0, TimeSignal(np.ones(100), 8000)),
                   SourceSpec(90.0, 1.0, TimeSignal(np.ones(100), 16000)))
        with pytest.raises(ConfigError):
            simulate_anechoic(SceneSpec(sources), ArrayGeometry())


class TestShoeboxRender:
    def test_order_zero_equals_anechoic(self):
        geom = ArrayGeometry()
        spec = _scene([50.0], [2.0])
        room = RoomSpec(max_order=0)
        boxed = simulate_shoebox(_scene([50.0], [2.0], room=room), geom)
        free = simulate_anechoic(spec, geom)
        np.testing.assert_array_equal(boxed.mixture.samples, free.mixture.samples)

    def test_reflections_add_energy(self):
        geom = ArrayGeometry()
        low = simulate_shoebox(
            _scene([50.0], [2.0], room=RoomSpec(max_order=0)), geom)
        high = simulate_shoebox(
            _scene([50.0], [2.0], room=RoomSpec(absorption=0.3, max_order=2)), geom)
        assert (np.linalg.norm(high.mixture.samples)
                > np.linalg.norm(low.mixture.samples))

    def test_source_outside_room_rejected(self):
        room = RoomSpec(dimensions_m=(3.0, 3.0, 3.0))
        with pytest.raises(ConfigError):
            simulate_shoebox(_scene([0.0], [2.5], room=room), ArrayGeometry())

    def test_mic_outside_room_rejected(self):
        room = RoomSpec(dimensions_m=(3.0, 3.0, 3.0),
                        array_origin_m=(0.5, 1.5, 1.5))
        geom = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        with pytest.raises(ConfigError):
            simulate_shoebox(_scene([0.0], [1.0], room=room), geom)

    def test_wall_checks_precede_rate_check(self):
        # Mics are checked first, then sources, then the sample rates.
        room = RoomSpec(dimensions_m=(3.0, 3.0, 3.0),
                        array_origin_m=(0.5, 1.5, 1.5))
        sources = (SourceSpec(0.0, 2.8, synth_source("modulated-noise", 0.02)),
                   SourceSpec(90.0, 1.0, synth_source(
                       "modulated-noise", 0.02, sample_rate_hz=8000)))
        spec = SceneSpec(sources, room=room)
        with pytest.raises(ConfigError, match="source at 0.0 deg / 2.8 m"):
            simulate_shoebox(spec, ArrayGeometry())
        outside = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        with pytest.raises(ConfigError, match="mic at"):
            simulate_shoebox(spec, outside)
        inside = SceneSpec((sources[1], SourceSpec(
            0.0, 1.0, synth_source("modulated-noise", 0.02))), room=room)
        with pytest.raises(ConfigError, match="mixed sample rates"):
            simulate_shoebox(inside, ArrayGeometry())

    def test_room_required(self):
        with pytest.raises(ConfigError):
            simulate_shoebox(_scene([0.0], [1.0]), ArrayGeometry())

    def test_absorption_range_validated(self):
        with pytest.raises(ConfigError):
            RoomSpec(absorption=1.5)

    @pytest.mark.parametrize("dims", [(6.0, float("nan"), 3.0),
                                      (float("inf"), 5.0, 3.0)])
    def test_non_finite_dimensions_rejected(self, dims):
        with pytest.raises(ConfigError):
            RoomSpec(dims)

    def test_rir_channel_count_and_order_growth(self):
        # The rendered image of a unit impulse is the room impulse response.
        geom = ArrayGeometry()
        impulse = (SourceSpec(30.0, 1.5, TimeSignal(np.array([[1.0]]))),)

        def rir(room):
            spec = SceneSpec(impulse, room=room, min_gap_deg=0.0)
            return simulate_shoebox(spec, geom).source_images[0]

        rir0 = rir(RoomSpec(max_order=0))
        rir2 = rir(RoomSpec(absorption=0.3, max_order=2))
        assert rir0.channels == 4
        assert np.linalg.norm(rir2.samples) > np.linalg.norm(rir0.samples)


# synth_source("modulated-noise", 0.02, seed=s) raised for these seeds (all
# of 0 ... 2**16) before the envelope guard tested the samples.
_ZERO_ENVELOPE_SEEDS = (22, 950, 1499, 10516, 12909, 14942, 23747, 49414)


def _former_synth_source(kind, duration_s, pitch_hz=200.0, seed=0,
                         sample_rate_hz=16000):
    """The former synth_source without its argument checks: it redrew the
    envelope only when every control point was <= 0. Kept only as the test
    oracle."""
    n = int(round(duration_s * sample_rate_hz))
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sample_rate_hz
    n_ctrl = max(4, int(round(duration_s * 8)) + 1)
    for _ in range(100):
        ctrl = rng.normal(0.5, 0.8, n_ctrl)
        if np.any(ctrl > 0):
            break
    ctrl_t = np.linspace(0.0, duration_s, n_ctrl)
    envelope = np.maximum(np.interp(t, ctrl_t, ctrl), 0.0)
    if kind == "harmonic-complex":
        n_partials = int(0.45 * sample_rate_hz / pitch_hz)
        x = np.zeros(n)
        for p in range(1, n_partials + 1):
            phase = rng.uniform(0, 2 * np.pi)
            gain = (0.5 + rng.uniform()) / p
            x += gain * np.sin(2 * np.pi * p * pitch_hz * t + phase)
        x *= envelope
    else:
        x = rng.standard_normal(n) * envelope
    return peak_normalize(TimeSignal(x[np.newaxis, :], sample_rate_hz))


class TestSynthSource:
    def test_deterministic_per_seed(self):
        a = synth_source("harmonic-complex", 0.3, 210.0, seed=7)
        b = synth_source("harmonic-complex", 0.3, 210.0, seed=7)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_seeds_differ(self):
        a = synth_source("modulated-noise", 0.3, seed=1)
        b = synth_source("modulated-noise", 0.3, seed=2)
        assert np.abs(a.samples - b.samples).max() > 0

    def test_peak_normalized_mono(self):
        sig = synth_source("harmonic-complex", 0.5, 140.0, seed=0)
        assert sig.channels == 1
        assert np.abs(sig.samples).max() == 1.0

    def test_length_matches_duration(self):
        sig = synth_source("modulated-noise", 0.25)
        assert sig.length == 4000

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            synth_source("chirp", 0.25)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            synth_source("modulated-noise", 0.0)

    def test_pitch_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            synth_source("harmonic-complex", 0.25, 16000.0)

    @pytest.mark.parametrize("seed", _ZERO_ENVELOPE_SEEDS)
    def test_positive_end_point_with_zero_samples_redrawn(self, seed):
        # The last control point is positive but every sample falls before
        # the envelope's zero crossing; the former guard let it through.
        with pytest.raises(DegenerateInputError):
            _former_synth_source("modulated-noise", 0.02, seed=seed)
        sig = synth_source("modulated-noise", 0.02, seed=seed)
        assert np.abs(sig.samples).max() == 1.0

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["modulated-noise", "harmonic-complex"]),
           duration_s=st.sampled_from([0.02, 0.05, 0.3]),
           seed=st.integers(0, 2**16))
    @example(kind="modulated-noise", duration_s=0.02, seed=22)
    def test_keeps_former_bytes_where_it_rendered(self, kind, duration_s, seed):
        try:
            want = _former_synth_source(kind, duration_s, 210.0, seed)
        except DegenerateInputError:
            got = synth_source(kind, duration_s, 210.0, seed)
            assert np.abs(got.samples).max() == 1.0
            return
        got = synth_source(kind, duration_s, 210.0, seed)
        assert got.samples.tobytes() == want.samples.tobytes()




# The former renderer, verbatim: two passes over separate anechoic and
# shoebox image lists. Kept only as the test oracle.
_DELAY_TAPS = 33
_DELAY_HALF = _DELAY_TAPS // 2
_DELAY_CUTOFF = 0.9


def _oracle_delay_kernel(frac: float) -> np.ndarray:
    m = np.arange(_DELAY_TAPS) - _DELAY_HALF
    return _DELAY_CUTOFF * np.sinc(_DELAY_CUTOFF * (m - frac)) * np.hanning(_DELAY_TAPS)


def _oracle_render_images(sources, mic_positions, images_per_source, speed, fs):
    c = mic_positions.shape[0]
    max_delay = 0.0
    for spec, images in zip(sources, images_per_source):
        for pos, _ in images:
            r = np.linalg.norm(pos - mic_positions, axis=1)
            max_delay = max(max_delay, float(r.max()) / speed * fs)
    longest = max(s.signal.length for s in sources)
    lead = _DELAY_TAPS
    out_len = longest + lead + int(math.ceil(max_delay)) + _DELAY_TAPS

    rendered = []
    for spec, images in zip(sources, images_per_source):
        x = spec.signal.samples[0]
        out = np.zeros((c, out_len))
        for pos, gain in images:
            if gain == 0.0:
                continue
            for mic in range(c):
                r = float(np.linalg.norm(pos - mic_positions[mic]))
                delay = r / speed * fs
                n0 = int(round(delay))
                kernel = _oracle_delay_kernel(delay - n0) * (gain / r)
                start = lead + n0 - _DELAY_HALF
                seg = np.convolve(x, kernel)
                out[mic, start : start + seg.size] += seg
        rendered.append(out)
    return rendered


def _oracle_check_rates(spec):
    rates = {s.signal.sample_rate_hz for s in spec.sources}
    if len(rates) != 1:
        raise ConfigError(f"sources have mixed sample rates: {sorted(rates)}")
    return rates.pop()


def _oracle_finish(spec, geometry, images, fs):
    rendered = _oracle_render_images(spec.sources, geometry.mic_positions,
                                     images, geometry.speed_of_sound, fs)
    mixture = np.sum(rendered, axis=0)
    return RenderedScene(
        mixture=TimeSignal(mixture, fs),
        source_images=tuple(TimeSignal(r, fs) for r in rendered),
        dry_sources=tuple(s.signal for s in spec.sources),
        truth=spec.truth,
    )


def _oracle_simulate_anechoic(spec, geometry):
    fs = _oracle_check_rates(spec)
    ref = geometry.mic_positions[geometry.reference_mic]
    images = [[(ref + s.distance_m * unit_vector(s.doa_deg), 1.0)]
              for s in spec.sources]
    return _oracle_finish(spec, geometry, images, fs)


def _oracle_shoebox_images(src, lo, hi, beta, max_order):
    dims = hi - lo
    images = []
    span = range(-max_order, max_order + 1)
    for p in itertools.product((0, 1), repeat=3):
        for r in itertools.product(span, repeat=3):
            hits = sum(abs(r[a] - p[a]) + abs(r[a]) for a in range(3))
            if hits > max_order:
                continue
            if hits == 0:
                images.append((src.copy(), 1.0))
                continue
            gain = beta ** hits
            if gain == 0.0:
                continue
            pos = np.array([
                (1 - 2 * p[a]) * (src[a] - lo[a]) + 2 * r[a] * dims[a] + lo[a]
                for a in range(3)])
            images.append((pos, gain))
    return images


def _oracle_simulate_shoebox(spec, geometry):
    if spec.room is None:
        raise ConfigError("simulate_shoebox needs a room in the scene spec")
    fs = _oracle_check_rates(spec)
    room = spec.room
    lo = -room.origin
    hi = np.asarray(room.dimensions_m) - room.origin
    for mic in geometry.mic_positions:
        if np.any(mic <= lo) or np.any(mic >= hi):
            raise ConfigError(f"mic at {mic} lies outside the room")
    beta = math.sqrt(1.0 - room.absorption)
    ref = geometry.mic_positions[geometry.reference_mic]
    images = []
    for s in spec.sources:
        pos = ref + s.distance_m * unit_vector(s.doa_deg)
        if np.any(pos <= lo) or np.any(pos >= hi):
            raise ConfigError(f"source at {s.doa_deg} deg / {s.distance_m} m "
                              "lies outside the room")
        images.append(_oracle_shoebox_images(pos, lo, hi, beta, room.max_order))
    return _oracle_finish(spec, geometry, images, fs)


@st.composite
def _scenes(draw):
    """A 1-3 source scene of 20 ms noise bursts that fits any drawn room,
    with its array; the room is None (anechoic) or a shoebox of order 0-3
    with the array at its center or near it."""
    count = draw(st.integers(1, 3))
    doas = draw(st.lists(st.integers(0, 17), min_size=count, max_size=count,
                         unique=True))
    offset = draw(st.floats(0.0, 19.0))
    sources = tuple(
        SourceSpec(20.0 * d + offset, draw(st.floats(0.3, 1.5)),
                   synth_source("modulated-noise", 0.02,
                                seed=draw(st.integers(0, 2**16))))
        for d in doas)
    room = draw(st.none() | st.builds(
        RoomSpec, st.tuples(st.floats(4.0, 8.0), st.floats(4.0, 7.0),
                            st.floats(2.5, 4.0)),
        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), st.integers(0, 3),
        st.none() | st.tuples(st.floats(1.9, 2.1), st.floats(1.9, 2.1),
                              st.floats(0.5, 2.0))))
    geometry = ArrayGeometry(linear_array(draw(st.integers(2, 4)),
                                          draw(st.floats(0.02, 0.1))))
    return SceneSpec(sources, room=room), geometry


# An off-center array where (D - o) + o != D in x and y, so wall images
# must use hi - lo, as the former renderer did, not the room dimensions.
_OFF_CENTER = (_scene([30.0, 150.0], [1.0, 1.2], duration_s=0.02, room=RoomSpec(
    (6.2, 6.3, 3.0), 0.3, 2, (2.02, 1.94, 1.3))), ArrayGeometry())

# Every seed whose 20 ms burst the former synth_source could not render.
_ZERO_ENVELOPE_SCENE = (SceneSpec(tuple(
    SourceSpec(20.0 * i + 5.0, 1.0,
               synth_source("modulated-noise", 0.02, seed=seed))
    for i, seed in enumerate(_ZERO_ENVELOPE_SEEDS))), ArrayGeometry())


class TestRenderMatchesFormerRenderer:
    @settings(max_examples=40, deadline=None)
    @given(scene=_scenes())
    @example(scene=_OFF_CENTER)
    @example(scene=_ZERO_ENVELOPE_SCENE)
    def test_mixture_and_image_bytes(self, scene):
        spec, geometry = scene
        if spec.room is None:
            got = simulate_anechoic(spec, geometry)
            want = _oracle_simulate_anechoic(spec, geometry)
        else:
            got = simulate_shoebox(spec, geometry)
            want = _oracle_simulate_shoebox(spec, geometry)
        assert got.mixture.samples.tobytes() == want.mixture.samples.tobytes()
        assert len(got.source_images) == len(want.source_images)
        for a, b in zip(got.source_images, want.source_images):
            assert a.samples.shape == b.samples.shape
            assert a.samples.tobytes() == b.samples.tobytes()
