"""Scene geometry, steering, and image-source render tests."""

import numpy as np
import pytest

from maskgrid.errors import ConfigError
from maskgrid.scene import (ArrayGeometry, RoomSpec, SceneSpec, SourceSpec,
                            linear_array, simulate_anechoic, simulate_shoebox,
                            steering_matrix, synth_source, unit_vector)
from maskgrid.signal import TimeSignal
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

    def test_minimum_gap_enforced(self):
        with pytest.raises(ConfigError):
            _scene([50.0, 60.0], [2.0, 2.0])

    def test_gap_wraps_around_zero(self):
        with pytest.raises(ConfigError):
            _scene([356.0, 4.0], [2.0, 2.0])

    def test_doa_outside_span_rejected(self):
        with pytest.raises(ConfigError):
            _scene([50.0, 360.0], [2.0, 2.0])

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
