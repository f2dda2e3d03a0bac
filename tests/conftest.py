"""Shared fixtures: fixed desk-scale scenes rendered once per session.

Also registers the `ci` hypothesis profile: every property test draws the
same examples on each run (derandomize), with its max_examples unchanged.
CI selects it with HYPOTHESIS_PROFILE=ci; local runs stay random.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

import maskgrid as mg

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class SceneBundle:
    """A rendered scene plus the STFTs, masks, and coding derived from it.

    Everything downstream of the render is deterministic, so building each
    bundle once per session keeps the suite fast without hiding state.
    """

    def __init__(self, doas, distances, kinds, pitches, seeds, theta_count=720):
        sources = tuple(
            mg.SourceSpec(doa, dist, mg.synth_source(kind, 1.0, pitch, seed=seed))
            for doa, dist, kind, pitch, seed
            in zip(doas, distances, kinds, pitches, seeds))
        self.geometry = mg.ArrayGeometry()
        self.spec = mg.SceneSpec(sources)
        self.rendered = mg.simulate_anechoic(self.spec, self.geometry)
        self.truth = self.rendered.truth
        self.mixture_spec = mg.analyze(self.rendered.mixture)
        self.image_specs = [mg.analyze(img.channel(0))
                            for img in self.rendered.source_images]
        self.masks = mg.compute_irm(self.image_specs)
        self.grid = mg.SpatialGrid(theta_count)
        self.coding = mg.encode_mwslc(self.masks, self.truth, self.grid)


@pytest.fixture(scope="session")
def two_speaker_scene():
    """50 and 120 deg at 2.0/2.2 m: a harmonic voice plus modulated noise."""
    return SceneBundle([50.0, 120.0], [2.0, 2.2],
                       ["harmonic-complex", "modulated-noise"],
                       [210.0, 140.0], [3, 4])


@pytest.fixture(scope="session")
def three_speaker_scene():
    """40, 150, and 260 deg at increasing distances, mixed source kinds."""
    return SceneBundle([40.0, 150.0, 260.0], [2.0, 2.2, 2.4],
                       ["harmonic-complex", "modulated-noise",
                        "harmonic-complex"],
                       [210.0, 140.0, 170.0], [3, 4, 5])


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
