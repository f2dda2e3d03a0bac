"""Spatial likelihood coding of time-frequency masks on an angular grid.

Synthetic multichannel scenes, STFT analysis, grid encodings of speaker
masks, a gradient-conditioning study of those encodings, joint DoA and
mask decoding, MVDR separation, and scoring.
"""

from ._version import __version__
from .coding import (CodingTensor, DoaSet, MaskSet, SpatialGrid, compute_irm,
                     encode_mwsbc, encode_mwslc, encode_mwslc_sum, encode_sbc,
                     encode_slc, frame_activity, snap_to_grid, wrapped_distance)
from .conditioning import (ConditioningReport, grad_norm_at_zero,
                           mwslc_norm_limit, theta_sweep)
from .decode import (DoaEstimates, FrameLikelihood, calibrate_threshold,
                     cluster_doas, freq_average, peak_search, sample_masks)
from .errors import (CollisionError, ConfigError, DegenerateInputError,
                     FormatError, MaskGridError, NumericError, ShapeError,
                     TrainingError, UnsupportedFormatError)
from .beamform import CovarianceSet, interference_covariance, mvdr, separate
from .estimator import (EstimatorParams, TrainConfig, backward, corrupt_oracle,
                        features, forward, init_params, train)
from .metrics import (EvalReport, delta_si_sdr, doa_mae_known_count,
                      doa_precision_recall, evaluate_scene, permute_align,
                      si_sdr)
from .scene import (ArrayGeometry, RenderedScene, RoomSpec, SceneSpec,
                    SourceSpec, simulate_anechoic, simulate_shoebox,
                    steering_matrix, synth_source)
from .signal import TimeSignal, load_wav, peak_normalize, save_wav
from .stft import Spectrogram, StftConfig, analyze, sqrt_hann_window, synthesize

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
