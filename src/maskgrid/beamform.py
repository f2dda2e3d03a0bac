"""MVDR separation from masks and steering vectors.

Per speaker, the covariance of everything except that speaker is estimated
by weighting mixture frames with one minus the speaker's mask; the MVDR
filter then passes the steering direction with unit gain while minimizing
the remaining interference power. The per-bin solves use a hand-rolled
complex Cholesky factorization; the covariance dimension is the channel
count, typically 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import MaskSet
from .errors import DegenerateInputError, NumericError, ShapeError
from .scene import ArrayGeometry, steering_matrix
from .stft import Spectrogram

DEFAULT_LOADING_EPS = 1e-6


@dataclass(frozen=True)
class CovarianceSet:
    """Per-speaker, per-bin Hermitian matrices, shape (I, K, C, C)."""

    values: np.ndarray
    loading_eps: float = DEFAULT_LOADING_EPS

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.ndim != 4 or arr.shape[2] != arr.shape[3]:
            raise ShapeError(f"expected (I, K, C, C), got {arr.shape}")
        object.__setattr__(self, "values", arr)

    @property
    def speakers(self) -> int:
        return self.values.shape[0]

    @property
    def bins(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]

    def validate(self, herm_tol: float = 1e-10, psd_tol: float = 1e-10) -> None:
        """Check Hermitian symmetry and (loaded) positive semi-definiteness."""
        v = self.values
        herm_err = np.abs(v - np.conj(np.swapaxes(v, 2, 3))).max()
        if herm_err > herm_tol:
            raise NumericError(f"covariance asymmetry {herm_err:.3e}")
        eigs = np.linalg.eigvalsh(v.reshape(-1, v.shape[2], v.shape[3]))
        if eigs.min() < -psd_tol:
            raise NumericError(f"negative covariance eigenvalue {eigs.min():.3e}")


def interference_covariance(mixture: Spectrogram, masks: MaskSet,
                            loading_eps: float = DEFAULT_LOADING_EPS) -> CovarianceSet:
    """Mask-complement-weighted mixture covariance per speaker and bin.

    R = (1/T) sum_t (1 - M_tk) Y_tk Y_tk^H over the whole utterance, then
    diagonal loading of loading_eps * trace(R)/C toward the identity. The
    matrix is explicitly symmetrized, so the Hermitian invariant holds to
    rounding.
    """
    c, t, k = mixture.values.shape
    if (masks.frames, masks.bins) != (t, k):
        raise ShapeError(f"masks {(masks.frames, masks.bins)} do not match "
                         f"mixture frames/bins {(t, k)}")
    y = np.transpose(mixture.values, (1, 2, 0))
    out = np.empty((masks.speakers, k, c, c), dtype=np.complex128)
    eye = np.eye(c)
    for i in range(masks.speakers):
        w = 1.0 - masks.values[i]
        r = np.einsum("tk,tkc,tkd->kcd", w, y, np.conj(y)) / t
        r = 0.5 * (r + np.conj(np.swapaxes(r, 1, 2)))
        trace = np.trace(r, axis1=1, axis2=2).real
        out[i] = r + (loading_eps * trace / c)[:, None, None] * eye
    return CovarianceSet(out, loading_eps)


def _cholesky(r: np.ndarray) -> np.ndarray:
    """Lower-triangular factor of a Hermitian positive-definite matrix.

    Raises:
        NumericError: non-positive or non-finite pivot.
    """
    c = r.shape[0]
    low = np.zeros((c, c), dtype=np.complex128)
    for j in range(c):
        pivot = r[j, j].real - float(np.sum(np.abs(low[j, :j]) ** 2))
        if not np.isfinite(pivot) or pivot <= 0.0:
            raise NumericError(f"pivot {pivot:.3e} at column {j}")
        low[j, j] = np.sqrt(pivot)
        for i in range(j + 1, c):
            low[i, j] = (r[i, j] - low[i, :j] @ np.conj(low[j, :j])) / low[j, j]
    return low


def solve_hermitian(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve R x = b for Hermitian positive-definite R via Cholesky."""
    low = _cholesky(np.asarray(r, dtype=np.complex128))
    c = low.shape[0]
    b = np.asarray(b, dtype=np.complex128)
    z = np.zeros(c, dtype=np.complex128)
    for i in range(c):
        z[i] = (b[i] - low[i, :i] @ z[:i]) / low[i, i]
    x = np.zeros(c, dtype=np.complex128)
    for i in reversed(range(c)):
        x[i] = (z[i] - np.conj(low[i + 1 :, i]) @ x[i + 1 :]) / low[i, i].real
    return x


def mvdr_weights(r: np.ndarray, d: np.ndarray) -> np.ndarray:
    """MVDR filter w = R^{-1} d / (d^H R^{-1} d); w^H d = 1 by construction."""
    x = solve_hermitian(r, d)
    denom = np.conj(d) @ x
    if not np.isfinite(denom.real) or denom.real <= 0.0:
        raise NumericError(f"non-positive beamformer denominator {denom.real:.3e}")
    return x / denom.real


def mvdr(mixture: Spectrogram, steering: np.ndarray,
         cov: CovarianceSet) -> list:
    """Apply the MVDR filter per speaker and bin; mono output spectrograms.

    steering: (speakers, bins, channels) complex array.

    Raises:
        NumericError: a covariance stays singular despite loading; the
            message names the speaker and bin.
    """
    c, t, k = mixture.values.shape
    steering = np.asarray(steering, dtype=np.complex128)
    if steering.shape != (cov.speakers, k, c):
        raise ShapeError(f"steering shape {steering.shape} does not match "
                         f"({cov.speakers}, {k}, {c})")
    y = np.transpose(mixture.values, (1, 2, 0))
    outputs = []
    for i in range(cov.speakers):
        out = np.empty((1, t, k), dtype=np.complex128)
        for kk in range(k):
            try:
                w = mvdr_weights(cov.values[i, kk], steering[i, kk])
            except NumericError as err:
                raise NumericError(
                    f"speaker {i}, bin {kk}: {err}") from err
            out[0, :, kk] = y[:, kk, :] @ np.conj(w)
        outputs.append(Spectrogram(out, mixture.config, mixture.sample_rate_hz))
    return outputs


def separate(mixture: Spectrogram, masks: MaskSet, doas_deg,
             geometry: ArrayGeometry,
             loading_eps: float = DEFAULT_LOADING_EPS) -> list:
    """Full MVDR chain: covariances from masks, steering from DoAs, filter.

    Raises:
        DegenerateInputError: no DoAs, so there is no speaker to separate.
    """
    doas_deg = np.atleast_1d(doas_deg)
    if doas_deg.size == 0:
        raise DegenerateInputError("no speaker directions to beamform toward "
                                   "(did the decoder find no speakers?)")
    cov = interference_covariance(mixture, masks, loading_eps)
    steering = np.stack([
        steering_matrix(geometry, float(a), mixture.config, mixture.sample_rate_hz)
        for a in doas_deg])
    return mvdr(mixture, steering, cov)
