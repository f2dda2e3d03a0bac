"""MVDR separation from masks and steering vectors.

Per speaker, the covariance of everything except that speaker is estimated
by weighting mixture frames with one minus the speaker's mask; the MVDR
filter then passes the steering direction with unit gain while minimizing
the remaining interference power. The weights of all speakers and bins come
from one batched solve over the (I, K, C, C) covariance stack; the
covariance dimension is the channel count, typically 4.
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

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.ndim != 4 or arr.shape[2] != arr.shape[3]:
            raise ShapeError(f"expected (I, K, C, C), got {arr.shape}")
        object.__setattr__(self, "values", arr)

    @property
    def speakers(self) -> int:
        return self.values.shape[0]

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
    return CovarianceSet(out)


def solve_hermitian(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve R x = b for Hermitian positive-definite R of shape (..., C, C)
    and b of shape (..., C): one batched Cholesky check, one batched solve.

    Raises:
        NumericError: some R is not positive definite or not finite.
    """
    r = np.asarray(r, dtype=np.complex128)
    try:
        if not np.isfinite(np.linalg.cholesky(r)).all():
            raise NumericError("non-finite Cholesky factor")
        return np.linalg.solve(r, np.asarray(b, np.complex128)[..., None])[..., 0]
    except np.linalg.LinAlgError as err:
        raise NumericError(f"covariance not positive definite ({err})") from None


def mvdr_weights(r: np.ndarray, d: np.ndarray) -> np.ndarray:
    """MVDR filter w = R^{-1} d / (d^H R^{-1} d); w^H d = 1 by construction.
    Shapes as in solve_hermitian; every denominator is checked at once."""
    x = solve_hermitian(r, d)
    denom = np.einsum("...c,...c->...", np.conj(d), x).real
    bad = ~((denom > 0.0) & (denom < np.inf))
    if bad.any():
        raise NumericError(f"non-positive beamformer denominator "
                           f"{denom[bad][0]:.3e}")
    return x / denom[..., None]


def mvdr(mixture: Spectrogram, steering: np.ndarray,
         cov: CovarianceSet) -> list:
    """Apply the MVDR filter per speaker and bin; mono output spectrograms.

    steering: (speakers, bins, channels) complex array.

    Raises:
        NumericError: a covariance stays singular despite loading; the
            message names the first failing speaker and bin.
    """
    c, t, k = mixture.values.shape
    steering = np.asarray(steering, dtype=np.complex128)
    if steering.shape != (cov.speakers, k, c):
        raise ShapeError(f"steering shape {steering.shape} does not match "
                         f"({cov.speakers}, {k}, {c})")
    try:
        w = mvdr_weights(cov.values, steering)
    except NumericError:
        # Re-solve speaker-major, pair by pair, only to name the failure.
        for i, kk in np.ndindex(steering.shape[:2]):
            try:
                mvdr_weights(cov.values[i, kk], steering[i, kk])
            except NumericError as err:
                raise NumericError(f"speaker {i}, bin {kk}: {err}") from err
        raise
    out = np.einsum("ctk,ikc->itk", mixture.values, np.conj(w))
    return [Spectrogram(o[None], mixture.config, mixture.sample_rate_hz)
            for o in out]


def separate(mixture: Spectrogram, masks: MaskSet, doas_deg,
             geometry: ArrayGeometry,
             loading_eps: float = DEFAULT_LOADING_EPS) -> list:
    """Full MVDR chain: covariances from masks, steering from DoAs, filter.

    A bin with no interference left has R = 0, e.g. where a lone speaker's
    mask is 1 in every frame. It gets the identity instead, which makes
    the scale-invariant MVDR filter delay-and-sum there.

    Raises:
        DegenerateInputError: no DoAs, so there is no speaker to separate.
    """
    doas_deg = np.atleast_1d(doas_deg)
    if doas_deg.size == 0:
        raise DegenerateInputError("no speaker directions to beamform toward "
                                   "(did the decoder find no speakers?)")
    cov = interference_covariance(mixture, masks, loading_eps)
    empty = np.trace(cov.values, axis1=2, axis2=3).real == 0.0
    cov.values[empty] = np.eye(mixture.values.shape[0])
    steering = np.stack([
        steering_matrix(geometry, float(a), mixture.config, mixture.sample_rate_hz)
        for a in doas_deg])
    return mvdr(mixture, steering, cov)
