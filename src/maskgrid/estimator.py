"""Small trainable mask-grid estimator with hand-derived gradients.

A pointwise two-layer network (tanh hidden, sigmoid output) maps each
(frame, bin) of the mixture to a grid row. It exists to make the loss
conditioning of nearest-cell vs. Gaussian targets observable during real
optimization at desk scale, and to produce imperfect encodings for decoder
robustness tests. All gradients are written out by hand and checked against
finite differences in the tests.

A backward pass and the validation loss run the network one frame at a
time: only the parameter-shaped gradient sums and the squared error carry
over from frame to frame, so no (rows, cells) array of a whole scene is
held, and a coding.FrameBlocks target is encoded a frame at a time, once
per backward pass and once per validation loss. Each frame goes through the reference
formulas' floating-point operations in their order, but the sums over
frames round differently from one product over all rows: loss and
gradients agree with the whole-scene formulas to about 1e-14 relative.

Each pass of the network (a backward pass, a validation loss, an iteration
of forward_blocks) allocates its frame-sized arrays once and every frame
refills them, since writing into fresh pages, not the arithmetic, set a
frame's cost: _sigmoid on a 257 x 720 frame took 1.6 ms with new arrays
(about 740 page faults a call) and 0.7 ms in reused ones (one thread).

A pass computes in the features' floating type, and the weights are cast
to it once per pass; float64 features give the float64 bits above. With
the float32 features that maskgrid train uses, the products, tanh and
sigmoid run in float32 while the targets, the gradient sums, the loss sum
and the parameters stay float64, the usual mixed-precision recipe
(Micikevicius et al., arXiv:1710.03740). In one 15 s benchmark run each
(seed 7, 2 vCPU, one BLAS thread) a train op took 0.60 s, against 0.93 s
with the float64 pass; loss and gradients agree with a float64 pass on
the same features to about 1e-7 relative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coding import CodingTensor, FrameSource, SpatialGrid
from .errors import ConfigError, ShapeError, TrainingError
from .stft import Spectrogram

FEATURE_NORM_EPS = 1e-8


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None,
             den: np.ndarray | None = None,
             pos: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow; `out` may be z itself, and
    `den` (float) and `pos` (bool), shaped like z, are scratch to reuse.

    With e = exp(-|z|) the result is 1 / (1 + e) where z >= 0 and
    e / (1 + e) elsewhere. Since -|z| is exactly -z or z on those two sets,
    these are the textbook stable branches, bit for bit. The numerator is
    max(e, z >= 0): 1 where z >= 0 because e <= 1, and e elsewhere.
    """
    out = np.empty_like(z) if out is None else out
    pos = np.greater_equal(z, 0, out=pos)
    np.copysign(z, -1.0, out=out)
    np.exp(out, out=out)
    den = np.add(out, 1.0, out=den)
    np.maximum(out, pos, out=out)
    return np.divide(out, den, out=out)


def features(mixture: Spectrogram) -> np.ndarray:
    """Per-(t, k) input features, shape (T, K, 2C + 1).

    The channel vector Y_tk is divided by its Euclidean norm plus a small
    epsilon, split into real and imaginary parts, and concatenated with the
    normalized bin index k/K. Scale-invariant in the mixture level; the
    complex part has norm at most 1.
    """
    if mixture.channels < 2:
        raise ShapeError(f"need at least 2 channels, got {mixture.channels}")
    y = np.transpose(mixture.values, (1, 2, 0))
    norm = np.linalg.norm(y, axis=2, keepdims=True)
    y = y / (norm + FEATURE_NORM_EPS)
    t, k = y.shape[:2]
    bin_index = np.broadcast_to(np.arange(k) / k, (t, k))[:, :, None]
    return np.concatenate([y.real, y.imag, bin_index], axis=2)


@dataclass(frozen=True)
class EstimatorParams:
    """Weights of the two-layer network; shapes fix all dimensions."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    seed: int = 0

    def __post_init__(self):
        w1, b1 = np.asarray(self.w1, float), np.asarray(self.b1, float)
        w2, b2 = np.asarray(self.w2, float), np.asarray(self.b2, float)
        if w1.ndim != 2 or w2.ndim != 2:
            raise ShapeError("weight matrices must be 2-D")
        if b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],):
            raise ShapeError("bias shapes do not match weight matrices")
        if w1.shape[1] != w2.shape[0]:
            raise ShapeError(f"hidden dims differ: {w1.shape[1]} vs {w2.shape[0]}")
        for a in (w1, b1, w2, b2):
            if not np.all(np.isfinite(a)):
                raise ConfigError("parameters must be finite")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)

    def fits(self, dtype) -> bool:
        """Whether every weight lies within dtype's finite range, so that
        a cast to dtype holds no inf."""
        limit = np.finfo(dtype).max
        return all(np.all(np.abs(a) <= limit)
                   for a in (self.w1, self.b1, self.w2, self.b2))

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def output_dim(self) -> int:
        return self.w2.shape[1]


def init_params(input_dim: int, hidden_dim: int, output_dim: int,
                seed: int = 0, output_bias: float = 0.0) -> EstimatorParams:
    """Random initialization; output_bias shifts the sigmoid operating point.

    A strongly negative output_bias starts the network near the zero
    estimate, the evaluation point of the conditioning analysis.
    """
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, 1.0 / np.sqrt(input_dim), (input_dim, hidden_dim))
    w2 = rng.normal(0.0, 0.01, (hidden_dim, output_dim))
    return EstimatorParams(w1, np.zeros(hidden_dim), w2,
                           np.full(output_dim, float(output_bias)), seed)


@dataclass(frozen=True)
class Gradients:
    """Parameter gradients with the same shapes as EstimatorParams."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def l1_norm(self) -> float:
        return float(sum(np.abs(a).sum() for a in (self.w1, self.b1, self.w2, self.b2)))


def _pass_weights(params: EstimatorParams, feats: np.ndarray) -> tuple:
    """(w1, b1, w2, b2) in the pass's dtype, the features' floating type
    (float32 at least): params' own arrays for float64 features.

    Raises:
        TrainingError: a weight beyond that dtype's range, which the cast
            would make inf.
    """
    dtype = np.result_type(feats.dtype, np.float32)
    if not params.fits(dtype):
        raise TrainingError(f"a weight exceeds the {dtype} maximum "
                            f"{np.finfo(dtype).max:.4g} of the network pass "
                            f"on {feats.dtype} features")
    return tuple(a.astype(dtype, copy=False)
                 for a in (params.w1, params.b1, params.w2, params.b2))


def _passes(params: EstimatorParams, feats: np.ndarray):
    """(x, h, y, spare) for each frame's (bins, features) rows x of feats:
    hidden h = tanh(x w1 + b1) and output y = sigmoid(h w2 + b2), in the
    dtype of _pass_weights. h, y and spare, the sigmoid's scratch shaped
    like y and free for the caller, are one set of buffers per pass that
    each frame refills."""
    w1, b1, w2, b2 = _pass_weights(params, feats)
    h = np.empty((feats.shape[1], params.hidden_dim), w1.dtype)
    y = np.empty((feats.shape[1], params.output_dim), w1.dtype)
    den, pos = np.empty_like(y), np.empty(y.shape, bool)
    for x in feats:
        np.matmul(x, w1, out=h)
        h += b1
        np.tanh(h, out=h)
        np.matmul(h, w2, out=y)
        y += b2
        yield x, h, _sigmoid(y, y, den, pos), den


def _check_dims(params: EstimatorParams, feats: np.ndarray,
                grid: SpatialGrid) -> None:
    """Raise ShapeError unless feats are (frames, bins, input dim) and the
    grid has the output dim's cells."""
    if feats.ndim != 3:
        raise ShapeError(f"features must be 3-D (T, K, F), got ndim={feats.ndim}")
    if feats.shape[2] != params.input_dim:
        raise ShapeError(f"feature dim {feats.shape[2]} != input dim {params.input_dim}")
    if grid.theta_count != params.output_dim:
        raise ShapeError(f"grid {grid.theta_count} != output dim {params.output_dim}")


def _check_shapes(params: EstimatorParams, feats: np.ndarray, target) -> int:
    """The number of loss terms, (frames, bins, cells), once feats and
    target match the parameters and each other and hold at least one."""
    want = (*feats.shape[:2], params.output_dim)
    shape = (target.frames, target.bins, target.grid.theta_count)
    if shape != want:
        raise ShapeError(f"target shape {shape} does not match {want}")
    _check_dims(params, feats, target.grid)
    if shape[0] * shape[1] == 0:
        raise ShapeError(f"no (frame, bin) rows in target shape {shape}")
    return shape[0] * shape[1] * shape[2]


def _squared_error(params: EstimatorParams, feats: np.ndarray, target,
                   step=None) -> float:
    """Sum of (y - target)^2 over every (t, k, cell), a frame at a time.

    For each frame of _passes(params, feats), y being forward_blocks'
    frame, once the running sum with that frame's squares is found finite,
    step(x, h, y, y - target), if given, may overwrite h, y and the
    difference, buffers that the next frame refills. target is a coding source
    (see coding.CodingTensor); each frame is summed on its own, so a
    CodingTensor and a coding.FrameBlocks target give the same bits.

    A float32 pass squares the difference in float32 and numpy sums the
    squares in float64, where BLAS's sdot would add them in float32; a
    float64 pass keeps its BLAS dot product.

    Raises:
        TrainingError: the sum is not finite, or the pass overflows or
            makes a NaN.
    """
    total = 0.0
    squares = None
    try:
        with np.errstate(over="raise", invalid="raise"):
            for rows, (x, h, y, diff) in zip(target, _passes(params, feats)):
                np.subtract(y, rows, out=diff)
                if diff.dtype == np.float64:
                    total += float(np.vdot(diff, diff))
                else:
                    squares = np.square(diff, out=squares)
                    total += float(squares.sum(dtype=np.float64))
                if not np.isfinite(total):
                    raise TrainingError("non-finite loss")
                if step is not None:
                    step(x, h, y, diff)
    except FloatingPointError as err:
        raise TrainingError(f"{err} in the network pass") from err
    return total


def forward(params: EstimatorParams, feats: np.ndarray,
            grid: SpatialGrid) -> CodingTensor:
    """Network output as an estimated coding tensor, values in (0, 1): the
    frames of forward_blocks, bit for bit."""
    source = forward_blocks(params, feats, grid)
    values = np.empty((source.frames, source.bins, grid.theta_count))
    for t, frame in enumerate(source):
        values[t] = frame
    return CodingTensor(values, grid, "estimated")


def forward_blocks(params: EstimatorParams, feats: np.ndarray,
                   grid: SpatialGrid) -> FrameSource:
    """The network output as a coding source that computes a frame at a
    time, once _check_dims has passed."""
    _check_dims(params, feats, grid)
    return FrameSource(*feats.shape[:2], grid, "estimated",
                       lambda: (y for _, _, y, _ in _passes(params, feats)))


def backward(params: EstimatorParams, feats: np.ndarray, target) -> tuple:
    """Mean-MSE loss and its analytic parameter gradients.

    The loss is the mean of (output - target)^2 over every (t, k, cell),
    backpropagated through the sigmoid and tanh by hand. target is a
    CodingTensor or a coding.FrameBlocks, read a frame at a time.

    Returns:
        (Gradients, loss).

    Raises:
        ShapeError: feats or target do not match the parameters.
        TrainingError: loss is not finite.
    """
    n = _check_shapes(params, feats, target)
    sums = [np.zeros_like(p) for p in (params.w1, params.b1, params.w2,
                                       params.b2)]
    scale = 2.0 / n
    w2t = _pass_weights(params, feats)[2].T

    def step(x, h, y, diff):
        # y becomes dz2 = ((2/n) diff y) (1 - y), the factors in that order
        # (the last product is taken as (1 - y) times the rest, the same
        # bits), and h becomes 1 - h^2.
        diff *= scale
        diff *= y
        np.subtract(1.0, y, out=y)
        y *= diff
        gw2, gb2 = h.T @ y, y.sum(axis=0)
        dz1 = y @ w2t
        np.multiply(h, h, out=h)
        dz1 *= np.subtract(1.0, h, out=h)
        for acc, g in zip(sums, (x.T @ dz1, dz1.sum(axis=0), gw2, gb2)):
            acc += g

    loss = _squared_error(params, feats, target, step)
    return Gradients(*sums), loss / n


@dataclass(frozen=True)
class TrainConfig:
    """SGD schedule: initial rate decayed stepwise, early stop on patience."""

    learning_rate: float = 0.001
    decay_factor: float = 0.63
    decay_every_epochs: int = 10
    epochs: int = 100
    batch_size: int = 5
    target_kind: str = "mwslc"
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        if not 0.0 < self.decay_factor < 1.0:
            raise ConfigError(f"decay factor must be in (0, 1), got {self.decay_factor}")
        if min(self.epochs, self.batch_size, self.patience,
               self.decay_every_epochs) < 1:
            raise ConfigError("epochs, batch size, patience, decay interval "
                              "must be at least 1")

    def rate_at(self, epoch: int) -> float:
        return self.learning_rate * self.decay_factor ** (epoch // self.decay_every_epochs)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    learning_rate: float
    train_loss: float
    val_loss: float
    grad_norm: float


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch log plus the early-stop outcome."""

    epochs: tuple
    best_epoch: int
    stopped_early: bool

    HISTORY_COLUMNS = ("epoch", "learning_rate", "train_loss", "val_loss",
                       "grad_norm")

    def as_table(self):
        return [{c: getattr(e, c) for c in self.HISTORY_COLUMNS}
                for e in self.epochs]


def _mean_loss(params, pairs):
    """Validation loss of forward's output, a frame at a time; equals
    backward's loss."""
    losses = []
    for feats, target in pairs:
        n = _check_shapes(params, feats, target)
        losses.append(_squared_error(params, feats, target) / n)
    return float(np.mean(losses))


def train(train_pairs, val_pairs, cfg: TrainConfig,
          hidden_dim: int = 64) -> tuple:
    """Mini-batch SGD over scenes; returns best-validation params + history.

    Scenes are (features, target) pairs, the features as returned by
    `features`, or cast to float32 for a float32 network pass (see the
    module docstring), and the target a CodingTensor or a
    coding.FrameBlocks, which holds only the masks and truth and encodes a
    frame at a time per use.
    The network is initialized from the config seed with the first target's
    grid as its output. Reproducible bit-for-bit for a fixed config seed:
    shuffling uses its own generator and batch gradients are averaged in
    list order.

    Raises:
        TrainingError: empty splits, or loss turning non-finite (the epoch
            index is named in the message).
    """
    if not train_pairs or not val_pairs:
        raise TrainingError("need non-empty training and validation splits")
    feats0, target0 = train_pairs[0]
    params = init_params(feats0.shape[2], hidden_dim,
                         target0.grid.theta_count, seed=cfg.seed)

    rng = np.random.default_rng(cfg.seed)
    best = params
    best_val = _mean_loss(params, val_pairs)
    best_epoch = -1
    bad_epochs = 0
    stopped = False
    history = []
    for epoch in range(cfg.epochs):
        lr = cfg.rate_at(epoch)
        order = rng.permutation(len(train_pairs))
        epoch_losses = []
        epoch_norms = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            acc = None
            for idx in batch:
                feats, target = train_pairs[idx]
                try:
                    grads, loss = backward(params, feats, target)
                except TrainingError as err:
                    raise TrainingError(f"{err} at epoch {epoch}") from err
                epoch_losses.append(loss)
                if acc is None:
                    acc = [grads.w1, grads.b1, grads.w2, grads.b2]
                else:
                    for a, g in zip(acc, (grads.w1, grads.b1, grads.w2, grads.b2)):
                        a += g
            scale = 1.0 / batch.size
            epoch_norms.append(Gradients(*[a * scale for a in acc]).l1_norm())
            params = EstimatorParams(
                params.w1 - lr * scale * acc[0],
                params.b1 - lr * scale * acc[1],
                params.w2 - lr * scale * acc[2],
                params.b2 - lr * scale * acc[3],
                params.seed)
        val_loss = _mean_loss(params, val_pairs)
        history.append(EpochStats(epoch, lr, float(np.mean(epoch_losses)),
                                  val_loss, float(np.mean(epoch_norms))))
        if val_loss < best_val:
            best_val = val_loss
            best = params
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                stopped = True
                break
    return best, TrainHistory(tuple(history), best_epoch, stopped)


def corrupt_oracle(coding: CodingTensor, noise_std: float = 0.0,
                   blur_cells: int = 0, seed: int = 0) -> CodingTensor:
    """Degrade an oracle coding: circular blur over cells, then clipped noise.

    The blur is a moving average of radius blur_cells with wraparound; noise
    is Gaussian clipped to 5 standard deviations; the result is clipped to
    [0, 1]. Identity when both knobs are zero. seed may be a Generator,
    which the noise is then drawn from.
    """
    if noise_std < 0 or blur_cells < 0:
        raise ConfigError("noise_std and blur_cells must be non-negative")
    values = coding.values
    theta = coding.grid.theta_count
    if blur_cells > 0:
        width = 2 * blur_cells + 1
        if width >= theta:
            values = np.broadcast_to(values.mean(axis=2, keepdims=True),
                                     values.shape).copy()
        else:
            # acc += np.roll(values, off, axis=2) for each offset in turn,
            # as two slices: the same additions in the same order.
            acc = np.zeros_like(values)
            for off in range(-blur_cells, blur_cells + 1):
                cut = off % theta
                acc[..., cut:] += values[..., :theta - cut]
                acc[..., :cut] += values[..., theta - cut:]
            values = np.divide(acc, width, out=acc)
    if noise_std > 0:
        noise = np.random.default_rng(seed).normal(0.0, noise_std, values.shape)
        np.clip(noise, -5.0 * noise_std, 5.0 * noise_std, out=noise)
        values = np.add(values, noise, out=noise)
    if noise_std > 0 or blur_cells > 0:
        # values is a fresh array here, never coding.values.
        np.clip(values, 0.0, 1.0, out=values)
    return CodingTensor(values, coding.grid, coding.kind)


def corrupt_blocks(oracle, noise_std: float, blur_cells: int,
                   seed: int) -> FrameSource:
    """corrupt_oracle of each frame of `oracle` (a coding.FrameBlocks),
    bit-identical to one call on the full tensor: the blur and the clips
    act within a frame, and each pass draws the noise in C order from one
    generator made fresh from `seed`."""
    def frames():
        rng = np.random.default_rng(seed)
        for frame in oracle:
            yield corrupt_oracle(CodingTensor(frame[None], oracle.grid,
                                              oracle.kind),
                                 noise_std, blur_cells, rng).values[0]

    return FrameSource(oracle.frames, oracle.bins, oracle.grid, oracle.kind,
                       frames)
