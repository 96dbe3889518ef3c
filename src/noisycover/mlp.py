"""Noisy sigmoid multilayer perceptron.

Plain dense layers z_i = act(W_i^T z_{i-1}) with zero-centered sigmoid
activation, optional Gaussian noise added after every layer's activation
(including the last one), momentum SGD on softmax cross-entropy, and the
ramp / 0-1 losses used by the bound pipeline.

Weight matrices are stored as (fan_in, fan_out), so a layer maps a batch
X of shape (n, fan_in) to act(X @ W). No bias terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np


class DimensionError(ValueError):
    """Input shape does not match the network architecture."""


class TrainingDiverged(RuntimeError):
    """Training loss became non-finite."""


@dataclass(frozen=True)
class NetworkArch:
    """Architecture descriptor: input dim, layer widths, noise scale, margin.

    widths[-1] is the number of classes. sigma is the standard deviation of
    the per-layer additive Gaussian noise; gamma the ramp-loss margin.
    """

    input_dim: int
    widths: tuple[int, ...]
    sigma: float = 0.0
    gamma: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if self.input_dim < 1 or len(self.widths) < 1 or min(self.widths) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    @property
    def depth(self) -> int:
        return len(self.widths)

    @property
    def num_classes(self) -> int:
        return self.widths[-1]

    @property
    def dims(self) -> tuple[int, ...]:
        """(input_dim, p_1, ..., p_T)."""
        return (self.input_dim,) + self.widths


@dataclass
class ParamSet:
    """Per-layer weight matrices of a network, tied to its architecture."""

    arch: NetworkArch
    weights: list[np.ndarray]

    def __post_init__(self):
        dims = self.arch.dims
        if len(self.weights) != self.arch.depth:
            raise DimensionError(
                f"expected {self.arch.depth} weight matrices, got {len(self.weights)}"
            )
        for i, w in enumerate(self.weights):
            if w.shape != (dims[i], dims[i + 1]):
                raise DimensionError(
                    f"layer {i}: expected shape {(dims[i], dims[i + 1])}, got {w.shape}"
                )
            if not np.all(np.isfinite(w)):
                raise ValueError(f"layer {i}: non-finite weight entries")

    def copy(self) -> "ParamSet":
        return ParamSet(self.arch, [w.copy() for w in self.weights])


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.3
    momentum: float = 0.9
    epochs: int = 10
    batch_size: int = 128
    seed: int = 0
    mc_samples_eval: int = 50
    noise_during_training: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class LossReport:
    ramp_loss: float
    zero_one_loss: float
    sample_count: int


def init_params(arch: NetworkArch, seed: int) -> ParamSet:
    """Uniform +-1/sqrt(fan_in) init, deterministic given seed."""
    rng = np.random.default_rng(seed)
    dims = arch.dims
    weights = []
    for i in range(arch.depth):
        bound = 1.0 / np.sqrt(dims[i])
        weights.append(rng.uniform(-bound, bound, size=(dims[i], dims[i + 1])))
    return ParamSet(arch, weights)


def activation(x):
    """Zero-centered sigmoid 1/(1+exp(-x)) - 1/2, mapping R to [-1/2, 1/2].

    Odd, strictly increasing, 1-Lipschitz. Computed as the identical
    tanh(x/2)/2, one ufunc that is exactly odd and saturates at +-1/2.
    """
    out = np.array(x, dtype=float)  # the one array this allocates
    out *= 0.5
    np.tanh(out, out=out)
    out *= 0.5
    return float(out) if out.ndim == 0 else out


def _activation_deriv(a):
    # derivative expressed through the activation value a = act(u)
    return (a + 0.5) * (0.5 - a)


def _as_batch(arch: NetworkArch, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise DimensionError(
            f"input has shape {x.shape}, expected (*, {arch.input_dim})"
        )
    return x, single


def _finish_pass(params: ParamSet, first: np.ndarray, sigma: float, rng) -> np.ndarray:
    """Layers 2..T of one pass, started from the noise-free layer-1 activation.

    `first` is act(X @ W_1) and is left unchanged. When sigma > 0, N(0, sigma^2 I)
    is added after every activation, layer 1's included, drawn from rng in
    layer order; at sigma = 0 rng is not touched.
    """
    z = first
    for i, w in enumerate(params.weights):
        if i > 0:
            z = activation(z @ w)
        if sigma > 0:
            noise = rng.standard_normal(z.shape)
            noise *= sigma
            noise += z
            z = noise
    return z


def _mean_of_passes(
    params: ParamSet,
    x: np.ndarray,
    n_samples: int,
    rng_for_pass: Callable[[int], np.random.Generator],
) -> np.ndarray:
    """Mean output of n_samples noisy passes over the batch x.

    Pass s draws its noise from rng_for_pass(s). The noise-free first layer is
    computed once for all passes; at sigma = 0 every pass is the same, so one
    pass is run and added n_samples times, the same sum as running them all.
    """
    sigma = params.arch.sigma
    first = activation(x @ params.weights[0])
    if sigma > 0:
        passes = (_finish_pass(params, first, sigma, rng_for_pass(s)) for s in range(n_samples))
    else:
        passes = itertools.repeat(_finish_pass(params, first, 0.0, None), n_samples)
    acc = np.zeros((x.shape[0], params.arch.num_classes))
    for out in passes:
        acc += out
    acc /= n_samples
    return acc


def forward_deterministic(params: ParamSet, x) -> np.ndarray:
    """Noise-free forward pass. Accepts a single vector or a (n, d) batch."""
    z, single = _as_batch(params.arch, x)
    z = _finish_pass(params, activation(z @ params.weights[0]), 0.0, None)
    return z[0] if single else z


def forward_noisy(params: ParamSet, x, rng: np.random.Generator) -> np.ndarray:
    """One noisy forward pass: N(0, sigma^2 I) added after every activation."""
    z, single = _as_batch(params.arch, x)
    z = _finish_pass(params, activation(z @ params.weights[0]), params.arch.sigma, rng)
    return z[0] if single else z


def expected_output(
    params: ParamSet, x, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Arithmetic mean of n_samples independent noisy forward passes."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    x, single = _as_batch(params.arch, x)
    acc = _mean_of_passes(params, x, n_samples, lambda s: rng)
    return acc[0] if single else acc


def margin(u, y: int) -> float:
    """Score of the labeled class minus the best competing class."""
    u = np.asarray(u, dtype=float)
    k = u.shape[-1]
    if not 0 <= y < k:
        raise IndexError(f"label {y} out of range for {k} classes")
    rest = np.delete(u, y, axis=-1)
    return float(u[y] - rest.max())


def _margins_batch(outputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    n = outputs.shape[0]
    true = outputs[np.arange(n), labels]
    masked = outputs.copy()
    masked[np.arange(n), labels] = -np.inf
    return true - masked.max(axis=1)


def ramp(x, gamma: float):
    """Piecewise-linear ramp: 0 below -gamma, 1 above 0, linear in between."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=float)
    out = np.clip(1.0 + x / gamma, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def zero_one_loss(u, y: int) -> int:
    """1 iff argmax(u) != y; argmax ties break toward the lowest index."""
    u = np.asarray(u, dtype=float)
    k = u.shape[-1]
    if not 0 <= y < k:
        raise IndexError(f"label {y} out of range for {k} classes")
    return int(np.argmax(u) != y)


def evaluate(
    params: ParamSet,
    images: np.ndarray,
    labels: np.ndarray,
    gamma: float,
    mode: str = "deterministic",
    n_samples: int = 50,
    seed: int = 0,
) -> LossReport:
    """Mean ramp and 0-1 losses over a dataset.

    mode "deterministic" uses the noise-free network; mode "expected" averages
    n_samples noisy passes per input, with the noise stream for Monte-Carlo
    sample s derived from (seed, s) so the result does not depend on how
    examples are batched.
    """
    images = np.asarray(images, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if images.shape[0] == 0:
        raise ValueError("dataset is empty")
    k = params.arch.num_classes
    if labels.min() < 0 or labels.max() >= k:
        raise IndexError(f"labels out of range for {k} classes")

    if mode == "deterministic":
        outputs = forward_deterministic(params, images)
    elif mode == "expected":
        images, _ = _as_batch(params.arch, images)
        outputs = _mean_of_passes(
            params, images, n_samples, lambda s: np.random.default_rng([seed, s])
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")

    margins = _margins_batch(outputs, labels)
    ramp_loss = float(np.mean(ramp(-margins, gamma)))
    zero_one = float(np.mean(np.argmax(outputs, axis=1) != labels))
    return LossReport(ramp_loss, zero_one, images.shape[0])


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_grads(
    params: ParamSet,
    xb: np.ndarray,
    yb: np.ndarray,
    rng: np.random.Generator | None = None,
    with_noise: bool = False,
) -> tuple[float, list[np.ndarray]]:
    """Mean softmax cross-entropy on a batch and its weight gradients.

    When with_noise is set, one noise realization per example is sampled at
    each layer; the backward pass treats the sampled noise as an additive
    constant, so gradients follow the deterministic path.
    """
    arch = params.arch
    sigma = arch.sigma if with_noise else 0.0
    zs = [xb]  # post-noise layer outputs, zs[0] is the input
    acts = []  # pre-noise activation values, needed for the derivative
    z = xb
    for w in params.weights:
        a = activation(z @ w)
        acts.append(a)
        z = a + sigma * rng.standard_normal(a.shape) if sigma > 0 else a
        zs.append(z)

    n = xb.shape[0]
    probs = _softmax(zs[-1])
    loss = float(-np.mean(np.log(probs[np.arange(n), yb] + 1e-300)))

    grads: list[np.ndarray] = [np.empty(0)] * arch.depth
    delta = probs.copy()
    delta[np.arange(n), yb] -= 1.0
    delta /= n
    for i in range(arch.depth - 1, -1, -1):
        delta = delta * _activation_deriv(acts[i])
        grads[i] = zs[i].T @ delta
        if i > 0:
            delta = delta @ params.weights[i].T
    return loss, grads


def train_sgd(
    params: ParamSet,
    images: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    on_epoch: Callable[[int, ParamSet, float], bool] | None = None,
) -> ParamSet:
    """Momentum SGD (v <- mu v - lr g; W <- W + v) on cross-entropy.

    Fully deterministic given config.seed: one generator drives the epoch
    shuffles and the per-pass noise in a fixed order. on_epoch(i, params,
    mean_loss) may return True to stop early. Raises TrainingDiverged if the
    loss becomes non-finite.
    """
    images = np.asarray(images, dtype=float)
    labels = np.asarray(labels, dtype=int)
    k = params.arch.num_classes
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise IndexError(f"labels out of range for {k} classes")

    params = params.copy()
    rng = np.random.default_rng(config.seed)
    velocity = [np.zeros_like(w) for w in params.weights]
    m = images.shape[0]

    for epoch in range(config.epochs):
        order = rng.permutation(m)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, m, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = cross_entropy_grads(
                params,
                images[idx],
                labels[idx],
                rng=rng,
                with_noise=config.noise_during_training,
            )
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became non-finite at epoch {epoch}")
            for i in range(len(velocity)):
                velocity[i] = config.momentum * velocity[i] - config.learning_rate * grads[i]
                params.weights[i] += velocity[i]
            epoch_loss += loss
            n_batches += 1
        if on_epoch is not None and on_epoch(epoch, params, epoch_loss / max(n_batches, 1)):
            break
    return params
