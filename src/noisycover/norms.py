"""Matrix norms and the architecture quantifiers consumed by the bounds.

Weight matrices are (fan_in, fan_out); a column holds the incoming weights
of one output neuron, which fixes the norm conventions below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, input_frobenius
from .mlp import NetworkArch, ParamSet


def one_inf_norm(w: np.ndarray) -> float:
    """Largest l1 norm of any column (incoming weights of one neuron)."""
    w = np.asarray(w, dtype=float)
    return float(np.abs(w).sum(axis=0).max())


def two_one_norm(w: np.ndarray) -> float:
    """Sum of the l2 norms of the columns."""
    w = np.asarray(w, dtype=float)
    return float(np.linalg.norm(w, axis=0).sum())


class SpectralNormError(RuntimeError):
    """Power iteration did not converge; its estimate may be below the true norm."""


@dataclass(frozen=True)
class PowerIterationResult:
    value: float
    converged: bool
    iterations: int


def spectral_norm(
    w: np.ndarray, tol: float = 1e-10, max_iter: int = 1000, seed: int = 0
) -> PowerIterationResult:
    """Top singular value via power iteration on the Gram matrix.

    Starts from a seeded pseudo-random unit vector and stops when the
    relative change of the eigenvalue estimate drops below tol. On
    non-convergence the best estimate is returned with converged=False.
    """
    w = np.asarray(w, dtype=float)
    if w.size == 0 or not np.any(w):
        return PowerIterationResult(0.0, True, 0)
    # iterate on the smaller Gram matrix
    gram = w.T @ w if w.shape[1] <= w.shape[0] else w @ w.T
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(gram.shape[0])
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for it in range(1, max_iter + 1):
        gv = gram @ v
        norm_gv = np.linalg.norm(gv)
        if norm_gv == 0.0:
            # started orthogonal to the range; reseed deterministically
            v = rng.standard_normal(gram.shape[0])
            v /= np.linalg.norm(v)
            continue
        v = gv / norm_gv
        lam = float(v @ (gram @ v))
        if abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
            return PowerIterationResult(float(np.sqrt(lam)), True, it)
        lam_prev = lam
    return PowerIterationResult(float(np.sqrt(max(lam_prev, 0.0))), False, max_iter)


@dataclass(frozen=True)
class ArchQuantifiers:
    """Architecture counts and per-layer norms that feed the bound formulas.

    W_rvo and r_rvo are only defined for depth >= 2; they are None for
    single-layer networks and the bounds that need them refuse to run.
    """

    W_rvo: int | None
    r_rvo: int | None
    w: int
    V: float
    s: tuple[float, ...]
    b: tuple[float, ...]
    x_frob: float


def count_quantifiers(arch: NetworkArch) -> dict:
    """The purely combinatorial quantifiers (no weights or data needed)."""
    d = arch.input_dim
    p = arch.widths
    T = arch.depth
    hidden = p[:-1]
    if T >= 2:
        w_rvo = d * p[0] + sum(p[i] * p[i - 1] for i in range(1, T - 1)) + p[T - 2]
        r_rvo = 1 + sum(hidden)
    else:
        w_rvo = None
        r_rvo = None
    return {
        "W_rvo": w_rvo,
        "r_rvo": r_rvo,
        "w": max(d, *p),
    }


def quantifiers(
    arch: NetworkArch,
    params: ParamSet,
    train: Dataset | None = None,
    x_frob: float | None = None,
    spectral_seed: int = 0,
) -> ArchQuantifiers:
    """All quantifiers for a parameterized network.

    The input norm comes from the training set (or can be passed directly
    when the data is not at hand). Raises SpectralNormError when a layer's
    power iteration does not converge.
    """
    if params.arch.dims != arch.dims:
        raise ValueError("params shape does not match arch")
    if x_frob is None:
        if train is None:
            raise ValueError("need either a training set or x_frob")
        x_frob = input_frobenius(train)
    counts = count_quantifiers(arch)
    s = []
    for i, w in enumerate(params.weights):
        res = spectral_norm(w, seed=spectral_seed)
        if not res.converged:  # a norm from below would under-estimate the bounds
            raise SpectralNormError(
                f"layer {i + 1}: power iteration for the spectral norm did not "
                f"converge in {res.iterations} iterations"
            )
        s.append(res.value)
    b = tuple(two_one_norm(w) for w in params.weights)
    v = max(one_inf_norm(w) for w in params.weights)
    return ArchQuantifiers(
        W_rvo=counts["W_rvo"],
        r_rvo=counts["r_rvo"],
        w=counts["w"],
        V=v,
        s=tuple(s),
        b=b,
        x_frob=float(x_frob),
    )
