"""Entropy-integral generalization bounds and the NVAC solver.

The entropy integrals take any callable nu -> ln N(nu). The NVAC solver
takes the affine terms ln N = a + b ln M that bounds.ln_cover_fn produces
at one eps, and inverts them directly: in closed form when b = 0, by a
few Newton steps on the concave crossing condition when b > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import AffineLnCover, ln_cover_fn
from .mlp import NetworkArch
from .norms import ArchQuantifiers

_LN10 = math.log(10.0)
_LN_MAX = math.log(1.7976931348623157e308)
_NEWTON_MAX_ITER = 100


class NvacError(ValueError):
    pass


@dataclass(frozen=True)
class DudleyResult:
    value: float
    best_epsilon: float
    integral_value: float


@dataclass(frozen=True)
class GbResult:
    gb_value: float
    best_epsilon: float
    delta: float
    integral_value: float


@dataclass(frozen=True)
class NvacResult:
    method: str
    epsilon_used: float
    ramp_loss_input: float
    n_star: float  # replication count; inf when beyond double range
    n_star_log10: float
    nvac: float | None  # m * n_star when representable as a double
    nvac_log10: float
    converged: bool


def default_eps_grid(n: int = 200, lo: float = 1e-4, hi: float = 0.5) -> np.ndarray:
    return np.geomspace(lo, hi, n)


def _sqrt_entropy(lncover: Callable[[float], float], grid: np.ndarray) -> np.ndarray:
    vals = np.array([lncover(float(nu)) for nu in grid])
    if np.any(vals < -1e-9):
        raise ValueError("ln covering number must be nonnegative")
    return np.sqrt(np.maximum(vals, 0.0))


def dudley_integral(
    lncover: Callable[[float], float],
    m: float,
    eps_grid: np.ndarray | None = None,
) -> DudleyResult:
    """Minimize 4 eps + (12/sqrt(m)) * int_eps^{1/2} sqrt(ln N(nu)) dnu.

    lncover maps nu -> ln N(nu, m) with m already fixed. The integral is a
    trapezoid rule on a geometric grid (default 200 points in [1e-4, 1/2])
    and the infimum is taken over the same grid points.
    """
    grid = default_eps_grid() if eps_grid is None else np.asarray(eps_grid, dtype=float)
    integrand = _sqrt_entropy(lncover, grid)
    # cumulative trapezoid of the tail integral int_{grid[j]}^{grid[-1]}
    seg = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(grid)
    tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    values = 4.0 * grid + (12.0 / math.sqrt(m)) * tail
    j = int(np.argmin(values))
    return DudleyResult(float(values[j]), float(grid[j]), float(tail[j]))


def full_gb(
    lncover: Callable[[float], float],
    m: float,
    ramp_loss: float,
    delta: float = 0.01,
    eps_grid: np.ndarray | None = None,
) -> GbResult:
    """Covering-number generalization bound at confidence 1 - delta.

    GB = 2 [4 eps + (12/sqrt(m)) int_eps^{1/2} sqrt(ln N) dnu]
         + 3 sqrt(ln(2/delta) / (2m)),
    minimized over eps. The bound on the 0-1 risk is ramp_loss + GB.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if not 0.0 <= ramp_loss <= 1.0:
        raise ValueError("ramp_loss must be in [0, 1]")
    dud = dudley_integral(lncover, m, eps_grid)
    slack = 3.0 * math.sqrt(math.log(2.0 / delta) / (2.0 * m))
    return GbResult(2.0 * dud.value + slack, dud.best_epsilon, delta, dud.integral_value)


def _nvac_result(
    method: str,
    eps: float,
    ramp_loss: float,
    m: float,
    converged: bool,
    m_star: float | None = None,
    ln_m_star: float | None = None,
) -> NvacResult:
    """Package M* (the replicated count) as n* = ceil(M*/m) and NVAC = m n*.

    M* may arrive as a plain double or, beyond the double range, as ln M*;
    in log space M*/m is exp(ln M* - ln m), so M* = m gives n* = 1 exactly.
    The ceiling is applied only while M*/m is exactly representable.
    """
    if m_star is None:
        ln_n = ln_m_star - math.log(m)
        ratio = math.exp(ln_n) if ln_n <= _LN_MAX else math.inf
    else:
        ln_n = math.log(m_star) - math.log(m)
        ratio = m_star / m

    if ratio < 2**53:
        n_star = float(math.ceil(ratio))
        n_star_log10 = math.log10(n_star)
    else:
        n_star = math.exp(ln_n) if ln_n <= _LN_MAX else math.inf
        n_star_log10 = ln_n / _LN10
    nvac_log10 = math.log10(m) + n_star_log10
    nvac = m * n_star if (math.isfinite(n_star) and nvac_log10 < 308.0) else None
    return NvacResult(
        method=method,
        epsilon_used=eps,
        ramp_loss_input=ramp_loss,
        n_star=n_star,
        n_star_log10=n_star_log10,
        nvac=nvac,
        nvac_log10=nvac_log10,
        converged=converged,
    )


def _nvac_epsilon(ramp_loss: float, m: float) -> float:
    if ramp_loss < 0.0:
        raise NvacError("ramp_loss must be nonnegative")
    if ramp_loss >= 1.0:
        raise NvacError("ramp_loss >= 1: bound is vacuous already")
    if m < 1:
        raise NvacError("m must be >= 1")
    return (1.0 - ramp_loss) / 10.0


def invert_nvac(
    terms: AffineLnCover, m: float, ramp_loss: float, method: str = "affine"
) -> NvacResult:
    """Smallest M >= m with 36 (a + b ln M) / eps^2 <= M, as NVAC = m ceil(M/m).

    terms are the affine ln-cover terms at eps = (1 - ramp_loss) / 10. With
    k = 36 / eps^2, b = 0 inverts in closed form, M* = max(k a, m). For
    b > 0 the excess g(L) = ln k + ln(a + b L) - L (L = ln M) is concave
    with its maximum at L = 1 - a/b; M* is its larger root. Newton started
    right of the maximum overshoots at most once and then decreases
    monotonically onto the root, so every later iterate is an upper bound
    on M*; the last one is stepped up by ulps until g(L) <= 0 holds beyond
    the rounding error of g.
    """
    eps = _nvac_epsilon(ramp_loss, m)
    a, b = terms.a, terms.b
    factor = 36.0 / (eps * eps)
    ln_factor = math.log(36.0) - 2.0 * math.log(eps)

    if b == 0.0:
        crossing = factor * a
        if math.isfinite(crossing):
            return _nvac_result(method, eps, ramp_loss, m, True, m_star=max(crossing, float(m)))
        return _nvac_result(method, eps, ramp_loss, m, True, ln_m_star=ln_factor + math.log(a))

    def excess(ln_big_m: float) -> float:
        # positive while the bound is still vacuous at M = exp(ln_big_m)
        ln_n = a + b * ln_big_m
        return ln_factor + math.log(ln_n) - ln_big_m if ln_n > 0.0 else -math.inf

    ln_floor = max(math.log(m), math.nextafter(terms.ln_m_min, math.inf))
    if excess(ln_floor) <= 0.0:
        return _nvac_result(method, eps, ramp_loss, m, True, ln_m_star=ln_floor)

    # one unit right of the maximum the slope is -1/2
    ln_big_m = max(ln_floor, 2.0 - a / b)
    converged = False
    for _ in range(_NEWTON_MAX_ITER):
        slope = b / (a + b * ln_big_m) - 1.0
        step = excess(ln_big_m) / slope
        ln_big_m -= step
        if abs(step) <= 1e-12 * max(1.0, abs(ln_big_m)):
            converged = True
            break
    # excess() carries a few ulps of rounding: step up by ulps, doubling,
    # until it is negative beyond that, so exp(L) stays an upper bound on M*
    margin = 4.0 * math.ulp(max(ln_factor, ln_big_m))
    ulps = math.ulp(ln_big_m)
    while excess(ln_big_m) > -margin:
        ln_big_m += ulps
        ulps *= 2.0
    return _nvac_result(method, eps, ramp_loss, m, converged, ln_m_star=ln_big_m)


def solve_nvac(
    method: str,
    arch: NetworkArch,
    quant: ArchQuantifiers,
    m: float,
    gamma: float,
    ramp_loss: float,
    ln_sigma: float | None = None,
) -> NvacResult:
    """Smallest replicated sample count at which the bound stops being vacuous.

    With eps = (1 - ramp_loss) / 10, find the smallest M = m * n satisfying
        (6 / sqrt(M)) sqrt(ln N(eps, M)) <= eps
    equivalently 36 ln N(eps, M) / eps^2 <= M, by inverting the method's
    affine terms at eps (invert_nvac). NVAC is m * ceil(M/m).
    """
    eps = _nvac_epsilon(ramp_loss, m)
    terms = ln_cover_fn(method, arch, quant, gamma, ln_sigma=ln_sigma)(eps)
    return invert_nvac(terms, m, ramp_loss, method)
