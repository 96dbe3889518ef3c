"""Closed-form upper bounds on ln of the uniform covering number.

Five calculators share one query type. All of them bound
ln N_U(eps, F_gamma, m, ||.||_2^{l2}) for the class of T-layer sigmoid
networks composed with the margin-gamma ramp loss, and every one of them is
affine in ln m at a fixed eps, so each evaluates to one AffineLnCover
(a, b, ln_m_min) meaning ln N = a + b ln m for ln m > ln_m_min:

  ours        noise-composition bound for noisy networks (no weight norms)
  norm_based  incoming-l1-norm product bound
  pdim        pseudo-dimension counting bound
  lipschitz   weight-norm Lipschitz bound
  spectral    spectral-norm / (2,1)-norm product bound

norm_based and spectral do not depend on m (b = 0); ours has b = d p_1,
lipschitz b = p_T W_rvo, and pdim b = p_T P with ln_m_min = ln P.

Every product of factors is accumulated as a sum of logarithms; sigma and
the sample count enter only through their logs, so queries with sigma far
below the double underflow threshold (passed as ln_sigma) and replicated
sample counts beyond 1e308 (passed as ln m) evaluate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .mlp import NetworkArch
from .norms import ArchQuantifiers

METHODS = ("ours", "norm_based", "pdim", "lipschitz", "spectral")

_LN_MAX_DOUBLE = math.log(1.7976931348623157e308)


class BoundError(Exception):
    """Base class for bound-evaluation failures."""


class BoundPreconditionError(BoundError):
    """A precondition of the chosen formula is violated.

    When the formula needs a larger sample count, required_m holds it.
    """


class BoundOverflowError(BoundError):
    """ln of the covering number itself exceeds the double range."""

    def __init__(self, method: str, log10_ln_n: float):
        self.method = method
        self.log10_ln_n = log10_ln_n
        super().__init__(
            f"{method}: bound astronomically vacuous, "
            f"log10(ln N) = {log10_ln_n:.3f} exceeds double range"
        )


@dataclass(frozen=True)
class BoundQuery:
    method: str
    epsilon: float
    m: float
    gamma: float
    arch: NetworkArch
    quant: ArchQuantifiers

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class AffineLnCover:
    """ln N = a + b ln m at one eps, valid for ln m > ln_m_min."""

    a: float
    b: float = 0.0
    ln_m_min: float = -math.inf

    def at(self, ln_m: float) -> float:
        if ln_m <= self.ln_m_min:
            required_m = math.exp(self.ln_m_min)
            err = BoundPreconditionError(f"bound needs m > {required_m:.6g}")
            err.required_m = required_m
            raise err
        return self.a + self.b * ln_m


@dataclass(frozen=True)
class LnCover:
    ln_n: float
    query: BoundQuery


def _check_eps(eps: float):
    if not eps > 0 or not math.isfinite(eps):
        raise BoundPreconditionError(f"epsilon must be positive and finite, got {eps}")


def _exp_guarded(ln_value: float, method: str) -> float:
    if ln_value > _LN_MAX_DOUBLE:
        raise BoundOverflowError(method, ln_value / math.log(10.0))
    return math.exp(ln_value)


# --- noise-composition bound ------------------------------------------------


def _ours_plain(dims: tuple[int, ...], eps: float, ln_sigma: float) -> AffineLnCover:
    """Composed noisy-network bound in its un-margined form.

    Per inner layer i >= 2 the factor is
        30 (T sqrt(pT))^{3/2} p_{i-1}^{5/2}
          sqrt(ln((5 T sqrt(pT) p_{i-1} - eps sigma) / (eps sigma)))
          / (eps^{3/2} sigma^2) * ln(5 T p_{i-1} sqrt(pT) / (eps sigma))
    weighted by p_i * p_{i-1}; the first layer contributes
        d p_1 ln(T e m sqrt(pT) / (2 eps sigma)),
    the only term that depends on m.
    """
    _check_eps(eps)
    d, *p = dims
    t = len(p)
    if t < 2:
        raise BoundPreconditionError("noise-composition bound needs depth >= 2")
    if not math.isfinite(ln_sigma):
        raise BoundPreconditionError("sigma must be positive (ln_sigma finite)")
    p_t = p[-1]
    total = 0.0
    for i in range(1, t):  # layers 2..T
        p_prev = p[i - 1]
        # ln of the ratio r = 5 T sqrt(pT) p_{i-1} / (eps sigma)
        ln_r = math.log(5.0 * t * math.sqrt(p_t) * p_prev) - math.log(eps) - ln_sigma
        if ln_r <= math.log(2.0):
            raise BoundPreconditionError(
                f"layer {i + 1}: log domain violated, need "
                f"5 T sqrt(pT) p_{{i-1}} > 2 eps sigma (ln ratio {ln_r:.3g})"
            )
        # ln(r - 1), guarded against exp underflow for huge r
        ln_r_minus_1 = ln_r + math.log1p(-math.exp(-ln_r)) if ln_r < 700 else ln_r
        ln_factor = (
            math.log(30.0)
            + 1.5 * math.log(t * math.sqrt(p_t))
            + 2.5 * math.log(p_prev)
            + 0.5 * math.log(ln_r_minus_1)
            - 1.5 * math.log(eps)
            - 2.0 * ln_sigma
            + math.log(ln_r)
        )
        total += p[i] * p_prev * ln_factor
    b = d * p[0]
    first = b * (math.log(t * math.e * math.sqrt(p_t) / 2.0) - math.log(eps) - ln_sigma)
    return AffineLnCover(total + first, b)


# --- norm-based bound -------------------------------------------------------


def _norm_based_ln(
    d: int, p_t: int, t: int, v: float, eps: float, gamma: float
) -> AffineLnCover:
    """log2 N <= (pT/2) (2 sqrt(pT)/(gamma eps))^{2T} (2V)^{T(T+1)} log2(2d+2)."""
    _check_eps(eps)
    if v <= 0:
        raise BoundPreconditionError("norm-based bound needs V > 0")
    ln_ln_n = (
        math.log(p_t / 2.0)
        + 2.0 * t * (math.log(2.0 * math.sqrt(p_t)) - math.log(gamma * eps))
        + t * (t + 1) * math.log(2.0 * v)
        + math.log(math.log2(2.0 * d + 2.0))
        + math.log(math.log(2.0))
    )
    return AffineLnCover(_exp_guarded(ln_ln_n, "norm_based"))


# --- pseudo-dimension bound -------------------------------------------------


def pdim_capacity(w_rvo: int, r_rvo: int) -> float:
    """Pseudo-dimension upper bound P for one real-valued output network."""
    a = (w_rvo + 2.0) * r_rvo
    return a * a + 11.0 * a * math.log2(18.0 * (w_rvo + 2.0) * r_rvo**2)


def _pdim_ln(
    p_t: int, w_rvo: int | None, r_rvo: int | None, eps: float, gamma: float
) -> AffineLnCover:
    """ln N <= p_T P ln(2 sqrt(pT) e m / (P gamma eps)), valid for m > P."""
    _check_eps(eps)
    if w_rvo is None or r_rvo is None:
        raise BoundPreconditionError("pseudo-dim bound needs depth >= 2")
    cap = pdim_capacity(w_rvo, r_rvo)
    b = p_t * cap
    ln_cap = math.log(cap)
    a = b * (math.log(2.0 * math.sqrt(p_t) * math.e) - ln_cap - math.log(gamma * eps))
    return AffineLnCover(a, b, ln_cap)


# --- Lipschitzness bound ----------------------------------------------------


def _lipschitz_ln(
    p_t: int, w_rvo: int | None, t: int, v: float, eps: float, gamma: float
) -> AffineLnCover:
    """ln N <= p_T W ln(4 e sqrt(pT) W m V^T / (gamma eps (V - 1)))."""
    _check_eps(eps)
    if w_rvo is None:
        raise BoundPreconditionError("Lipschitz bound needs depth >= 2")
    if v <= 1.0:
        raise BoundPreconditionError("Lipschitz bound undefined for V <= 1")
    b = p_t * w_rvo
    a = b * (
        math.log(4.0 * math.e * math.sqrt(p_t) * w_rvo)
        + t * math.log(v)
        - math.log(gamma * eps)
        - math.log(v - 1.0)
    )
    return AffineLnCover(a, b)


# --- spectral bound ---------------------------------------------------------


def _spectral_ln(
    w_max: int, s: tuple[float, ...], b: tuple[float, ...], x_frob: float,
    eps: float, gamma: float,
) -> AffineLnCover:
    """4 ||X||_F^2 ln(2 w^2) / (gamma eps)^2 * prod s_i^2 * (sum (b_i/s_i)^{2/3})^3."""
    _check_eps(eps)
    ratio_sum = 0.0
    for i, (s_i, b_i) in enumerate(zip(s, b)):
        if s_i < 0 or b_i < 0:
            raise BoundPreconditionError(f"layer {i + 1}: negative norm")
        if s_i == 0.0:
            if b_i > 0.0:
                raise BoundPreconditionError(
                    f"layer {i + 1}: zero spectral norm with nonzero (2,1) norm"
                )
            return AffineLnCover(0.0)  # zero layer collapses the class to a constant
        ratio_sum += (b_i / s_i) ** (2.0 / 3.0)
    if x_frob == 0.0 or ratio_sum == 0.0:
        return AffineLnCover(0.0)
    ln_value = (
        math.log(4.0)
        + 2.0 * math.log(x_frob)
        + math.log(math.log(2.0 * w_max**2))
        - 2.0 * math.log(gamma * eps)
        + 2.0 * sum(math.log(s_i) for s_i in s)
        + 3.0 * math.log(ratio_sum)
    )
    return AffineLnCover(_exp_guarded(ln_value, "spectral"))


# --- public API ---------------------------------------------------------------


def ln_cover_fn(
    method: str,
    arch: NetworkArch,
    quant: ArchQuantifiers,
    gamma: float,
    margin_adjusted: bool = True,
    ln_sigma: float | None = None,
) -> Callable[[float], AffineLnCover]:
    """Build eps -> AffineLnCover for one method.

    ln_sigma overrides ln(arch.sigma); this is how noise scales below the
    double underflow threshold are queried.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")

    d = arch.input_dim
    p_t = arch.num_classes
    t = arch.depth
    if method == "ours":
        if ln_sigma is None:
            if arch.sigma <= 0:
                raise BoundPreconditionError("noise-composition bound needs sigma > 0")
            ln_sigma = math.log(arch.sigma)
        dims = arch.dims
        # the ramp-composed form is the plain form evaluated at gamma*eps/2
        return lambda eps: _ours_plain(
            dims, gamma * eps / 2.0 if margin_adjusted else eps, ln_sigma
        )
    if method == "norm_based":
        return lambda eps: _norm_based_ln(d, p_t, t, quant.V, eps, gamma)
    if method == "pdim":
        return lambda eps: _pdim_ln(p_t, quant.W_rvo, quant.r_rvo, eps, gamma)
    if method == "lipschitz":
        return lambda eps: _lipschitz_ln(p_t, quant.W_rvo, t, quant.V, eps, gamma)
    # spectral
    return lambda eps: _spectral_ln(quant.w, quant.s, quant.b, quant.x_frob, eps, gamma)


def ln_cover(query: BoundQuery, margin_adjusted: bool = True) -> LnCover:
    """Evaluate one bound at a query; raises typed BoundError subclasses."""
    fn = ln_cover_fn(query.method, query.arch, query.quant, query.gamma, margin_adjusted)
    return LnCover(ln_n=fn(query.epsilon).at(math.log(query.m)), query=query)


def bound_report(result: LnCover) -> dict:
    """JSON-ready report row for one evaluated bound."""
    q = result.query
    return {
        "method": q.method,
        "epsilon": q.epsilon,
        "m": q.m,
        "gamma": q.gamma,
        "sigma": q.arch.sigma,
        "ln_n": result.ln_n,
        "log10_n": result.ln_n / math.log(10.0),
    }
