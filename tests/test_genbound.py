import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import noisycover as nc
from noisycover.genbound import dudley_integral, full_gb, invert_nvac, solve_nvac, NvacError
from noisycover.bounds import AffineLnCover, BoundPreconditionError


class TestDudleyIntegral:
    def test_zero_entropy(self):
        res = dudley_integral(lambda nu: 0.0, m=100)
        assert res.value == pytest.approx(4e-4, abs=1e-12)
        assert res.best_epsilon == pytest.approx(1e-4)
        assert res.integral_value == 0.0

    def test_constant_entropy_closed_form(self):
        c, m = 9.0, 10_000.0
        res = dudley_integral(lambda nu: c, m=m)
        grid = nc.genbound.default_eps_grid()
        # trapezoid is exact for constants, so the grid minimum is exact
        want = min(4 * e + 12 / math.sqrt(m) * math.sqrt(c) * (0.5 - e) for e in grid)
        assert res.value == pytest.approx(want, rel=1e-12)

    def test_inverse_nu_against_antiderivative(self):
        # sqrt(ln N) = nu^{-1/2} integrates to 2(sqrt(1/2) - sqrt(eps))
        m = 1e4
        grid = np.geomspace(0.01, 0.5, 200)
        res = dudley_integral(lambda nu: 1.0 / nu, m=m, eps_grid=grid)
        analytic = 2.0 * (math.sqrt(0.5) - math.sqrt(res.best_epsilon))
        assert res.integral_value == pytest.approx(analytic, rel=1e-3)

    def test_propagates_errors(self):
        def bad(nu):
            raise BoundPreconditionError("nope")

        with pytest.raises(BoundPreconditionError):
            dudley_integral(bad, m=10)


class TestFullGb:
    def test_zero_entropy_large_m(self):
        res = full_gb(lambda nu: 0.0, m=1e12, ramp_loss=0.0)
        assert res.gb_value < 1e-3

    def test_hand_value_m_100(self):
        res = full_gb(lambda nu: 0.0, m=100, ramp_loss=0.0, delta=0.01)
        want = 2 * (4 * 1e-4) + 3 * math.sqrt(math.log(200.0) / 200.0)
        assert res.gb_value == pytest.approx(want, rel=1e-12)
        assert res.delta == 0.01

    def test_sqrt_two_scaling(self):
        # at a pinned epsilon the non-epsilon terms scale exactly as 1/sqrt(m)
        c = 4.0
        grid = np.array([0.1, 0.5])

        def gb_at(m):
            return full_gb(lambda nu: c, m=m, ramp_loss=0.0, eps_grid=grid).gb_value

        lo, hi = gb_at(1000.0), gb_at(2000.0)
        assert (lo - 0.8) / (hi - 0.8) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            full_gb(lambda nu: 0.0, m=10, ramp_loss=0.0, delta=1.5)


@pytest.fixture
def toy():
    arch = nc.NetworkArch(4, (3, 2), sigma=0.05, gamma=0.1)
    quant = nc.ArchQuantifiers(
        W_rvo=4 * 3 + 3, r_rvo=4, w=4,
        V=2.0, s=(1.0, 1.0), b=(2.0, 2.0), x_frob=1.0,
    )
    return arch, quant


class TestSolveNvac:
    def test_constant_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            c = float(rng.uniform(0.5, 1e8))
            ramp = float(rng.uniform(0.0, 0.9))
            m = int(rng.integers(10, 10**6))
            res = invert_nvac(AffineLnCover(c), m, ramp)
            eps = (1.0 - ramp) / 10.0
            assert res.nvac == m * max(1, math.ceil(36.0 / (eps * eps) * c / m))
            assert res.converged and res.n_star >= 1

    def test_spectral_matches_closed_form(self, toy):
        arch, quant = toy
        terms = nc.ln_cover_fn("spectral", arch, quant, 0.1)(0.099)
        assert terms.b == 0.0
        direct = solve_nvac("spectral", arch, quant, 500, 0.1, 0.01)
        const = invert_nvac(AffineLnCover(terms.a), 500, 0.01)
        assert direct.nvac == const.nvac

    def test_crossing_certificate(self, toy):
        arch, quant = toy
        m = 1000
        res = solve_nvac("ours", arch, quant, m, 0.1, 0.01)
        assert res.converged
        eps = res.epsilon_used
        terms = nc.ln_cover_fn("ours", arch, quant, 0.1)(eps)
        big_m = res.n_star * m
        assert 36 * terms.at(math.log(big_m)) / eps**2 <= big_m
        shrunk = big_m / 1.01
        assert 36 * terms.at(math.log(shrunk)) / eps**2 > shrunk

    def test_nvac_nondecreasing_in_ramp_loss(self, toy):
        arch, quant = toy
        vals = [
            solve_nvac("ours", arch, quant, 1000, 0.1, rl).nvac_log10
            for rl in np.linspace(0.0, 0.9, 10)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_ours_monotone_in_sigma(self, toy):
        # smaller noise scale -> larger NVAC, drifting by a bounded amount
        # per decade (the decay is near-linear in log10 sigma)
        arch, quant = toy
        decades = np.arange(-300, 0, 10)
        vals = [
            solve_nvac(
                "ours", arch, quant, 1000, 0.1, 0.01,
                ln_sigma=float(d) * math.log(10.0),
            ).nvac_log10
            for d in decades
        ]
        diffs = np.diff(vals)  # sigma increases along the grid
        assert np.all(diffs <= 1e-9)
        assert np.all(np.abs(diffs) <= 0.5)  # both bounds, per 10 decades

    def test_pdim_result_above_capacity(self, toy):
        arch, quant = toy
        res = solve_nvac("pdim", arch, quant, 100, 0.1, 0.01)
        assert res.converged
        assert res.n_star * 100 > nc.pdim_capacity(quant.W_rvo, quant.r_rvo)

    def test_vacuous_ramp_loss(self, toy):
        arch, quant = toy
        with pytest.raises(NvacError, match="vacuous"):
            solve_nvac("ours", arch, quant, 100, 0.1, 1.0)

    def test_precondition_propagates(self, toy):
        arch, quant = toy
        import dataclasses

        low_v = dataclasses.replace(quant, V=0.9)
        with pytest.raises(BoundPreconditionError):
            solve_nvac("lipschitz", arch, low_v, 100, 0.1, 0.01)

    def test_result_field_consistency(self, toy):
        arch, quant = toy
        res = solve_nvac("ours", arch, quant, 1000, 0.1, 0.05)
        assert res.epsilon_used == pytest.approx((1 - 0.05) / 10)
        assert res.nvac == pytest.approx(1000 * res.n_star)
        assert res.nvac_log10 == pytest.approx(math.log10(res.nvac), rel=1e-9)

    def test_astronomical_nvac_stays_in_log_space(self, toy):
        arch, quant = toy
        import dataclasses

        # enormous norm product pushes ln N far past double overflow of N
        huge = dataclasses.replace(quant, V=1e12)
        res = solve_nvac("norm_based", arch, huge, 1000, 0.1, 0.01)
        assert res.converged
        assert res.nvac_log10 > 60


def _vacuous_margin(a, b, eps, big_m):
    """36 (a + b ln M) / eps^2 - M: positive while the bound is vacuous at M."""
    return 36.0 / (eps * eps) * (a + b * math.log(big_m)) - big_m


class TestInvertNvac:
    """invert_nvac on random affine terms ln N = a + b ln M."""

    def check(self, a, b, m, ramp):
        res = invert_nvac(AffineLnCover(a, b), m, ramp)
        eps = (1.0 - ramp) / 10.0
        assert res.converged
        assert res.n_star >= 1 and res.n_star == math.floor(res.n_star)
        big_m = res.n_star * m
        assert _vacuous_margin(a, b, eps, big_m) <= 0.0, "certificate"
        if res.n_star >= 2:  # one replication fewer is still vacuous
            prev = (res.n_star - 1) * m
            assert _vacuous_margin(a, b, eps, prev) > -1e-12 * prev, "minimality"

    @given(
        st.floats(0.0, 1e9),
        st.one_of(st.just(0.0), st.floats(0.0, 1e7)),
        st.integers(1, 10**7),
        st.floats(0.0, 0.95),
    )
    def test_certificate_and_minimality(self, a, b, m, ramp):
        self.check(a, b, m, ramp)

    @given(
        st.floats(1e-3, 1e6),
        st.floats(0.0, 0.3),
        st.sampled_from([1, 2]),
        st.floats(0.0, 0.95),
    )
    def test_start_left_of_maximum(self, b, frac, m, ramp):
        # m < e and a < b put ln m left of the excess maximum at 1 - a/b
        a = frac * b
        assert math.log(m) < 1.0 - a / b
        self.check(a, b, m, ramp)

    @given(st.floats(0.0, 1e9), st.integers(1, 10**7), st.floats(0.0, 0.95))
    def test_zero_slope_is_closed_form(self, a, m, ramp):
        res = invert_nvac(AffineLnCover(a), m, ramp)
        eps = (1.0 - ramp) / 10.0
        assert res.nvac == m * max(1, math.ceil(36.0 / (eps * eps) * a / m))

    def test_zero_slope_beyond_double_range(self):
        a, m, ramp = 1e306, 1000, 0.01
        eps = (1.0 - ramp) / 10.0
        res = invert_nvac(AffineLnCover(a), m, ramp)
        want = (math.log(36.0) - 2.0 * math.log(eps) + math.log(a)) / math.log(10.0)
        assert res.converged and res.nvac is None
        assert res.nvac_log10 > 308
        assert res.nvac_log10 == pytest.approx(want, rel=1e-12)

    def test_positive_slope_beyond_double_range(self):
        # e^L = k (a + b L) has the larger root L = -W_{-1}(-e^{-a/b} / (k b)) - a/b
        a, b, m, ramp = 1e300, 1e305, 1000, 0.01
        eps = (1.0 - ramp) / 10.0
        res = invert_nvac(AffineLnCover(a, b), m, ramp)
        with mp.workdps(50):
            k = mp.mpf(36) / mp.mpf(eps) ** 2
            ratio = mp.mpf(a) / mp.mpf(b)
            root = -mp.lambertw(-mp.exp(-ratio) / (k * mp.mpf(b)), -1).real - ratio
            want = float(root / mp.log(10))
        assert res.converged and res.nvac is None
        assert res.nvac_log10 > 308
        assert res.nvac_log10 == pytest.approx(want, rel=1e-12)

    def test_floor_at_validity_threshold(self):
        # a bound valid only above ln_m_min is never inverted below it
        res = invert_nvac(AffineLnCover(0.0, 1e-9, math.log(1e6)), 10, 0.01)
        assert res.converged and res.nvac > 1e6
