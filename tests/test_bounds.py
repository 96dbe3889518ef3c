import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisycover as nc
from noisycover.bounds import (
    BoundOverflowError,
    BoundPreconditionError,
    BoundQuery,
    ln_cover,
    ln_cover_fn,
    pdim_capacity,
)

import oracles

BASELINE = nc.NetworkArch(784, (250, 250, 250, 10), sigma=0.05, gamma=0.1)
BASELINE_QUANT = nc.ArchQuantifiers(
    W_rvo=321250, r_rvo=751, w=784,
    V=10.0, s=(3.0, 2.0, 2.0, 1.5), b=(40.0, 25.0, 25.0, 8.0), x_frob=9.2,
)


def query(method, epsilon=0.099, m=59000.0, gamma=0.1, arch=BASELINE, quant=BASELINE_QUANT):
    return BoundQuery(method, epsilon, m, gamma, arch, quant)


class TestFrozenBaselineValues:
    """ln values at one reference query, frozen from 60-digit evaluations."""

    def test_ours(self):
        assert ln_cover(query("ours")).ln_n == pytest.approx(9348792.1379461945, rel=1e-9)

    def test_ours_unmargined_variant(self):
        got = ln_cover(query("ours"), margin_adjusted=False).ln_n
        assert got == pytest.approx(8153821.9682538405, rel=1e-9)

    def test_norm_based(self):
        got = ln_cover(query("norm_based")).ln_n
        assert got == pytest.approx(1.0703779386388676e50, rel=1e-9)

    def test_pdim(self):
        got = ln_cover(query("pdim", m=1e20)).ln_n
        assert got == pytest.approx(8.6777842934073366e18, rel=1e-9)

    def test_pdim_toy(self):
        arch = nc.NetworkArch(2, (2, 2), gamma=0.1)
        quant = nc.ArchQuantifiers(
            W_rvo=6, r_rvo=3, w=2,
            V=1.5, s=(1.0, 1.0), b=(1.0, 1.0), x_frob=1.0,
        )
        got = ln_cover(query("pdim", epsilon=0.2, m=1e6, arch=arch, quant=quant)).ln_n
        assert got == pytest.approx(77114.818307260507, rel=1e-9)

    def test_capacity_value(self):
        assert pdim_capacity(321250, 751) == pytest.approx(5.8206619512487697e16, rel=1e-12)

    def test_lipschitz(self):
        got = ln_cover(query("lipschitz")).ln_n
        assert got == pytest.approx(124745200.64474648, rel=1e-9)

    def test_spectral(self):
        got = ln_cover(query("spectral")).ln_n
        assert got == pytest.approx(115430120426893.0, rel=1e-9)


class TestAgainstLiveOracle:
    """Randomized valid queries vs the literal mpmath formulas."""

    @pytest.mark.parametrize("method", nc.METHODS)
    def test_random_queries(self, method):
        rng = np.random.default_rng(hash(method) % 2**32)
        for _ in range(5):
            t = int(rng.integers(2, 5))
            widths = tuple(int(rng.integers(2, 20)) for _ in range(t - 1)) + (
                int(rng.integers(2, 8)),
            )
            d = int(rng.integers(2, 30))
            sigma = float(rng.uniform(1e-4, 0.2))
            arch = nc.NetworkArch(d, widths, sigma=sigma, gamma=0.1)
            s = tuple(float(rng.uniform(0.2, 5.0)) for _ in widths)
            b = tuple(si * float(rng.uniform(1.0, 6.0)) for si in s)
            counts = nc.norms.count_quantifiers(arch)
            quant = nc.ArchQuantifiers(
                **counts, V=float(rng.uniform(1.1, 20.0)), s=s, b=b,
                x_frob=float(rng.uniform(0.1, 20.0)),
            )
            eps = float(rng.uniform(0.01, 0.4))
            gamma = float(rng.uniform(0.05, 0.2))
            m = float(rng.uniform(1e3, 1e6))
            if method == "pdim":
                m = float(pdim_capacity(quant.W_rvo, quant.r_rvo)) * float(
                    rng.uniform(2.0, 100.0)
                )
            got = ln_cover_fn(method, arch, quant, gamma)(eps).at(math.log(m))
            want = float(oracles.oracle_ln(method, arch, quant, eps, gamma, m))
            assert got == pytest.approx(want, rel=1e-9), (method, eps, gamma, m)


class TestPreconditions:
    def test_ours_log_domain_boundary(self):
        arch = nc.NetworkArch(2, (2, 2), sigma=300.0, gamma=1.0)
        with pytest.raises(BoundPreconditionError, match="layer"):
            ln_cover(query("ours", epsilon=0.5, gamma=1.0, arch=arch))

    def test_ours_needs_noise(self):
        arch = nc.NetworkArch(2, (2, 2), sigma=0.0)
        with pytest.raises(BoundPreconditionError, match="sigma"):
            ln_cover(query("ours", arch=arch))

    def test_ours_needs_depth(self):
        arch = nc.NetworkArch(2, (2,), sigma=0.05)
        with pytest.raises(BoundPreconditionError, match="depth"):
            ln_cover(query("ours", arch=arch))

    def test_lipschitz_v_at_most_one(self):
        quant = dataclasses.replace(BASELINE_QUANT, V=1.0)
        with pytest.raises(BoundPreconditionError, match="V <= 1"):
            ln_cover(query("lipschitz", quant=quant))

    def test_pdim_m_too_small(self):
        cap = pdim_capacity(321250, 751)
        with pytest.raises(BoundPreconditionError) as err:
            ln_cover(query("pdim", m=cap))
        assert err.value.required_m == pytest.approx(cap)

    def test_spectral_zero_spectral_with_mass(self):
        quant = dataclasses.replace(BASELINE_QUANT, s=(0.0, 1.0, 1.0, 1.0), b=(1.0, 1.0, 1.0, 1.0))
        with pytest.raises(BoundPreconditionError, match="zero spectral"):
            ln_cover(query("spectral", quant=quant))

    def test_spectral_zero_layer_collapses(self):
        quant = dataclasses.replace(BASELINE_QUANT, s=(0.0, 1.0, 1.0, 1.0), b=(0.0, 1.0, 1.0, 1.0))
        assert ln_cover(query("spectral", quant=quant)).ln_n == 0.0

    def test_spectral_all_b_zero(self):
        quant = dataclasses.replace(BASELINE_QUANT, s=(1.0, 1.0, 1.0, 1.0), b=(0.0,) * 4)
        assert ln_cover(query("spectral", quant=quant)).ln_n == 0.0

    def test_norm_based_overflow(self):
        quant = dataclasses.replace(BASELINE_QUANT, V=1e20)
        with pytest.raises(BoundOverflowError, match="astronomically vacuous") as err:
            ln_cover(query("norm_based", quant=quant))
        assert err.value.log10_ln_n > 308

    def test_query_validation(self):
        with pytest.raises(ValueError):
            query("nope")
        with pytest.raises(ValueError):
            query("ours", epsilon=-1.0)
        with pytest.raises(ValueError):
            query("ours", m=0.5)


class TestStructuralIdentities:
    def test_ours_doubling_m(self):
        lo = ln_cover(query("ours", m=59000)).ln_n
        hi = ln_cover(query("ours", m=118000)).ln_n
        assert hi - lo == pytest.approx(784 * 250 * math.log(2), rel=1e-12)

    def test_lipschitz_m_times_e(self):
        lo = ln_cover(query("lipschitz", m=1e4)).ln_n
        hi = ln_cover(query("lipschitz", m=1e4 * math.e)).ln_n
        assert hi - lo == pytest.approx(10 * 321250, rel=1e-12)

    def test_spectral_quarter_epsilon(self):
        full = ln_cover(query("spectral", epsilon=0.2)).ln_n
        half = ln_cover(query("spectral", epsilon=0.1)).ln_n
        assert half == pytest.approx(4.0 * full, rel=1e-12)

    def test_norm_based_unit_power(self):
        # 2V = 1 removes the norm factor entirely
        quant = dataclasses.replace(BASELINE_QUANT, V=0.5)
        got = ln_cover(query("norm_based", epsilon=0.3, quant=quant)).ln_n
        want = (
            math.log(2.0)
            * (10 / 2)
            * (2 * math.sqrt(10) / (0.1 * 0.3)) ** 8
            * math.log2(2 * 784 + 2)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_norm_based_depth_monotone(self):
        # with 2V > 1 and 2 sqrt(pT)/(gamma eps) > 1, depth raises the bound
        def at_depth(t):
            arch = nc.NetworkArch(20, (8,) * (t - 1) + (4,), sigma=0.05)
            quant = nc.ArchQuantifiers(
                W_rvo=1, r_rvo=1, w=20,
                V=2.0, s=(1.0,) * t, b=(1.0,) * t, x_frob=1.0,
            )
            return ln_cover(query("norm_based", epsilon=0.2, arch=arch, quant=quant)).ln_n

        values = [at_depth(t) for t in (2, 3, 4)]
        assert values[0] < values[1] < values[2]


class TestMonotonicity:
    EPS_GRID = np.geomspace(0.01, 0.45, 12)
    M_GRID = np.geomspace(1e3, 1e9, 8)

    @pytest.mark.parametrize("method", nc.METHODS)
    def test_nonincreasing_in_eps(self, method):
        m = 1e20 if method == "pdim" else 59000.0
        fn = ln_cover_fn(method, BASELINE, BASELINE_QUANT, 0.1)
        vals = [fn(float(e)).at(math.log(m)) for e in self.EPS_GRID]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("method", ["ours", "lipschitz"])
    def test_nondecreasing_in_m(self, method):
        fn = ln_cover_fn(method, BASELINE, BASELINE_QUANT, 0.1)
        vals = [fn(0.099).at(math.log(float(m))) for m in self.M_GRID]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_pdim_nondecreasing_in_m(self):
        fn = ln_cover_fn("pdim", BASELINE, BASELINE_QUANT, 0.1)
        grid = np.geomspace(1e17, 1e25, 8)
        vals = [fn(0.099).at(math.log(float(m))) for m in grid]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("method", ["norm_based", "spectral"])
    def test_m_invariant(self, method):
        fn = ln_cover_fn(method, BASELINE, BASELINE_QUANT, 0.1)
        vals = {fn(0.099).at(math.log(float(m))) for m in self.M_GRID}
        assert len(vals) == 1

    @pytest.mark.parametrize("method", ["ours", "pdim"])
    def test_monotone_in_width_and_depth(self, method):
        def value(widths):
            arch = nc.NetworkArch(12, widths, sigma=0.05)
            counts = nc.norms.count_quantifiers(arch)
            quant = nc.ArchQuantifiers(
                **counts, V=2.0,
                s=(1.0,) * len(widths), b=(1.0,) * len(widths), x_frob=1.0,
            )
            m = 1e30 if method == "pdim" else 1e5
            return ln_cover_fn(method, arch, quant, 0.1)(0.099).at(math.log(m))

        assert value((4, 4, 3)) <= value((8, 4, 3)) <= value((8, 8, 3))
        assert value((4, 4, 3)) <= value((4, 4, 4, 3))

    def test_spectral_replication_invariance(self, rng):
        images = rng.uniform(0, 1, (20, 5))
        ds1 = nc.Dataset(images, rng.integers(0, 3, 20), num_classes=3)
        ds3 = nc.Dataset(
            np.vstack([images] * 3), np.tile(ds1.labels, 3), num_classes=3
        )
        arch = nc.NetworkArch(5, (4, 3), sigma=0.05)
        params = nc.init_params(arch, 2)
        q1 = nc.quantifiers(arch, params, train=ds1)
        q3 = nc.quantifiers(arch, params, train=ds3)
        a = ln_cover(query("spectral", m=20, arch=arch, quant=q1)).ln_n
        b = ln_cover(query("spectral", m=60, arch=arch, quant=q3)).ln_n
        assert a == pytest.approx(b, rel=1e-12)

    @given(
        st.floats(0.02, 0.45),
        st.floats(0.05, 0.5),
        st.sampled_from(list(nc.METHODS)),
    )
    @settings(max_examples=40)
    def test_nonnegative_and_finite(self, eps, gamma, method):
        m = 1e20 if method == "pdim" else 59000.0
        fn = ln_cover_fn(method, BASELINE, BASELINE_QUANT, gamma)
        val = fn(eps).at(math.log(m))
        assert val >= 0.0 and math.isfinite(val)


class TestReport:
    def test_json_fields(self):
        rep = nc.bounds.bound_report(ln_cover(query("spectral")))
        assert set(rep) == {"method", "epsilon", "m", "gamma", "sigma", "ln_n", "log10_n"}
        assert rep["log10_n"] == pytest.approx(rep["ln_n"] / math.log(10))
