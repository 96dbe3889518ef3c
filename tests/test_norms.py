import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import noisycover as nc
from noisycover import norms
from noisycover.norms import (
    PowerIterationResult,
    SpectralNormError,
    count_quantifiers,
    spectral_norm,
)

matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-10, 10, allow_nan=False),
)


class TestEntrywiseNorms:
    def test_one_inf_zero(self):
        assert nc.one_inf_norm(np.zeros((3, 2))) == 0.0

    def test_one_inf_example(self):
        w = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert nc.one_inf_norm(w) == 6.0  # max column l1: max(1+3, 2+4)

    def test_one_inf_brute_force(self, rng):
        w = rng.normal(size=(5, 4))
        brute = max(sum(abs(w[i, j]) for i in range(5)) for j in range(4))
        assert nc.one_inf_norm(w) == pytest.approx(brute, rel=1e-12)

    def test_two_one_zero(self):
        assert nc.two_one_norm(np.zeros((2, 5))) == 0.0

    def test_two_one_identity(self):
        assert nc.two_one_norm(np.eye(3)) == pytest.approx(3.0)

    def test_two_one_brute_force(self, rng):
        w = rng.normal(size=(4, 6))
        brute = sum(math.sqrt(sum(w[i, j] ** 2 for i in range(4))) for j in range(6))
        assert nc.two_one_norm(w) == pytest.approx(brute, rel=1e-12)

    @given(matrices)
    def test_one_inf_zero_iff_zero(self, w):
        assert (nc.one_inf_norm(w) == 0.0) == (not np.any(w))


def svd_2x2(w):
    """Closed-form singular values of a 2x2 matrix via the quadratic formula."""
    a, b = w[0]
    c, d = w[1]
    t = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = math.sqrt(max(t * t - 4 * det * det, 0.0))
    return math.sqrt((t + disc) / 2.0)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)).value == pytest.approx(1.0)

    def test_diag(self):
        assert spectral_norm(np.diag([3.0, 1.0])).value == pytest.approx(3.0)

    def test_zero(self):
        res = spectral_norm(np.zeros((3, 3)))
        assert res.value == 0.0 and res.converged

    def test_closed_form_2x2(self, rng):
        for _ in range(20):
            w = rng.normal(size=(2, 2))
            res = spectral_norm(w, seed=3)
            assert res.converged
            assert res.value == pytest.approx(svd_2x2(w), rel=1e-8)

    def test_against_lapack(self, rng):
        w = rng.normal(size=(7, 5))
        res = spectral_norm(w, seed=1)
        assert res.value == pytest.approx(np.linalg.svd(w, compute_uv=False)[0], rel=1e-8)

    def test_nonconvergence_flag(self):
        # nearly-degenerate top singular values make power iteration crawl
        w = np.diag([1.0, 1.0 - 1e-12, 0.5])
        res = spectral_norm(w, tol=1e-16, max_iter=3, seed=0)
        assert not res.converged
        assert res.value == pytest.approx(1.0, rel=1e-2)  # estimate still usable

    def test_deterministic(self, rng):
        w = rng.normal(size=(4, 4))
        assert spectral_norm(w, seed=5).value == spectral_norm(w, seed=5).value

    @given(matrices, st.floats(-4, 4, allow_nan=False))
    @settings(max_examples=30)
    def test_homogeneity(self, w, c):
        base = spectral_norm(w, seed=2).value
        scaled = spectral_norm(c * w, seed=2).value
        assert scaled == pytest.approx(abs(c) * base, rel=1e-6, abs=1e-9)

    @given(matrices)
    @settings(max_examples=30)
    def test_below_frobenius(self, w):
        assert spectral_norm(w, seed=4).value <= np.linalg.norm(w) * (1 + 1e-8) + 1e-12

    @given(matrices)
    @settings(max_examples=30)
    def test_below_entry_bound(self, w):
        cap = math.sqrt(w.shape[0] * w.shape[1]) * np.abs(w).max(initial=0.0)
        assert spectral_norm(w, seed=4).value <= cap * (1 + 1e-8) + 1e-12


class TestQuantifiers:
    def test_baseline_counts(self):
        arch = nc.NetworkArch(784, (250, 250, 250, 10))
        counts = count_quantifiers(arch)
        assert counts == {"W_rvo": 321250, "r_rvo": 751, "w": 784}

    def test_single_layer_degenerate(self):
        arch = nc.NetworkArch(6, (3,))
        counts = count_quantifiers(arch)
        assert counts["W_rvo"] is None and counts["r_rvo"] is None
        assert counts["w"] == 6

    def test_zero_weights(self):
        arch = nc.NetworkArch(3, (2, 2))
        params = nc.ParamSet(arch, [np.zeros((3, 2)), np.zeros((2, 2))])
        q = nc.quantifiers(arch, params, x_frob=1.0)
        assert q.V == 0.0 and q.s == (0.0, 0.0) and q.b == (0.0, 0.0)

    def test_pure_function(self, rng):
        arch = nc.NetworkArch(4, (3, 2))
        params = nc.init_params(arch, 12)
        ds = nc.Dataset(rng.uniform(0, 1, (10, 4)), rng.integers(0, 2, 10))
        a = nc.quantifiers(arch, params, train=ds)
        b = nc.quantifiers(arch, params, train=ds)
        assert a == b

    def test_requires_norm_source(self):
        arch = nc.NetworkArch(4, (3, 2))
        params = nc.init_params(arch, 0)
        with pytest.raises(ValueError):
            nc.quantifiers(arch, params)

    def test_nonconverged_spectral_norm_raises(self, monkeypatch):
        arch = nc.NetworkArch(4, (3, 2))
        params = nc.init_params(arch, 0)
        monkeypatch.setattr(
            norms, "spectral_norm", lambda w, **kw: PowerIterationResult(1.0, False, 1000)
        )
        with pytest.raises(SpectralNormError, match="layer 1"):
            nc.quantifiers(arch, params, x_frob=1.0)
