import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import noisycover as nc
from noisycover.mlp import TrainingDiverged, cross_entropy_grads


def plain_sigmoid(x):
    # textbook formula, independent of the library's branch form
    return 1.0 / (1.0 + math.exp(-x)) - 0.5


# dense grid over [-40, 40] plus signed zeros, subnormals, overflow and infinities
ACT_GRID = np.concatenate([
    np.linspace(-40.0, 40.0, 1_600_001),
    [0.0, -0.0, 5e-324, -5e-324, 710.0, -710.0, 1e9, -1e9, np.inf, -np.inf],
])


class TestActivation:
    def test_zero(self):
        assert nc.activation(0.0) == 0.0

    def test_saturation(self):
        assert nc.activation(1e9) == pytest.approx(0.5, abs=1e-12)
        assert nc.activation(-1e9) == pytest.approx(-0.5, abs=1e-12)

    def test_value_at_one(self):
        assert nc.activation(1.0) == pytest.approx(0.23105857863000487, rel=1e-12)

    @given(st.floats(allow_nan=False))
    def test_odd(self, x):
        assert nc.activation(-x) == -nc.activation(x)

    def test_exactly_odd_on_grid(self):
        assert np.array_equal(nc.activation(-ACT_GRID), -nc.activation(ACT_GRID))

    def test_matches_exp_branch_form(self):
        # the earlier implementation, through e = exp(-|x|); measured max 1.67e-16
        e = np.exp(-np.abs(ACT_GRID))
        branch = np.where(ACT_GRID >= 0, 1.0 / (1.0 + e), e / (1.0 + e)) - 0.5
        assert np.max(np.abs(nc.activation(ACT_GRID) - branch)) <= 2.3e-16

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_lipschitz_and_monotone(self, a, b):
        fa, fb = nc.activation(a), nc.activation(b)
        assert abs(fa - fb) <= abs(a - b) + 1e-12
        if a < b:
            assert fa <= fb

    def test_bounded(self):
        for xs in (np.linspace(-1000, 1000, 4001), ACT_GRID):
            ys = nc.activation(xs)
            assert np.all(ys >= -0.5) and np.all(ys <= 0.5)


class TestInit:
    def test_range(self):
        arch = nc.NetworkArch(2, (1,))
        p = nc.init_params(arch, 7)
        assert p.weights[0].shape == (2, 1)
        assert np.all(np.abs(p.weights[0]) <= 1 / np.sqrt(2))

    def test_deterministic(self):
        arch = nc.NetworkArch(2, (1,))
        a = nc.init_params(arch, 7)
        b = nc.init_params(arch, 7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shapes_baseline(self):
        arch = nc.NetworkArch(784, (250, 250, 250, 10))
        p = nc.init_params(arch, 0)
        shapes = [w.shape for w in p.weights]
        assert shapes == [(784, 250), (250, 250), (250, 250), (250, 10)]


class TestForward:
    def test_zero_weights(self):
        arch = nc.NetworkArch(3, (2, 2))
        p = nc.ParamSet(arch, [np.zeros((3, 2)), np.zeros((2, 2))])
        out = nc.forward_deterministic(p, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(out, np.zeros(2))

    def test_one_by_one(self):
        arch = nc.NetworkArch(1, (1,))
        p = nc.ParamSet(arch, [np.array([[1.0]])])
        assert nc.forward_deterministic(p, np.array([0.0])) == pytest.approx(0.0)

    def test_two_layer_hand_computed(self):
        w1 = np.array([[0.3, -0.2], [0.1, 0.4]])
        w2 = np.array([[0.5, -0.1], [-0.3, 0.2]])
        x = np.array([1.0, -0.5])
        arch = nc.NetworkArch(2, (2, 2))
        p = nc.ParamSet(arch, [w1, w2])

        # layer-by-layer arithmetic with the plain formula
        z1 = [plain_sigmoid(0.3 * 1.0 + 0.1 * -0.5), plain_sigmoid(-0.2 * 1.0 + 0.4 * -0.5)]
        u2 = [0.5 * z1[0] - 0.3 * z1[1], -0.1 * z1[0] + 0.2 * z1[1]]
        expected = [plain_sigmoid(u2[0]), plain_sigmoid(u2[1])]

        out = nc.forward_deterministic(p, x)
        assert out == pytest.approx(expected, rel=1e-12)

    def test_output_inside_box(self, rng):
        arch = nc.NetworkArch(4, (5, 3))
        p = nc.init_params(arch, 11)
        x = rng.uniform(-10, 10, size=(50, 4))
        out = nc.forward_deterministic(p, x)
        assert np.all(out >= -0.5) and np.all(out <= 0.5)

    def test_dimension_mismatch(self):
        arch = nc.NetworkArch(3, (2,))
        p = nc.init_params(arch, 0)
        with pytest.raises(nc.mlp.DimensionError):
            nc.forward_deterministic(p, np.array([1.0, 2.0]))


class TestForwardNoisy:
    def test_sigma_zero_matches_deterministic(self, rng):
        arch = nc.NetworkArch(3, (4, 2), sigma=0.0)
        p = nc.init_params(arch, 3)
        x = rng.uniform(-1, 1, 3)
        out = nc.forward_noisy(p, x, np.random.default_rng(0))
        assert np.array_equal(out, nc.forward_deterministic(p, x))

    def test_fixed_seed_reproducible(self, rng):
        arch = nc.NetworkArch(3, (4, 2), sigma=0.05)
        p = nc.init_params(arch, 3)
        x = rng.uniform(-1, 1, 3)
        a = nc.forward_noisy(p, x, np.random.default_rng(99))
        b = nc.forward_noisy(p, x, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_noise_after_every_layer(self, rng):
        # replay the pass by hand: each layer draws its own Gaussian after
        # the activation, including the output layer
        sigma = 0.07
        arch = nc.NetworkArch(3, (4, 2), sigma=sigma)
        p = nc.init_params(arch, 6)
        x = rng.uniform(-1, 1, 3)
        got = nc.forward_noisy(p, x, np.random.default_rng(33))

        g = np.random.default_rng(33)
        z = nc.activation(x @ p.weights[0]) + sigma * g.standard_normal(4)
        z = nc.activation(z @ p.weights[1]) + sigma * g.standard_normal(2)
        assert np.array_equal(got, z)

    def test_output_variance_matches_sigma(self):
        # single layer: output = act(W^T x) + sigma * xi, so the
        # per-coordinate variance is exactly sigma^2
        sigma = 0.05
        arch = nc.NetworkArch(3, (2,), sigma=sigma)
        p = nc.init_params(arch, 5)
        x = np.array([0.2, -0.4, 0.6])
        batch = np.tile(x, (100_000, 1))
        out = nc.forward_noisy(p, batch, np.random.default_rng(17))
        var = out.var(axis=0)
        assert np.all(np.abs(var - sigma**2) <= 0.05 * sigma**2)


class TestExpectedOutput:
    def test_sigma_zero(self, rng):
        arch = nc.NetworkArch(3, (2,), sigma=0.0)
        p = nc.init_params(arch, 2)
        x = rng.uniform(-1, 1, 3)
        out = nc.expected_output(p, x, 5, np.random.default_rng(0))
        assert out == pytest.approx(nc.forward_deterministic(p, x))

    def test_single_sample(self, rng):
        arch = nc.NetworkArch(3, (2,), sigma=0.1)
        p = nc.init_params(arch, 2)
        x = rng.uniform(-1, 1, 3)
        a = nc.expected_output(p, x, 1, np.random.default_rng(4))
        b = nc.forward_noisy(p, x, np.random.default_rng(4))
        assert np.array_equal(a, b)

    def test_monte_carlo_mean(self):
        # one layer: the noise is purely additive, so the MC mean sits
        # within 3 standard errors of act(W^T x) per coordinate
        sigma = 0.05
        n = 10_000
        arch = nc.NetworkArch(3, (2,), sigma=sigma)
        p = nc.init_params(arch, 8)
        x = np.array([0.3, 0.1, -0.2])
        mean = nc.expected_output(p, x, n, np.random.default_rng(21))
        target = nc.forward_deterministic(p, x)
        assert np.all(np.abs(mean - target) <= 3 * sigma / np.sqrt(n))


class TestExpectedModeHoist:
    """evaluate(mode="expected") computes layer 1 once per call and, at sigma 0,
    one pass; both must give bit for bit the mean of independent full passes."""

    @staticmethod
    def naive_losses(params, images, labels, gamma, n_samples, seed):
        outputs = np.zeros((images.shape[0], params.arch.num_classes))
        for s in range(n_samples):
            outputs += nc.forward_noisy(params, images, np.random.default_rng([seed, s]))
        outputs /= n_samples
        rows = np.arange(len(labels))
        true = outputs[rows, labels]
        rest = outputs.copy()
        rest[rows, labels] = -np.inf
        ramp = float(np.mean(nc.ramp(-(true - rest.max(axis=1)), gamma)))
        zero_one = float(np.mean(np.argmax(outputs, axis=1) != labels))
        return ramp, zero_one

    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.25])
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("n_samples", [1, 7])
    def test_evaluate_matches_naive_loop(self, sigma, depth, n_samples, rng):
        arch = nc.NetworkArch(6, (5,) * (depth - 1) + (3,), sigma=sigma, gamma=0.1)
        p = nc.init_params(arch, depth)
        images = rng.uniform(0, 1, (25, 6))
        labels = rng.integers(0, 3, 25)
        rep = nc.evaluate(p, images, labels, 0.1, mode="expected", n_samples=n_samples, seed=8)
        ramp, zero_one = self.naive_losses(p, images, labels, 0.1, n_samples, 8)
        assert rep.ramp_loss == ramp
        assert rep.zero_one_loss == zero_one

    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.25])
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("n_samples", [1, 7])
    def test_expected_output_matches_naive_mean(self, sigma, depth, n_samples, rng):
        arch = nc.NetworkArch(6, (5,) * (depth - 1) + (3,), sigma=sigma)
        p = nc.init_params(arch, depth)
        x = rng.uniform(0, 1, (25, 6))
        g = np.random.default_rng(30)
        naive = nc.forward_noisy(p, x, g)
        for _ in range(n_samples - 1):
            naive = naive + nc.forward_noisy(p, x, g)
        got = nc.expected_output(p, x, n_samples, np.random.default_rng(30))
        assert np.array_equal(got, naive / n_samples)


class TestMarginRampZeroOne:
    def test_margin_examples(self):
        assert nc.margin([0.9, 0.1], 0) == pytest.approx(0.8)
        assert nc.margin([0.5, 0.5], 0) == pytest.approx(0.0)
        assert nc.margin([0.1, 0.3, 0.2], 1) == pytest.approx(0.1)

    def test_margin_out_of_range(self):
        with pytest.raises(IndexError):
            nc.margin([0.1, 0.2], 2)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6), st.floats(-5, 5))
    def test_margin_shift_invariance(self, u, c):
        y = 0
        assert nc.margin(np.array(u) + c, y) == pytest.approx(nc.margin(u, y), abs=1e-9)

    def test_ramp_examples(self):
        assert nc.ramp(-0.2, 0.1) == 0.0
        assert nc.ramp(-0.05, 0.1) == pytest.approx(0.5)
        assert nc.ramp(0.3, 0.1) == 1.0
        assert nc.ramp(0.0, 0.1) == 1.0  # right-continuous at zero

    def test_ramp_bad_gamma(self):
        with pytest.raises(ValueError):
            nc.ramp(0.0, 0.0)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 2))
    def test_ramp_lipschitz_monotone(self, a, b, gamma):
        ra, rb = nc.ramp(a, gamma), nc.ramp(b, gamma)
        assert abs(ra - rb) <= abs(a - b) / gamma + 1e-12
        if a <= b:
            assert ra <= rb
        assert 0.0 <= ra <= 1.0

    def test_zero_one_examples(self):
        assert nc.zero_one_loss([0.9, 0.1], 0) == 0
        assert nc.zero_one_loss([0.1, 0.9], 0) == 1
        assert nc.zero_one_loss([0.5, 0.5], 0) == 0  # tie goes to index 0


class TestEvaluate:
    def test_zero_weights_balanced(self):
        arch = nc.NetworkArch(2, (2,), gamma=0.1)
        p = nc.ParamSet(arch, [np.zeros((2, 2))])
        images = np.random.default_rng(0).uniform(0, 1, (10, 2))
        labels = np.array([0, 1] * 5)
        rep = nc.evaluate(p, images, labels, 0.1)
        assert rep.zero_one_loss == pytest.approx(0.5)  # ties all go to class 0
        assert rep.ramp_loss == pytest.approx(1.0)

    def test_all_margins_beyond_gamma(self):
        arch = nc.NetworkArch(2, (2,), gamma=0.1)
        p = nc.ParamSet(arch, [np.array([[40.0, -40.0], [-40.0, 40.0]])])
        images = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        rep = nc.evaluate(p, images, labels, 0.1)
        assert rep.ramp_loss == 0.0
        assert rep.zero_one_loss == 0.0

    def test_three_example_hand_case(self):
        c = 10.0
        arch = nc.NetworkArch(2, (2,), gamma=0.1)
        p = nc.ParamSet(arch, [np.diag([c, c])])
        images = np.array([[1.0, 0.0], [0.0, 1.0], [0.02, 0.0]])
        labels = np.array([0, 0, 0])
        # margins by hand: act(c)-act(0), act(0)-act(c), act(0.02c)-act(0)
        m1 = plain_sigmoid(c)
        m3 = plain_sigmoid(0.2)
        expected_ramp = (0.0 + 1.0 + (1.0 - m3 / 0.1)) / 3.0
        assert m1 > 0.1  # first example is beyond the margin
        rep = nc.evaluate(p, images, labels, 0.1)
        assert rep.ramp_loss == pytest.approx(expected_ramp, rel=1e-12)
        assert rep.zero_one_loss == pytest.approx(1.0 / 3.0)
        assert rep.zero_one_loss <= rep.ramp_loss

    def test_zero_one_below_ramp_randomized(self, rng):
        arch = nc.NetworkArch(3, (4, 3), gamma=0.2)
        p = nc.init_params(arch, 9)
        images = rng.uniform(0, 1, (40, 3))
        labels = rng.integers(0, 3, 40)
        rep = nc.evaluate(p, images, labels, 0.2)
        assert rep.zero_one_loss <= rep.ramp_loss <= 1.0

    def test_label_out_of_range(self):
        arch = nc.NetworkArch(2, (2,))
        p = nc.init_params(arch, 0)
        with pytest.raises(IndexError):
            nc.evaluate(p, np.zeros((1, 2)), np.array([5]), 0.1)

    def test_expected_mode_batch_independent(self, rng):
        arch = nc.NetworkArch(3, (3, 2), sigma=0.05)
        p = nc.init_params(arch, 1)
        images = rng.uniform(0, 1, (6, 3))
        labels = rng.integers(0, 2, 6)
        a = nc.evaluate(p, images, labels, 0.1, mode="expected", n_samples=10, seed=5)
        b = nc.evaluate(p, images, labels, 0.1, mode="expected", n_samples=10, seed=5)
        assert a == b


class TestTraining:
    def _toy(self):
        rng = np.random.default_rng(0)
        n = 100
        images = np.vstack(
            [rng.normal([-1, -1], 0.3, (n, 2)), rng.normal([1, 1], 0.3, (n, 2))]
        )
        return images, np.array([0] * n + [1] * n)

    def test_zero_epochs_unchanged(self):
        arch = nc.NetworkArch(2, (2,))
        p0 = nc.init_params(arch, 3)
        images, labels = self._toy()
        cfg = nc.TrainConfig(epochs=0, seed=3)
        p1 = nc.train_sgd(p0, images, labels, cfg)
        for a, b in zip(p0.weights, p1.weights):
            assert np.array_equal(a, b)

    def test_separable_toy_reaches_zero_error(self):
        arch = nc.NetworkArch(2, (2,))
        p0 = nc.init_params(arch, 3)
        images, labels = self._toy()
        cfg = nc.TrainConfig(epochs=200, batch_size=32, seed=3, noise_during_training=False)
        p1 = nc.train_sgd(p0, images, labels, cfg)
        rep = nc.evaluate(p1, images, labels, 0.1)
        assert rep.zero_one_loss == 0.0

    @pytest.mark.parametrize("widths", [(3, 2), (5, 5, 5, 3)])
    def test_gradients_match_finite_differences(self, widths, rng):
        arch = nc.NetworkArch(3 if widths == (3, 2) else 5, widths, sigma=0.0)
        params = nc.init_params(arch, 1)
        n, d = 6, arch.input_dim
        images = rng.uniform(-1, 1, (n, d))
        labels = rng.integers(0, widths[-1], n)
        _, grads = cross_entropy_grads(params, images, labels)
        h = 1e-5  # balances central-difference truncation against roundoff
        for li, w in enumerate(params.weights):
            flat = w.ravel()
            for idx in range(0, flat.size, max(1, flat.size // 12)):
                orig = flat[idx]
                flat[idx] = orig + h
                lp, _ = cross_entropy_grads(params, images, labels)
                flat[idx] = orig - h
                lm, _ = cross_entropy_grads(params, images, labels)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                if abs(fd) > 1e-7:
                    assert grads[li].ravel()[idx] == pytest.approx(fd, rel=1e-4)

    def test_same_seed_identical_trajectory(self):
        images, labels = self._toy()
        arch = nc.NetworkArch(2, (3, 2), sigma=0.05)
        cfg = nc.TrainConfig(epochs=5, batch_size=16, seed=11)
        a = nc.train_sgd(nc.init_params(arch, 2), images, labels, cfg)
        b = nc.train_sgd(nc.init_params(arch, 2), images, labels, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_divergence_guard(self):
        images, labels = self._toy()
        arch = nc.NetworkArch(2, (2,))
        cfg = nc.TrainConfig(learning_rate=float("inf"), epochs=2, batch_size=50, seed=0)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged):
            nc.train_sgd(nc.init_params(arch, 0), images, labels, cfg)

    def test_noise_during_training_changes_result(self):
        images, labels = self._toy()
        arch = nc.NetworkArch(2, (2,), sigma=0.2)
        cfg_on = nc.TrainConfig(epochs=2, seed=7, noise_during_training=True)
        cfg_off = nc.TrainConfig(epochs=2, seed=7, noise_during_training=False)
        a = nc.train_sgd(nc.init_params(arch, 1), images, labels, cfg_on)
        b = nc.train_sgd(nc.init_params(arch, 1), images, labels, cfg_off)
        assert not np.array_equal(a.weights[0], b.weights[0])


class TestConfigValidation:
    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            nc.TrainConfig(learning_rate=0.0)

    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            nc.TrainConfig(momentum=1.0)

    def test_bad_arch(self):
        with pytest.raises(ValueError):
            nc.NetworkArch(0, (2,))
        with pytest.raises(ValueError):
            nc.NetworkArch(2, (2,), gamma=0.0)
        with pytest.raises(ValueError):
            nc.NetworkArch(2, (2,), sigma=-0.1)
