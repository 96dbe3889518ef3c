"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria that need the real MNIST IDX files (reference training behavior,
and the MNIST variant of the ordering check) skip with an explicit reason
when no data directory is available; point NOISYCOVER_MNIST at a directory
holding the four standard files to run them. Everything else runs
self-contained.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import noisycover as nc
from noisycover.bounds import ln_cover_fn, pdim_capacity
from noisycover.cli import main as cli_main
from noisycover.cli import run_verification
from noisycover.dataio import synthetic_blobs
from noisycover.mlp import cross_entropy_grads

import oracles


def mnist_dir():
    for candidate in (os.environ.get("NOISYCOVER_MNIST"), "data/mnist"):
        if candidate and Path(candidate).is_dir():
            return Path(candidate)
    return None


HAS_MNIST = mnist_dir() is not None
needs_mnist = pytest.mark.skipif(
    not HAS_MNIST,
    reason="MNIST IDX files not present (set NOISYCOVER_MNIST); "
    "this environment has no dataset access",
)

BASELINE = nc.NetworkArch(784, (250, 250, 250, 10), sigma=0.05, gamma=0.1)
BASELINE_COUNTS = nc.norms.count_quantifiers(BASELINE)
BASELINE_QUANT = nc.ArchQuantifiers(
    W_rvo=BASELINE_COUNTS["W_rvo"], r_rvo=BASELINE_COUNTS["r_rvo"], w=784,
    V=10.0, s=(3.0, 2.0, 2.0, 1.5), b=(40.0, 25.0, 25.0, 8.0), x_frob=9.2,
)


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS - {detail}")


class TestCriterion1FormulaFidelity:
    @pytest.mark.parametrize("method", nc.METHODS)
    def test_five_random_queries_per_method(self, method):
        rng = np.random.default_rng(abs(hash("fidelity-" + method)) % 2**32)
        worst = 0.0
        for _ in range(5):
            t = int(rng.integers(2, 5))
            widths = tuple(int(rng.integers(2, 24)) for _ in range(t - 1)) + (
                int(rng.integers(2, 10)),
            )
            arch = nc.NetworkArch(
                int(rng.integers(2, 40)), widths,
                sigma=float(rng.uniform(1e-4, 0.2)), gamma=0.1,
            )
            counts = nc.norms.count_quantifiers(arch)
            s = tuple(float(rng.uniform(0.2, 5.0)) for _ in widths)
            quant = nc.ArchQuantifiers(
                **counts, V=float(rng.uniform(1.1, 15.0)), s=s,
                b=tuple(si * float(rng.uniform(1.0, 5.0)) for si in s),
                x_frob=float(rng.uniform(0.1, 15.0)),
            )
            eps = float(rng.uniform(0.01, 0.4))
            gamma = float(rng.uniform(0.05, 0.2))
            m = float(rng.uniform(1e3, 1e6))
            if method == "pdim":
                m = float(pdim_capacity(quant.W_rvo, quant.r_rvo)) * float(
                    rng.uniform(2.0, 50.0)
                )
            got = ln_cover_fn(method, arch, quant, gamma)(eps).at(math.log(m))
            want = float(oracles.oracle_ln(method, arch, quant, eps, gamma, m))
            rel = abs(got - want) / abs(want)
            worst = max(worst, rel)
            assert rel <= 1e-9
        report(1, f"{method}: 5 random queries, worst rel err {worst:.2e} <= 1e-9")


class TestCriterion2NvacClosedForm:
    def test_twenty_random_constant_inversions(self):
        rng = np.random.default_rng(20240)
        for _ in range(20):
            c = float(rng.uniform(1e-2, 1e9))
            ramp = float(rng.uniform(0.0, 0.95))
            m = int(rng.integers(5, 10**7))
            eps = (1.0 - ramp) / 10.0
            res = nc.invert_nvac(nc.AffineLnCover(c), m, ramp)
            expected = m * max(1, math.ceil(36.0 / (eps * eps) * c / m))
            assert res.nvac == expected, (c, ramp, m)
        report(2, "synthetic constant ln N inverts to m*ceil(36c/(m eps^2)) exactly, 20 draws")


class TestCriterion3ReferenceValues:
    def test_sigma_005_within_one_order(self):
        res = nc.solve_nvac("ours", BASELINE, BASELINE_QUANT, 59000, 0.1, 0.01)
        assert res.epsilon_used == pytest.approx(0.099)
        delta = abs(res.nvac_log10 - math.log10(5.19e10))
        assert delta <= 1.0
        report(3, f"sigma=0.05: log10 NVAC {res.nvac_log10:.3f} vs 10.715 (delta {delta:.3f} <= 1)")

    def test_sigma_1e240_within_one_order(self):
        res = nc.solve_nvac(
            "ours", BASELINE, BASELINE_QUANT, 59000, 0.1, 0.01,
            ln_sigma=-240.0 * math.log(10.0),
        )
        delta = abs(res.nvac_log10 - math.log10(8.42e11))
        assert delta <= 1.0
        report(3, f"sigma=1e-240: log10 NVAC {res.nvac_log10:.3f} vs 11.925 (delta {delta:.3f} <= 1)")

    def test_runtime_is_fast(self):
        import time

        start = time.time()
        nc.solve_nvac("ours", BASELINE, BASELINE_QUANT, 59000, 0.1, 0.01)
        assert time.time() - start < 1.0


ORDER = ["ours", "lipschitz", "pdim", "spectral", "norm_based"]


def ordering_log10s(train, arch, max_epochs, seed=0):
    """Train with the default recipe until train 0-1 <= 0.5%, then solve NVAC."""
    params = nc.init_params(arch, seed)
    config = nc.TrainConfig(epochs=max_epochs, batch_size=128, seed=seed)

    def on_epoch(epoch, p, loss):
        rep = nc.evaluate(p, train.images, train.labels, arch.gamma, "deterministic")
        return rep.zero_one_loss <= 0.005

    params = nc.train_sgd(params, train.images, train.labels, config, on_epoch=on_epoch)
    det = nc.evaluate(params, train.images, train.labels, arch.gamma, "deterministic")
    assert det.zero_one_loss <= 0.01, "checkpoint must fit the training set"
    exp = nc.evaluate(
        params, train.images, train.labels, arch.gamma, "expected",
        n_samples=50, seed=seed,
    )
    quant = nc.quantifiers(arch, params, train=train)
    out = {}
    for method in ORDER:
        res = nc.solve_nvac(method, arch, quant, len(train), arch.gamma, exp.ramp_loss)
        out[method] = res.nvac_log10
    return out


class TestCriterion4Ordering:
    def test_reduced_scale_trained_checkpoint(self):
        # reduced 784-64-64-10 / 10k-example configuration; a low-contrast
        # synthetic task stands in because this environment cannot fetch
        # MNIST -- fitting it to 0.5% takes real training, so the weight
        # norms grow the way they do on image data
        train = synthetic_blobs(
            10000, input_dim=784, num_classes=10, noise=0.12, contrast=0.04, seed=1
        )
        arch = nc.NetworkArch(784, (64, 64, 10), sigma=0.05, gamma=0.1)
        vals = ordering_log10s(train, arch, max_epochs=50)
        chain = [vals[m] for m in ORDER]
        assert all(a < b for a, b in zip(chain, chain[1:])), vals
        report(4, "NVAC ordering ours < lipschitz < pdim < spectral < norm_based; "
                  "log10 = " + ", ".join(f"{m}:{vals[m]:.2f}" for m in ORDER))

    @needs_mnist
    def test_mnist_trained_checkpoint(self):
        train, _, _ = nc.load_mnist_dir(mnist_dir(), n_train=10000, n_val=1000)
        arch = nc.NetworkArch(784, (64, 64, 10), sigma=0.05, gamma=0.1)
        vals = ordering_log10s(train, arch, max_epochs=120)
        chain = [vals[m] for m in ORDER]
        assert all(a < b for a, b in zip(chain, chain[1:])), vals
        report(4, "MNIST variant: ordering holds; log10 = "
                  + ", ".join(f"{m}:{vals[m]:.2f}" for m in ORDER))


class TestCriterion5TrainingBehavior:
    REFERENCE_TEST_LOSS = {0.0: 0.0215, 0.05: 0.0239, 0.2: 0.0283}

    @needs_mnist
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.2])
    def test_mnist_test_loss_matches(self, sigma):
        train, val, test = nc.load_mnist_dir(mnist_dir())
        arch = nc.NetworkArch(784, (250, 250, 250, 10), sigma=sigma, gamma=0.1)
        params = nc.init_params(arch, 0)
        config = nc.TrainConfig(epochs=50, batch_size=128, seed=0)
        stop = [False]

        def on_epoch(epoch, p, loss):
            rep = nc.evaluate(p, train.images, train.labels, 0.1, "deterministic")
            return rep.zero_one_loss <= 0.005

        params = nc.train_sgd(params, train.images, train.labels, config, on_epoch=on_epoch)
        mode = "expected" if sigma > 0 else "deterministic"
        tr = nc.evaluate(params, train.images, train.labels, 0.1, mode, n_samples=1000)
        te = nc.evaluate(params, test.images, test.labels, 0.1, mode, n_samples=1000)
        assert abs(te.zero_one_loss - self.REFERENCE_TEST_LOSS[sigma]) <= 0.02
        assert abs(te.zero_one_loss - tr.zero_one_loss) < 0.03
        report(5, f"sigma={sigma}: test 0-1 {te.zero_one_loss:.4f} within 0.02 of "
                  f"{self.REFERENCE_TEST_LOSS[sigma]}, gap {abs(te.zero_one_loss - tr.zero_one_loss):.4f} < 0.03")


class TestCriterion6OracleSuite:
    def test_all_checks_thousand_trials(self):
        checks = run_verification(trials=1000, seed=7)
        for check in checks:
            assert check["pass"], check
        by_name = {c["check"]: c for c in checks}
        assert by_name["tv_gaussian_bound"]["trials"] >= 1000
        assert by_name["data_processing_inequality"]["trials"] >= 1000
        report(6, "; ".join(
            f"{c['check']}: {c['trials']} trials, max violation {c['max_violation']:.2e}"
            for c in checks
        ))


class TestCriterion7NumericalHygiene:
    def test_backprop_vs_finite_differences(self):
        arch = nc.NetworkArch(5, (5, 5, 5, 3), sigma=0.0)
        params = nc.init_params(arch, 3)
        rng = np.random.default_rng(8)
        images = rng.uniform(-1, 1, (8, 5))
        labels = rng.integers(0, 3, 8)
        _, grads = cross_entropy_grads(params, images, labels)
        h = 1e-5
        checked = 0
        for li, w in enumerate(params.weights):
            flat = w.ravel()
            for idx in range(0, flat.size, max(1, flat.size // 10)):
                orig = flat[idx]
                flat[idx] = orig + h
                lp, _ = cross_entropy_grads(params, images, labels)
                flat[idx] = orig - h
                lm, _ = cross_entropy_grads(params, images, labels)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                if abs(fd) > 1e-7:
                    assert grads[li].ravel()[idx] == pytest.approx(fd, rel=1e-4)
                    checked += 1
        assert checked >= 20
        report(7, f"backprop matches central differences at rel 1e-4 on {checked} weights")

    def test_monotonicity_on_random_grids(self):
        rng = np.random.default_rng(123)
        for trial in range(3):
            eps_grid = np.sort(rng.uniform(0.02, 0.45, size=8))
            m_grid = np.sort(rng.uniform(1e3, 1e9, size=6))
            for method in nc.METHODS:
                m0 = 1e20 if method == "pdim" else 59000.0
                fn = ln_cover_fn(method, BASELINE, BASELINE_QUANT, 0.1)
                vals = [fn(float(e)).at(math.log(m0)) for e in eps_grid]
                assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:])), method
                if method in ("ours", "lipschitz"):
                    vals = [fn(0.099).at(math.log(float(m))) for m in m_grid]
                    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:])), method

        # width and depth growth never shrink the size-driven bounds
        def size_value(method, widths):
            arch = nc.NetworkArch(12, widths, sigma=0.05)
            counts = nc.norms.count_quantifiers(arch)
            quant = nc.ArchQuantifiers(
                **counts, V=2.0,
                s=(1.0,) * len(widths), b=(1.0,) * len(widths), x_frob=1.0,
            )
            m0 = 1e30 if method == "pdim" else 1e5
            return ln_cover_fn(method, arch, quant, 0.1)(0.099).at(math.log(m0))

        for method in ("ours", "pdim"):
            base = size_value(method, (4, 4, 3))
            assert base <= size_value(method, (8, 4, 3))
            assert base <= size_value(method, (4, 4, 4, 3))
        report(7, "eps/m/width/depth monotonicity suites pass on randomized grids")

    def test_sweep_reproducibility(self, tmp_path):
        cfg = {
            "seed": 5,
            "data": {"kind": "synthetic", "n_train": 200, "n_val": 40, "n_test": 40,
                     "input_dim": 12, "classes": 3, "noise": 0.05, "seed": 2},
            "arch": {"widths": [6, 3], "sigma": 0.05, "gamma": 0.1},
            "train": {"epochs": 3, "batch_size": 32},
            "methods": ["ours", "pdim"],
            "sweep": {"depths": [1, 2], "hidden_width": 6},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main([
                "sweep", "--config", str(cfg_path), "--axis", "depth",
                "--out", str(out), "--seed", "5",
            ]) == 0
            outputs.append((out / "sweep_depth.csv").read_bytes())
        assert outputs[0] == outputs[1]
        report(7, "identical seeds reproduce byte-identical sweep CSVs")
