"""The benchmark's three workloads: their inputs, CLI calls and output checks.

Each workload writes its inputs from the seed during setup: synthetic images
from `synthetic_blobs` at the reduced-figure contrast 0.04, stored as IDX
files so every subcommand reads them through the real MNIST path
(`data.kind: mnist` with explicit file paths, hence `load_idx` and `split`),
a JSON config, and for two workloads seeded checkpoints. An iteration then
runs the workload's subcommands through `noisycover.cli.main` with argv
exactly as a user types it, one after the other (a closed loop with one
client), and checks every output.

Why each workload exists:

- train_nvac_sweep_verify: `train` on 784-250-250-250-10 with batch 128,
  then `nvac` and `sweep --axis sigma --checkpoint` on the trained
  checkpoint (all five methods, log10 sigma down to -350, so the log-space
  path below the double underflow runs), then `verify`. SGD (forward,
  backward, momentum update) and the per-epoch deterministic stop check do
  most of the work; Monte-Carlo counts are small. The epoch count is fixed
  and `stop_train_zero_one` is null, so the stop check runs every epoch but
  never ends training early and the work stays fixed. The bound, NVAC
  solver, quantifier and oracle layers run here too.
- mc_eval: `eval --mode expected` with a large Monte-Carlo count on the
  train and test splits of seeded checkpoints at three sigmas of the
  `loss_sigma` grid, sigma 0 included. The noisy forward pass (matmul,
  activation, noise sampling) does nearly all the work and no SGD runs.

Sweep and verify are not a workload of their own: their interpreter-bound
run time drifts too much between runs on a shared 2-core machine to carry
an end-to-end bound (NOTES.md), so they run inside the training workload,
where SGD dominates the gated wall time.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from noisycover import cli, dataio, mlp
from noisycover.bounds import METHODS
from noisycover.checkpoint import load_checkpoint, save_checkpoint

INPUT_DIM = 784
WIDTHS = (250, 250, 250, 10)
SGD_BATCH = 128
GAMMA = 0.1
CONTRAST = 0.04


@dataclass
class Iteration:
    """Outcome of one pass over a workload's subcommands."""

    wall: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)  # subcommand -> seconds
    rates: dict[str, list[float]] = field(default_factory=dict)  # name -> [items, seconds]
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""

    def count(self, rate: str, items: float, seconds: float) -> None:
        acc = self.rates.setdefault(rate, [0.0, 0.0])
        acc[0] += items
        acc[1] += seconds

    def rate(self, name: str) -> float | None:
        items, seconds = self.rates.get(name, (0.0, 0.0))
        return items / seconds if seconds else None

    def op(self, name: str, problems: list[str]) -> None:
        """Count one operation; it failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{name}: {p}" for p in problems)


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """Run one subcommand in-process; return (exit code, stdout, stderr, s)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejected the argv
        code = e.code if isinstance(e.code, int) else 1
    except Exception:  # a traceback is a failed operation: keep it, go on
        code = 1
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def _exit_problems(code: int, err: str) -> list[str]:
    if code == 0:
        return []
    tail = err.strip().splitlines()[-1:] or [""]
    return [f"exit code {code} {tail[0]}".rstrip()]


def _in_unit(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def reference_expected_losses(weights, sigma, images, labels, mc, seed):
    """Expected-mode ramp and 0-1 losses, written independently of mlp.

    Same definition as `evaluate(mode="expected")`: the mean of `mc` noisy
    passes, pass s drawing its noise from default_rng([seed, s]) after every
    activation; the activation 1/(1+e^-x) - 1/2 is computed as tanh(x/2)/2.
    """
    out = np.zeros((images.shape[0], weights[-1].shape[1]))
    for s in range(mc):
        rng = np.random.default_rng([seed, s])
        z = images
        for w in weights:
            z = 0.5 * np.tanh(0.5 * (z @ w))
            if sigma > 0:
                z = z + sigma * rng.standard_normal(z.shape)
        out += z
    out /= mc
    rows = np.arange(len(labels))
    true = out[rows, labels]
    rest = out.copy()
    rest[rows, labels] = -np.inf
    margins = true - rest.max(axis=1)
    ramp = float(np.mean(np.clip(1.0 - margins / GAMMA, 0.0, 1.0)))
    zero_one = float(np.mean(np.argmax(out, axis=1) != labels))
    return ramp, zero_one


def _loss_problems(what, got_ramp, got_zero_one, ref, n) -> list[str]:
    ramp, zero_one = ref
    problems = []
    if not abs(float(got_ramp) - ramp) <= 1e-9:
        problems.append(f"{what} ramp loss {got_ramp} != reference {ramp!r}")
    # one flipped near-tie is within float noise of the reference
    if not abs(float(got_zero_one) - zero_one) <= 1.0 / n + 1e-12:
        problems.append(f"{what} 0-1 loss {got_zero_one} != reference {zero_one!r}")
    return problems


class Workload:
    """Inputs in `dir`, outputs in `dir/out`; subclasses set sizes and steps."""

    name = ""
    rate_name = ""  # the workload's throughput, reported as work_per_s
    n_train = n_val = n_test = 0

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.out = workdir / "out"
        self.config_path = workdir / "config.json"

    # -- setup ---------------------------------------------------------------

    def setup(self) -> None:
        """Write every input from the seed; repeatable, same bytes each time."""
        self.dir.mkdir(parents=True, exist_ok=True)
        n_full = self.n_train + self.n_val
        data = dataio.synthetic_blobs(
            n_full + self.n_test, input_dim=INPUT_DIM, num_classes=WIDTHS[-1],
            contrast=CONTRAST, seed=self.seed)
        files = {}
        for part, idx in (("train", np.arange(n_full)),
                          ("test", np.arange(n_full, n_full + self.n_test))):
            files[f"{part}_images"] = str(self.dir / f"{part}-images-idx3-ubyte")
            files[f"{part}_labels"] = str(self.dir / f"{part}-labels-idx1-ubyte")
            dataio.save_idx(data.subset(idx), files[f"{part}_images"],
                            files[f"{part}_labels"], shape=(28, 28))
        # what load_idx gives back, and the permutation split() draws
        self.images = np.rint(data.images * 255.0) / 255.0
        self.labels = data.labels
        perm = np.random.default_rng(self.seed).permutation(n_full)
        self.split_index = {"train": perm[: self.n_train],
                            "test": np.arange(n_full, n_full + self.n_test)}
        config = {
            "seed": self.seed,
            "data": {"kind": "mnist", **files, "n_train": self.n_train,
                     "n_val": self.n_val, "seed": self.seed},
            "arch": {"widths": list(WIDTHS), "sigma": 0.05, "gamma": GAMMA},
            **self.config_extra(),
        }
        self.config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        self.write_checkpoints()

    def config_extra(self) -> dict:
        return {}

    def write_checkpoints(self) -> None:
        pass

    def _seeded_checkpoint(self, path: Path, sigma: float, seed: int) -> None:
        arch = mlp.NetworkArch(INPUT_DIM, WIDTHS, sigma=sigma, gamma=GAMMA)
        save_checkpoint(path, mlp.init_params(arch, seed), extra={"seed": seed})

    def config_hash(self) -> str:
        return hashlib.sha256(self.config_path.read_bytes()).hexdigest()

    def split(self, name: str):
        idx = self.split_index[name]
        return self.images[idx], self.labels[idx]

    # -- iterations ----------------------------------------------------------

    def iteration(self) -> Iteration:
        it = Iteration()
        artifacts: list[bytes] = []
        shutil.rmtree(self.out, ignore_errors=True)  # no stale artifact is ever checked
        self.out.mkdir()
        t0 = time.perf_counter()
        self.steps(it, artifacts)
        it.wall = time.perf_counter() - t0
        it.digest = hashlib.sha256(b"\0".join(artifacts)).hexdigest()
        return it

    def steps(self, it: Iteration, artifacts: list[bytes]) -> None:
        raise NotImplementedError

    def reference_check(self, it: Iteration) -> None:
        """Compare one output against the independent reference (untimed)."""

    def _call(self, it: Iteration, phase: str, argv: list[str]):
        code, out, err, dt = run_cli(argv)
        it.phases[phase] = it.phases.get(phase, 0.0) + dt
        return code, out, err, dt


class TrainNvacSweepVerify(Workload):
    name = "train_nvac_sweep_verify"
    rate_name = "train_samples_per_s"
    n_train, n_val, n_test = 1000, 200, 200
    epochs = 24
    mc_samples = 2
    log10_sigmas = list(range(-350, 0, 5))
    trials = 1000

    def config_extra(self) -> dict:
        return {
            "train": {"epochs": self.epochs, "batch_size": SGD_BATCH,
                      "stop_train_zero_one": None, "mc_samples_eval": self.mc_samples},
            "nvac": {"mc_samples": self.mc_samples},
            "sweep": {"log10_sigmas": self.log10_sigmas, "mc_samples": self.mc_samples},
        }

    def steps(self, it, artifacts):
        for step in (self._train, self._nvac, self._sweep, self._verify):
            step(it, artifacts, str(self.seed))

    def _train(self, it, artifacts, seed):
        code, _, err, dt = self._call(it, "train", [
            "train", "--config", str(self.config_path), "--out", str(self.out), "--seed", seed])
        it.count("train_samples_per_s", self.epochs * self.n_train, dt)
        problems = _exit_problems(code, err)
        if code == 0:
            metrics_bytes = (self.out / "metrics.json").read_bytes()
            artifacts.append(metrics_bytes)
            problems += self._train_problems(json.loads(metrics_bytes))
        it.op("train", problems)

    def _nvac(self, it, artifacts, seed):
        code, _, err, _ = self._call(it, "nvac", [
            "nvac", "--config", str(self.config_path), "--checkpoint",
            str(self.out / "checkpoint.ncap"), "--out", str(self.out), "--seed", seed])
        problems = _exit_problems(code, err)
        if code == 0:
            artifacts += [(self.out / "nvac.csv").read_bytes(),
                          (self.out / "nvac.json").read_bytes()]
            rows = _csv_rows(self.out / "nvac.csv")
            methods = sorted(r["method"] for r in rows)
            if methods != sorted(METHODS):
                problems.append(f"nvac.csv methods {methods}, expected one row each of {METHODS}")
            for r in rows:
                row_problems = []
                if r["error"]:
                    row_problems.append(f"error {r['error']!r}")
                if not _finite(r["log10_nvac"]):
                    row_problems.append(f"log10_nvac {r['log10_nvac']!r} not finite")
                it.op(f"nvac row {r['method']}", row_problems)
        it.op("nvac", problems)

    def _sweep(self, it, artifacts, seed):
        code, _, err, dt = self._call(it, "sweep", [
            "sweep", "--config", str(self.config_path), "--axis", "sigma", "--checkpoint",
            str(self.out / "checkpoint.ncap"), "--out", str(self.out), "--seed", seed])
        problems = _exit_problems(code, err)
        if code == 0:
            artifacts.append((self.out / "sweep_sigma.csv").read_bytes())
            rows = _csv_rows(self.out / "sweep_sigma.csv")
            it.count("sigma_sweep_rows_per_s", len(rows), dt)
            problems += self._sweep_problems(it, rows)
        it.op("sweep", problems)

    def _verify(self, it, artifacts, seed):
        code, out, err, _ = self._call(it, "verify", [
            "verify", "--out", str(self.out), "--seed", seed,
            "--trials", str(self.trials)])
        problems = _exit_problems(code, err)
        report = self.out / "verify.json"  # written whether or not the checks pass
        if report.exists():
            artifacts.append(report.read_bytes())
            for c in json.loads(report.read_text()):
                it.op(f"verify check {c['check']}",
                      [] if c["pass"] else [f"max_violation {c['max_violation']!r}"])
        if "all checks passed" not in out:
            problems.append("verify did not report that all checks passed")
        it.op("verify", problems)

    def _train_problems(self, metrics: dict) -> list[str]:
        problems = []
        curve = metrics.get("curve", [])
        if len(curve) != self.epochs:
            problems.append(f"{len(curve)} epochs in the curve, expected {self.epochs}")
        if not all(math.isfinite(c["train_ce"]) for c in curve):
            problems.append("non-finite training loss in the curve")
        sizes = {"train": self.n_train, "val": self.n_val, "test": self.n_test}
        for split, n in sizes.items():
            losses = metrics["final_losses"][split]
            if losses["count"] != n:
                problems.append(f"final_losses.{split}.count {losses['count']} != {n}")
            for mode in ("deterministic", "expected"):
                if not all(_in_unit(v) for v in losses[mode].values()):
                    problems.append(f"final_losses.{split}.{mode} outside [0, 1]")
        return problems

    def _sweep_problems(self, it, rows) -> list[str]:
        problems = []
        expected = len(self.log10_sigmas) * len(METHODS)
        if len(rows) != expected:
            problems.append(f"{len(rows)} sweep rows, expected {expected}")
        by_method: dict[str, list[tuple[float, float]]] = {m: [] for m in METHODS}
        for r in rows:
            row_problems = []
            if r["error"]:
                row_problems.append(f"error {r['error']!r}")
            if not _finite(r["log10_nvac"]):
                row_problems.append(f"log10_nvac {r['log10_nvac']!r} not finite")
            elif r["method"] in by_method:
                by_method[r["method"]].append((float(r["log10_sigma"]), float(r["log10_nvac"])))
            it.op(f"sweep row log10_sigma={r['log10_sigma']} method={r['method']}", row_problems)
        for method, points in by_method.items():
            sigmas = sorted(s for s, _ in points)
            if sigmas != [float(s) for s in self.log10_sigmas]:
                problems.append(f"{method}: sweep rows do not cover the sigma grid once each")
            nvac = [v for _, v in sorted(points)]
            if method == "ours":
                # more noise never makes the noise-composition bound looser
                if any(b > a + 1e-9 for a, b in zip(nvac, nvac[1:])):
                    problems.append("ours: log10_nvac increases with sigma")
            elif len(set(nvac)) > 1:
                problems.append(f"{method}: log10_nvac depends on sigma")
        return problems

    def reference_check(self, it):
        params, _ = load_checkpoint(self.out / "checkpoint.ncap")
        images, labels = self.split("train")
        ref = reference_expected_losses(params.weights, params.arch.sigma, images, labels,
                                        self.mc_samples, self.seed)
        metrics = json.loads((self.out / "metrics.json").read_text())
        expected = metrics["final_losses"]["train"]["expected"]
        problems = _loss_problems("train final_losses", expected["ramp"],
                                  expected["zero_one"], ref, len(labels))
        rows = _csv_rows(self.out / "nvac.csv")
        if not all(abs(float(r["ramp_loss"]) - ref[0]) <= 1e-9 for r in rows):
            problems.append(f"nvac ramp_loss differs from reference {ref[0]!r}")
        it.op("reference check (train split, expected mode)", problems)


class McEval(Workload):
    name = "mc_eval"
    rate_name = "eval_passes_per_s"
    n_train, n_val, n_test = 500, 100, 250
    sigmas = (0.0, 0.05, 0.25)
    mc_samples = 20

    def checkpoint(self, sigma: float) -> Path:
        return self.dir / f"sigma{sigma}.ncap"

    def write_checkpoints(self):
        for i, sigma in enumerate(self.sigmas):
            self._seeded_checkpoint(self.checkpoint(sigma), sigma, 1000 * self.seed + i)

    def steps(self, it, artifacts):
        sizes = {"train": self.n_train, "test": self.n_test}
        self.reports = {}
        for sigma in self.sigmas:
            for split, n in sizes.items():
                code, out, err, dt = self._call(it, "eval", [
                    "eval", "--config", str(self.config_path), "--checkpoint",
                    str(self.checkpoint(sigma)), "--split", split, "--mode", "expected",
                    "--mc-samples", str(self.mc_samples), "--seed", str(self.seed)])
                it.count(self.rate_name, n * self.mc_samples, dt)
                problems = _exit_problems(code, err)
                if code == 0:
                    artifacts.append(out.encode())
                    report = json.loads(out.strip().splitlines()[-1])
                    self.reports[sigma, split] = report
                    if report["sample_count"] != n:
                        problems.append(f"sample_count {report['sample_count']} != {n}")
                    if not (_in_unit(report["ramp_loss"]) and _in_unit(report["zero_one_loss"])):
                        problems.append("losses outside [0, 1]")
                it.op(f"eval sigma={sigma} split={split}", problems)

    def reference_check(self, it):
        sigma, split = self.sigmas[-1], "test"
        params, _ = load_checkpoint(self.checkpoint(sigma))
        images, labels = self.split(split)
        ref = reference_expected_losses(params.weights, sigma, images, labels,
                                        self.mc_samples, self.seed)
        report = self.reports.get((sigma, split))
        problems = ["no eval report"] if report is None else _loss_problems(
            "eval", report["ramp_loss"], report["zero_one_loss"], ref, len(labels))
        it.op(f"reference check (sigma={sigma}, {split} split)", problems)


WORKLOADS = {w.name: w for w in (TrainNvacSweepVerify, McEval)}
