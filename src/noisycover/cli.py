"""Command-line driver: training runs, bounds, NVAC, sweeps, verification.

Subcommands: train, eval, bounds, nvac, sweep, verify. Run parameters come
from a JSON config (schema-checked, unknown keys rejected); a few common
ones can be overridden with flags. All outputs are plain JSON/CSV so the
same config and seed reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import checkpoint as ckpt
from . import dataio, genbound, norms, oracle
from .mlp import (
    NetworkArch,
    ParamSet,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    forward_deterministic,
    init_params,
    train_sgd,
)

ALL_METHODS = list(bnd.METHODS)


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "seed": (int,),
    "out_dir": (str,),
    "data": {
        "kind": (str,),
        "dir": (str,),
        "train_images": (str,),
        "train_labels": (str,),
        "test_images": (str,),
        "test_labels": (str,),
        "n_train": (int,),
        "n_val": (int,),
        "n_test": (int,),
        "input_dim": (int,),
        "classes": (int,),
        "noise": (float, int),
        "contrast": (float, int, type(None)),
        "seed": (int,),
    },
    "arch": {
        "widths": (list,),
        "sigma": (float, int),
        "gamma": (float, int),
    },
    "train": {
        "learning_rate": (float, int),
        "momentum": (float, int),
        "epochs": (int,),
        "batch_size": (int,),
        "seed": (int,),
        "mc_samples_eval": (int,),
        "noise_during_training": (bool,),
        "stop_train_zero_one": (float, int, type(None)),
    },
    "methods": (list,),
    "nvac": {
        "mc_samples": (int,),
        "ramp_loss": (float, int, type(None)),
    },
    "sweep": {
        "depths": (list,),
        "widths": (list,),
        "log10_sigmas": (list,),
        "loss_sigmas": (list,),
        "hidden_width": (int,),
        "depth": (int,),
        "mc_samples": (int,),
    },
}


def validate_config(cfg: dict, schema=None, prefix: str = "") -> None:
    schema = _SCHEMA if schema is None else schema
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected an object at {prefix or 'top level'}")
    for key, value in cfg.items():
        if key not in schema:
            raise ConfigError(f"unknown key: {prefix}{key}")
        allowed = schema[key]
        if isinstance(allowed, dict):
            validate_config(value, allowed, prefix=f"{prefix}{key}.")
        # bool subclasses int, so true/false would pass as a number
        elif not isinstance(value, allowed) or (
            isinstance(value, bool) and bool not in allowed
        ):
            names = "/".join(t.__name__ for t in allowed)
            raise ConfigError(f"{prefix}{key}: expected {names}, got {type(value).__name__}")


def load_config(path) -> dict:
    with open(path) as f:
        cfg = json.load(f)
    validate_config(cfg)
    _check_methods(cfg.get("methods", ()))
    return cfg


def _check_methods(methods) -> list:
    unknown = [mth for mth in methods if mth not in bnd.METHODS]
    if unknown:
        raise ConfigError(
            f"unknown method {', '.join(map(repr, unknown))}; "
            f"choose from {','.join(ALL_METHODS)}"
        )
    return list(methods)


def _methods_arg(args) -> list:
    return _check_methods(args.methods.split(",")) if args.methods else ALL_METHODS


def _load_data(cfg: dict, mnist_dir=None):
    data = cfg.get("data", {})
    kind = data.get("kind", "mnist")
    if kind == "mnist":
        if "train_images" in data:  # explicit file paths beat the directory form
            full = dataio.load_idx(data["train_images"], data["train_labels"], name="mnist")
            test = dataio.load_idx(data["test_images"], data["test_labels"], name="mnist[test]")
            train, val = dataio.split(
                full, data.get("n_train", 59000), data.get("n_val", 1000),
                seed=data.get("seed", 0),
            )
            return train, val, test
        directory = mnist_dir or data.get("dir")
        if directory is None:
            raise ConfigError("data.kind is mnist but no directory given (--mnist)")
        return dataio.load_mnist_dir(
            directory,
            n_train=data.get("n_train", 59000),
            n_val=data.get("n_val", 1000),
            seed=data.get("seed", 0),
        )
    if kind == "synthetic":
        # one draw shares the class templates across the three splits
        n_train = data.get("n_train", 10000)
        n_val = data.get("n_val", 1000)
        n_test = data.get("n_test", 2000)
        full = dataio.synthetic_blobs(
            n_train + n_val + n_test,
            input_dim=data.get("input_dim", 784),
            num_classes=data.get("classes", 10),
            noise=data.get("noise", 0.12),
            contrast=data.get("contrast"),
            seed=data.get("seed", 0),
        )
        train = full.subset(np.arange(n_train), name="synthetic[train]")
        val = full.subset(np.arange(n_train, n_train + n_val), name="synthetic[val]")
        test = full.subset(np.arange(n_train + n_val, len(full)), name="synthetic[test]")
        return train, val, test
    raise ConfigError(f"unknown data.kind {kind!r}")


def _check_final_width(widths, num_classes: int) -> None:
    # the bounds take p_T from the final width, so it must be the class count
    if not widths or widths[-1] != num_classes:
        raise ConfigError(
            f"arch.widths {list(widths)} must end in the data's {num_classes} classes"
        )


def _build_arch(cfg: dict, train) -> NetworkArch:
    arch = cfg.get("arch", {})
    widths = tuple(arch.get("widths", (250, 250, 250, 10)))
    _check_final_width(widths, train.num_classes)
    return NetworkArch(
        train.dim, widths, sigma=arch.get("sigma", 0.05), gamma=arch.get("gamma", 0.1)
    )


def _build_train_config(cfg: dict, seed: int) -> TrainConfig:
    t = dict(cfg.get("train", {}))
    t.pop("stop_train_zero_one", None)
    t.setdefault("seed", seed)
    t.setdefault("epochs", 50)
    return TrainConfig(**t)


def _train_network(arch, train, config, stop_zero_one, log=print):
    params = init_params(arch, config.seed)
    curve = []

    def on_epoch(epoch, p, mean_loss):
        report = evaluate(p, train.images, train.labels, arch.gamma, "deterministic")
        curve.append(
            {"epoch": epoch, "train_ce": mean_loss, "train_zero_one": report.zero_one_loss}
        )
        log(
            f"epoch {epoch:3d}  ce {mean_loss:.4f}  train 0-1 {report.zero_one_loss:.4f}"
        )
        return stop_zero_one is not None and report.zero_one_loss <= stop_zero_one

    params = train_sgd(params, train.images, train.labels, config, on_epoch=on_epoch)
    return params, curve


def _losses(params, arch, splits, mc_samples, seed):
    out = {}
    for name, ds in splits.items():
        det = evaluate(params, ds.images, ds.labels, arch.gamma, "deterministic")
        exp = evaluate(
            params, ds.images, ds.labels, arch.gamma, "expected",
            n_samples=mc_samples, seed=seed,
        )
        out[name] = {
            "deterministic": {"ramp": det.ramp_loss, "zero_one": det.zero_one_loss},
            "expected": {"ramp": exp.ramp_loss, "zero_one": exp.zero_one_loss},
            "count": len(ds),
        }
    return out


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    out_dir = Path(args.out or cfg.get("out_dir", "runs"))
    out_dir.mkdir(parents=True, exist_ok=True)

    train, val, test = _load_data(cfg, args.mnist)
    arch = _build_arch(cfg, train)
    config = _build_train_config(cfg, seed)
    stop = cfg.get("train", {}).get("stop_train_zero_one", 0.005)

    params, curve = _train_network(arch, train, config, stop)
    losses = _losses(
        params, arch, {"train": train, "val": val, "test": test},
        config.mc_samples_eval, seed,
    )

    ckpt_path = out_dir / "checkpoint.ncap"
    ckpt.save_checkpoint(
        ckpt_path, params, train_config=config, final_losses=losses,
        extra={"created_unix": time.time(), "data": train.name, "stop_zero_one": stop},
    )
    with open(out_dir / "metrics.json", "w") as f:
        json.dump({"curve": curve, "final_losses": losses}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {ckpt_path}")
    return 0


def cmd_eval(args) -> int:
    params, meta = ckpt.load_checkpoint(args.checkpoint)
    cfg = load_config(args.config) if args.config else {}
    train, val, test = _load_data(cfg, args.mnist)
    ds = {"train": train, "val": val, "test": test}[args.split]
    report = evaluate(
        params, ds.images, ds.labels, params.arch.gamma,
        mode=args.mode, n_samples=args.mc_samples, seed=args.seed or 0,
    )
    print(json.dumps({
        "split": args.split, "mode": args.mode,
        "ramp_loss": report.ramp_loss, "zero_one_loss": report.zero_one_loss,
        "sample_count": report.sample_count,
    }, sort_keys=True))
    return 0


def _quantifiers_for(params, train):
    return norms.quantifiers(params.arch, params, train=train)


def cmd_bounds(args) -> int:
    params, meta = ckpt.load_checkpoint(args.checkpoint)
    cfg = load_config(args.config) if args.config else {}
    train, _, _ = _load_data(cfg, args.mnist)
    quant = _quantifiers_for(params, train)
    methods = _methods_arg(args)
    m = args.m if args.m is not None else len(train)

    rows = []
    for method in methods:
        try:
            query = bnd.BoundQuery(method, args.epsilon, m, params.arch.gamma,
                                   params.arch, quant)
            rows.append(bnd.bound_report(bnd.ln_cover(query)))
        except bnd.BoundError as e:
            rows.append({"method": method, "error": str(e)})
    out = json.dumps(rows, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "bounds.json").write_text(out + "\n")
    print(out)
    return 0


NVAC_HEADER = ["method", "depth", "width", "sigma", "gamma", "m",
               "ramp_loss", "epsilon", "log10_nvac", "error"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _nvac_rows(params, quant, m, ramp_loss, methods, ln_sigma=None):
    arch = params.arch
    depth = arch.depth - 1  # hidden layers
    width = max(arch.widths[:-1]) if arch.depth > 1 else 0
    rows = []
    for method in methods:
        base = {
            "method": method, "depth": depth, "width": width, "sigma": arch.sigma,
            "gamma": arch.gamma, "m": m, "ramp_loss": ramp_loss,
        }
        try:
            res = genbound.solve_nvac(
                method, arch, quant, m, arch.gamma, ramp_loss, ln_sigma=ln_sigma
            )
            base.update(epsilon=res.epsilon_used, log10_nvac=res.nvac_log10, error="")
            if not res.converged:
                base["error"] = "NVAC solver did not converge"
        except (bnd.BoundError, genbound.NvacError) as e:
            base.update(epsilon=(1.0 - ramp_loss) / 10.0, log10_nvac="", error=str(e))
        rows.append(base)
    return rows


def _write_csv(path, header, rows, footer_lines=()):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in header])
        for line in footer_lines:
            f.write(line + "\n")


def cmd_nvac(args) -> int:
    params, meta = ckpt.load_checkpoint(args.checkpoint)
    cfg = load_config(args.config) if args.config else {}
    train, _, _ = _load_data(cfg, args.mnist)
    quant = _quantifiers_for(params, train)
    methods = _methods_arg(args)
    mc = cfg.get("nvac", {}).get("mc_samples", 50)

    ramp_loss = cfg.get("nvac", {}).get("ramp_loss")
    if ramp_loss is None:
        report = evaluate(
            params, train.images, train.labels, params.arch.gamma,
            mode="expected", n_samples=mc, seed=args.seed or 0,
        )
        ramp_loss = report.ramp_loss

    rows = _nvac_rows(params, quant, len(train), ramp_loss, methods)
    ranked = sorted(
        (r for r in rows if r["log10_nvac"] != ""), key=lambda r: r["log10_nvac"]
    )
    footer = ["# ordering: " + " < ".join(r["method"] for r in ranked)]

    out_dir = Path(args.out or "runs")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "nvac.csv"
    _write_csv(path, NVAC_HEADER, rows, footer)
    with open(out_dir / "nvac.json", "w") as f:
        json.dump({"rows": rows, "ordering": [r["method"] for r in ranked]},
                  f, indent=2, sort_keys=True)
        f.write("\n")
    print(path)
    print(footer[0])
    return 0


SWEEP_HEADERS = {
    "depth": ["depth", "method", "log10_nvac", "error"],
    "width": ["width", "method", "log10_nvac", "error"],
    "sigma": ["log10_sigma", "method", "log10_nvac", "error"],
    "loss_sigma": ["sigma", "train_zero_one", "test_zero_one", "train_ramp", "test_ramp"],
}


def _sweep_train_point(cfg, widths, sigma, gamma, train, seed):
    _check_final_width(widths, train.num_classes)
    arch = NetworkArch(train.dim, widths, sigma=sigma, gamma=gamma)
    config = _build_train_config(cfg, seed)
    stop = cfg.get("train", {}).get("stop_train_zero_one", 0.005)
    params, _ = _train_network(arch, train, config, stop, log=lambda *a, **k: None)
    return params


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    out_dir = Path(args.out or cfg.get("out_dir", "runs"))
    out_dir.mkdir(parents=True, exist_ok=True)

    train, val, test = _load_data(cfg, args.mnist)
    sweep = cfg.get("sweep", {})
    arch_cfg = cfg.get("arch", {})
    gamma = arch_cfg.get("gamma", 0.1)
    sigma = arch_cfg.get("sigma", 0.05)
    methods = cfg.get("methods", ALL_METHODS)
    axis = args.axis

    if axis in ("depth", "width"):
        hidden_width = sweep.get("hidden_width", 250)
        depth = sweep.get("depth", 3)
        classes = train.num_classes
        if axis == "depth":
            values = sweep.get("depths", [2, 3, 4, 5])
            make_widths = lambda v: (hidden_width,) * int(v) + (classes,)
        else:
            values = sweep.get("widths", [64, 150, 250, 350, 500, 800, 1000, 1500])
            make_widths = lambda v: (int(v),) * depth + (classes,)

        def point(value):
            try:
                params = _sweep_train_point(cfg, make_widths(value), sigma, gamma, train, seed)
                quant = _quantifiers_for(params, train)
                report = evaluate(
                    params, train.images, train.labels, gamma,
                    mode="expected", n_samples=sweep.get("mc_samples", 50), seed=seed,
                )
                out = _nvac_rows(params, quant, len(train), report.ramp_loss, methods)
                for r in out:
                    r[axis] = value
                return out
            except Exception as e:  # per-point failures recorded, sweep continues
                return [{axis: value, "method": mth, "log10_nvac": "", "error": str(e)}
                        for mth in methods]

    elif axis == "sigma":
        if args.checkpoint:
            params, _ = ckpt.load_checkpoint(args.checkpoint)
        else:
            widths = tuple(arch_cfg.get("widths", (250, 250, 250, 10)))
            params = _sweep_train_point(cfg, widths, sigma, gamma, train, seed)
        quant = _quantifiers_for(params, train)
        mc = sweep.get("mc_samples", 50)
        report = evaluate(
            params, train.images, train.labels, gamma,
            mode="expected", n_samples=mc, seed=seed,
        )
        values = sweep.get("log10_sigmas", list(range(-350, 0, 10)) + [-1])

        def point(log10_sigma):
            out = _nvac_rows(
                params, quant, len(train), report.ramp_loss, methods,
                ln_sigma=float(log10_sigma) * math.log(10.0),
            )
            for r in out:
                r["log10_sigma"] = log10_sigma
                r["sigma"] = ""
            return out

    elif axis == "loss_sigma":
        values = sweep.get("loss_sigmas", [round(0.05 * i, 2) for i in range(11)])
        mc = sweep.get("mc_samples", 1000)

        def point(sig):
            try:
                widths = tuple(arch_cfg.get("widths", (250, 250, 250, 10)))
                params = _sweep_train_point(cfg, widths, float(sig), gamma, train, seed)
                tr = evaluate(params, train.images, train.labels, gamma,
                              mode="expected", n_samples=mc, seed=seed)
                te = evaluate(params, test.images, test.labels, gamma,
                              mode="expected", n_samples=mc, seed=seed)
                return [{
                    "sigma": sig,
                    "train_zero_one": tr.zero_one_loss, "test_zero_one": te.zero_one_loss,
                    "train_ramp": tr.ramp_loss, "test_ramp": te.ramp_loss,
                }]
            except ConfigError:  # the same for every point: stop the sweep
                raise
            except Exception as e:
                return [{"sigma": sig, "train_zero_one": "", "test_zero_one": "",
                         "train_ramp": "", "test_ramp": "", "error": str(e)}]
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    rows = [row for value in values for row in point(value)]

    path = out_dir / f"sweep_{axis}.csv"
    _write_csv(path, SWEEP_HEADERS[axis], rows)
    print(path)
    return 0


# --- verification suite -------------------------------------------------------


def _check_tv_gaussian(trials: int, rng, inject_fault: bool = False) -> dict:
    worst = -math.inf
    for _ in range(trials):
        mu1, mu2 = rng.normal(0, 5, size=2)
        sigma = float(rng.uniform(0.05, 5.0))
        tv = oracle.tv_gaussians_1d(mu1, mu2, sigma)
        cap = min(1.0, abs(mu1 - mu2) / (2.0 * sigma))
        if inject_fault:
            cap = cap / 10.0  # deliberately broken bound, for harness tests
        worst = max(worst, tv - cap)
    return {"check": "tv_gaussian_bound", "trials": trials,
            "max_violation": worst, "pass": worst <= 1e-12}


def _check_dpi(trials: int, rng) -> dict:
    worst = -math.inf
    for _ in range(trials):
        dim_in = int(rng.integers(2, 9))
        dim_out = int(rng.integers(2, 9))
        channel = rng.random((dim_in, dim_out))
        channel /= channel.sum(axis=1, keepdims=True)
        p = rng.random(dim_in)
        p /= p.sum()
        q = rng.random(dim_in)
        q /= q.sum()
        tv_in, tv_out = oracle.dpi_check(channel, p, q)
        worst = max(worst, tv_out - tv_in)
    return {"check": "data_processing_inequality", "trials": trials,
            "max_violation": worst, "pass": worst <= 1e-12}


def _gmm_fixtures():
    uniform = lambda x: np.ones_like(x)
    triangle = lambda x: np.maximum(1.0 - np.abs(x), 0.0)
    bump = lambda x: np.exp(-8.0 * x * x)
    return [
        (oracle.Density1D.from_callable(f, B=1.0), sigma, eta)
        for f in (uniform, triangle, bump)
        for sigma in (0.2, 0.5)
        for eta in (0.03, 0.1)
    ]


def _check_gmm() -> dict:
    worst = -math.inf
    fixtures = _gmm_fixtures()
    for f, sigma, eta in fixtures:
        _, tv_error = oracle.gmm_estimate_1d(f, sigma, eta)
        worst = max(worst, tv_error - 2.0 * eta / sigma)
    return {"check": "gmm_smoothing_bound", "trials": len(fixtures),
            "max_violation": worst, "pass": worst <= 1e-9}


def toy_net_restrictions(n_configs: int = 200, n_inputs: int = 20, seed: int = 0):
    """Restrictions of sampled 2-2-2 networks with V <= 2 on fixed inputs."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1, 1, size=(n_inputs, 2))
    arch = NetworkArch(2, (2, 2), sigma=0.0, gamma=2.0)
    points = []
    for _ in range(n_configs):
        weights = []
        for shape in ((2, 2), (2, 2)):
            w = rng.uniform(-1, 1, size=shape)
            scale = np.abs(w).sum(axis=0).max()
            if scale > 2.0:  # keep the incoming-l1 norm within the class bound
                w *= 2.0 / scale
            weights.append(w)
        points.append(forward_deterministic(ParamSet(arch, weights), inputs))
    return arch, inputs, points


def _check_greedy_vs_lipschitz() -> dict:
    arch, inputs, points = toy_net_restrictions()
    # class-level norms: V = 2 by construction; gamma = 2 makes the ramp
    # rescaling gamma*eps/2 equal eps, so the empirical cover at eps is
    # comparable with the bound at the same eps
    quant = norms.ArchQuantifiers(
        W_rvo=2 * 2 + 2, r_rvo=3, w=2, V=2.0,
        s=(1.0, 1.0), b=(1.0, 1.0), x_frob=1.0,
    )
    worst = -math.inf
    trials = 0
    for eps in (0.05, 0.1, 0.2):
        size = oracle.greedy_cover(points, eps, metric="ext-l2")
        fn = bnd.ln_cover_fn("lipschitz", arch, quant, gamma=2.0)
        ln_bound = fn(eps).at(math.log(len(inputs)))
        worst = max(worst, math.log(size) - ln_bound)
        trials += 1
    return {"check": "greedy_cover_vs_lipschitz_bound", "trials": trials,
            "max_violation": worst, "pass": worst <= 0.0}


def run_verification(inject_fault: str | None = None, trials: int = 1000, seed: int = 0):
    rng = np.random.default_rng(seed)
    checks = [
        _check_tv_gaussian(trials, rng, inject_fault == "tv"),
        _check_dpi(trials, rng),
        _check_gmm(),
        _check_greedy_vs_lipschitz(),
    ]
    return checks


def cmd_verify(args) -> int:
    checks = run_verification(inject_fault=args.inject_fault, trials=args.trials,
                              seed=args.seed or 0)
    report = json.dumps(checks, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "verify.json").write_text(report + "\n")
    print(report)
    ok = all(c["pass"] for c in checks)
    print("all checks passed" if ok else "FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisycover")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=False):
        p.add_argument("--config", required=config_required,
                       help="JSON run configuration")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mnist", help="directory with the four MNIST IDX files")

    p = sub.add_parser("train", help="train a network and write a checkpoint")
    common(p, config_required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a data split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--mode", choices=("deterministic", "expected"), default="expected")
    p.add_argument("--mc-samples", type=int, default=50)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bounds", help="evaluate covering-number bounds")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--methods", help="comma-separated subset of " + ",".join(ALL_METHODS))
    p.add_argument("--epsilon", type=float, default=0.099)
    p.add_argument("--m", type=float, default=None)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("nvac", help="NVAC per method for a trained checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--methods", help="comma-separated subset of " + ",".join(ALL_METHODS))
    p.set_defaults(fn=cmd_nvac)

    p = sub.add_parser("sweep", help="regenerate a figure dataset")
    common(p, config_required=True)
    p.add_argument("--axis", choices=("depth", "width", "sigma", "loss_sigma"),
                   required=True)
    p.add_argument("--checkpoint", help="reuse this checkpoint (sigma axis)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run the numerical verification suite")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--inject-fault", choices=("tv",), help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        ConfigError,
        FileNotFoundError,
        dataio.IdxFormatError,
        ckpt.CheckpointError,
        norms.SpectralNormError,
        TrainingDiverged,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
