#!/usr/bin/env python3
"""Regenerate the four figure datasets: NVAC vs depth, NVAC vs width,
NVAC vs log10(sigma), and train/test 0-1 loss vs sigma.

By default this runs a reduced configuration on synthetic data so it
finishes on a laptop. Pass --mnist DIR (the four IDX files) together with
--full for the full-scale setup: 250-wide hidden layers, depths 2-5,
widths 64-1500, 59000 training examples, sigma decades down to 1e-350.

Outputs land in <out>/sweep_{depth,width,sigma,loss_sigma}.csv.
"""

import argparse
import json
from pathlib import Path

from noisycover.cli import main as cli


def build_config(args) -> dict:
    if args.mnist:
        data = {"kind": "mnist", "dir": args.mnist}
        if not args.full:
            data.update({"n_train": 10000, "n_val": 1000})
    else:
        data = {
            "kind": "synthetic",
            "n_train": 59000 if args.full else 8000,
            "n_val": 1000,
            "n_test": 10000 if args.full else 2000,
            "input_dim": 784,
            "classes": 10,
            "noise": 0.12,
            "contrast": 0.04,
            "seed": 1,
        }
    hidden = 250 if args.full else 64
    n_hidden = 3 if args.full else 2
    cfg = {
        "seed": args.seed,
        "data": data,
        "arch": {"widths": [hidden] * n_hidden + [10], "sigma": 0.05, "gamma": 0.1},
        "train": {
            "epochs": 50,
            "batch_size": 128,
            "stop_train_zero_one": 0.005,
        },
        "methods": ["ours", "lipschitz", "pdim", "spectral", "norm_based"],
        "sweep": {
            "depths": [2, 3, 4, 5] if args.full else [1, 2, 3],
            "widths": [64, 150, 250, 350, 500, 800, 1000, 1500]
            if args.full
            else [16, 32, 64, 128],
            "log10_sigmas": list(range(-350, 0, 10)) + [-1],
            "loss_sigmas": [round(0.05 * i, 2) for i in range(11)],
            "hidden_width": hidden,
            "depth": n_hidden,
            "mc_samples": 1000 if args.full else 50,
        },
    }
    return cfg


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figures_data")
    parser.add_argument("--mnist", help="directory with the MNIST IDX files")
    parser.add_argument("--full", action="store_true", help="full-scale settings")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--axes",
        default="depth,width,sigma,loss_sigma",
        help="comma-separated subset of the four sweep axes",
    )
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = build_config(args)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    print(f"config -> {cfg_path}")

    # one shared checkpoint for the sigma axis: sigma enters the bound
    # formula there, not the network, so retraining per point is pointless
    ckpt = None
    axes = args.axes.split(",")
    if "sigma" in axes:
        train_out = out / "baseline"
        code = cli(["train", "--config", str(cfg_path), "--out", str(train_out),
                    "--seed", str(args.seed)])
        if code != 0:
            raise SystemExit(code)
        ckpt = train_out / "checkpoint.ncap"

    for axis in axes:
        argv = ["sweep", "--config", str(cfg_path), "--axis", axis,
                "--out", str(out), "--seed", str(args.seed)]
        if axis == "sigma" and ckpt is not None:
            argv += ["--checkpoint", str(ckpt)]
        print(f"sweep {axis} ...")
        code = cli(argv)
        if code != 0:
            raise SystemExit(code)
    print(f"done; CSVs in {out}")


if __name__ == "__main__":
    main()
