import json
import math

import numpy as np
import pytest

import noisycover as nc
from noisycover.cli import (
    NVAC_HEADER,
    SWEEP_HEADERS,
    ConfigError,
    main,
    run_verification,
    validate_config,
)

TINY_CONFIG = {
    "seed": 5,
    "data": {
        "kind": "synthetic", "n_train": 300, "n_val": 60, "n_test": 60,
        "input_dim": 16, "classes": 3, "noise": 0.05, "seed": 2,
    },
    "arch": {"widths": [8, 3], "sigma": 0.05, "gamma": 0.1},
    "train": {"epochs": 15, "batch_size": 32, "stop_train_zero_one": 0.0},
    "methods": ["ours", "pdim"],
}


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    for key, value in (overrides or {}).items():
        node = cfg
        *parents, leaf = key.split(".")
        for p in parents:
            node = node.setdefault(p, {})
        node[leaf] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key: banana"):
            validate_config({"banana": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown key: train.warmup"):
            validate_config({"train": {"warmup": 3}})

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"seed": "five"})

    def test_valid(self):
        validate_config(TINY_CONFIG)

    @pytest.mark.parametrize("cfg, key", [
        ({"seed": True}, "seed"),
        ({"train": {"epochs": True}}, "train.epochs"),
        ({"train": {"learning_rate": False}}, "train.learning_rate"),
        ({"arch": {"sigma": True}}, "arch.sigma"),
    ])
    def test_bool_is_not_a_number(self, cfg, key):
        with pytest.raises(ConfigError, match=f"{key}: expected .*, got bool"):
            validate_config(cfg)

    def test_bool_field_takes_bool(self):
        validate_config({"train": {"noise_during_training": False}})


class TestTrainCommand:
    def test_writes_checkpoint_and_metrics(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        params, meta = nc.load_checkpoint(out / "checkpoint.ncap")
        assert params.arch.widths == (8, 3)
        assert meta["final_losses"]["train"]["deterministic"]["zero_one"] <= 0.2
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["curve"]
        assert {"epoch", "train_ce", "train_zero_one"} <= set(metrics["curve"][0])

    def test_zero_epochs_matches_init(self, tmp_path):
        cfg = write_config(tmp_path, {"train.epochs": 0, "train.stop_train_zero_one": None})
        out = tmp_path / "run0"
        main(["train", "--config", str(cfg), "--out", str(out), "--seed", "5"])
        params, _ = nc.load_checkpoint(out / "checkpoint.ncap")
        fresh = nc.init_params(params.arch, 5)
        for a, b in zip(params.weights, fresh.weights):
            assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_run")
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out", str(out)])
    return tmp_path, cfg, out / "checkpoint.ncap"


class TestEvalCommand:
    def test_json_output(self, trained_run, capsys):
        _, cfg, ckpt = trained_run
        assert main([
            "eval", "--config", str(cfg), "--checkpoint", str(ckpt),
            "--split", "val", "--mode", "deterministic",
        ]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"split", "mode", "ramp_loss", "zero_one_loss", "sample_count"}
        assert out["zero_one_loss"] <= out["ramp_loss"]


class TestBoundsCommand:
    def test_rows(self, trained_run, capsys):
        _, cfg, ckpt = trained_run
        assert main([
            "bounds", "--config", str(cfg), "--checkpoint", str(ckpt),
            "--methods", "ours,spectral", "--epsilon", "0.09",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["method"] for r in rows] == ["ours", "spectral"]
        for row in rows:
            assert row["ln_n"] >= 0 and row["log10_n"] == pytest.approx(
                row["ln_n"] / math.log(10)
            )


class TestNvacCommand:
    def test_csv_header_and_ordering_footer(self, trained_run, capsys):
        tmp_path, cfg, ckpt = trained_run
        out = tmp_path / "nvac_out"
        assert main([
            "nvac", "--config", str(cfg), "--checkpoint", str(ckpt),
            "--out", str(out), "--seed", "5",
        ]) == 0
        lines = (out / "nvac.csv").read_text().splitlines()
        assert lines[0] == ",".join(NVAC_HEADER)
        assert lines[-1].startswith("# ordering: ")
        # the JSON twin carries the same rows plus the ranked method list
        doc = json.loads((out / "nvac.json").read_text())
        assert len(doc["rows"]) == len(lines) - 2
        assert set(doc["ordering"]) <= {r["method"] for r in doc["rows"]}

    def test_error_rows_keep_running(self, tmp_path, capsys):
        # near-zero weights give V < 1, so the Lipschitz row carries an error
        arch = nc.NetworkArch(16, (8, 3), sigma=0.05, gamma=0.1)
        params = nc.ParamSet(
            arch, [np.full((16, 8), 1e-4), np.full((8, 3), 1e-4)]
        )
        ckpt_path = tmp_path / "weak.ncap"
        nc.save_checkpoint(ckpt_path, params)
        cfg = write_config(tmp_path)
        out = tmp_path / "weak_out"
        assert main([
            "nvac", "--config", str(cfg), "--checkpoint", str(ckpt_path),
            "--out", str(out), "--methods", "lipschitz,spectral",
        ]) == 0
        lines = (out / "nvac.csv").read_text().splitlines()
        lip = next(l for l in lines if l.startswith("lipschitz"))
        assert "V <= 1" in lip
        spec_row = next(l for l in lines if l.startswith("spectral"))
        assert spec_row.split(",")[-1] == ""  # no error recorded

    @pytest.mark.parametrize("method", ["nope", "const:100.0"])
    @pytest.mark.parametrize("command", ["nvac", "bounds"])
    def test_unknown_method_exits_2(self, trained_run, command, method, capsys):
        tmp_path, cfg, ckpt = trained_run
        code = main([
            command, "--config", str(cfg), "--checkpoint", str(ckpt),
            "--out", str(tmp_path / "unknown_method"), "--methods", f"ours,{method}",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown method" in err and repr(method) in err


class TestSweepCommand:
    def test_empty_axis_header_only(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep.depths": []})
        out = tmp_path / "sweep_empty"
        assert main([
            "sweep", "--config", str(cfg), "--axis", "depth", "--out", str(out),
        ]) == 0
        lines = (out / "sweep_depth.csv").read_text().splitlines()
        assert lines == [",".join(SWEEP_HEADERS["depth"])]

    def test_depth_sweep_and_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path, {
            "sweep.depths": [1, 2], "sweep.hidden_width": 6,
            "train.epochs": 3, "methods": ["ours", "pdim"],
        })
        out_a = tmp_path / "sweep_a"
        out_b = tmp_path / "sweep_b"
        for out in (out_a, out_b):
            assert main([
                "sweep", "--config", str(cfg), "--axis", "depth",
                "--out", str(out), "--seed", "5",
            ]) == 0
        a = (out_a / "sweep_depth.csv").read_bytes()
        b = (out_b / "sweep_depth.csv").read_bytes()
        assert a == b
        lines = a.decode().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADERS["depth"])
        assert len(lines) == 1 + 2 * 2  # two depths x two methods

    def test_sigma_sweep_reuses_checkpoint(self, trained_run, tmp_path):
        _, cfg, ckpt = trained_run
        out = tmp_path / "sweep_sigma"
        cfg2 = write_config(tmp_path, {
            "sweep.log10_sigmas": [-300, -100, -1], "methods": ["ours"],
        }, name="cfg_sigma.json")
        assert main([
            "sweep", "--config", str(cfg2), "--axis", "sigma",
            "--checkpoint", str(ckpt), "--out", str(out), "--seed", "5",
        ]) == 0
        lines = (out / "sweep_sigma.csv").read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADERS["sigma"])
        rows = [dict(zip(SWEEP_HEADERS["sigma"], l.split(","))) for l in lines[1:]]
        vals = [float(r["log10_nvac"]) for r in rows]
        assert vals[0] >= vals[1] >= vals[2]  # smaller noise, larger NVAC

    def test_loss_sigma_sweep(self, tmp_path):
        cfg = write_config(tmp_path, {
            "sweep.loss_sigmas": [0.0, 0.1], "sweep.mc_samples": 5,
            "train.epochs": 3,
        })
        out = tmp_path / "sweep_loss"
        assert main([
            "sweep", "--config", str(cfg), "--axis", "loss_sigma", "--out", str(out),
        ]) == 0
        lines = (out / "sweep_loss_sigma.csv").read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADERS["loss_sigma"])
        assert len(lines) == 3


class TestVerifyCommand:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        assert main(["verify", "--trials", "60", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert all(set(c) == {"check", "trials", "max_violation", "pass"} for c in report)
        assert all(c["pass"] for c in report)
        names = {c["check"] for c in report}
        assert names == {
            "tv_gaussian_bound", "data_processing_inequality",
            "gmm_smoothing_bound", "greedy_cover_vs_lipschitz_bound",
        }

    def test_injected_fault_fails(self, capsys):
        assert main(["verify", "--trials", "60", "--inject-fault", "tv"]) == 1

    def test_run_verification_pure(self):
        a = run_verification(trials=40, seed=3)
        b = run_verification(trials=40, seed=3)
        assert a == b


class TestErrorPaths:
    def test_missing_mnist_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"data.kind": "mnist"})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"no_such": 1}))
        assert main(["train", "--config", str(path)]) == 2

    def test_bool_epochs_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"train.epochs": True})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "train.epochs: expected int, got bool" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train"], ["sweep", "--axis", "sigma"], ["sweep", "--axis", "loss_sigma"],
    ])
    def test_final_width_must_match_classes(self, argv, tmp_path, capsys):
        # the data has 3 classes; a 4-wide output would give the bounds p_T = 4
        cfg = write_config(tmp_path, {"arch.widths": [8, 4], "sweep.loss_sigmas": [0.0]})
        out = tmp_path / "x"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert "must end in the data's 3 classes" in capsys.readouterr().err
        assert not (out / "checkpoint.ncap").exists()

    def test_nonconverged_spectral_norm_exits_2(self, trained_run, monkeypatch, capsys):
        tmp_path, cfg, ckpt = trained_run
        monkeypatch.setattr(
            nc.norms, "spectral_norm",
            lambda w, **kw: nc.norms.PowerIterationResult(1.0, False, 1000),
        )
        assert main([
            "nvac", "--config", str(cfg), "--checkpoint", str(ckpt),
            "--out", str(tmp_path / "nonconverged"),
        ]) == 2
        assert "did not converge" in capsys.readouterr().err

    def test_unknown_config_method(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"methods": ["ours", "const:100.0"]})
        out = tmp_path / "x"
        assert main(["sweep", "--config", str(cfg), "--axis", "depth", "--out", str(out)]) == 2
        assert "unknown method 'const:100.0'" in capsys.readouterr().err
