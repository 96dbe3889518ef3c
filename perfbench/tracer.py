"""Per-layer tracing for the benchmark's traced run.

The tracer replaces public functions of the noisycover modules with timing
wrappers, in every loaded noisycover module that binds the function's name,
so a caller that did `from .mlp import evaluate` is traced as well as one
that calls `mlp.evaluate`. Nothing in the package is edited; `uninstall`
puts the originals back.

Spans are aggregated as they close (calls, seconds, self seconds and a few
counters per name) rather than kept one by one: the bound callables alone
are entered hundreds of thousands of times per workload iteration. A span's
self time is its duration minus the durations of the traced spans it
directly encloses. The package is single-threaded while the benchmark runs
(`sweep.workers` is left unset), so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs the traced run wraps, in noisycover.<module>
TARGETS = [
    ("cli", "cmd_train"), ("cli", "cmd_eval"), ("cli", "cmd_bounds"),
    ("cli", "cmd_nvac"), ("cli", "cmd_sweep"), ("cli", "cmd_verify"),
    ("dataio", "load_idx"), ("dataio", "split"),
    ("mlp", "train_sgd"), ("mlp", "cross_entropy_grads"), ("mlp", "evaluate"),
    ("mlp", "forward_noisy"), ("mlp", "activation"),
    ("checkpoint", "save_checkpoint"), ("checkpoint", "load_checkpoint"),
    ("norms", "quantifiers"), ("norms", "spectral_norm"),
    ("bounds", "ln_cover_fn"), ("genbound", "solve_nvac"),
    ("oracle", "gmm_estimate_1d"), ("oracle", "greedy_cover"),
    ("oracle", "tv_gaussians_1d"), ("oracle", "dpi_check"),
]

CLI_SUBCOMMANDS = ("train", "eval", "nvac", "sweep", "verify")
ORACLE_FUNCTIONS = ("gmm_estimate_1d", "greedy_cover", "tv_gaussians_1d", "dpi_check")


def _file_bytes(*paths) -> int:
    total = 0
    for p in paths:
        try:
            total += os.path.getsize(p)
        except OSError:
            pass
    return total


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith(("_ratio", "_per_solve")):
        return "ratio"
    return "count"


class Tracer:
    """Installs the wrappers and aggregates their spans by name."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.installed: set[tuple[str, str]] = set()
        self.missing: list[str] = []
        self._open: list[float] = []  # child seconds of each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def call(self, name: str, fn, /, *args, **kwargs):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._open.pop()
            st = self.stats[name]
            st["calls"] += 1
            st["s"] += dt
            st["self_s"] += dt - child
            if self._open:
                self._open[-1] += dt

    def reset(self) -> None:
        self.stats.clear()

    # -- wrappers --------------------------------------------------------

    def _wrapper(self, module: str, name: str, original):
        label = f"{module}.{name}"
        call = self.call
        stats = self.stats

        if module == "cli":
            label = "cli." + name.removeprefix("cmd_")
        elif name == "evaluate":
            def wrapper(*args, **kwargs):
                mode = kwargs.get("mode", args[4] if len(args) > 4 else "deterministic")
                return call(f"mlp.evaluate.{mode}", original, *args, **kwargs)
            return wrapper
        elif name == "train_sgd":
            def wrapper(*args, **kwargs):
                args = list(args)
                if len(args) > 4:
                    args[4] = self._epoch_hook(args[4])
                elif kwargs.get("on_epoch") is not None:
                    kwargs["on_epoch"] = self._epoch_hook(kwargs["on_epoch"])
                return call(label, original, *args, **kwargs)
            return wrapper
        elif name == "activation":
            def wrapper(x, *args, **kwargs):
                stats[label]["elements"] += getattr(x, "size", 1)
                return call(label, original, x, *args, **kwargs)
            return wrapper
        elif name == "spectral_norm":
            def wrapper(*args, **kwargs):
                res = call(label, original, *args, **kwargs)
                stats[label]["iterations"] += getattr(res, "iterations", 0)
                stats[label]["converged"] += bool(getattr(res, "converged", False))
                return res
            return wrapper
        elif name == "solve_nvac":
            def wrapper(*args, **kwargs):
                evals_before = stats["bounds.eval"]["calls"]
                res = call(label, original, *args, **kwargs)
                stats[label]["converged"] += bool(getattr(res, "converged", False))
                stats[label]["evals"] += stats["bounds.eval"]["calls"] - evals_before
                return res
            return wrapper
        elif name == "ln_cover_fn":
            def wrapper(*args, **kwargs):
                fn = original(*args, **kwargs)
                if not callable(fn):  # a later API may return data, not a callable
                    return fn
                return functools.wraps(fn)(lambda *a, **k: call("bounds.eval", fn, *a, **k))
            return wrapper
        elif name == "load_idx":
            def wrapper(images_path, labels_path, *args, **kwargs):
                stats[label]["bytes"] += _file_bytes(images_path, labels_path)
                return call(label, original, images_path, labels_path, *args, **kwargs)
            return wrapper
        elif module == "checkpoint":
            def wrapper(path, *args, **kwargs):
                res = call(label, original, path, *args, **kwargs)
                stats["checkpoint"]["bytes"] += _file_bytes(path, f"{path}.json")
                return res
            return wrapper

        def wrapper(*args, **kwargs):
            return call(label, original, *args, **kwargs)
        return wrapper

    def _epoch_hook(self, hook):
        def on_epoch(*args, **kwargs):
            return self.call("mlp.train_sgd.on_epoch", hook, *args, **kwargs)
        return on_epoch

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == "noisycover" or n.startswith("noisycover."))]
        for module, name in TARGETS:
            try:
                home = importlib.import_module(f"noisycover.{module}")
            except ImportError:
                home = None
            original = getattr(home, name, None)
            if not callable(original):
                self.missing.append(f"{module}.{name}")
                continue
            wrapper = functools.wraps(original)(self._wrapper(module, name, original))
            for mod in loaded:
                if getattr(mod, name, None) is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)
            self.installed.add((module, name))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    # -- per-layer metrics -----------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans since the last reset.

        A metric whose target is not installed is left out; `missing`
        names the targets.
        """
        st = self.stats
        have = lambda *targets: all(t in self.installed for t in targets)  # noqa: E731
        g = lambda name, key="s": float(st[name][key]) if name in st else 0.0  # noqa: E731
        ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
        out: dict[str, float] = {}

        for sub in CLI_SUBCOMMANDS:
            if have(("cli", f"cmd_{sub}")):
                out[f"cli.{sub}.s"] = g(f"cli.{sub}")
        cli_names = [n for n in st if n.startswith("cli.")]
        out["cli.self.s"] = sum(st[n]["self_s"] for n in cli_names)
        if have(("dataio", "load_idx")):
            out["dataio.load_idx.s"] = g("dataio.load_idx")
            out["dataio.load_idx.bytes"] = g("dataio.load_idx", "bytes")
        if have(("dataio", "split")):
            out["dataio.split.s"] = g("dataio.split")
        if have(("mlp", "cross_entropy_grads")):
            out["mlp.cross_entropy_grads.calls"] = g("mlp.cross_entropy_grads", "calls")
            out["mlp.cross_entropy_grads.s"] = g("mlp.cross_entropy_grads")
        if have(("mlp", "train_sgd"), ("mlp", "cross_entropy_grads")):
            out["mlp.sgd_update.s"] = g("mlp.train_sgd", "self_s")
        if have(("mlp", "train_sgd")):  # the epoch callback: cli's per-epoch stop check
            out["mlp.train_sgd.on_epoch.calls"] = g("mlp.train_sgd.on_epoch", "calls")
            out["mlp.train_sgd.on_epoch.s"] = g("mlp.train_sgd.on_epoch")
        if have(("mlp", "evaluate")):
            for mode in ("deterministic", "expected"):
                out[f"mlp.evaluate.{mode}.calls"] = g(f"mlp.evaluate.{mode}", "calls")
                out[f"mlp.evaluate.{mode}.s"] = g(f"mlp.evaluate.{mode}")
        if have(("mlp", "forward_noisy")):
            out["mlp.forward_noisy.calls"] = g("mlp.forward_noisy", "calls")
            out["mlp.forward_noisy.s"] = g("mlp.forward_noisy")
        if have(("mlp", "activation")):
            out["mlp.activation.calls"] = g("mlp.activation", "calls")
            out["mlp.activation.s"] = g("mlp.activation")
            out["mlp.activation.elements"] = g("mlp.activation", "elements")
        if have(("checkpoint", "save_checkpoint")):
            out["checkpoint.save_checkpoint.s"] = g("checkpoint.save_checkpoint")
        if have(("checkpoint", "load_checkpoint")):
            out["checkpoint.load_checkpoint.s"] = g("checkpoint.load_checkpoint")
        if have(("checkpoint", "save_checkpoint"), ("checkpoint", "load_checkpoint")):
            out["checkpoint.bytes"] = g("checkpoint", "bytes")
        if have(("norms", "quantifiers")):
            out["norms.quantifiers.s"] = g("norms.quantifiers")
        if have(("norms", "spectral_norm")):
            calls = g("norms.spectral_norm", "calls")
            out["norms.spectral_norm.calls"] = calls
            out["norms.spectral_norm.iterations"] = g("norms.spectral_norm", "iterations")
            out["norms.spectral_norm.converged_ratio"] = ratio(
                g("norms.spectral_norm", "converged"), calls)
        if have(("bounds", "ln_cover_fn")):
            out["bounds.eval.calls"] = g("bounds.eval", "calls")
            out["bounds.eval.s"] = g("bounds.eval")
        if have(("genbound", "solve_nvac")):
            solves = g("genbound.solve_nvac", "calls")
            out["genbound.solve_nvac.calls"] = solves
            out["genbound.solve_nvac.s"] = g("genbound.solve_nvac")
            out["genbound.solve_nvac.converged_ratio"] = ratio(
                g("genbound.solve_nvac", "converged"), solves)
            if have(("bounds", "ln_cover_fn")):
                out["genbound.evals_per_solve"] = ratio(
                    g("genbound.solve_nvac", "evals"), solves)
        for fn in ORACLE_FUNCTIONS:
            if have(("oracle", fn)):
                out[f"oracle.{fn}.calls"] = g(f"oracle.{fn}", "calls")
                out[f"oracle.{fn}.s"] = g(f"oracle.{fn}")
        return out
