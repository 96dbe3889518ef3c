"""Per-network-layer kernel probe, run from outside the program.

For each layer of the benchmark network and for two batch sizes (the
workload's evaluation batch, which is a whole data split, and the SGD
batch) it times the kernels one training or evaluation step runs there:

    matmul      X @ W                       forward pre-activation
    activation  noisycover.mlp.activation   the package's own function
    noise       Generator.standard_normal   one noise draw of the layer
    grad_w      Z.T @ delta                 weight gradient
    grad_x      delta @ W.T                 gradient into the layer's input
                                            (not for layer 1: train_sgd skips it)

Each time is the median of a few repeats after one warm-up call. FLOPs and
bytes are computed from the array shapes (float64, each operand read once
and the result written once) and labelled as computed: they ignore cache
traffic and are not measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 5


def _median_seconds(fn, repeats: int = REPEATS) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_probe(dims: tuple[int, ...], batches: dict[str, int], seed: int):
    """Return (metrics, rows): `probe.L<i>.<batch>.<kernel>.s` times and a
    table row per timed kernel with its shapes and computed FLOPs/bytes.

    The activation rows are left out when the package no longer has
    `mlp.activation`.
    """
    from noisycover import mlp

    activation = getattr(mlp, "activation", None)
    rng = np.random.default_rng(seed)
    metrics: dict[str, float] = {}
    rows = []
    for batch_name, n in batches.items():
        for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:]), start=1):
            x = rng.random((n, fan_in)) if layer == 1 else rng.uniform(-0.5, 0.5, (n, fan_in))
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, (fan_in, fan_out))
            u = x @ w
            delta = rng.standard_normal((n, fan_out))
            mm_flops = 2 * n * fan_in * fan_out
            mm_bytes = 8 * (n * fan_in + fan_in * fan_out + n * fan_out)
            kernels = [
                ("matmul", lambda: x @ w, f"({n},{fan_in})@({fan_in},{fan_out})",
                 mm_flops, mm_bytes),
                ("noise", lambda: rng.standard_normal((n, fan_out)), f"({n},{fan_out})",
                 None, 8 * n * fan_out),
                ("grad_w", lambda: x.T @ delta, f"({fan_in},{n})@({n},{fan_out})",
                 mm_flops, mm_bytes),
            ]
            if activation is not None:
                kernels.insert(1, ("activation", lambda: activation(u), f"({n},{fan_out})",
                                   None, 16 * n * fan_out))
            if layer > 1:
                kernels.append(("grad_x", lambda: delta @ w.T,
                                f"({n},{fan_out})@({fan_out},{fan_in})", mm_flops, mm_bytes))
            for kernel, fn, shape, flops, nbytes in kernels:
                name = f"probe.L{layer}.{batch_name}.{kernel}.s"
                seconds = _median_seconds(fn)
                metrics[name] = seconds
                rows.append({
                    "layer": layer, "batch": batch_name, "n": n, "kernel": kernel,
                    "shape": shape, "s": seconds,
                    "flops_computed": flops, "bytes_computed": nbytes,
                })
    return metrics, rows


def format_rows(rows) -> str:
    lines = [f"{'layer':>5} {'batch':>5} {'kernel':>10} {'shape':>24} {'ms':>9} "
             f"{'GFLOP/s*':>9} {'GB/s*':>7}"]
    for r in rows:
        gflops = f"{r['flops_computed'] / r['s'] / 1e9:9.2f}" if r["flops_computed"] else f"{'-':>9}"
        lines.append(
            f"{r['layer']:>5} {r['batch']:>5} {r['kernel']:>10} {r['shape']:>24} "
            f"{r['s'] * 1e3:9.3f} {gflops} {r['bytes_computed'] / r['s'] / 1e9:7.2f}")
    lines.append("* rates from FLOPs and bytes computed from the shapes, not measured")
    return "\n".join(lines)
