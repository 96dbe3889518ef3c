#!/usr/bin/env python3
"""noisycover benchmark: end-to-end and per-layer timings of the CLI pipelines.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_eval --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one
                                                       # fresh process each

A run imports noisycover from the checkout's `src/`, writes its inputs from
the seed (setup: imports in fresh interpreters plus the input writes, each
repeated and reported as a median), runs one untimed
warm-up iteration plus a check against an independent reference, then runs
the workload's subcommands in a closed loop with one client until
`--seconds` have passed, checking every output. `--trace 0` reports the
end-to-end metrics. `--trace 1` spends half the time untraced and half
traced, and reports the per-layer metrics, the tracing overhead (traced
minus untraced median wall time) and a per-network-layer kernel probe.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every output
check passed. A context record (machine, versions, BLAS, commit, config
hash, failures, result digest) goes to `.bench_build/perfbench/results/`.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = Path(".bench_build") / "perfbench"  # relative to ROOT, the working directory
SETUP_REPEATS = 5
MIN_ITERATIONS = 3
WORKLOAD_NAMES = ("train_nvac_sweep_verify", "mc_eval")


def import_seconds() -> float:
    """Process start to package imported, in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import noisycover.cli", str(SRC)], check=True)
    return time.perf_counter() - t0


def import_package():
    """Import noisycover from this checkout's src/, never from elsewhere."""
    if not (SRC / "noisycover" / "__init__.py").is_file():
        raise ImportError(f"no noisycover package under {SRC}")
    sys.path.insert(0, str(SRC))
    import noisycover

    if Path(noisycover.__file__).resolve().parent != SRC / "noisycover":
        raise ImportError(f"noisycover imported from {noisycover.__file__}, not {SRC}")


# -- statistics ---------------------------------------------------------------


def fmt_summary(name: str, values: list[float], unit: str) -> str:
    """Median and sample count; for a time also the highest percentile that
    has at least ten samples above it, once that percentile exceeds p50."""
    values = sorted(values)
    line = f"  {name:<24} {statistics.median(values):>12.6g} {unit:<6} n={len(values):<3}"
    k = len(values) - 10  # samples at or below the percentile
    if unit == "s":
        line += (f" p{100 * k // len(values)} {values[k - 1]:.6g}" if 2 * k > len(values)
                 else " (tail percentile needs n >= 21)")
    return line


# -- context ------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def context(load_at_start) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": _commit(),
    }


# -- one workload in this process ---------------------------------------------


def loop(workload, seconds: float, iterations: list, all_its: list, after=None) -> None:
    """Closed loop: next iteration only after the previous one ends."""
    t0 = time.perf_counter()
    while True:
        it = workload.iteration()
        iterations.append(it)
        all_its.append(it)
        if after is not None:
            after()
        elapsed = time.perf_counter() - t0
        if len(iterations) >= MIN_ITERATIONS and elapsed + it.wall > seconds:
            return


def run_workload(args) -> int:
    load_at_start = os.getloadavg()
    try:
        import_package()
        from workloads import INPUT_DIM, SGD_BATCH, WIDTHS, WORKLOADS
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START  # this process, with a cold cache

    workdir = BUILD / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](workdir, args.seed)
    try:
        return _measure(args, workload, import_s, load_at_start,
                        (INPUT_DIM,) + WIDTHS, SGD_BATCH)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, import_s, load_at_start, dims, sgd_batch) -> int:
    from probe import format_rows, kernel_probe
    from tracer import Tracer, unit_of

    # setup, repeated: imports in fresh interpreters, then the input files
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(setups)

    warm = workload.iteration()  # lazy set-up and caches; outputs checked too
    workload.reference_check(warm)
    all_its = [warm]
    untraced: list = []
    traced: list = []
    layer_samples: dict[str, list[float]] = {}
    tracer = None
    probe_rows = []
    if args.trace:
        loop(workload, args.seconds / 2, untraced, all_its)
        tracer = Tracer()

        def collect():
            for k, v in tracer.layer_metrics().items():
                layer_samples.setdefault(k, []).append(v)
            tracer.reset()

        tracer.install()
        try:
            loop(workload, args.seconds / 2, traced, all_its, after=collect)
        finally:
            tracer.uninstall()
    else:
        loop(workload, args.seconds, untraced, all_its)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(i.attempted for i in all_its)
    failed = sum(i.failed for i in all_its)
    failures = [f for i in all_its for f in i.failures]
    digests = sorted({i.digest for i in all_its})
    if len(digests) > 1:
        failures.append(f"outputs differ between iterations of one seed: {len(digests)} digests")
    correct = not failures

    walls = [i.wall for i in untraced]
    rates = [r for r in (i.rate(workload.rate_name) for i in untraced) if r is not None]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"config sha256 {workload.config_hash()}")
    print("end-to-end (medians of the untraced iterations):")
    print(fmt_summary("setup_s", [i + s for i, s in zip(imports, setups)], "s"))
    print(fmt_summary("wall_s", walls, "s"))
    for name in untraced[0].rates:
        print(fmt_summary(name, [r for r in (i.rate(name) for i in untraced) if r is not None],
                          "1/s"))
    for phase in untraced[0].phases:
        print(fmt_summary(f"{phase}_s", [i.phases[phase] for i in untraced], "s"))
    print(f"  {'peak_rss_mb':<24} {peak_rss_mb:>12.6g} MB     n=1")
    print(f"  {'error_rate':<24} {failed / attempted:>12.6g} ({failed} of {attempted} operations)")
    for f, count in Counter(failures).items():
        print(f"FAILED {f}" + (f"  (in {count} iterations)" if count > 1 else ""))

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config_sha256": workload.config_hash(),
        "result_digest": digests[0] if len(digests) == 1 else digests,
        "context": context(load_at_start),
        "setup_s": {"import_s": imports, "inputs_s": setups, "first_import_s": import_s},
        "iterations": [{"wall_s": i.wall, "phases_s": i.phases} for i in untraced],
        "attempted": attempted, "failed": failed, "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        overhead = statistics.median(i.wall for i in traced) - statistics.median(walls)
        metrics = {k: statistics.median(v) for k, v in layer_samples.items()}
        metrics["trace.overhead_s"] = overhead
        batches = {"eval": workload.n_train, "sgd": sgd_batch}
        probe_metrics, probe_rows = kernel_probe(dims, batches, args.seed)
        metrics.update(probe_metrics)
        print(f"per-layer (medians of {len(traced)} traced iterations; "
              f"tracing overhead {overhead:+.4f} s per iteration):")
        for k, v in metrics.items():
            if not k.startswith("probe."):
                print(f"  {k:<40} {v:.6g}")
        print("kernel probe, per network layer:")
        print(format_rows(probe_rows))
        if tracer.missing:
            print("missing (target no longer exists): " + ", ".join(tracer.missing))
        record.update(traced_iterations=[{"wall_s": i.wall} for i in traced],
                      trace_overhead_s=overhead, missing_targets=tracer.missing,
                      per_layer=metrics, kernel_probe=probe_rows)
        result_metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        result_metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            # no rate when the subcommand behind it failed in every iteration
            "work_per_s": {"value": statistics.median(rates) if rates else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    print(f"record: {path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


# -- every workload, one fresh process each ------------------------------------


def run_all(args) -> int:
    """Run each workload in a fresh process; combine their result lines.

    Metrics are prefixed with the workload name. Prints no result line when
    any workload printed none.
    """
    worst = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return worst or 1
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return worst if worst else (0 if total["correct"] else 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
