"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {train,capture,tiled} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree: the program is imported from ``src/``.
One process serves one workload. It sets up at least three times and for at
least four seconds (``setup_s`` is the median), then runs the workload's fit
and eval operations, one at a time and about half the time each, until
``--seconds`` are used, and last checks the conv layer's forward outputs and
its kernel gradient against the physics reference, and the noise of its
noisy optical capture against the specified sigma, once. Rates are medians
over the operations. The last line of standard output is the JSON result;
``perfbench/results/`` receives the full record (environment, samples,
checks and, with ``--trace 1``, every span).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
# FFT workers and BLAS threads. One thread leaves the other cores to the rest
# of the machine: on a shared 2-core host, two workers ran capture at about
# half the single-worker rate and spread train and eval rates more widely.
THREADS = 1


def _set_blas_threads() -> None:
    # Must run before numpy is imported: BLAS reads these once, at load.
    for var in BLAS_VARS:
        os.environ[var] = str(min(THREADS, NPROC))


if __name__ == "__main__":
    _set_blas_threads()
    if not (ROOT / "src" / "opticonv").is_dir():
        sys.exit(f"perfbench: no opticonv sources under {ROOT / 'src'}; run from a source tree")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback

import numpy as np
import scipy

import opticonv
import workloads
from report import NAMED
from tracing import Tracer, layer_metrics

# Set-up repeats at least this often and for at least this long; setup_s is
# the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 4.0


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(name: str, seed: int, seconds: float, workers: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "opticonv").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "workload": name, "seed": seed, "seconds": seconds, "nproc": NPROC, "fft_workers": workers,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "commit": _commit(), "source_sha256": src.hexdigest()[:16],
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def run(
    name: str, seed: int, seconds: float, trace: bool,
    sizes: workloads.Sizes = workloads.Sizes(), results_dir: Path | None = HERE / "results",
) -> dict:
    """One workload run; returns the full record, whose ``result`` is what
    the last output line carries."""
    workers = min(THREADS, NPROC)
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    try:
        setup_s, digests = [], []
        while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl = workloads.WORKLOADS[name](sizes, seed, work, workers)
            t0 = time.perf_counter()
            digests.append(wl.setup())
            setup_s.append(time.perf_counter() - t0)
        rss_after_setup = _peak_rss_mb()

        rates: dict[str, list[float]] = {"fit": [], "eval": []}
        spent = {"fit": 0.0, "eval": 0.0}
        last = {"fit": 0.0, "eval": 0.0}
        accuracies: list[float] = []
        attempted = failed = images = 0
        tracer = Tracer() if trace else None
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            while True:
                # Whichever operation has had less time runs next, so both
                # collect samples for about half the run; fit runs first.
                op = "fit" if spent["fit"] <= spent["eval"] else "eval"
                if all(spent.values()) and time.perf_counter() - start + last[op] > seconds:
                    break
                attempted += 1
                t0 = time.perf_counter()
                try:
                    out = getattr(wl, op)()
                except Exception:  # a failed op is counted, reported and survived
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    out = None
                last[op] = time.perf_counter() - t0
                spent[op] += last[op]
                if out is None:
                    continue
                n = out if op == "fit" else out[0]
                if op == "eval":
                    accuracies.append(out[1])
                rates[op].append(n / last[op])
                images += n
        # Read before the probes, which run after the timed part so that
        # their memory never counts.
        peak_rss = _peak_rss_mb()
        probe_err = wl.probe()
        grad_err = wl.probe_gradient()
        noise_err = wl.probe_noise()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    checks = {
        "ops_all_succeeded": failed == 0,
        "probe_within_rtol": probe_err <= workloads.PROBE_RTOL,
        "kernel_gradient_within_rtol": grad_err <= workloads.GRAD_RTOL,
        "capture_noise_within_rtol": noise_err <= workloads.NOISE_RTOL,
        "accuracy_above_floor": bool(accuracies) and min(accuracies) >= workloads.CHANCE_FLOOR,
        "accuracy_repeats_every_eval": len(set(accuracies)) == 1,
        "setup_repeats_identical": len(set(digests)) == 1,
    }
    if trace:
        metrics = layer_metrics(tracer.spans, images)
        metrics["traced.fit_img_per_s"] = _median(rates["fit"])
        metrics["traced.eval_img_per_s"] = _median(rates["eval"])
        declared = _declared()["per_layer"]
    else:
        metrics = {
            "setup_s": _median(setup_s),
            "peak_rss_mb": peak_rss,
            "fit_img_per_s": _median(rates["fit"]),
            "eval_img_per_s": _median(rates["eval"]),
            "accuracy": _median(accuracies),
        }
        declared = _declared()["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    record = {
        "environment": environment(name, seed, seconds, workers),
        "checks": checks,
        "probe_max_rel_err": probe_err,
        "gradient_rel_err": grad_err,
        "noise_sigma_rel_err": noise_err,
        # The timed part sets peak_rss_mb only if it exceeds the set-up's peak.
        "peak_rss_mb_after_setup": rss_after_setup,
        "peak_rss_mb_after_timed": peak_rss,
        "samples": {"setup_s": setup_s, "fit_img_per_s": rates["fit"], "eval_img_per_s": rates["eval"],
                    "accuracy": accuracies},
        "result": {
            "correct": all(checks.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        },
    }
    if trace:
        record["spans"] = tracer.spans
    if results_dir is not None:
        results_dir.mkdir(exist_ok=True)
        out = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
        out.write_text(json.dumps(record) + "\n")
    return record


def _quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"n={len(xs)} q1={q1:.4g} q3={q3:.4g}"


def print_summary(record: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    env, result = record["environment"], record["result"]
    print(f"perfbench {env['workload']} seed={env['seed']} seconds={env['seconds']}")
    print("environment " + json.dumps(env, sort_keys=True))
    named = dict(zip(("fit_img_per_s", "eval_img_per_s", "accuracy"), NAMED[env["workload"]]))
    for key, m in result["metrics"].items():
        alias = f" ({named[key]})" if key in named else ""
        spread = f"  [{_quartiles(record['samples'][key])}]" if key in record["samples"] else ""
        print(f"{key}{alias} = {m['value']:.6g} {m['unit']}{spread}")
    print(f"probe max relative error {record['probe_max_rel_err']:.3g} (limit {workloads.PROBE_RTOL:g})")
    print(f"probe kernel gradient relative error {record['gradient_rel_err']:.3g} (limit {workloads.GRAD_RTOL:g})")
    print(f"probe capture noise sigma relative error {record['noise_sigma_rel_err']:.3g} (limit {workloads.NOISE_RTOL:g})")
    before, after = record["peak_rss_mb_after_setup"], record["peak_rss_mb_after_timed"]
    phase = "timed part" if after > before else "set-up"
    print(f"peak RSS {before:.1f} MB after set-up, {after:.1f} MB after the timed part: set by the {phase}")
    for check, ok in record["checks"].items():
        print(f"check {check}: {'ok' if ok else 'FAILED'}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if Path(opticonv.__file__).resolve().parent != ROOT / "src" / "opticonv":
        print(f"perfbench: imported opticonv from {opticonv.__file__}, not this tree", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(record)
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
