"""Run every workload once and print the benchmark's figures by name.

    python3 perfbench/report.py [--seed N] [--trace]

Each workload runs as its own ``run.py`` process for the ``run_seconds`` that
``BENCHMARK.json`` fixes, one after another, so each
``peak_rss_mb`` belongs to one workload. The report prints the end-to-end
metrics per workload under their workload-level names, the output checks,
and the criterion-3 estimate (minutes for the full MNIST pipeline):

    60000 / train_img_per_s + 6000 / capture_img_per_s
        + 20000 / eval_digital_img_per_s, over 60

which is derived and not gated. With ``--trace`` it also runs each workload
traced, right after its untraced run, and prints the per-layer metrics and
the tracing overhead: the share of the untraced throughput lost when tracing
is on.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train", "capture", "tiled")
NAMED = {  # fit rate, eval rate, accuracy
    "train": ("train_img_per_s", "eval_digital_img_per_s", "digital_accuracy"),
    "capture": ("capture_img_per_s", "eval_optical_img_per_s", "optical_accuracy"),
    "tiled": ("tiled_fit_img_per_s", "tiled_img_per_s", "tiled_accuracy"),
}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("check ", "probe ", "peak RSS ")):
            print(f"  {workload}: {line}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    named: dict[str, float] = {}
    all_correct = True
    for w in WORKLOADS:
        r = run_one(w, args.seed, seconds, trace=False)
        all_correct &= r["correct"] and r["failed"] == 0
        m = r["metrics"]
        print(f"[{w}] correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for key, alias in zip(("fit_img_per_s", "eval_img_per_s", "accuracy"), NAMED[w]):
            named[alias] = m[key]["value"]
            print(f"  {alias:24s} {m[key]['value']:12.4f} {m[key]['unit']}")
        for key in ("setup_s", "peak_rss_mb"):
            print(f"  {key:24s} {m[key]['value']:12.4f} {m[key]['unit']}")
        if not args.trace:
            continue
        # Traced right after the untraced run, so slow drift of the host
        # load shifts both alike.
        t = run_one(w, args.seed, seconds, trace=True)
        all_correct &= t["correct"] and t["failed"] == 0
        print(f"[{w} traced]")
        for key, mt in t["metrics"].items():
            print(f"  {key:48s} {mt['value']:12.4f} {mt['unit']}")
        for op in ("fit", "eval"):
            plain = m[f"{op}_img_per_s"]["value"]
            traced = t["metrics"][f"traced.{op}_img_per_s"]["value"]
            print(f"  tracing overhead, {op}: {100 * (1 - traced / plain):+.1f}% of {plain:.2f} img/s")
    minutes = (
        60000 / named["train_img_per_s"] + 6000 / named["capture_img_per_s"]
        + 20000 / named["eval_digital_img_per_s"]
    ) / 60
    print(f"criterion-3 estimate (derived, not gated): {minutes:.1f} min")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
