"""Smoke tests of the benchmark itself, at reduced sizes.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import opticonv  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _one_setup_round(monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_SECONDS", 0.0)


def _attributes() -> dict:
    mods = [m for n, m in sys.modules.items() if n == "opticonv" or n.startswith("opticonv.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_benchmark_json_names_workloads_and_bounds():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_passes_checks(name):
    record = run.run(name, seed=3, seconds=0.1, trace=False, sizes=workloads.TINY, results_dir=None)
    result = record["result"]
    assert result["correct"], record["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_per_layer_names_and_unwraps(name):
    before = _attributes()
    record = run.run(name, seed=4, seconds=0.1, trace=True, sizes=workloads.TINY, results_dir=None)
    after = _attributes()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert record["result"]["correct"], record["checks"]
    metrics = {k: m["value"] for k, m in record["result"]["metrics"].items()}
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}
    assert record["spans"] and all(s["end"] >= s["start"] for s in record["spans"])


def test_capture_counts_one_optical_pass_per_kernel_pair():
    sizes = workloads.TINY
    record = run.run("capture", seed=5, seconds=0.1, trace=True, sizes=sizes, results_dir=None)
    m = {k: v["value"] for k, v in record["result"]["metrics"].items()}
    assert m["optics.multi_kernel_forward.calls"] == sizes.n_kernels // 2
    assert m["optics.ideal_aperture.calls"] == sizes.n_kernels // 2
    assert m["optics.camera_capture.calls"] == sizes.n_kernels
    assert m["optics.camera_capture.px_per_call"] == sizes.grid**2
    assert m["datapipe.binarize_gray.calls"] == 1


def test_wrapper_reaches_names_imported_into_other_modules():
    from tracing import Tracer

    with Tracer() as tracer:
        assert opticonv.network.multi_kernel_forward is opticonv.optics.multi_kernel_forward
        assert opticonv.cli.camera_capture is opticonv.network.camera_capture
        opticonv.datapipe.binarize_gray(np.ones((2, 2)), 0.5)
    assert [s["name"] for s in tracer.spans] == ["datapipe.binarize_gray"]
    assert opticonv.network.tile is opticonv.datapipe.tile


def test_gradient_probe_catches_a_wrong_kernel_gradient(monkeypatch, tmp_path):
    wl = workloads.Train(workloads.TINY, 6, tmp_path, 1)
    wl.setup()
    assert wl.probe_gradient() <= workloads.GRAD_RTOL
    loss_and_grads = opticonv.network._loss_and_grads

    def skewed(*args, **kwargs):
        loss, acc, grads = loss_and_grads(*args, **kwargs)
        grads["fourier_kernels"] = grads["fourier_kernels"] * 1.001
        return loss, acc, grads

    monkeypatch.setattr(opticonv.network, "_loss_and_grads", skewed)
    assert wl.probe_gradient() > workloads.GRAD_RTOL


def test_noise_probe_catches_a_wrong_capture_noise(monkeypatch, tmp_path):
    wl = workloads.Capture(workloads.TINY, 7, tmp_path, 1)
    wl.setup()
    assert wl.probe_noise() <= workloads.NOISE_RTOL
    camera_capture = opticonv.network.camera_capture

    def noisier(intensity, noise, rng=None):
        if noise is not None:
            noise = dataclasses.replace(noise, sigma=1.2 * noise.sigma)
        return camera_capture(intensity, noise, rng=rng)

    monkeypatch.setattr(opticonv.network, "camera_capture", noisier)
    assert wl.probe_noise() > workloads.NOISE_RTOL
