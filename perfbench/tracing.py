"""Span recorder installed around the public functions of ``opticonv``.

Each wrapped call appends one span: name, start, end, parent span and a unit
count (images, frames, pixels, steps) taken from the call's arguments. The
wrapper replaces every module attribute of the ``opticonv`` package that
refers to the original function, because ``network`` and ``cli`` import
``multi_kernel_forward``, ``camera_capture``, ``tile`` and friends by name:
patching ``optics.multi_kernel_forward`` alone would miss every call.
``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

SUBCOMMANDS = ("quantize", "train", "finetune", "eval", "simulate", "perf")


def _n_images(x) -> int:
    return 1 if np.ndim(x) == 2 else len(x)


def _steps(a) -> int:
    return a["config"].epochs_stage1 * math.ceil(len(a["dataset"][0]) / a["config"].batch_size)


def _subcommand(argv) -> str:
    return next((s for s in argv or () if s in SUBCOMMANDS), "none")


# (module, function) -> (span-name suffix or None, unit count) from the bound
# arguments of one call. Some targets feed no metric of their own; wrapping
# them keeps their time out of their caller's self time.
TARGETS = {
    ("network", "train_stage1"): (None, lambda a: len(a["dataset"][0]) * a["config"].epochs_stage1),
    ("network", "conv_fourier_forward"): (lambda a: a.get("mode", "digital"), lambda a: _n_images(a["bits"])),
    ("network", "head_forward"): (None, lambda a: len(a["features"]) if np.ndim(a["features"]) == 4 else 1),
    ("network", "capture_features"): (None, lambda a: _n_images(a["bits"])),
    ("network", "finetune_stage2"): (None, lambda a: len(a["captured"][0])),
    ("network", "features_tiled"): (None, lambda a: math.ceil(len(a["bits"]) / a["layout"].capacity)),
    ("network", "evaluate"): (None, lambda a: len(a["dataset"][0])),
    ("network", "evaluate_tiled"): (None, lambda a: len(a["dataset"][0])),
    ("network", "init_params"): (None, lambda a: 1),
    ("network", "save_checkpoint"): (None, lambda a: 1),
    ("network", "load_checkpoint"): (None, lambda a: 1),
    ("network", "write_trace_csv"): (None, lambda a: 1),
    ("optics", "multi_kernel_forward"): (None, lambda a: len(a["kernels"])),
    ("optics", "camera_capture"): (None, lambda a: np.size(a["intensity"])),
    ("optics", "ideal_aperture"): (None, lambda a: 1),
    ("datapipe", "binarize_gray"): (None, lambda a: 1),
    ("datapipe", "load_mnist"): (None, lambda a: 1),
    ("datapipe", "tile"): (None, lambda a: 1),
    ("datapipe", "untile"): (None, lambda a: 1),
    ("cli", "main"): (lambda a: _subcommand(a.get("argv")), lambda a: 1),
}


class Tracer:
    """Collects spans in memory while installed; never writes on its own."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, suffix, count):
        sig = inspect.signature(fn)
        step_count = fn.__name__ == "train_stage1"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = sig.bind(*args, **kwargs).arguments
            span = {
                "name": name if suffix is None else f"{name}.{suffix(a)}",
                "parent": self._stack[-1] if self._stack else None,
                "n": count(a),
            }
            if step_count:
                span["steps"] = _steps(a)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        for mod_name, _ in TARGETS:
            importlib.import_module(f"opticonv.{mod_name}")
        package = [m for n, m in list(sys.modules.items()) if n == "opticonv" or n.startswith("opticonv.")]
        for (mod_name, attr), (suffix, count) in TARGETS.items():
            original = getattr(sys.modules[f"opticonv.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, suffix, count)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], images: int) -> dict[str, float]:
    """Per-layer figures of one traced run; ``images`` is the number of
    images the timed operations processed. A layer the workload never calls
    reads 0."""
    calls: dict[str, int] = defaultdict(int)
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    units: dict[str, int] = defaultdict(int)
    steps = 0
    for s, o in zip(spans, self_times(spans)):
        calls[s["name"]] += 1
        dur[s["name"]] += s["end"] - s["start"]
        own[s["name"]] += o
        units[s["name"]] += s["n"]
        steps += s.get("steps", 0)

    def per_call(name: str, scale: float, table=dur) -> float:
        return scale * table[name] / calls[name] if calls[name] else 0.0

    def per_unit(name: str, scale: float) -> float:
        return scale * dur[name] / units[name] if units[name] else 0.0

    def per_image(name: str) -> float:
        return calls[name] / images if images else 0.0

    step_ms_per_img = per_unit("network.train_stage1", 1e3)
    forward = per_unit("network.conv_fourier_forward.digital", 1e3)
    head = per_unit("network.head_forward", 1e3)
    return {
        "network.train_stage1.ms_per_step": 1e3 * dur["network.train_stage1"] / steps if steps else 0.0,
        "network.conv_fourier_forward.digital.ms_per_img": forward,
        # derived: step time per image less the forward and head of the eval
        "network.conv_backward.ms_per_img": step_ms_per_img - forward - head if step_ms_per_img and forward else 0.0,
        "network.conv_fourier_forward.optical.ms_per_img": per_unit("network.conv_fourier_forward.optical", 1e3),
        "network.capture_features.ms_per_img": per_unit("network.capture_features", 1e3),
        "network.finetune_stage2.s": per_call("network.finetune_stage2", 1.0),
        "network.features_tiled.ms_per_frame": per_unit("network.features_tiled", 1e3),
        "network.head_forward.ms_per_img": head,
        "network.save_checkpoint.ms": per_call("network.save_checkpoint", 1e3),
        "network.load_checkpoint.ms": per_call("network.load_checkpoint", 1e3),
        "optics.multi_kernel_forward.calls": per_image("optics.multi_kernel_forward"),
        "optics.multi_kernel_forward.self_ms_per_call": per_call("optics.multi_kernel_forward", 1e3, own),
        "optics.camera_capture.calls": per_image("optics.camera_capture"),
        "optics.camera_capture.ms_per_call": per_call("optics.camera_capture", 1e3),
        "optics.camera_capture.px_per_call": per_call("optics.camera_capture", 1.0, units),
        "optics.ideal_aperture.calls": per_image("optics.ideal_aperture"),
        "datapipe.binarize_gray.calls": per_image("datapipe.binarize_gray"),
        "datapipe.binarize_gray.us_per_img": per_unit("datapipe.binarize_gray", 1e6),
        "datapipe.load_mnist.ms": per_call("datapipe.load_mnist", 1e3),
        "datapipe.tile.ms_per_frame": per_unit("datapipe.tile", 1e3),
        "datapipe.untile.ms_per_frame": per_unit("datapipe.untile", 1e3),
        **{
            f"cli.main.{sub}.self_ms": per_call(f"cli.main.{sub}", 1e3, own)
            for sub in ("train", "finetune", "eval")
        },
    }
