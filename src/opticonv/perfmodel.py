"""Analytical throughput/energy model of the accelerator.

Credits the optical system with the operations a digital processor would
spend on the same convolutions and divides by electrical power. Two
accounting modes: the FFT-method count (two transforms plus a kernel-sized
dot product per convolution, the closer analogue of what the optics does)
and the brute-force sliding-kernel count (how a small-kernel GPU layer is
actually computed). The FFT-mode bracket is transcribed literally from the
source accounting, including its (2i-1) log argument and additive kernel
term; a factor 10 = C * 2 covers the C=5 FFT implementation constant and the
two transforms per convolution. Logs are base 2 per the FFT complexity
framing. Neither formula charges DRAM energy: one 20 pJ byte access per input
and output pixel stays orders of magnitude below the device power at the
28x28 presets.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

__all__ = [
    "PerfScenario",
    "GenerationPreset",
    "DEFAULT_POWER_W",
    "GPU_REFERENCE_GOPS_PER_W",
    "ops_per_watt_fft",
    "ops_per_watt_brute",
    "generation_preset",
    "latency",
    "LatencyReport",
    "custom_scenario",
    "sweep_report",
    "write_report_csv",
    "write_report_json",
]

#: Camera (17 W) plus two kernel/input modulator boards (6.3 W each).
DEFAULT_POWER_W = 17.0 + 2 * 6.3

#: Published-magnitude GPU reference points (VGG-16 inference, batch 128,
#: ~90% utilization class of measurement). Context only: reports print them,
#: nothing recomputes or asserts them.
GPU_REFERENCE_GOPS_PER_W = {
    "tesla_m40_vgg16": 24.0,
    "tesla_v100_vgg16_extrapolated": 112.0,
}

#: Per-stage operating rates (Hz) used by the generation presets.
DMD_MAX_HZ = 15_000.0
CAMERA_MAX_HZ = 2_000.0
HDMI_HZ = 60.0
CAMERA_SOFTWARE_HZ = 100.0
PCIE_HZ = 2_000.0

@dataclass(frozen=True)
class PerfScenario:
    """One operating point of the accelerator.

    image_rows x image_cols is the processed image, kernel_rows x kernel_cols
    the convolution kernel, input_parallelism the images per frame,
    kernel_parallelism the kernels per pass, frame_rate_hz the system rate,
    power_w the electrical power.
    """

    image_rows: int
    image_cols: int
    kernel_rows: int = 3
    kernel_cols: int = 3
    input_parallelism: int = 1
    kernel_parallelism: int = 1
    frame_rate_hz: float = 1.0
    power_w: float = DEFAULT_POWER_W
    label: str = ""

    def __post_init__(self) -> None:
        for name in (
            "image_rows", "image_cols", "kernel_rows", "kernel_cols",
            "input_parallelism", "kernel_parallelism",
        ):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v}")
        for name in ("frame_rate_hz", "power_w"):
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {v}")


@dataclass(frozen=True)
class GenerationPreset:
    scenario: PerfScenario
    pipeline_hz: Mapping[str, float]


def ops_per_watt_fft(s: PerfScenario) -> float:
    """Equivalent OPS/W when the digital rival uses FFT convolution.

    [10 * M * log2((2i - 1) * M) * N * log2(N) + m * n] * i * k * f / P,
    transcribed literally from the source accounting.
    """
    m_img, n_img = s.image_rows, s.image_cols
    i, k = s.input_parallelism, s.kernel_parallelism
    bracket = (
        10.0 * m_img * math.log2((2 * i - 1) * m_img) * n_img * math.log2(n_img)
        + s.kernel_rows * s.kernel_cols
    )
    return bracket * i * k * s.frame_rate_hz / s.power_w


def ops_per_watt_brute(s: PerfScenario) -> float:
    """Equivalent OPS/W against brute-force sliding-kernel convolution:
    (M * N * m * n) * i * f * k / P."""
    ops = s.image_rows * s.image_cols * s.kernel_rows * s.kernel_cols
    return ops * s.input_parallelism * s.frame_rate_hz * s.kernel_parallelism / s.power_w


_PRESETS = {
    # name: (input_parallelism, kernel_parallelism, frame rate, interconnect)
    "Gen1.0": (1, 1, 1.0, ("hdmi", HDMI_HZ)),
    "Gen1.1": (49, 1, HDMI_HZ, ("hdmi", HDMI_HZ)),
    "Gen1.2": (49, 2, CAMERA_SOFTWARE_HZ, ("camera-interface", CAMERA_SOFTWARE_HZ)),
    "Gen1.3": (64, 24, PCIE_HZ, ("pcie", PCIE_HZ)),
}


def generation_preset(name: str, high_res: bool = False) -> GenerationPreset:
    """Documented operating points of the four development generations.

    Parallelism steps 1x1 -> 49x1 -> 49x2 -> 64x24 with frame rates from
    1 Hz to 2 kHz. Image geometry defaults to 28x28 sources; ``high_res``
    switches to full-frame 1920x1080 sizing (the projected Gen1.3 mode).
    Every rate is overridable by building a PerfScenario directly.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown generation {name!r}; choose from {sorted(_PRESETS)}")
    i, k, f, (link_name, link_hz) = _PRESETS[name]
    rows, cols = (1080, 1920) if high_res else (28, 28)
    scenario = PerfScenario(
        image_rows=rows,
        image_cols=cols,
        kernel_rows=3,
        kernel_cols=3,
        input_parallelism=i,
        kernel_parallelism=k,
        frame_rate_hz=f,
        label=name,
    )
    # Interconnect first: when stage rates tie, the upstream-most minimal
    # stage is reported as the bottleneck (latency() iterates in order).
    pipeline = {
        link_name: link_hz,
        "camera": CAMERA_MAX_HZ if name == "Gen1.3" else min(CAMERA_SOFTWARE_HZ, CAMERA_MAX_HZ),
        "dmd": DMD_MAX_HZ,
    }
    return GenerationPreset(scenario=scenario, pipeline_hz=pipeline)


@dataclass(frozen=True)
class LatencyReport:
    total_s: float
    bottleneck: str


def latency(pipeline_hz: Mapping[str, float]) -> LatencyReport:
    """End-to-end latency (sum of stage latencies) and the bottleneck
    (slowest) stage's name. Ties resolve to the first minimal stage in table
    order."""
    if not pipeline_hz:
        raise ValueError("pipeline stage table is empty")
    for stage, rate in pipeline_hz.items():
        if rate <= 0:
            raise ValueError(f"stage {stage!r} must have a positive rate")
    total = sum(1.0 / rate for rate in pipeline_hz.values())
    bottleneck = min(pipeline_hz, key=pipeline_hz.__getitem__)
    return LatencyReport(total_s=total, bottleneck=bottleneck)


REPORT_SCHEMA_VERSION = 1
REPORT_COLUMNS = (
    "generation", "mode", "M", "N", "m", "n", "i", "k",
    "f_hz", "P_w", "ops_per_watt", "latency_s", "bottleneck",
)

_MODES = {"fft": ops_per_watt_fft, "brute": ops_per_watt_brute}


def sweep_report(
    presets: Sequence[GenerationPreset], modes: Sequence[str] = ("fft", "brute")
) -> list[dict]:
    """One row per (preset, accounting mode): OPS/W, latency, bottleneck."""
    if not presets:
        raise ValueError("at least one preset required")
    rows = []
    for preset in presets:
        s = preset.scenario
        lat = latency(preset.pipeline_hz)
        for mode in modes:
            if mode not in _MODES:
                raise ValueError(f"unknown mode {mode!r}")
            row = {
                "generation": s.label,
                "mode": mode,
                "M": s.image_rows,
                "N": s.image_cols,
                "m": s.kernel_rows,
                "n": s.kernel_cols,
                "i": s.input_parallelism,
                "k": s.kernel_parallelism,
                "f_hz": s.frame_rate_hz,
                "P_w": s.power_w,
                "ops_per_watt": _MODES[mode](s),
                "latency_s": lat.total_s,
                "bottleneck": lat.bottleneck,
            }
            # a figure that overflows would reach perf.json as a bare Infinity, not JSON
            bad = [k for k, v in row.items() if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                raise ValueError(f"scenario {s.label!r} ({mode}): {', '.join(bad)} not finite")
            rows.append(row)
    return rows


def write_report_csv(rows: Sequence[dict], path: str | Path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in REPORT_COLUMNS})
    return path


def write_report_json(rows: Sequence[dict], path: str | Path) -> Path:
    path = Path(path)
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "gpu_reference_gops_per_w": GPU_REFERENCE_GOPS_PER_W,
        "rows": list(rows),
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def custom_scenario(
    image_rows: int,
    image_cols: int,
    input_parallelism: int = 1,
    kernel_parallelism: int = 1,
    frame_rate_hz: float = 1.0,
    label: str = "custom",
) -> GenerationPreset:
    """Wrap ad-hoc parameters as a preset so they can join a sweep; the
    kernel is 3x3 and the power ``DEFAULT_POWER_W``, as in the presets."""
    scenario = PerfScenario(
        image_rows, image_cols, input_parallelism=input_parallelism, kernel_parallelism=kernel_parallelism,
        frame_rate_hz=frame_rate_hz, label=label,
    )
    pipeline = {"dmd": DMD_MAX_HZ, "camera": CAMERA_SOFTWARE_HZ}
    return GenerationPreset(scenario=scenario, pipeline_hz=pipeline)
