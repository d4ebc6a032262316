"""Hybrid classifier: one Fourier-domain binary-kernel convolution layer done
optically (or by its exact digital equivalent), then max-pool and two fully
connected layers in the electronic domain.

Training is two-staged. Stage 1 trains everything jointly in the noise-free
digital mode; kernel masters are real-valued and binarized in the forward
pass (straight-through estimator for the backward pass). Stage 2 freezes the
kernels and retrains only the fully connected head on captured outputs of the
noisy optical path, absorbing gains and distortions the simulation does not
model.

Gradients are hand-derived for this fixed architecture; there is no autograd.
The convolution layer's backward cross-correlates the output-window gradient
with the input on the forward's small grid, which gives the gradient at each
impulse-response lag, and maps it to the Fourier-plane kernel bins through the
adjoint of the impulse-response transform.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import scipy.fft

from .datapipe import DataFormatError, TileLayout, tile
from .optics import NoiseSpec, OpticalConfig, camera_capture, order_offset_px

__all__ = [
    "ModelParams",
    "TrainConfig",
    "EvalResult",
    "TrainingDivergedError",
    "init_params",
    "binarized_kernels",
    "conv_fourier_forward",
    "head_forward",
    "train_stage1",
    "capture_features",
    "finetune_stage2",
    "predict",
    "evaluate",
    "features_tiled",
    "evaluate_tiled",
    "save_checkpoint",
    "load_checkpoint",
    "write_trace_csv",
]

HIGHPASS_HALF = 1  # center (2*HALF+1)^2 = 3x3 Fourier bins forced to zero
STE_CLIP = 1.0

_NORM_EPS = 1e-30

_PREDICT_BATCH = 256  # images per conv pass in predict and evaluate

_DTYPES = {"float32": np.float32, "float64": np.float64}

# Bytes of one block of spectra that the conv engine multiplies, transforms
# and squares together: half a common per-core L2, so that a block and the
# buffers its passes write stay in cache. On a 2-core Xeon with 2 MiB of L2
# per core, 1 MiB blocks made the tiled G=256 frame (one complex128
# spectrum per block) ~8% faster than 2 MiB blocks and timed the stage-1
# step alike; the whole batch at once was ~1.4x slower.
_BLOCK_BYTES = 1 << 20


def _blocks(n: int, unit_bytes: int) -> list[slice]:
    """Consecutive slices of ``range(n)``, each as many units of
    ``unit_bytes`` as fill one ``_BLOCK_BYTES`` block, and at least one."""
    step = max(1, _BLOCK_BYTES // unit_bytes)
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class ModelParams:
    """Kernel bank (float masters, Fourier domain) plus the dense head.

    The reference instance carries 16 kernels on the training grid with a
    256-unit hidden layer; smaller instances are used for gradient checks.

    Each instance builds the engine's kernel spectrum once per real dtype,
    on first use, and keeps it read-only; the first build also makes
    ``fourier_kernels`` read-only, so no spectrum goes stale. Write no array
    after the first forward: ``dataclasses.replace`` starts with no spectra.
    """

    fourier_kernels: np.ndarray  # (K, G, G) float masters
    fc1_w: np.ndarray  # (D, hidden)
    fc1_b: np.ndarray  # (hidden,)
    fc2_w: np.ndarray  # (hidden, n_classes)
    fc2_b: np.ndarray  # (n_classes,)
    highpass_mask_enabled: bool
    image_hw: tuple[int, int]
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.fourier_kernels.ndim != 3 or self.fourier_kernels.shape[1] != self.fourier_kernels.shape[2]:
            raise ValueError("fourier_kernels must be (K, G, G)")
        h, w = self.image_hw
        if h % 2 or w % 2:
            raise ValueError("native image window must have even sides for 2x2 pooling")
        if h > self.grid or w > self.grid:
            raise ValueError(f"native image window {(h, w)} exceeds the {self.grid}-px grid")
        w1, b1, w2, b2 = (a.shape for a in (self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b))
        if (len(w1), len(w2)) != (2, 2) or b1 != w1[1:] or w2[:1] != b1 or b2 != w2[1:]:
            raise ValueError(f"head shapes {w1}, {b1}, {w2}, {b2} are not (D, H), (H,), (H, C), (C,)")
        k = self.fourier_kernels.shape[0]
        if self.fc1_w.shape[0] != k * (h // 2) * (w // 2):
            raise ValueError(
                f"fc1 expects {self.fc1_w.shape[0]} features, conv layer yields "
                f"{k * (h // 2) * (w // 2)}"
            )

    @property
    def n_kernels(self) -> int:
        return self.fourier_kernels.shape[0]

    @property
    def grid(self) -> int:
        return self.fourier_kernels.shape[1]

    @property
    def n_classes(self) -> int:
        return self.fc2_w.shape[1]

    def _kernel_spec(self, rdtype) -> np.ndarray:
        """The read-only ``_kernel_spectrum`` of this bank in the complex
        dtype of ``rdtype``, built on first use."""
        key = np.dtype(rdtype)
        if key not in self._spectra:
            self._spectra[key] = spec = _kernel_spectrum(self, key)
            spec.flags.writeable = self.fourier_kernels.flags.writeable = False
        return self._spectra[key]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and reproducibility knobs for both training stages.

    ``dtype`` is the training arithmetic, one rule for both stages: the
    stage-1 conv layer and pool, and the head's feature-sized GEMMs (three
    in stage 1, the forward and the fc1_w gradient in stage 2), run in it.
    The bias adds, fc2, the softmax and the loss run in float64, as do the
    masters and the optimizer's velocities. The CLI runs the stage-2 capture
    and eval, digital or optical, in it too. The conv engine's library
    defaults (``conv_fourier_forward``, ``capture_features``, ``predict``,
    ``evaluate``) and the physics probes run float64.

    Nothing in the package reads ``grid`` or ``noise``: ``train_stage1``
    takes its parameters, grid included, and captures take their noise as
    an argument. The two fields stay only because the benchmark's
    ``perfbench/workloads.py`` still passes them."""

    lr_stage1: float = 0.01
    lr_stage2: float = 0.005
    momentum: float = 0.9
    batch_size: int = 64
    epochs_stage1: int = 10
    epochs_stage2: int = 5
    seed: int = 0
    noise: NoiseSpec = NoiseSpec(sigma=0.1, seed=1)
    grid: int = 256
    dtype: str = "float32"  # training arithmetic, see above

    def __post_init__(self) -> None:
        for name in ("lr_stage1", "lr_stage2"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs_stage1 < 1 or self.epochs_stage2 < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _real_dtype(self.dtype)


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # (n_classes, n_classes), rows = true class
    n_samples: int


def init_params(
    seed: int,
    n_kernels: int = 16,
    grid: int = 256,
    image_hw: tuple[int, int] = (28, 28),
    n_classes: int = 10,
    hidden: int = 256,
    highpass_mask_enabled: bool = True,
) -> ModelParams:
    """Seeded initialization: kernel masters uniform in [-0.5, 0.5] directly
    in the Fourier domain, Glorot-uniform dense layers, zero biases."""
    rng = np.random.default_rng(seed)

    def uniform(low: float, high: float, size: tuple[int, ...]) -> np.ndarray:
        # rng.uniform(low, high, size) bit for bit (low + (high - low) * u,
        # the stream drawn in order), scaled in place one cache block at a time
        x = np.empty(size)
        flat = x.reshape(-1)
        for block in _blocks(flat.size, x.itemsize):
            part = flat[block]
            rng.random(out=part)
            part *= high - low
            part += low
        return x

    kernels = uniform(-0.5, 0.5, (n_kernels, grid, grid))
    d = n_kernels * (image_hw[0] // 2) * (image_hw[1] // 2)

    def glorot(n_in: int, n_out: int) -> np.ndarray:
        lim = np.sqrt(6.0 / (n_in + n_out))
        return uniform(-lim, lim, (n_in, n_out))

    params = ModelParams(
        fourier_kernels=kernels,
        fc1_w=glorot(d, hidden),
        fc1_b=np.zeros(hidden),
        fc2_w=glorot(hidden, n_classes),
        fc2_b=np.zeros(n_classes),
        highpass_mask_enabled=highpass_mask_enabled,
        image_hw=image_hw,
    )
    return _apply_mask_to_masters(params)


# ---------------------------------------------------------------------------
# the binary kernel bank


def _mask_centre(a: np.ndarray) -> np.ndarray:
    """Apply the high-pass mask to ``a`` (..., G, G) in place. Only the
    centre bins are multiplied (by 0): x * 1.0 == x bitwise elsewhere."""
    c = a.shape[-1] // 2
    a[..., c - HIGHPASS_HALF : c + HIGHPASS_HALF + 1, c - HIGHPASS_HALF : c + HIGHPASS_HALF + 1] *= 0.0
    return a


def binarized_kernels(params: ModelParams) -> np.ndarray:
    """The hardware view of the bank: ``_shifted_bank`` in float64 and
    centred coordinates. The shift only permutes 0/1 bins, so it is exact."""
    bank = _shifted_bank(params.fourier_kernels, params.highpass_mask_enabled, np.float64)
    return scipy.fft.fftshift(bank, axes=(-2, -1))


def _shifted_bank(masters: np.ndarray, highpass: bool, dtype) -> np.ndarray:
    """The one rule from masters (k, G, G) to the binary bank: a mirror is on
    where its master is > 0, and the centre bins are dark if ``highpass``.
    Non-finite masters are rejected. Each quadrant is binarized straight into
    its ifftshifted place, so the centre mask lands on the corner bins."""
    if not np.all(np.isfinite(masters)):
        raise ValueError("kernel masters must be finite")
    g = masters.shape[-1]
    c = g // 2  # ifftshift moves bin (i + c) % g to i
    bank = np.empty(masters.shape, dtype=dtype)
    halves = ((slice(0, g - c), slice(c, g)), (slice(g - c, g), slice(0, c)))
    for dst_r, src_r in halves:
        for dst_c, src_c in halves:
            np.greater(masters[:, src_r, src_c], 0, out=bank[:, dst_r, dst_c])
    if highpass:
        corner = np.arange(-HIGHPASS_HALF, HIGHPASS_HALF + 1) % g
        bank[:, corner[:, None], corner] = 0
    return bank


def _apply_mask_to_masters(params: ModelParams) -> ModelParams:
    # Reapplied after every optimizer step so masked bins stay binarized to 0.
    # The masters must be a fresh array the caller owns: they are masked in place.
    if params.highpass_mask_enabled:
        _mask_centre(params.fourier_kernels)
    return params


# ---------------------------------------------------------------------------
# transform engine
#
# The input is an h x w window on the G x G grid and only that window is read
# back, so the centered 4f path reduces to a convolution of the window with
# the kernel's impulse response p_k = ifft2(ifftshift(B_k)) at the lags
# [-(h-1), h-1] x [-(w-1), w-1] (the centering shifts cancel between the input
# embedding and the output crop). Those lags fit without aliasing on a small
# grid of n >= 2h-1 per axis, so the batch is transformed at n = min(
# next_fast_len(2h-1), G) instead of G. The kernel's spectrum on the small
# grid is resampled from B_k one axis at a time by a dense lag operator; an
# axis already at G keeps B_k's exact bins. The backward maps the gradient at
# each lag back to the G bins with the same operators. Cross-checked against
# the optics-module path, the direct-convolution oracle and the FFT form of
# the resample by the equivalence tests.


@functools.lru_cache(maxsize=16)
def _lag_operator(n: int, h: int, size: int, dtype: np.dtype) -> np.ndarray:
    """Read-only (size, n) matrix from an unshifted length-n spectrum to the
    length-size spectrum of its lags [-(h-1), h-1]:
    M[f', f] = (1/n) sum_d exp(-2 pi i f' d / size) exp(+2 pi i f d / n).
    The lags are symmetric, so the sum is a Dirichlet kernel and M is real.
    Built in float64 with the phases reduced exactly, then cast."""
    d = np.arange(-(h - 1), h)
    to_lags = np.exp(2j * np.pi * (np.outer(d, np.arange(n)) % n) / n) / n
    from_lags = np.exp(-2j * np.pi * (np.outer(np.arange(size), d) % size) / size)
    op = (from_lags @ to_lags).real.astype(dtype)
    op.flags.writeable = False
    return op


@functools.lru_cache(maxsize=16)
def _gradient_operator(n: int, h: int, g: int, dtype: np.dtype) -> np.ndarray:
    """Read-only (g, n) map of one axis of the kernel-gradient adjoint: the
    lag operator to the G grid (the identity when n == g, whose bins are
    kept) with fftshift and a factor 1/g folded into its rows."""
    m = np.eye(g) if n == g else _lag_operator(n, h, g, np.dtype(np.float64))
    op = (np.roll(m, g // 2, axis=0) / g).astype(dtype)
    op.flags.writeable = False
    return op


def _resample_spectrum(spec: np.ndarray, window: tuple[int, int], sizes: tuple[int, int]) -> np.ndarray:
    """Spectrum on a grid of ``sizes`` of the window lags [-(h-1), h-1] of
    ``spec`` (unshifted spectra on the last two axes), zero at other lags.

    Only axes whose length changes are mapped, the last axis first; both
    lengths of such an axis are at least 2h-1, so the lags do not overlap on
    either. The operators are real: a real bank has a real resample."""
    dtype = np.finfo(spec.dtype).dtype
    (h, w), (n_h, n_w) = window, spec.shape[-2:]
    if n_w != sizes[1]:
        spec = spec @ _lag_operator(n_w, w, sizes[1], dtype).T
    if n_h != sizes[0]:
        spec = _lag_operator(n_h, h, sizes[0], dtype) @ spec
    return spec


def _kernel_spectrum(params: ModelParams, rdtype, bank_override: np.ndarray | None = None) -> np.ndarray:
    """The engine's kernel operand: the complex spectrum (K, n_h, n_w) of the
    binarized bank, or of ``bank_override`` (centered coordinates), on the
    small grid of the native window, in the complex dtype of ``rdtype``.

    The bank is built in blocks of kernels whose bank fits
    ``_BLOCK_BYTES``, so that the full-grid bank is never held whole. matmul
    runs one GEMM per kernel, so the blocks give the bits of one resample of
    the whole bank."""
    window = params.image_hw
    sizes = tuple(min(scipy.fft.next_fast_len(2 * s - 1), params.grid) for s in window)
    if bank_override is not None:
        bank = scipy.fft.ifftshift(np.asarray(bank_override, dtype=rdtype), axes=(-2, -1))
        spec = _resample_spectrum(bank, window, sizes)
    else:
        masters, highpass = params.fourier_kernels, params.highpass_mask_enabled
        spec = np.concatenate([
            _resample_spectrum(_shifted_bank(masters[block], highpass, rdtype), window, sizes)
            for block in _blocks(len(masters), masters[0].size * np.dtype(rdtype).itemsize)
        ])
    return spec.astype(np.result_type(rdtype, np.complex64))


def _kernel_gradient(corr: np.ndarray, window: tuple[int, int], g: int) -> np.ndarray:
    """Gradient (K, G, G), in the real dtype of ``corr``, at the centered
    kernel bins of the loss whose gradient at each impulse-response lag has
    the small-grid spectrum ``corr`` (K, n_h, n_w): fftshift(Re(resample of
    corr to G x G)) / G^2, the adjoint of p = ifft2(B). The operators are
    real, so only Re(corr) enters, and the shift and 1/G^2 are folded into
    them: two real GEMMs."""
    n_h, n_w = corr.shape[-2:]
    dtype = np.finfo(corr.dtype).dtype
    rows = np.ascontiguousarray(corr.real) @ _gradient_operator(n_w, window[1], g, dtype).T
    return _gradient_operator(n_h, window[0], g, dtype) @ rows


# ---------------------------------------------------------------------------
# convolution layer forward


def _real_dtype(dtype: str) -> type:
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    return _DTYPES[dtype]


def _normalize_features(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Per-frame gain normalization to unit max, in place: squared-magnitude
    # outputs vary over orders of magnitude and the head retraining absorbs
    # static gain.
    b = raw.shape[0]
    peak = raw.reshape(b, math.prod(raw.shape[1:])).max(axis=1)
    peak = np.maximum(peak, _NORM_EPS)
    raw /= peak[:, None, None, None]
    return raw, peak


def _inverse_windows(
    spectrum: np.ndarray,
    kernel_spec: np.ndarray,
    rows: slice | np.ndarray,
    cols: slice | np.ndarray,
    rdtype: type,
    workers: int,
    keep_fields: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Intensity |U|^2 and field U (B, K, R, C) of every input spectrum
    (B, n, m) times every kernel spectrum (K, n, m), inverted and read at
    output ``rows`` and ``cols`` (slices or index arrays). Without
    ``keep_fields`` the fields are not written and None stands in their
    place.

    The work runs in blocks whose spectra fit ``_BLOCK_BYTES``: blocks of
    images, or of kernels of one image when its K spectra do not fit. Each
    block is multiplied, inverted in place, read out and squared while it is
    in cache; pocketfft gives the same bits for any split. The inverse is
    ifft2 with the row pass run only on the rows read: the column pass
    unnormalized, then 1/(n m) on the kept rows' real and imaginary parts,
    as ifft2 scales after its first pass. That order gives ifft2's bits."""
    (b, n, m), k = spectrum.shape, len(kernel_spec)
    n_rows, n_cols = np.arange(n)[rows].size, np.arange(m)[cols].size
    scale = 1 / (n * m)
    spectrum_bytes = n * m * spectrum.itemsize
    image_blocks = _blocks(b, k * spectrum_bytes)  # 1 image each when K spectra exceed a block
    kernel_blocks = _blocks(k, spectrum_bytes)
    if image_blocks and kernel_blocks:  # the first blocks are the largest
        block = np.empty((image_blocks[0].stop, kernel_blocks[0].stop, n, m), dtype=spectrum.dtype)
    fields = np.empty((b, k, n_rows, n_cols), dtype=spectrum.dtype) if keep_fields else None
    intensity = np.empty((b, k, n_rows, n_cols), dtype=rdtype)
    for images in image_blocks:
        for kernels in kernel_blocks:
            out = images, kernels
            filtered = block[: images.stop - images.start, : kernels.stop - kernels.start]
            np.multiply(spectrum[images, None], kernel_spec[kernels], out=filtered)
            by_col = scipy.fft.ifft(filtered, axis=-2, norm="forward", overwrite_x=True, workers=workers)
            kept = by_col[..., rows, :]
            kept.view(rdtype)[...] *= scale
            window = scipy.fft.ifft(kept, axis=-1, norm="forward", overwrite_x=True, workers=workers)
            # np.take keeps the gathered copy C-ordered; a slice stays a view
            window = window[..., cols] if isinstance(cols, slice) else np.take(window, cols, axis=-1)
            if keep_fields:
                fields[out] = window
            np.square(window.real, out=intensity[out])
            intensity[out] += np.square(window.imag)
    return intensity, fields


def _conv_digital(
    bits: np.ndarray,
    params: ModelParams,
    dtype: str = "float64",
    workers: int = 1,
    keep_fields: bool = True,
    kernel_spec: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Intensity |U|^2 and complex field U of every kernel's output window
    (B, K, h, w), and the batch spectrum on the small grid that the backward
    pass correlates against. Without ``keep_fields`` the fields are not
    written and None stands in their place. ``kernel_spec`` substitutes
    another bank's spectrum in ``dtype`` for that of ``params``."""
    rdtype = _real_dtype(dtype)
    h, w = params.image_hw
    bits = np.asarray(bits, dtype=rdtype)
    if bits.shape[1:] != (h, w):
        raise ValueError(f"batch {bits.shape} does not match native window {(h, w)}")
    kernel_spec = params._kernel_spec(rdtype) if kernel_spec is None else kernel_spec
    spectrum = scipy.fft.fft2(bits, s=kernel_spec.shape[-2:], workers=workers)
    intensity, fields = _inverse_windows(
        spectrum, kernel_spec, slice(0, h), slice(0, w), rdtype, workers, keep_fields
    )
    return intensity, fields, spectrum


def _require_capturable(
    bits: np.ndarray, params: ModelParams, config: OpticalConfig, noise: NoiseSpec | None
) -> None:
    """The bench's rejections, made before any capture work: camera binning
    would shrink the feature windows the head reads, kernel pairs need
    diffraction order 1 on the kernel-side array when K >= 2, and the
    micromirrors modulate binary amplitude only."""
    if noise is not None and noise.bin_factor > 1:
        raise ValueError(
            f"optical capture needs camera bin_factor 1, got {noise.bin_factor}: "
            "binning would shrink the feature windows the head reads"
        )
    if params.n_kernels >= 2:
        order_offset_px(1, config)  # kernel pairs use orders 0 and 1
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("micromirror input must be binary (0/1)")


def _capture(
    bits: np.ndarray, params: ModelParams, noise: NoiseSpec | None, rng: np.random.Generator | None,
    group: int, windows: Callable[[np.ndarray], np.ndarray], rdtype: type,
) -> np.ndarray:
    """The camera half of both optical paths. ``windows(part)`` gives the
    ``rdtype`` intensity windows (len(part), K, h, w) of a run of at most
    ``group`` images of ``bits``; each run goes through the camera model in
    order, drawing from one noise stream (``rng``, or one seeded by
    ``noise``), into one ``rdtype`` output gain-normalized per image. The
    camera computes in float64 whatever ``rdtype``, so a float32 capture
    draws the float64 capture's normals."""
    if noise is not None and rng is None:
        rng = np.random.default_rng(noise.seed)
    out = np.empty((len(bits), params.n_kernels, *params.image_hw), dtype=rdtype)
    for s in range(0, len(bits), group):
        part = bits[s : s + group]
        out[s : s + len(part)] = camera_capture(windows(part), noise, rng=rng)
    return _normalize_features(out)[0]


def _conv_optical(
    bits: np.ndarray,
    params: ModelParams,
    config: OpticalConfig,
    noise: NoiseSpec | None,
    rng: np.random.Generator | None,
    dtype: str,
    workers: int,
) -> np.ndarray:
    """Each image captured on its own frame: the engine's windows in
    ``dtype`` through the camera model, gain-normalized per image in
    ``dtype``.

    Behind an ideal aperture each kernel of a pair on diffraction orders 0
    and 1 gives its single-kernel 4f output, which on the image window is
    the engine's convolution at the same absolute scale (the two
    orthonormal lens transforms scale by 1/G^2, as the engine's inverse
    does), so the camera's dark floor keeps its meaning. The images run in
    groups whose windows fit ``_BLOCK_BYTES`` and share one kernel
    spectrum; the camera draws its noise in the output's order, so the
    groups give the bits of one capture of the batch."""
    rdtype = _real_dtype(dtype)
    bits = np.asarray(bits)
    _require_capturable(bits, params, config, noise)
    image_bytes = np.dtype(rdtype).itemsize * params.n_kernels * math.prod(params.image_hw)
    group = _blocks(max(len(bits), 1), image_bytes)[0].stop  # with no images any group >= 1 will do

    def windows(part: np.ndarray) -> np.ndarray:
        return _conv_digital(part, params, dtype, workers, keep_fields=False)[0]

    return _capture(bits, params, noise, rng, group, windows, rdtype)


def conv_fourier_forward(
    bits: np.ndarray,
    params: ModelParams,
    mode: str = "digital",
    config: OpticalConfig | None = None,
    noise: NoiseSpec | None = None,
    rng: np.random.Generator | None = None,
    dtype: str = "float64",
    workers: int = 1,
) -> np.ndarray:
    """Feature maps of the Fourier convolution layer, one per kernel.

    Digital mode computes |IFT(FT(x) * B(w))|^2 per kernel and crops to the
    native image window. Optical mode runs the same engine, with the bench's
    rejections, and passes its windows through the camera model; with noise
    off it equals digital mode bitwise. Both modes run in ``dtype`` and
    return it. Outputs are gain-normalized per frame. A single 2-D image is
    a batch of one.

    The kernel spectrum is built on the first call for ``params`` in
    ``dtype`` and reused by every later one (see ``ModelParams``), so a
    caller that runs many batches loads the bank once.
    """
    _real_dtype(dtype)
    bits = np.asarray(bits)
    if bits.ndim == 2:
        bits = bits[None]
    if mode == "digital":
        intensity = _conv_digital(bits, params, dtype=dtype, workers=workers, keep_fields=False)[0]
        return _normalize_features(intensity)[0]
    if mode != "optical":
        raise ValueError(f"unknown mode {mode!r}")
    config = OpticalConfig() if config is None else config
    return _conv_optical(bits, params, config, noise, rng, dtype, workers)


# ---------------------------------------------------------------------------
# head


def _maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 max-pool, stride 2, over the last two axes."""
    return np.maximum(
        np.maximum(x[..., 0::2, 0::2], x[..., 0::2, 1::2]),
        np.maximum(x[..., 1::2, 0::2], x[..., 1::2, 1::2]),
    )


def _maxpool2_backward(grad: np.ndarray, x: np.ndarray, pooled: np.ndarray) -> np.ndarray:
    """Route each pooled gradient to the first maximum of its 2x2 block in
    row-major order (``argmax``'s tie rule); +0.0 everywhere else.

    Each of the four block positions is written once, as the gradient's bits
    times the 0/1 hit mask in integers: a hit keeps its exact bits (-0.0
    included) and a miss gets the bits of +0.0."""
    out = np.empty(x.shape, dtype=grad.dtype)
    as_int = f"i{grad.itemsize}"
    grad_bits, out_bits = grad.view(as_int), out.view(as_int)
    free = np.ones(pooled.shape, dtype=bool)
    hit = np.empty(pooled.shape, dtype=bool)
    for dr in (0, 1):
        for dc in (0, 1):
            np.equal(x[..., dr::2, dc::2], pooled, out=hit)
            hit &= free
            np.multiply(grad_bits, hit, out=out_bits[..., dr::2, dc::2])
            free ^= hit
    return out


def _fc1_weights(flat: np.ndarray, params: ModelParams) -> np.ndarray:
    """fc1_w in the dtype of the feature-sized GEMMs: the features' float
    dtype, at least float32. For float64 features this is fc1_w itself."""
    return params.fc1_w.astype(np.promote_types(flat.dtype, np.float32), copy=False)


def head_forward(features: np.ndarray, params: ModelParams) -> np.ndarray:
    """Max-pool 2x2 stride 2, flatten, FC1 + ReLU, FC2 -> logits.

    ``flat @ fc1_w`` runs in the features' dtype (float32 features stay
    float32); the bias adds and fc2 run in float64, so the logits are
    float64. Float64 features take the float64 head unchanged."""
    b, k, h, w = features.shape
    if (k, h, w) != (params.n_kernels, *params.image_hw):
        raise ValueError(
            f"feature shape {(k, h, w)} does not match params "
            f"{(params.n_kernels, *params.image_hw)}"
        )
    flat = _maxpool2(features).reshape(b, len(params.fc1_w))
    hidden = np.maximum(flat @ _fc1_weights(flat, params) + params.fc1_b, 0.0)
    return hidden @ params.fc2_w + params.fc2_b


def _head_step(
    flat: np.ndarray, fc1_w: np.ndarray, labels: np.ndarray, params: ModelParams
) -> tuple[float, float, dict[str, np.ndarray], np.ndarray]:
    """Dense head forward and backward on pooled, flattened features (B, D):
    softmax cross-entropy loss, accuracy, the fc gradients and dL/d(fc1
    pre-activation), from which the caller may continue the backward pass.

    ``fc1_w`` is ``_fc1_weights(flat, params)``: ``flat @ fc1_w`` and
    ``flat.T @ dpre1`` run in the features' dtype, which both training
    stages set to ``TrainConfig.dtype``, so the fc1_w gradient and the
    returned dpre1 are in it too. The bias adds, fc2, the softmax and the
    loss run in float64, as do the other gradients (a float32
    ``p + 1e-300`` would add 0 and let an underflowed class give -inf)."""
    pre1 = flat @ fc1_w + params.fc1_b
    hidden = np.maximum(pre1, 0.0)
    logits = hidden @ params.fc2_w + params.fc2_b
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(len(labels))
    loss = -float(np.mean(np.log(p[rows, labels] + 1e-300)))
    acc = float(np.mean(logits.argmax(axis=1) == labels))
    p[rows, labels] -= 1.0
    dlogits = p / len(labels)
    dpre1 = (dlogits @ params.fc2_w.T) * (pre1 > 0)
    dpre1_gemm = dpre1.astype(fc1_w.dtype, copy=False)
    grads = {
        "fc2_w": hidden.T @ dlogits,
        "fc2_b": dlogits.sum(axis=0),
        "fc1_w": flat.T @ dpre1_gemm,
        "fc1_b": dpre1.sum(axis=0),
    }
    return loss, acc, grads, dpre1_gemm


# ---------------------------------------------------------------------------
# full forward/backward for stage-1 training


def _loss_and_grads(
    params: ModelParams,
    bits: np.ndarray,
    labels: np.ndarray,
    dtype: str,
    workers: int,
    bank_override: np.ndarray | None = None,
) -> tuple[float, float, dict[str, np.ndarray]]:
    # bank_override substitutes the binarized bank (centered coordinates);
    # the finite-difference harness perturbs the STE surrogate through it.
    override = None if bank_override is None else _kernel_spectrum(params, _real_dtype(dtype), bank_override)
    raw, fields, spectrum = _conv_digital(bits, params, dtype, workers, kernel_spec=override)
    b, k, h, w = raw.shape
    argmax = raw.reshape(b, -1).argmax(axis=1)  # before the in-place divide: ties as in raw
    feats, peak = _normalize_features(raw)
    pooled = _maxpool2(feats)
    flat = pooled.reshape(b, -1)
    fc1_w = _fc1_weights(flat, params)
    loss, acc, grads, dpre1 = _head_step(flat, fc1_w, labels, params)
    dpooled = (dpre1 @ fc1_w.T).reshape(pooled.shape)
    draw = _maxpool2_backward(dpooled, feats, pooled)  # dL/dy, made dL/draw below

    # The rest of the backward runs per block of images, in cache.
    # Through the unit-max gain: y = raw / m with m the per-frame peak; the
    # peak pixel collects the -sum(dL/dy * y)/m term.
    # |U|^2 gives dL/dU = 2 U dI on the window. Its cross-correlation with
    # the input, summed over the batch in frequency space, is the gradient at
    # each impulse-response lag, which _kernel_gradient maps to the bins.
    # Each block's window is transformed as fft2(., s=n) in two 1-D passes,
    # axis -2 first (which gives fft2's bits) and only over the w columns
    # that are not zero; each image's spectrum times conj(input spectrum) is
    # added in batch order to one accumulator.
    n_h, n_w = spectrum.shape[-2:]
    corr = np.zeros((k, n_h, n_w), dtype=fields.dtype)
    conj = spectrum.conj()
    for images in _blocks(b, corr.nbytes):
        d, m = draw[images], peak[images]
        dpeak = -(d * feats[images]).reshape(len(d), -1).sum(axis=1) / m
        d /= m[:, None, None, None]
        d.reshape(len(d), -1)[np.arange(len(d)), argmax[images]] += dpeak
        window = 2.0 * fields[images]
        window *= d
        cols = scipy.fft.fft(window, n=n_h, axis=-2, overwrite_x=True, workers=workers)
        spec = scipy.fft.fft(cols, n=n_w, axis=-1, overwrite_x=True, workers=workers)
        spec *= conj[images, None]
        for one in spec:
            corr += one
    # The straight-through gradient (Bengio et al. 2013) with the float64
    # cast in the same pass, in cache blocks of kernels (one GEMM per kernel
    # either way, so the same bits): |w| becomes the pass mask (1.0 where
    # |w| <= STE_CLIP, else 0.0) in the gradient's buffer, times the gradient
    masters = params.fourier_kernels
    dbank = np.empty(masters.shape)
    for kernels in _blocks(k, dbank[0].nbytes):
        part = dbank[kernels]
        np.abs(masters[kernels], out=part)
        np.less_equal(part, STE_CLIP, out=part)
        np.multiply(_kernel_gradient(corr[kernels], (h, w), params.grid), part, out=part)
    if params.highpass_mask_enabled:
        _mask_centre(dbank)
    grads["fourier_kernels"] = dbank
    return loss, acc, grads


_PARAM_NAMES = ("fourier_kernels", "fc1_w", "fc1_b", "fc2_w", "fc2_b")


class _Momentum:
    """Heavy-ball SGD. The velocities are updated in place; each step returns
    parameters in fresh arrays and never writes to the ones it was given.

    Velocities have their parameter's dtype; a narrower gradient (the
    float32 step's fc1_w) is cast exactly as it is read. Each parameter is
    walked in chunks whose four arrays (velocity, gradient, parameter,
    result) fill one ``_BLOCK_BYTES`` block, so that the passes of a chunk
    run in cache."""

    def __init__(self, names: Sequence[str]):
        self.v = {n: None for n in names}

    def step(self, params: ModelParams, grads: dict, lr: float, momentum: float) -> ModelParams:
        new = {}
        for n, v in self.v.items():
            g, p = grads[n], getattr(params, n)
            first = v is None
            if first:
                self.v[n] = v = np.empty(p.shape, dtype=p.dtype)
            out = np.empty(p.shape, dtype=p.dtype)
            flat = [a.reshape(-1) for a in (v, g, p, out)]  # v, out: views
            for chunk in _blocks(v.size, 4 * v.itemsize):
                v_c, g_c, p_c, out_c = (a[chunk] for a in flat)
                if first:
                    v_c[...] = g_c
                else:
                    v_c *= momentum
                    v_c += g_c
                np.multiply(v_c, lr, out=out_c)
                np.subtract(p_c, out_c, out=out_c)
            new[n] = out
        return replace(params, **new)


def _sgd(
    params: ModelParams, names: Sequence[str], n: int, config: TrainConfig, stage: int,
    loss_and_grads: Callable[[ModelParams, np.ndarray], tuple[float, float, dict]], log_every: int = 0,
) -> tuple[ModelParams, list[dict]]:
    """The training loop of both stages: momentum SGD on the parameters
    ``names`` over ``n`` samples, in batches of a seeded permutation per
    epoch (``config.seed`` in stage 1, ``config.seed + 1`` in stage 2).
    ``loss_and_grads(params, sel)`` gives the loss, accuracy and gradients
    of the samples ``sel``. Stage 1 re-masks the fresh masters after each
    step; stage 2 never writes its frozen bank. Returns the parameters and
    a per-epoch loss/accuracy trace.

    A step runs with numpy's overflow and invalid flags raising, which a
    healthy step never sets: a step that overflows, or leaves a non-finite
    loss, raises ``TrainingDivergedError`` before its parameters are kept."""
    if stage == 1:
        seed, epochs, lr, split = config.seed, config.epochs_stage1, config.lr_stage1, "train"
    else:
        seed, epochs, lr, split = config.seed + 1, config.epochs_stage2, config.lr_stage2, "stage2-train"
    rng = np.random.default_rng(seed)
    opt = _Momentum(names)
    trace: list[dict] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses, accs = [], []
        for step, s in enumerate(range(0, n, config.batch_size)):
            try:
                with np.errstate(over="raise", invalid="raise"):
                    loss, acc, grads = loss_and_grads(params, order[s : s + config.batch_size])
                    if not np.isfinite(loss):
                        raise FloatingPointError(f"loss={loss}")
                    params = opt.step(params, grads, lr, config.momentum)
            except FloatingPointError as exc:
                raise TrainingDivergedError(
                    f"stage {stage} diverged at epoch {epoch}, step {step}: {exc}"
                ) from None
            if stage == 1:
                params = _apply_mask_to_masters(params)
            losses.append(loss)
            accs.append(acc)
            if log_every and step % log_every == 0:
                print(f"stage{stage} epoch {epoch} step {step} loss {loss:.4f} acc {acc:.3f}", flush=True)
        trace.append({"epoch": epoch, "split": split,
                      "loss": float(np.mean(losses)), "accuracy": float(np.mean(accs))})
    return params, trace


def train_stage1(
    dataset: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
    params: ModelParams,
    workers: int = 1,
    log_every: int = 0,
) -> tuple[ModelParams, list[dict]]:
    """Joint noise-free training of kernels (through the STE) and the head.

    ``dataset`` is a (binary images, labels) pair from the quantization
    pipeline. Deterministic under ``config.seed``; returns the trained
    parameters and a per-epoch loss/accuracy trace.
    """
    bits, labels = map(np.asarray, dataset)

    def loss_and_grads(p: ModelParams, sel: np.ndarray) -> tuple[float, float, dict]:
        return _loss_and_grads(p, bits[sel], labels[sel], config.dtype, workers)

    return _sgd(params, _PARAM_NAMES, len(bits), config, 1, loss_and_grads, log_every)


# ---------------------------------------------------------------------------
# stage 2: capture + head fine-tune


def capture_features(
    params: ModelParams,
    bits: np.ndarray,
    config: OpticalConfig,
    noise: NoiseSpec | None,
    seed: int = 0,
    dtype: str = "float64",
    workers: int = 1,
) -> np.ndarray:
    """Hardware-surrogate capture: optical-mode conv outputs in ``dtype``
    under noise, drawn from a generator seeded with ``seed``. The camera
    draws K*h*w float64 normals per image, on the feature windows alone, the
    same stream in either dtype."""
    rng = np.random.default_rng(seed)
    return _conv_optical(bits, params, config, noise, rng, dtype, workers)


def finetune_stage2(
    params: ModelParams,
    captured: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
) -> tuple[ModelParams, list[dict]]:
    """Retrain fc1/fc2 on captured conv outputs; kernels stay frozen.

    The features are pooled once in their own dtype, a cache block of
    captures at a time, straight into ``config.dtype`` (max and the cast are
    exact, so the capture's dtype does not move a bit), and the head's
    feature-sized GEMMs run in it as in stage 1; the bias adds, fc2, the
    softmax, the loss, the float64 masters and the optimizer's velocities do
    not. A float64 config runs the float64 head unchanged."""
    features, labels = map(np.asarray, captured)
    if features.shape[1:] != (params.n_kernels, *params.image_hw):
        raise ValueError(
            f"captured features {features.shape[1:]} do not match the stage-1 head "
            f"{(params.n_kernels, *params.image_hw)}"
        )
    kernels_before = params.fourier_kernels
    d = len(params.fc1_w)
    flat_all = np.empty((len(features), d), dtype=_real_dtype(config.dtype))
    for block in _blocks(len(features), features.itemsize * math.prod(features.shape[1:])):
        flat_all[block] = _maxpool2(features[block]).reshape(-1, d)

    def loss_and_grads(p: ModelParams, sel: np.ndarray) -> tuple[float, float, dict]:
        flat = flat_all[sel]
        return _head_step(flat, _fc1_weights(flat, p), labels[sel], p)[:3]

    params, trace = _sgd(params, _PARAM_NAMES[1:], len(features), config, 2, loss_and_grads)  # the head only
    assert params.fourier_kernels is kernels_before  # freeze contract
    return params, trace


# ---------------------------------------------------------------------------
# evaluation


def _score(preds: np.ndarray, labels: np.ndarray, n_classes: int) -> EvalResult:
    labels = np.asarray(labels)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    accuracy = float(np.mean(preds == labels)) if len(labels) else 0.0
    return EvalResult(accuracy, confusion, len(labels))


def predict(
    params: ModelParams,
    bits: np.ndarray,
    mode: str = "digital",
    config: OpticalConfig | None = None,
    noise: NoiseSpec | None = None,
    dtype: str = "float64",
    workers: int = 1,
) -> np.ndarray:
    # One noise stream across batches, so no two batches see the same draws.
    rng = None if noise is None else np.random.default_rng(noise.seed)
    out = []
    for s in range(0, len(bits), _PREDICT_BATCH):
        part = bits[s : s + _PREDICT_BATCH]
        feats = conv_fourier_forward(part, params, mode, config, noise, rng, dtype, workers)
        out.append(head_forward(feats, params).argmax(axis=1))
    return np.concatenate(out) if out else np.zeros(0, dtype=np.intp)


def evaluate(
    params: ModelParams,
    dataset: tuple[np.ndarray, np.ndarray],
    mode: str = "digital",
    config: OpticalConfig | None = None,
    noise: NoiseSpec | None = None,
    dtype: str = "float64",
    workers: int = 1,
) -> EvalResult:
    """Top-1 accuracy and per-class confusion on a (bits, labels) split; the
    engine runs in ``dtype``, float64 by default like ``predict``."""
    bits, labels = dataset
    preds = predict(params, bits, mode, config, noise, dtype, workers)
    return _score(preds, labels, params.n_classes)


def features_tiled(
    params: ModelParams,
    bits: np.ndarray,
    layout: TileLayout,
    config: OpticalConfig,
    noise: NoiseSpec | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Conv features of images processed as tiled multi-image frames.

    The layout's frame must equal the simulation grid. Each frame goes
    through the optical path once; every kernel's output is read at the
    image windows of the cells, which go through the camera model and are
    gain-normalized per image.

    On the full G x G frame the centred 4f path behind an ideal aperture is
    the cyclic convolution ifft2(fft2(frame) * ifftshift(B_k)): the
    centring shifts cancel for any G. The transform engine inverts it with
    the row pass run only on the cells' rows, and the camera draws noise on
    the cells' windows alone.
    """
    g = params.grid
    if layout.frame != (g, g):
        raise ValueError(f"layout frame {layout.frame} must match the {g}-px grid")
    _require_capturable(bits, params, config, noise)
    k = params.n_kernels
    h, w = params.image_hw
    gr, gc = layout.grid_rows, layout.grid_cols
    rows = (np.array([layout.cell_origin(r * gc)[0] for r in range(gr)])[:, None] + np.arange(h)).ravel()
    cols = (np.array([layout.cell_origin(c)[1] for c in range(gc)])[:, None] + np.arange(w)).ravel()
    bank = _shifted_bank(params.fourier_kernels, params.highpass_mask_enabled, np.float64)
    cap = layout.capacity

    def frame_cells(part: np.ndarray) -> np.ndarray:
        spectrum = scipy.fft.fft2(tile(list(part), layout), workers=workers)[None]
        windows, _ = _inverse_windows(spectrum, bank, rows, cols, np.float64, workers, False)
        return windows.reshape(k, gr, h, gc, w).transpose(1, 3, 0, 2, 4).reshape(cap, k, h, w)[: len(part)]

    return _capture(bits, params, noise, None, cap, frame_cells, np.float64)


def evaluate_tiled(
    params: ModelParams,
    dataset: tuple[np.ndarray, np.ndarray],
    layout: TileLayout,
    config: OpticalConfig,
    noise: NoiseSpec | None = None,
    workers: int = 1,
) -> EvalResult:
    """Tiled batch evaluation: frames of ``layout.capacity`` images at once."""
    bits, labels = dataset
    feats = features_tiled(params, bits, layout, config, noise=noise, workers=workers)
    return _score(head_forward(feats, params).argmax(axis=1), labels, params.n_classes)


# ---------------------------------------------------------------------------
# checkpoints and traces

_CHECKPOINT_MAGIC = "opticonv-checkpoint"


def save_checkpoint(params: ModelParams, path: str | Path, stage: int, seed: int) -> Path:
    """Single-file checkpoint: one JSON header line, then raw little-endian
    float64 tensors in declared order. Round-trips bit-exactly."""
    path = Path(path)
    tensors = [(name, np.ascontiguousarray(getattr(params, name), dtype="<f8")) for name in _PARAM_NAMES]
    header = {
        "format": _CHECKPOINT_MAGIC,
        "version": 1,
        "stage": stage,
        "seed": seed,
        "highpass_mask_enabled": params.highpass_mask_enabled,
        "image_hw": list(params.image_hw),
        "tensors": [{"name": n, "shape": list(t.shape)} for n, t in tensors],
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        for _, t in tensors:
            f.write(memoryview(t))
    return path


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    path = Path(path)
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline())
        except ValueError:  # undecodable bytes or not JSON
            header = None
        if not isinstance(header, dict) or header.get("format") != _CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path} is not a model checkpoint")
        tensors, hw = header.get("tensors"), header.get("image_hw")
        if not (isinstance(tensors, list) and isinstance(header.get("highpass_mask_enabled"), bool)
                and all(isinstance(t, dict) and isinstance(t.get("name"), str) and _is_shape(t.get("shape"))
                        for t in tensors) and _is_shape(hw) and len(hw) == 2):
            raise DataFormatError(f"{path}: malformed checkpoint header")
        end = os.fstat(f.fileno()).st_size
        arrays = {}
        for spec in tensors:
            if 8 * math.prod(spec["shape"]) > end - f.tell():  # before allocating what the header claims
                raise DataFormatError(f"{path}: truncated tensor {spec['name']}")
            arrays[spec["name"]] = arr = np.empty(spec["shape"], dtype="<f8")
            f.readinto(arr)
    missing = [name for name in _PARAM_NAMES if name not in arrays]
    if missing:
        raise DataFormatError(f"{path}: checkpoint has no tensor(s) {missing}")
    try:
        params = ModelParams(**{name: arrays[name] for name in _PARAM_NAMES},
                             highpass_mask_enabled=header["highpass_mask_enabled"], image_hw=tuple(hw))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return params, header


def _is_shape(value) -> bool:
    return isinstance(value, list) and all(type(n) is int and n >= 0 for n in value)


def write_trace_csv(trace: Sequence[dict], path: str | Path) -> Path:
    path = Path(path)
    lines = ["epoch,split,loss,accuracy"]
    for row in trace:
        lines.append(f"{row['epoch']},{row['split']},{row['loss']:.6f},{row['accuracy']:.6f}")
    path.write_text("\n".join(lines) + "\n")
    return path
