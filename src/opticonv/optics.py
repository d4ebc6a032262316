"""Coherent 4f optical path simulation for a binary-amplitude convolution bench.

The modeled system is a two-lens coherent correlator: a binary amplitude
mask on the input micromirror array, a Fourier transform by the first lens,
pointwise multiplication by a (binary) kernel mask on the second micromirror
array, a second transform by the second lens, and intensity detection at a
camera. The micromirror grid also acts as a diffraction grating, so the input
spectrum repeats at regularly spaced diffraction orders; assigning a distinct
kernel to each order multiplies several kernels against the same input in one
shot. An aperture between the kernel plane and the camera blocks the parasitic
re-diffraction so each output region carries one kernel's result.

Transform convention: centered, unitary. ``cft2``/``icft2`` sandwich the FFT
between fftshifts and use orthonormal scaling, so a full round trip is exact
and total intensity is conserved. The second lens of a real 4f system images
with a coordinate inversion; here the inverse transform is used for the second
lens by default, which is the same field up to that inversion, so an all-pass
kernel reproduces the input in its original orientation. Pass
``flip_normalize=False`` to keep the physical inversion.

This module is the physics reference: the test oracles, the ``simulate``
command and the benchmark's probes run it, one plane at a time. Training,
evaluation and optical capture run on the batched transform engine in
``network``, which also owns the FFT worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.fft

__all__ = [
    "FrameOverflowError",
    "OpticalConfig",
    "FieldPlane",
    "ApertureMask",
    "NoiseSpec",
    "cft2",
    "icft2",
    "fourier_plane_px",
    "diffraction_angle",
    "order_offset_px",
    "geometry_pretransform",
    "forward_4f",
    "multi_kernel_forward",
    "ideal_aperture",
    "camera_capture",
]


class FrameOverflowError(ValueError):
    """A pattern does not fit the micromirror frame or Fourier window."""


@dataclass(frozen=True)
class OpticalConfig:
    """Physical constants of the optical bench.

    Lengths are in meters. ``superpixel`` is the number of micromirrors per
    logical image pixel along each axis; ``horizontal_expand`` is the integer
    horizontal stretch that compensates the tilted-mirror geometry of the
    reference bench (57 deg incidence, 12 deg mirror tilt: 2 ~ 1/cos 57 deg
    rounded to an integer for binary modulation). The angles enter the model
    only through that stretch.
    """

    wavelength: float = 450e-9
    focal_length: float = 100e-3
    dmd_pitch: float = 7.6e-6
    dmd_cols: int = 1920
    dmd_rows: int = 1080
    superpixel: int = 3
    horizontal_expand: int = 2

    def __post_init__(self) -> None:
        if self.wavelength <= 0 or self.focal_length <= 0 or self.dmd_pitch <= 0:
            raise ValueError("wavelength, focal_length and dmd_pitch must be positive")
        if self.dmd_cols < 1 or self.dmd_rows < 1:
            raise ValueError("micromirror grid must be at least 1x1")
        if int(self.superpixel) != self.superpixel or self.superpixel < 1:
            raise ValueError("superpixel must be a positive integer")
        if int(self.horizontal_expand) != self.horizontal_expand or self.horizontal_expand < 1:
            raise ValueError("horizontal_expand must be a positive integer")


@dataclass(frozen=True)
class FieldPlane:
    """A 2D complex field sampled on a uniform grid with physical pitch.

    The plane owns a read-only complex128 copy of the amplitude, so the
    spectrum it caches cannot go stale.
    """

    amplitude: np.ndarray
    pitch: float
    _spectrum: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        amp = np.array(self.amplitude, dtype=np.complex128)
        if amp.ndim != 2:
            raise ValueError("amplitude must be a 2D grid")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitude contains NaN or Inf")
        if self.pitch <= 0:
            raise ValueError("pixel pitch must be positive")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitude", amp)

    def spectrum(self) -> np.ndarray:
        """``cft2`` of the amplitude (the first lens's output), computed on
        first use and shared by every kernel that multiplies it; read-only."""
        if self._spectrum is None:
            spec = cft2(self.amplitude)
            spec.flags.writeable = False
            object.__setattr__(self, "_spectrum", spec)
        return self._spectrum

    @classmethod
    def from_bits(cls, bits: np.ndarray, pitch: float) -> "FieldPlane":
        """Build a plane from a binary micromirror pattern.

        Binary amplitude modulation is the only modulation the mirrors
        provide, so anything other than {0, 1} is rejected.
        """
        bits = np.asarray(bits)
        if not np.isin(bits, (0, 1)).all():
            raise ValueError("micromirror input must be binary (0/1)")
        return cls(amplitude=bits, pitch=pitch)


@dataclass(frozen=True)
class ApertureMask:
    """Aperture with rectangular open regions, one per output channel.

    ``open_regions`` are half-open pixel rectangles (r0, c0, r1, c1) on the
    camera-side frame; regions may not overlap.
    """

    open_regions: tuple[tuple[int, int, int, int], ...]

    @classmethod
    def from_regions(
        cls, frame_shape: tuple[int, int], regions: Sequence[tuple[int, int, int, int]]
    ) -> "ApertureMask":
        cover = np.zeros(frame_shape, dtype=np.uint8)
        for r0, c0, r1, c1 in regions:
            if not (0 <= r0 < r1 <= frame_shape[0] and 0 <= c0 < c1 <= frame_shape[1]):
                raise ValueError(f"region {(r0, c0, r1, c1)} outside frame {frame_shape}")
            cover[r0:r1, c0:c1] += 1
        if (cover > 1).any():
            raise ValueError("crosstalk not blocked: aperture regions overlap")
        return cls(open_regions=tuple(tuple(r) for r in regions))


@dataclass(frozen=True)
class NoiseSpec:
    """Camera model: b x b bin-averaging, multiplicative Gaussian gain noise
    of relative scale ``sigma``, an additive dark floor, and a clamp at 0.

    ``sigma = 0`` and ``dark = 0`` make the capture the identity on the
    binned grid. Noise draws are seeded and therefore reproducible.
    """

    sigma: float = 0.0
    dark: float = 0.0
    bin_factor: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"noise sigma must be finite and non-negative, got {self.sigma}")
        if not 0 <= self.dark < math.inf:
            raise ValueError(f"dark floor must be finite and non-negative, got {self.dark}")
        if self.bin_factor < 1:
            raise ValueError("bin factor must be >= 1")
        if self.seed < 0:
            raise ValueError(f"noise seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# transforms


def cft2(field: np.ndarray) -> np.ndarray:
    """Centered unitary 2D Fourier transform (lens transform of this model)."""
    return scipy.fft.fftshift(
        scipy.fft.fft2(scipy.fft.ifftshift(field, axes=(-2, -1)), norm="ortho"), axes=(-2, -1)
    )


def icft2(field: np.ndarray) -> np.ndarray:
    """Centered unitary inverse transform; equals ``cft2`` composed with the
    coordinate inversion a second lens pass would otherwise leave behind."""
    return scipy.fft.fftshift(
        scipy.fft.ifft2(scipy.fft.ifftshift(field, axes=(-2, -1)), norm="ortho"), axes=(-2, -1)
    )


# ---------------------------------------------------------------------------
# bench geometry


def fourier_plane_px(config: OpticalConfig) -> int:
    """Width of the Fourier window in micromirror pixels.

    The physical half-extent of the spectrum at the back focal plane is
    lambda*f/(2*pitch); the full width divided by the pitch gives
    lambda*f/pitch^2 pixels, 779 for the reference bench.
    """
    return int(round(config.wavelength * config.focal_length / config.dmd_pitch**2))


def diffraction_angle(config: OpticalConfig) -> float:
    """First-order grating angle lambda/pitch of the micromirror array (rad)."""
    return config.wavelength / config.dmd_pitch


def order_offset_px(order: int, config: OpticalConfig) -> int:
    """Column offset of diffraction order ``order`` in the Fourier plane (px).

    Each order is displaced by one full Fourier window
    (theta*f/pitch = lambda*f/pitch^2 pixels) from the previous one. Orders
    with |order| > 3 are not supported, and an order whose window center falls
    off the kernel-side micromirror array does not fit.
    """
    if abs(order) > 3:
        raise ValueError(f"diffraction order {order} not supported (|order| <= 3)")
    offset = order * fourier_plane_px(config)
    if abs(offset) > config.dmd_cols // 2:
        raise FrameOverflowError(
            f"kernel does not fit Fourier plane: order {order} center at {offset} px "
            f"exceeds half the {config.dmd_cols}-px array"
        )
    return offset


def geometry_pretransform(image: np.ndarray, config: OpticalConfig) -> np.ndarray:
    """Map one logical binary image to its micromirror pattern.

    Every image pixel becomes a ``superpixel x superpixel`` block and the
    result is stretched horizontally by ``horizontal_expand`` via integer
    pixel replication (the tilt compensation).
    """
    image = np.asarray(image)
    if not np.isin(image, (0, 1)).all():
        raise ValueError("geometry pretransform expects a binary image")
    s = config.superpixel
    out = np.kron(image, np.ones((s, s * config.horizontal_expand), dtype=image.dtype))
    if out.shape[0] > config.dmd_rows or out.shape[1] > config.dmd_cols:
        raise FrameOverflowError(
            f"frame overflow: pretransformed image {out.shape} exceeds "
            f"{config.dmd_rows}x{config.dmd_cols} mirrors"
        )
    return out


# ---------------------------------------------------------------------------
# forward models


def _check_kernel(kernel: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape != shape:
        raise ValueError(f"kernel shape {kernel.shape} does not match field {shape}")
    if kernel.min() < 0 or kernel.max() > 1:
        raise ValueError("kernel values must lie in [0, 1]")
    return kernel


def forward_4f(
    input_plane: FieldPlane,
    kernel: np.ndarray,
    config: OpticalConfig,
    flip_normalize: bool = True,
) -> np.ndarray:
    """One pass through the 4f path, returning camera-plane intensity.

    field2 = FT(input); field3 = field2 * kernel (kernel given in the
    centered Fourier domain); output field = second lens transform of field3,
    with the 4f coordinate inversion normalized away by default. Returns
    |field|^2 per pixel in double precision.
    """
    kernel = _check_kernel(kernel, input_plane.amplitude.shape)
    filtered = input_plane.spectrum() * kernel
    second = icft2 if flip_normalize else cft2
    out_field = second(filtered)
    intensity = np.abs(out_field) ** 2
    if not np.all(np.isfinite(intensity)):
        raise FloatingPointError("numerical failure: non-finite intensity in 4f path")
    return intensity


DEFAULT_ORDER_SEQUENCE = (0, 1, -1, 2, -2, 3, -3)


def ideal_aperture(
    orders: Sequence[int], grid_shape: tuple[int, int], config: OpticalConfig
) -> ApertureMask:
    """Aperture passing exactly one camera window per diffraction order.

    The camera-side frame is a horizontal strip of windows, one Fourier window
    wide each, laid out at the order offsets. Windows are non-overlapping by
    construction because order centers are a full window apart.
    """
    h, w = grid_shape
    lo = min(orders)
    regions = [(0, (m - lo) * w, h, (m - lo + 1) * w) for m in orders]
    frame = (h, (max(orders) - lo + 1) * w)
    return ApertureMask.from_regions(frame, regions)


def multi_kernel_forward(
    input_plane: FieldPlane,
    kernels: Sequence[np.ndarray],
    config: OpticalConfig,
    aperture: ApertureMask | None,
    orders: Sequence[int] | None = None,
) -> list[np.ndarray]:
    """Simultaneous convolution with one kernel per diffraction order.

    The input spectrum repeats at each grating order of the input mirror
    array; kernel ``j`` multiplies the replica in its window and its output
    lands in a distinct camera window because the replica arrives at a
    distinct angle. Re-diffraction at the kernel mirror array sends
    copies of every window toward every other camera window; with the
    aperture in place those parasitic paths are blocked and each output
    equals the single-kernel result, without it they add coherently and the
    outputs carry cross terms. No power split between orders is published
    for this bench, so every order carries unit weight.

    Parameters
    ----------
    aperture : ApertureMask or None
        ``None`` removes the aperture (parasitic orders reach the camera).
        A mask must declare exactly one open region per kernel.
    orders : sequence of int, optional
        Diffraction order assigned to each kernel; defaults to 0, 1, -1, ...

    Returns
    -------
    list of 2D arrays, one intensity grid per kernel.
    """
    shape = input_plane.amplitude.shape
    k = len(kernels)
    if k == 0:
        raise ValueError("at least one kernel required")
    if orders is None:
        if k > len(DEFAULT_ORDER_SEQUENCE):
            raise ValueError(f"at most {len(DEFAULT_ORDER_SEQUENCE)} kernels without explicit orders")
        orders = DEFAULT_ORDER_SEQUENCE[:k]
    if len(orders) != k:
        raise ValueError("need one diffraction order per kernel")
    if len(set(orders)) != k:
        raise ValueError("kernel windows overlap: orders must be distinct")
    for m in orders:
        order_offset_px(m, config)  # raises if the window falls off the array

    kernels = [_check_kernel(kk, shape) for kk in kernels]
    if aperture is not None and len(aperture.open_regions) != k:
        raise ValueError(
            f"aperture declares {len(aperture.open_regions)} regions for {k} kernels"
        )

    # Every filtered replica through the second lens in one batched transform.
    fields = icft2(input_plane.spectrum() * np.stack(kernels))
    # With the aperture, open region j passes only window j's bundle, so each
    # channel reduces exactly to the single-kernel pass. Without it the
    # re-diffraction replica of every window lands on every camera window;
    # at unit weights each window sees the same coherent sum.
    if aperture is None:
        fields = np.broadcast_to(sum(fields), fields.shape)
    intensity = np.abs(fields) ** 2  # a fresh array: the outputs stay separate
    if not np.all(np.isfinite(intensity)):
        raise FloatingPointError("numerical failure: non-finite intensity")
    return list(intensity)


def camera_capture(
    intensity: np.ndarray, noise: NoiseSpec | None, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Detector model: bin-average, apply gain noise and dark floor, clamp.

    ``rng`` overrides the spec's seed-derived generator; pass a shared
    generator when capturing a stream of frames under one seed. Returns
    float64, bit for bit as for a float64 copy of ``intensity``.
    """
    out = np.asarray(intensity)
    if out.size and out.min() < 0:
        raise ValueError("intensity must be non-negative")
    if noise is None:
        noise = NoiseSpec()
    b = noise.bin_factor
    if b > 1:
        h, w = out.shape[-2:]
        if h % b or w % b:
            raise ValueError(f"grid {out.shape} not divisible by bin factor {b}")
        out = out.astype(np.float64, copy=False).reshape(*out.shape[:-2], h // b, b, w // b, b).mean(axis=(-3, -1))
    if noise.sigma == 0 and noise.dark == 0:
        return out.astype(np.float64, copy=False)
    if rng is None:
        rng = np.random.default_rng(noise.seed)
    # max(I * (1 + sigma * n) + dark, 0), built in one fresh float64 buffer
    if noise.sigma > 0:
        buf = rng.standard_normal(out.shape)
        buf *= noise.sigma
        buf += 1.0
        buf *= out
    else:
        buf = out.astype(np.float64)
    buf += noise.dark
    return np.maximum(buf, 0.0, out=buf)
