"""Desk-scale simulator and analysis toolkit for a diffraction-based
Fourier-optical convolution accelerator: the coherent 4f path with
diffraction-order kernel parallelism, the binary data pipeline, the
two-stage training protocol, and the throughput/energy model."""

__version__ = "0.1.0"

from . import datapipe, network, optics, perfmodel  # noqa: F401
