"""Export of field-plane and intensity grids.

Two formats: P5 portable graymaps, max-scaled to 8 bits for quick visual
inspection and read back (8- or 16-bit) as simulation inputs, and a lossless
raw dump (flat little-endian float64 plus a one-line JSON sidecar carrying
width/height/pitch) for round-tripping exact values between runs.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .datapipe import DataFormatError

__all__ = ["write_pgm", "read_pgm", "write_raw", "read_raw"]

# Magic, width, height and maxval separated by whitespace or comments, then
# exactly one whitespace byte before the samples (which may themselves be
# whitespace-valued bytes).
_P5_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\r\n]*)+(\d+)" * 3 + rb"\s")


def write_pgm(grid: np.ndarray, path: str | Path) -> Path:
    """Write a 2D grid as an 8-bit binary P5 graymap, scaled to full range."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError("P5 export expects a 2D grid")
    peak = grid.max()
    scaled = np.zeros(grid.shape, dtype=np.uint8) if peak <= 0 else np.clip(
        np.rint(grid / peak * 255), 0, 255
    ).astype(np.uint8)
    path = Path(path)
    h, w = grid.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(scaled.tobytes())
    return path


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary P5 graymap: uint8 samples for maxval < 256, else
    big-endian uint16. A malformed file is a ``DataFormatError``."""
    path = Path(path)
    raw = path.read_bytes()
    header = _P5_HEADER.match(raw)
    if header is None:
        raise DataFormatError(f"{path}: not a binary P5 graymap")
    w, h, maxval = (int(t) for t in header.groups())
    if w < 1 or h < 1 or not 0 < maxval < 65536:
        raise DataFormatError(f"{path}: bad P5 header {w}x{h}, maxval {maxval}")
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    body = raw[header.end() : header.end() + w * h * dtype.itemsize]
    if len(body) != w * h * dtype.itemsize:
        raise DataFormatError(f"{path}: truncated P5 body")
    img = np.frombuffer(body, dtype=dtype).reshape(h, w)
    if img.max() > maxval:
        raise DataFormatError(f"{path}: sample above maxval {maxval}")
    return img


def write_raw(grid: np.ndarray, path: str | Path, pitch_m: float) -> tuple[Path, Path]:
    """Write ``<path>`` as flat little-endian float64 plus ``<path>.json``."""
    grid = np.ascontiguousarray(grid, dtype="<f8")
    if grid.ndim != 2:
        raise ValueError("raw export expects a 2D grid")
    path = Path(path)
    path.write_bytes(grid.tobytes())
    sidecar = path.with_suffix(path.suffix + ".json")
    header = {"width": int(grid.shape[1]), "height": int(grid.shape[0]), "pitch_m": float(pitch_m)}
    sidecar.write_text(json.dumps(header) + "\n")
    return path, sidecar


def read_raw(path: str | Path) -> tuple[np.ndarray, float]:
    """Read a raw float64 grid and its pitch back, bit-exact."""
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".json")
    header = json.loads(sidecar.read_text())
    grid = np.frombuffer(path.read_bytes(), dtype="<f8").reshape(header["height"], header["width"])
    return grid.copy(), float(header["pitch_m"])
