"""Seeded synthetic Quickdraw bitmap exports for tests that read ``paths.quickdraw``.

The public export is one ``<class>.npy`` file per class holding uint8 28x28
bitmaps, either flattened to (N, 784) or as (N, 28, 28). Class ``c`` draws a
stroke at its own angle through the image centre over sparse noise, so the
classes differ in content. Each class has its own image count, so the
per-class train/test split rounds differently across files, and the files are
written out of alphabetical order, so a loader that labels in sorted file
order is told apart from one that labels in write order. Even-indexed classes
are written flat, odd ones as 3-D arrays. The same seed always gives the same
bytes. ``write_npy`` writes the files that
``opticonv.datapipe.load_quickdraw`` reads.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SIDE = 28
CLASSES = ("zigzag", "apple", "moon", "cat", "house")  # write order, not sorted
COUNTS = (7, 5, 9, 6, 8)


def make_class(index: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` uint8 (SIDE, SIDE) bitmaps of class ``index``."""
    angle = np.pi * index / len(CLASSES)
    t = np.linspace(-10.0, 10.0, 64)
    images = np.where(rng.random((n, SIDE, SIDE)) < 0.03, rng.integers(1, 80, (n, SIDE, SIDE)), 0)
    for img in images:
        shift = rng.uniform(-2.0, 2.0, 2)
        rows = np.clip(np.round(13.5 + shift[0] + t * np.sin(angle)), 0, SIDE - 1).astype(int)
        cols = np.clip(np.round(13.5 + shift[1] + t * np.cos(angle)), 0, SIDE - 1).astype(int)
        img[rows, cols] = 255
    return images.astype(np.uint8)


def write_npy(root: str | Path, seed: int, counts: tuple[int, ...] = COUNTS) -> dict[str, np.ndarray]:
    """Write one ``<class>.npy`` per class under ``root``, ``counts[i]``
    images for class ``i``; returns the (N, SIDE, SIDE) bitmaps written for
    each class name."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    written = {}
    for index, (name, n) in enumerate(zip(CLASSES, counts)):
        images = make_class(index, n, rng)
        np.save(root / f"{name}.npy", images.reshape(n, -1) if index % 2 == 0 else images)
        written[name] = images
    return written
