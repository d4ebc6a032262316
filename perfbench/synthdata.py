"""Seeded synthetic stand-in for MNIST: 10 classes of 28x28 8-bit images.

Class ``c`` is the seven-segment figure of the digit ``c``. The figures
share most of their strokes (an 8 holds every other digit), and each image
drops some of its class's segments and adds some of the others, so classes
overlap and the benchmark's small models score well below 1.0: their
accuracy can fall when the numerics go wrong. Each image also jitters the
figure's position, size, slant and stroke width, varies the stroke
brightness and adds background noise. The same seed always gives the same
images. ``write_idx`` writes the four canonical IDX files that
``opticonv.datapipe.load_mnist`` reads.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIDE = 28
N_CLASSES = 10
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

_BAR_OFFSETS = (4.0, 9.0, 14.0, 19.0, 24.0)  # row (c < 5) or column (c >= 5) of each bar
JITTER = 1.5  # px, a bar's shift across its length
DISTRACTOR_P = 0.4  # chance that an image also holds a shorter bar of another class


def _bar(rr, cc, cls: int, length: float, rng: np.random.Generator) -> np.ndarray:
    """Coverage in [0, 1] of a bar of class ``cls`` with jittered position,
    width and placement along its length."""
    across, along = (rr, cc) if cls < 5 else (cc, rr)
    centre = _BAR_OFFSETS[cls % 5] + rng.uniform(-JITTER, JITTER)
    start = rng.uniform(2.0, SIDE - 2.0 - length)
    half = rng.uniform(1.0, 1.6)  # half-width in px
    inside = np.clip(half + 0.5 - np.abs(across - centre), 0.0, 1.0)
    return inside * np.clip(np.minimum(along - start, start + length - along) + 0.5, 0.0, 1.0)


def _image(label: int, rng: np.random.Generator) -> np.ndarray:
    rr, cc = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    ink = rng.uniform(230.0, 255.0) * _bar(rr, cc, label, rng.uniform(16.0, 22.0), rng)
    if rng.random() < DISTRACTOR_P:
        other = (label + rng.integers(1, N_CLASSES)) % N_CLASSES
        ink = np.maximum(ink, rng.uniform(230.0, 255.0) * _bar(rr, cc, other, rng.uniform(8.0, 15.0), rng))
    img = np.maximum(rng.normal(20.0, 25.0, (SIDE, SIDE)), ink)
    img += rng.normal(0.0, 12.0, img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def make_split(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` images whose labels cycle through the classes in a seeded order."""
    rng = np.random.default_rng(seed)
    labels = np.resize(np.arange(N_CLASSES, dtype=np.uint8), n)
    rng.shuffle(labels)
    images = np.zeros((n, SIDE, SIDE), dtype=np.uint8)
    for i, y in enumerate(labels):
        images[i] = _image(int(y), rng)
    return images, labels


def make_splits(seed: int, *sizes: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One split per size, each drawn from its own stream of ``seed``."""
    states = np.random.SeedSequence(seed).generate_state(len(sizes))
    return [make_split(n, int(s)) for n, s in zip(sizes, states)]


def write_idx(directory: Path, train, test) -> Path:
    """Write the four MNIST-named IDX files of ``train`` and ``test`` into
    ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for stem, (images, labels) in (("train", train), ("t10k", test)):
        n = len(images)
        (directory / f"{stem}-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", IDX_IMAGE_MAGIC, n, SIDE, SIDE) + images.tobytes()
        )
        (directory / f"{stem}-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", IDX_LABEL_MAGIC, n) + labels.tobytes()
        )
    return directory
