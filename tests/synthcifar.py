"""Seeded synthetic CIFAR-10 binary batches for tests that read ``paths.cifar10``.

Each record is one label byte followed by 3072 pixel bytes: the red, green
and blue 32x32 planes in turn, row-major, as in the public binary release.
Class ``c`` tints a noisy image towards its own colour, so the classes differ
in content; labels cycle through all ten classes in a seeded order. The same
seed always gives the same bytes. ``write_bins`` writes the six files that
``opticonv.datapipe.load_cifar10`` reads.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SIDE = 32
N_CLASSES = 10
PER_TRAIN_BATCH = 12
N_TEST = 20
BATCH_FILES = (*(f"data_batch_{i}.bin" for i in range(1, 6)), "test_batch.bin")


def make_batches(seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Images (N, SIDE, SIDE, 3) uint8 and labels (N,) uint8 for each file."""
    rng = np.random.default_rng(seed)
    tints = rng.integers(0, 256, (N_CLASSES, 3))
    batches = {}
    for name in BATCH_FILES:
        n = N_TEST if name == "test_batch.bin" else PER_TRAIN_BATCH
        labels = np.resize(np.arange(N_CLASSES, dtype=np.uint8), n)
        rng.shuffle(labels)
        noise = rng.integers(0, 256, (n, SIDE, SIDE, 3))
        batches[name] = ((noise + tints[labels][:, None, None, :]) // 2).astype(np.uint8), labels
    return batches


def write_bins(root: str | Path, seed: int) -> Path:
    """Write the five training batches and the test batch under ``root``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for name, (images, labels) in make_batches(seed).items():
        planes = images.transpose(0, 3, 1, 2).reshape(len(images), -1)
        (root / name).write_bytes(np.concatenate([labels[:, None], planes], axis=1).tobytes())
    return root
