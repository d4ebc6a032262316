"""Dataset loading, binary bit-plane quantization, SSIM scoring, and frame tiling.

The micromirror array only displays binary patterns, so 8-bit sources are
decomposed into stacks of binary planes through a threshold ladder. Grayscale
sets use a single plane at a fraction of the per-image maximum; RGB sets use
``levels`` evenly spaced interior thresholds per channel (levels=4 turns one
image into 12 planes). Multi-image throughput comes from tiling several
images onto one frame with enough spacing to keep their spectra separable.
"""

from __future__ import annotations

import gzip
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .optics import OpticalConfig, geometry_pretransform

__all__ = [
    "DataFormatError",
    "Dataset",
    "BitPlaneStack",
    "TileLayout",
    "binarize_gray",
    "quantize_rgb",
    "quantize_gray",
    "recombine",
    "ssim",
    "make_layout",
    "tile",
    "untile",
    "load_mnist",
    "load_cifar10",
    "load_quickdraw",
    "export_stack",
    "import_stack",
]

FULL_SCALE = 255

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

CIFAR10_CLASSES = (
    "airplane", "automobile", "bird", "cat", "deer",
    "dog", "frog", "horse", "ship", "truck",
)


class DataFormatError(ValueError):
    """Raised on malformed dataset files (bad magic, truncation, bad labels)."""


@dataclass(frozen=True)
class Dataset:
    name: str
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    class_names: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


# ---------------------------------------------------------------------------
# quantization


def binarize_gray(image: np.ndarray, threshold_frac: float) -> np.ndarray:
    """Single-plane binarization: 1 where pixel >= frac * per-image maximum.

    An all-zero image yields an all-zero plane (the degenerate max).
    """
    if not 0.0 < threshold_frac < 1.0:
        raise ValueError("threshold_frac must be in (0, 1)")
    image = np.asarray(image)
    if image.size == 0:
        raise ValueError("empty image")
    peak = int(image.max())
    if peak == 0:
        return np.zeros(image.shape, dtype=np.uint8)
    return (image >= threshold_frac * peak).astype(np.uint8)


@dataclass(frozen=True)
class BitPlaneStack:
    """Binary decomposition of an 8-bit image: the only legal mirror input.

    ``planes`` has shape (n_planes, H, W) with values in {0, 1};
    ``thresholds`` are fractions of full scale, one per plane;
    ``channel_of_plane`` maps each plane to its source channel. Planes of one
    channel are monotone nested: a higher-threshold plane is pixelwise <= a
    lower-threshold one.
    """

    planes: np.ndarray
    thresholds: tuple[float, ...]
    channel_of_plane: tuple[int, ...]
    source_shape: tuple[int, int, int]

    def __post_init__(self) -> None:
        planes = np.asarray(self.planes, dtype=np.uint8)
        if planes.ndim != 3:
            raise ValueError("planes must be (n_planes, H, W)")
        if not np.isin(planes, (0, 1)).all():
            raise ValueError("planes must be binary")
        n = planes.shape[0]
        if len(self.thresholds) != n or len(self.channel_of_plane) != n:
            raise ValueError("thresholds/channel_of_plane length mismatch")
        object.__setattr__(self, "planes", planes)

    @property
    def n_channels(self) -> int:
        return self.source_shape[2]

    def planes_of_channel(self, channel: int) -> np.ndarray:
        idx = [i for i, c in enumerate(self.channel_of_plane) if c == channel]
        return self.planes[idx]


def _threshold_ladder(levels: int) -> list[float]:
    # Interior grid j/(levels+1): evenly spaced over the full dynamic range
    # without the degenerate all-ones / all-zeros endpoints.
    return [j / (levels + 1) for j in range(1, levels + 1)]


def quantize_gray(image: np.ndarray, levels: int) -> BitPlaneStack:
    """Threshold-ladder quantization of a single-channel 8-bit image."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("quantize_gray expects a 2D image")
    return _quantize_channels(image[:, :, None], levels)


def quantize_rgb(image: np.ndarray, levels: int) -> BitPlaneStack:
    """Per-channel threshold-ladder quantization; 3 * levels planes."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("quantize_rgb expects an (H, W, 3) image")
    return _quantize_channels(image, levels)


def _quantize_channels(image: np.ndarray, levels: int) -> BitPlaneStack:
    if levels < 1:
        raise ValueError("levels must be >= 1")
    ladder = _threshold_ladder(levels)
    planes, thresholds, channels = [], [], []
    for c in range(image.shape[2]):
        chan = image[:, :, c]
        for t in ladder:
            planes.append((chan >= t * FULL_SCALE).astype(np.uint8))
            thresholds.append(t)
            channels.append(c)
    return BitPlaneStack(
        planes=np.stack(planes),
        thresholds=tuple(thresholds),
        channel_of_plane=tuple(channels),
        source_shape=(image.shape[0], image.shape[1], image.shape[2]),
    )


def recombine(stack: BitPlaneStack) -> np.ndarray:
    """Midpoint reconstruction: full_scale * (sum of planes) / (levels + 1).

    Only needed to score reconstruction quality; hardware never reconstructs.
    """
    h, w, n_chan = stack.source_shape
    out = np.zeros((h, w, n_chan), dtype=np.float64)
    for c in range(n_chan):
        planes = stack.planes_of_channel(c)
        levels = planes.shape[0]
        out[:, :, c] = FULL_SCALE * planes.sum(axis=0, dtype=np.float64) / (levels + 1)
    out = np.clip(np.rint(out), 0, FULL_SCALE).astype(np.uint8)
    return out[:, :, 0] if n_chan == 1 else out


# ---------------------------------------------------------------------------
# structural similarity


def _box_sums(x: np.ndarray, win: int) -> np.ndarray:
    # Integral-image window sums over every (win x win) position, exact.
    s = np.cumsum(np.cumsum(x, axis=0), axis=1)
    s = np.pad(s, ((1, 0), (1, 0)))
    return s[win:, win:] - s[:-win, win:] - s[win:, :-win] + s[:-win, :-win]


def ssim(a: np.ndarray, b: np.ndarray, window: int = 8) -> float:
    """Mean structural similarity over all window x window positions.

    Uniform window, stabilizers C1 = (0.01 * 255)^2 and C2 = (0.03 * 255)^2,
    population (biased) window variances. Returns a value in [-1, 1].
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 3:
        return float(np.mean([ssim(a[:, :, c], b[:, :, c], window) for c in range(a.shape[2])]))
    if a.ndim != 2:
        raise ValueError("ssim expects 2D or (H, W, C) inputs")
    if min(a.shape) < window:
        raise ValueError(f"image {a.shape} smaller than the {window}x{window} window")
    n = window * window
    c1 = (0.01 * FULL_SCALE) ** 2
    c2 = (0.03 * FULL_SCALE) ** 2
    mu_a = _box_sums(a, window) / n
    mu_b = _box_sums(b, window) / n
    var_a = _box_sums(a * a, window) / n - mu_a**2
    var_b = _box_sums(b * b, window) / n - mu_b**2
    cov = _box_sums(a * b, window) / n - mu_a * mu_b
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())


# ---------------------------------------------------------------------------
# tiling

DATASET_GEOMETRY = {
    "mnist": (28, 28),
    "quickdraw": (28, 28),
    "cifar10": (32, 32),
}

MIN_CONTENT_GAP = 30  # px of separation the crosstalk mitigation requires


@dataclass(frozen=True)
class TileLayout:
    """Placement of a grid of image tiles on a mirror frame.

    ``tile_px`` is the cell size after the superpixel/stretch pretransform and
    padding; cells are placed row-major with ``gap`` pixels between them. In
    experiment mode the 30 px inter-tile gap supplies the spectral
    separation; in padded accounting mode (2x padding, 168x168 cells for
    28x28 sources on the reference bench) the in-cell margin supplies it and
    an 11x6 grid fills the 1920x1080 frame. The same accounting is sometimes
    quoted as 11x19 elsewhere; only 11x6 follows from the geometry.
    """

    grid_rows: int
    grid_cols: int
    gap: int
    tile_px: tuple[int, int]
    frame: tuple[int, int]

    def __post_init__(self) -> None:
        tr, tc = self.tile_px
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid must be at least 1x1")
        if self.gap < 0:
            raise ValueError("gap must be non-negative")
        if (
            self.grid_rows * tr + (self.grid_rows - 1) * self.gap > self.frame[0]
            or self.grid_cols * tc + (self.grid_cols - 1) * self.gap > self.frame[1]
        ):
            raise ValueError(
                f"{self.grid_rows}x{self.grid_cols} grid of {self.tile_px} tiles with "
                f"gap {self.gap} exceeds frame {self.frame}"
            )

    @property
    def capacity(self) -> int:
        return self.grid_rows * self.grid_cols

    def cell_origin(self, index: int) -> tuple[int, int]:
        r, c = divmod(index, self.grid_cols)
        return r * (self.tile_px[0] + self.gap), c * (self.tile_px[1] + self.gap)


def make_layout(
    dataset_kind: str,
    config: OpticalConfig,
    *,
    padding: int = 1,
    gap_px: int = MIN_CONTENT_GAP,
    grid: tuple[int, int] | None = None,
    frame: tuple[int, int] | None = None,
    strict_separation: bool = True,
) -> TileLayout:
    """Pack the largest grid of tiles for ``dataset_kind`` into the frame.

    ``padding=1`` gives content-sized tiles separated by ``gap_px`` (the
    experiment geometry); ``padding=2`` folds the separation into the cell
    (the throughput-accounting geometry, 168x168 cells for 28x28 sources).
    ``strict_separation`` rejects layouts whose content separation falls
    below the 30 px crosstalk floor on both axes.
    """
    if dataset_kind not in DATASET_GEOMETRY:
        raise ValueError(f"unknown dataset geometry {dataset_kind!r}")
    if padding < 1:
        raise ValueError("padding must be >= 1")
    rows, cols = DATASET_GEOMETRY[dataset_kind]
    s = config.superpixel
    content = (rows * s, cols * s * config.horizontal_expand)
    tile_px = (rows * s * padding, cols * s * max(padding, config.horizontal_expand))
    if frame is None:
        frame = (config.dmd_rows, config.dmd_cols)
    if strict_separation:
        sep_rows = tile_px[0] - content[0] + gap_px
        sep_cols = tile_px[1] - content[1] + gap_px
        if max(sep_rows, sep_cols) < MIN_CONTENT_GAP:
            raise ValueError(
                f"content separation {min(sep_rows, sep_cols)} px below the "
                f"{MIN_CONTENT_GAP} px crosstalk floor; widen gap_px or padding"
            )
    if grid is None:
        grid = (
            (frame[0] + gap_px) // (tile_px[0] + gap_px),
            (frame[1] + gap_px) // (tile_px[1] + gap_px),
        )
    if grid[0] < 1 or grid[1] < 1:
        raise ValueError(f"tile {tile_px} too large for frame {frame}")
    return TileLayout(grid_rows=grid[0], grid_cols=grid[1], gap=gap_px, tile_px=tile_px, frame=frame)


def tile(
    images: Sequence[np.ndarray],
    layout: TileLayout,
    config: OpticalConfig | None = None,
) -> np.ndarray:
    """Place binary images at their cell origins on a zeroed frame.

    When ``config`` is given each image is pretransformed
    (superpixel/stretch) first; otherwise images are placed as-is.
    """
    if len(images) > layout.capacity:
        raise ValueError(f"{len(images)} images exceed layout capacity {layout.capacity}")
    frame = np.zeros(layout.frame, dtype=np.uint8)
    for i, img in enumerate(images):
        if config is not None:
            img = geometry_pretransform(img, config)
        img = np.asarray(img)
        if img.shape[0] > layout.tile_px[0] or img.shape[1] > layout.tile_px[1]:
            raise ValueError(f"image {img.shape} larger than tile {layout.tile_px}")
        r, c = layout.cell_origin(i)
        frame[r : r + img.shape[0], c : c + img.shape[1]] = img
    return frame


def untile(
    frame: np.ndarray,
    layout: TileLayout,
    count: int | None = None,
    content_shape: tuple[int, int] | None = None,
) -> list[np.ndarray]:
    """Extract the per-cell windows of a frame-sized grid, row-major."""
    frame = np.asarray(frame)
    if frame.shape[-2:] != layout.frame:
        raise ValueError(f"frame {frame.shape} does not match layout frame {layout.frame}")
    if count is None:
        count = layout.capacity
    if count > layout.capacity:
        raise ValueError(f"count {count} exceeds layout capacity {layout.capacity}")
    h, w = content_shape if content_shape is not None else layout.tile_px
    out = []
    for i in range(count):
        r, c = layout.cell_origin(i)
        out.append(frame[..., r : r + h, c : c + w].copy())
    return out


# ---------------------------------------------------------------------------
# loaders


def _open_maybe_gz(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _find_idx_file(root: Path, stem: str) -> Path:
    # Accept the canonical names with or without .gz / dotted idx suffix.
    for cand in (stem, stem + ".gz", stem.replace("-idx", ".idx"), stem.replace("-idx", ".idx") + ".gz"):
        p = root / cand
        if p.exists():
            return p
    raise DataFormatError(f"missing dataset file {stem} under {root}")


def _read_idx_images(path: Path) -> np.ndarray:
    with _open_maybe_gz(path) as f:
        header = f.read(16)
        if len(header) < 16:
            raise DataFormatError(f"{path}: truncated header at offset {len(header)}")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"{path}: bad image magic 0x{magic:08x} at offset 0 (want 0x{IDX_IMAGE_MAGIC:08x})"
            )
        data = f.read(count * rows * cols)
        if len(data) != count * rows * cols:
            raise DataFormatError(f"{path}: truncated at offset {16 + len(data)}")
        return np.frombuffer(data, dtype=np.uint8).reshape(count, rows, cols)


def _read_idx_labels(path: Path, n_classes: int) -> np.ndarray:
    with _open_maybe_gz(path) as f:
        header = f.read(8)
        if len(header) < 8:
            raise DataFormatError(f"{path}: truncated header at offset {len(header)}")
        magic, count = struct.unpack(">II", header)
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"{path}: bad label magic 0x{magic:08x} at offset 0 (want 0x{IDX_LABEL_MAGIC:08x})"
            )
        data = f.read(count)
        if len(data) != count:
            raise DataFormatError(f"{path}: truncated at offset {8 + len(data)}")
        labels = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
        if labels.size and labels.max() >= n_classes:
            raise DataFormatError(f"{path}: label {labels.max()} out of range (< {n_classes})")
        return labels


def load_mnist(path: str | Path) -> Dataset:
    """Load the four canonical big-endian IDX files from a directory."""
    root = Path(path)
    train_x = _read_idx_images(_find_idx_file(root, "train-images-idx3-ubyte"))
    train_y = _read_idx_labels(_find_idx_file(root, "train-labels-idx1-ubyte"), 10)
    test_x = _read_idx_images(_find_idx_file(root, "t10k-images-idx3-ubyte"))
    test_y = _read_idx_labels(_find_idx_file(root, "t10k-labels-idx1-ubyte"), 10)
    if len(train_x) != len(train_y) or len(test_x) != len(test_y):
        raise DataFormatError("image/label counts differ")
    return Dataset("mnist", train_x, train_y, test_x, test_y, tuple(str(d) for d in range(10)))


RECORD_BYTES = 1 + 3 * 32 * 32  # label byte + R, G, B planes


def _read_cifar_batch(path: Path) -> tuple[np.ndarray, np.ndarray]:
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size == 0 or raw.size % RECORD_BYTES:
        raise DataFormatError(
            f"{path}: size {raw.size} is not a multiple of the {RECORD_BYTES}-byte record"
        )
    rec = raw.reshape(-1, RECORD_BYTES)
    labels = rec[:, 0].astype(np.int64)
    if labels.max() >= 10:
        bad = int(np.argmax(labels >= 10))
        raise DataFormatError(f"{path}: label out of range at offset {bad * RECORD_BYTES}")
    images = rec[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    return images, labels


def load_cifar10(path: str | Path) -> Dataset:
    """Load binary CIFAR-10 batches (data_batch_1..5.bin + test_batch.bin)."""
    root = Path(path)
    xs, ys = [], []
    for i in range(1, 6):
        p = root / f"data_batch_{i}.bin"
        if not p.exists():
            raise DataFormatError(f"missing batch file {p}")
        x, y = _read_cifar_batch(p)
        xs.append(x)
        ys.append(y)
    test_p = root / "test_batch.bin"
    if not test_p.exists():
        raise DataFormatError(f"missing batch file {test_p}")
    test_x, test_y = _read_cifar_batch(test_p)
    return Dataset(
        "cifar10", np.concatenate(xs), np.concatenate(ys), test_x, test_y, CIFAR10_CLASSES
    )


def load_quickdraw(path: str | Path, test_fraction: float = 0.2) -> Dataset:
    """Load per-class 28x28 bitmap exports (``<class>.npy``, shape (N, 784)).

    The public export carries no split, so the last ``test_fraction`` of each
    class (file order, deterministic) forms the test set.
    """
    root = Path(path)
    files = sorted(root.glob("*.npy"))
    if not files:
        raise DataFormatError(f"no .npy bitmap files under {root}")
    train_x, train_y, test_x, test_y, names = [], [], [], [], []
    for label, f in enumerate(files):
        arr = np.load(f)
        if arr.ndim == 2 and arr.shape[1] == 784:
            arr = arr.reshape(-1, 28, 28)
        if arr.ndim != 3 or arr.shape[1:] != (28, 28):
            raise DataFormatError(f"{f}: expected (N, 784) or (N, 28, 28) uint8 bitmaps")
        arr = arr.astype(np.uint8)
        n_test = int(round(len(arr) * test_fraction))
        split = len(arr) - n_test
        train_x.append(arr[:split])
        train_y.append(np.full(split, label, dtype=np.int64))
        test_x.append(arr[split:])
        test_y.append(np.full(n_test, label, dtype=np.int64))
        names.append(f.stem)
    return Dataset(
        "quickdraw",
        np.concatenate(train_x), np.concatenate(train_y),
        np.concatenate(test_x), np.concatenate(test_y),
        tuple(names),
    )


# ---------------------------------------------------------------------------
# stack export (concatenated P4 bitmaps + JSON manifest)


def _encode_p4(plane: np.ndarray) -> bytes:
    h, w = plane.shape
    return b"P4\n%d %d\n" % (w, h) + np.packbits(plane, axis=1).tobytes()


def export_stack(stack: BitPlaneStack, path_prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>.p4`` (concatenated bitmaps) and ``<prefix>.json``."""
    prefix = Path(path_prefix)
    p4_path = prefix.with_suffix(".p4")
    manifest_path = prefix.with_suffix(".json")
    with open(p4_path, "wb") as f:
        for plane in stack.planes:
            f.write(_encode_p4(plane))
    manifest = {
        "n_planes": int(stack.planes.shape[0]),
        "thresholds": list(stack.thresholds),
        "channel_of_plane": list(stack.channel_of_plane),
        "source_shape": list(stack.source_shape),
    }
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
    return p4_path, manifest_path


def import_stack(path_prefix: str | Path) -> BitPlaneStack:
    prefix = Path(path_prefix)
    manifest = json.loads(prefix.with_suffix(".json").read_text())
    blob = prefix.with_suffix(".p4").read_bytes()
    planes = []
    pos = 0
    for _ in range(manifest["n_planes"]):
        if blob[pos : pos + 3] != b"P4\n":
            raise DataFormatError(f"bad P4 magic at offset {pos}")
        end = blob.index(b"\n", pos + 3)
        w, h = (int(t) for t in blob[pos + 3 : end].split())
        row_bytes = (w + 7) // 8
        body = blob[end + 1 : end + 1 + h * row_bytes]
        if len(body) != h * row_bytes:
            raise DataFormatError(f"truncated P4 body at offset {end + 1}")
        bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8).reshape(h, row_bytes), axis=1)
        planes.append(bits[:, :w])
        pos = end + 1 + h * row_bytes
    return BitPlaneStack(
        planes=np.stack(planes),
        thresholds=tuple(manifest["thresholds"]),
        channel_of_plane=tuple(manifest["channel_of_plane"]),
        source_shape=tuple(manifest["source_shape"]),
    )
