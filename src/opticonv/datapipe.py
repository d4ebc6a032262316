"""Dataset loading, binary bit-plane quantization, SSIM scoring, frame
tiling, and the package's file formats.

Each input format has one reader: ``_read_idx`` for MNIST's IDX files (plain
or gzipped), ``_read_cifar_batch`` for CIFAR-10's binary batches,
``read_npy`` for ``.npy`` arrays (Quickdraw's bitmap exports and the
simulation's inputs and float64 dumps), ``import_stack`` for P4 bit-plane
stacks, ``read_pgm`` for P5 graymaps and ``read_json`` for JSON documents
(run configs and stack manifests). A file a reader cannot decode is a
``DataFormatError`` naming it.

The micromirror array only displays binary patterns, so 8-bit sources are
decomposed into stacks of binary planes through a threshold ladder. Grayscale
sets use a single plane at a fraction of the per-image maximum; RGB sets use
``levels`` evenly spaced interior thresholds per channel (levels=4 turns one
image into 12 planes). Multi-image throughput comes from tiling several
images onto one frame; ``TileLayout`` places them on a grid of cells.
"""

from __future__ import annotations

import gzip
import json
import math
import mmap
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

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
    "tile",
    "untile",
    "load_mnist",
    "load_cifar10",
    "load_quickdraw",
    "read_npy",
    "read_json",
    "export_stack",
    "import_stack",
    "write_pgm",
    "read_pgm",
]

FULL_SCALE = 255

CIFAR10_CLASSES = (
    "airplane", "automobile", "bird", "cat", "deer",
    "dog", "frog", "horse", "ship", "truck",
)


class DataFormatError(ValueError):
    """Raised on malformed dataset files (bad magic, truncation, bad labels)."""


@dataclass(frozen=True)
class Dataset:
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
    """Single-plane binarization, the one rule from an image to a mirror
    frame: 1 where pixel >= frac * the image's maximum.

    The maximum is taken as it is, so a float map whose peak lies below 1
    keeps the pixels at or above ``frac`` of that peak. An image whose peak
    is not positive (all zero, all negative) yields an all-zero plane.
    """
    if not 0.0 < threshold_frac < 1.0:
        raise ValueError("threshold_frac must be in (0, 1)")
    image = np.asarray(image)
    if image.size == 0:
        raise ValueError("empty image")
    peak = image.max()
    if not peak > 0:
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


@dataclass(frozen=True)
class TileLayout:
    """Placement of a grid of image tiles on a mirror frame.

    ``tile_px`` is the cell size; cells are placed row-major with ``gap``
    pixels between them, and the grid must fit ``frame``.
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


def tile(images: Sequence[np.ndarray], layout: TileLayout) -> np.ndarray:
    """Place binary images at their cell origins on a zeroed frame."""
    if len(images) > layout.capacity:
        raise ValueError(f"{len(images)} images exceed layout capacity {layout.capacity}")
    frame = np.zeros(layout.frame, dtype=np.uint8)
    for i, img in enumerate(images):
        img = np.asarray(img)
        if img.shape[0] > layout.tile_px[0] or img.shape[1] > layout.tile_px[1]:
            raise ValueError(f"image {img.shape} larger than tile {layout.tile_px}")
        r, c = layout.cell_origin(i)
        frame[r : r + img.shape[0], c : c + img.shape[1]] = img
    return frame


def untile(frame: np.ndarray, layout: TileLayout) -> list[np.ndarray]:
    """Extract every cell window of a frame-sized grid, row-major."""
    frame = np.asarray(frame)
    if frame.shape[-2:] != layout.frame:
        raise ValueError(f"frame {frame.shape} does not match layout frame {layout.frame}")
    h, w = layout.tile_px
    out = []
    for i in range(layout.capacity):
        r, c = layout.cell_origin(i)
        out.append(frame[..., r : r + h, c : c + w].copy())
    return out


# ---------------------------------------------------------------------------
# loaders


def _find_idx_file(root: Path, stem: str) -> Path:
    # Accept the canonical names with or without .gz / dotted idx suffix.
    for cand in (stem, stem + ".gz", stem.replace("-idx", ".idx"), stem.replace("-idx", ".idx") + ".gz"):
        p = root / cand
        if p.exists():
            return p
    raise DataFormatError(f"missing dataset file {stem} under {root}")


def _read_idx(path: Path, ndim: int) -> np.ndarray:
    """The ``ndim``-dimensional unsigned-byte IDX array in a plain or ``.gz``
    file. It is read to its end, so no header can size a read past that."""
    try:
        with (gzip.open if path.suffix == ".gz" else open)(path, "rb") as f:
            raw = f.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DataFormatError(f"{path}: not a readable gzip stream: {exc}") from None
    head = 4 * (1 + ndim)
    if len(raw) < head:
        raise DataFormatError(f"{path}: truncated header at offset {len(raw)}")
    magic, *shape = struct.unpack(f">{1 + ndim}I", raw[:head])
    if magic != 0x800 + ndim:
        raise DataFormatError(f"{path}: bad magic 0x{magic:08x} at offset 0 (want 0x{0x800 + ndim:08x})")
    count = math.prod(shape)
    if len(raw) - head < count:
        raise DataFormatError(f"{path}: truncated at offset {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, count=count, offset=head).reshape(shape)


def load_mnist(path: str | Path) -> Dataset:
    """Load the four canonical big-endian IDX files from a directory."""
    root = Path(path)
    splits = []
    for prefix in ("train", "t10k"):
        images = _read_idx(_find_idx_file(root, f"{prefix}-images-idx3-ubyte"), 3)
        label_path = _find_idx_file(root, f"{prefix}-labels-idx1-ubyte")
        labels = _read_idx(label_path, 1).astype(np.int64)
        if labels.size and labels.max() >= 10:
            raise DataFormatError(f"{label_path}: label {labels.max()} out of range (< 10)")
        if len(images) != len(labels):
            raise DataFormatError("image/label counts differ")
        splits += [images, labels]
    return Dataset(*splits, tuple(str(d) for d in range(10)))


def read_npy(path: str | Path) -> np.ndarray:
    """The bool, integer or float array in a ``.npy`` file, copied out of the
    mapped file, so no header can size a read past the file's end. Any other
    file (a pickle, an ``.npz`` archive, a short body) is a ``DataFormatError``."""
    path = Path(path)
    fmt = np.lib.format
    try:
        with open(path, "rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            # versions 2.0 and 3.0 share the 4-byte header length
            read_header = fmt.read_array_header_1_0 if fmt.read_magic(mm) == (1, 0) else fmt.read_array_header_2_0
            shape, fortran_order, dtype = read_header(mm)
            if dtype.kind not in "buif":
                raise ValueError(f"dtype {dtype} is not bool, integer or float")
            if min(shape, default=0) < 0 or math.prod(shape) * dtype.itemsize > len(mm) - mm.tell():
                raise ValueError(f"a {dtype} array of shape {shape} needs more bytes than the file holds")
            # one expression, so no view of the map outlives it when the map closes
            return np.frombuffer(mm, dtype, math.prod(shape), mm.tell()).reshape(
                shape, order="F" if fortran_order else "C").copy(order="K")
    except (OSError, EOFError, ValueError) as exc:  # ValueError: no .npy magic or header, or raised above
        raise DataFormatError(f"{path}: not a readable .npy array: {exc}") from None


RECORD_BYTES = 1 + 3 * 32 * 32  # label byte + R, G, B planes


def _read_cifar_batch(path: Path) -> tuple[np.ndarray, np.ndarray]:
    if not path.exists():
        raise DataFormatError(f"missing batch file {path}")
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
    train = [_read_cifar_batch(root / f"data_batch_{i}.bin") for i in range(1, 6)]
    test_x, test_y = _read_cifar_batch(root / "test_batch.bin")
    return Dataset(*(np.concatenate(a) for a in zip(*train)), test_x, test_y, CIFAR10_CLASSES)


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
        arr = read_npy(f)
        if arr.ndim == 2 and arr.shape[1] == 784:
            arr = arr.reshape(-1, 28, 28)
        if arr.dtype != np.uint8 or arr.ndim != 3 or arr.shape[1:] != (28, 28):
            raise DataFormatError(f"{f}: expected (N, 784) or (N, 28, 28) uint8 bitmaps, "
                                  f"got {arr.dtype} {arr.shape}")
        n_test = int(round(len(arr) * test_fraction))
        split = len(arr) - n_test
        train_x.append(arr[:split])
        train_y.append(np.full(split, label, dtype=np.int64))
        test_x.append(arr[split:])
        test_y.append(np.full(n_test, label, dtype=np.int64))
        names.append(f.stem)
    return Dataset(*(np.concatenate(a) for a in (train_x, train_y, test_x, test_y)), tuple(names))


# ---------------------------------------------------------------------------
# file formats: JSON documents, P4 bit-plane stacks (what the mirror shows) and
# P5 graymaps (what the camera sees); exact float64 grids are .npy arrays


def read_json(path: str | Path):
    """The UTF-8 JSON document in a file; any other file is a
    ``DataFormatError`` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise DataFormatError(f"{path}: not a UTF-8 JSON document: {exc}") from None


# The magic, then width, height and (P5 only) maxval, each after whitespace
# or comments, then exactly one whitespace byte before the samples (which may
# themselves be whitespace-valued bytes). A size of more than 9 digits is a
# bad header, not a digit string too long for int().
_PNM_FIELD = rb"(?:\s|#[^\r\n]*)+(\d{1,9})"
_PNM_HEADER = re.compile(rb"P(?:(4)|5)" + _PNM_FIELD * 2 + rb"(?(1)|" + _PNM_FIELD + rb")\s")


def _pnm_header(raw: bytes, pos: int, magic: bytes, path: Path) -> tuple[int, int, int, int]:
    """Width, height, maxval (1 for a P4 bitmap) and body offset of the
    ``magic`` header at ``raw[pos:]``. The body those sizes need is checked
    against the bytes left, so no header can size a read past the file."""
    header = _PNM_HEADER.match(raw, pos)
    name = magic.decode()
    if header is None or not header[0].startswith(magic):
        raise DataFormatError(f"{path}: not a binary {name} image at offset {pos}")
    w, h, maxval = int(header[2]), int(header[3]), int(header[4] or 1)
    if w < 1 or h < 1 or not 0 < maxval < 65536:
        raise DataFormatError(f"{path}: bad {name} header {w}x{h}, maxval {maxval} at offset {pos}")
    size = h * -(-w // 8) if name == "P4" else w * h * (1 if maxval < 256 else 2)
    if len(raw) - header.end() < size:
        raise DataFormatError(f"{path}: truncated {name} body at offset {header.end()}")
    return w, h, maxval, header.end()


def _pnm(magic: bytes, grid: np.ndarray, body: bytes) -> bytes:
    """``body`` after the ``magic`` header of ``grid``'s width and height,
    and for a P5 graymap the maxval 255 of its 8-bit samples."""
    h, w = grid.shape
    return b"%s\n%d %d\n%s" % (magic, w, h, b"255\n" if magic == b"P5" else b"") + body


_MANIFEST_FIELDS = ("thresholds", "channel_of_plane", "source_shape")  # BitPlaneStack fields after planes


def export_stack(stack: BitPlaneStack, path_prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>.p4`` (concatenated bitmaps) and ``<prefix>.json``."""
    p4_path, manifest_path = (Path(path_prefix).with_suffix(s) for s in (".p4", ".json"))
    p4_path.write_bytes(b"".join(_pnm(b"P4", p, np.packbits(p, axis=1).tobytes()) for p in stack.planes))
    manifest = {"n_planes": len(stack.planes), **{k: list(getattr(stack, k)) for k in _MANIFEST_FIELDS}}
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
    return p4_path, manifest_path


def import_stack(path_prefix: str | Path) -> BitPlaneStack:
    """Read back what ``export_stack`` wrote: every bitmap up to the end of
    ``<prefix>.p4``, which must be as many as ``<prefix>.json`` lists."""
    p4_path, manifest_path = (Path(path_prefix).with_suffix(s) for s in (".p4", ".json"))
    manifest = read_json(manifest_path)
    raw = p4_path.read_bytes()
    planes, pos = [], 0
    while pos < len(raw):
        w, h, _, start = _pnm_header(raw, pos, b"P4", p4_path)
        if planes and planes[0].shape != (h, w):
            raise DataFormatError(f"{p4_path}: bitmap at offset {pos} is {w}x{h}, not the first one's size")
        row_bytes = -(-w // 8)
        pos = start + h * row_bytes
        rows = np.frombuffer(raw, np.uint8, h * row_bytes, start).reshape(h, row_bytes)
        planes.append(np.unpackbits(rows, axis=1, count=w))
    n_planes = manifest.get("n_planes") if isinstance(manifest, dict) else None
    if n_planes != len(planes):
        raise DataFormatError(f"{p4_path}: holds {len(planes)} bitmaps, {manifest_path.name} lists n_planes {n_planes}")
    try:
        return BitPlaneStack(np.stack(planes), *(tuple(manifest[k]) for k in _MANIFEST_FIELDS))
    except (KeyError, TypeError, ValueError) as exc:  # a key the manifest lacks, or a bad value
        raise DataFormatError(f"{manifest_path}: not a manifest of {len(planes)} bit planes: {exc!r}") from None


def write_pgm(grid: np.ndarray, path: str | Path) -> Path:
    """Write a 2D grid as an 8-bit binary P5 graymap, scaled to full range."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError("P5 export expects a 2D grid")
    peak = grid.max()
    scaled = np.zeros_like(grid) if peak <= 0 else np.clip(np.rint(grid / peak * 255), 0, 255)
    path = Path(path)
    path.write_bytes(_pnm(b"P5", scaled, scaled.astype(np.uint8).tobytes()))
    return path


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary P5 graymap: uint8 samples for maxval < 256, else
    big-endian uint16. A malformed file is a ``DataFormatError``."""
    path = Path(path)
    raw = path.read_bytes()
    w, h, maxval, start = _pnm_header(raw, 0, b"P5", path)
    img = np.frombuffer(raw, np.uint8 if maxval < 256 else ">u2", w * h, start).reshape(h, w)
    if img.max() > maxval:
        raise DataFormatError(f"{path}: sample above maxval {maxval}")
    return img
