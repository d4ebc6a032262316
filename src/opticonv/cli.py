"""Command-line entry point tying the pipeline together.

Subcommands: quantize, train, finetune, eval, simulate, perf. One structured
JSON config document carries every knob with paper-faithful defaults;
command-line flags override single values (flag wins). Artifacts land in a
run directory named by the invocation: the subcommand, the effective config
(--config and --seed act through it) and every argument that changes the
files written. --out-dir, --threads and --log-every do not name the run.
Rerunning an invocation reproduces its files byte for byte (timestamps
appear only in log lines).

Exit codes: 0 success, 1 usage error (including a flag or config value the
library rejects, and an --out-dir that is or lies under a file, which is
checked before any work), 2 data/format error (any input file, the config
document included, that is missing or will not decode), 3 numerical failure.
Each failure prints one line on stderr. A command makes its run directory
just before it writes its first file, once its inputs have loaded and been
checked, so a command that fails on its inputs leaves none behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import datapipe, network, perfmodel
from .datapipe import DataFormatError
from .network import TrainingDivergedError
from .optics import FieldPlane, NoiseSpec, OpticalConfig, camera_capture, ideal_aperture, multi_kernel_forward

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class QuantizeConfig:
    levels: int = 4
    threshold_frac: float = 0.8

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"quantize.levels must be >= 1, got {self.levels}")
        if not 0 < self.threshold_frac < 1:
            raise ValueError(f"quantize.threshold_frac must be in (0, 1), got {self.threshold_frac}")


@dataclass(frozen=True)
class TrainSection:
    lr_stage1: float = 0.01
    lr_stage2: float = 0.005
    momentum: float = 0.9
    batch_size: int = 64
    epochs_stage1: int = 10
    epochs_stage2: int = 5
    grid: int = 256
    dtype: str = "float32"
    n_kernels: int = 16
    hidden: int = 256
    limit: int | None = None  # cap on training images, None = full split
    capture_n: int = 2000  # stage-2 capture set size

    def __post_init__(self) -> None:
        for name in ("n_kernels", "hidden", "grid", "capture_n"):
            if getattr(self, name) < 1:
                raise ValueError(f"train.{name} must be >= 1, got {getattr(self, name)}")
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"train.limit must be null or >= 1, got {self.limit}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"train.dtype must be 'float32' or 'float64', got {self.dtype!r}")


@dataclass(frozen=True)
class PerfSection:
    presets: tuple[str, ...] = ("Gen1.0", "Gen1.1", "Gen1.2", "Gen1.3")
    modes: tuple[str, ...] = ("fft", "brute")
    high_res: bool = False


@dataclass(frozen=True)
class PathsSection:
    mnist: str = "/root/data/mnist"
    cifar10: str = "/root/data/cifar-10-batches-bin"
    quickdraw: str = "/root/data/quickdraw"


@dataclass(frozen=True)
class RunConfig:
    """Structured config document; every field has a paper-faithful default
    where one exists. Unknown keys in a config file are rejected."""

    seed: int = 0
    optical: OpticalConfig = OpticalConfig()
    quantize: QuantizeConfig = QuantizeConfig()
    train: TrainSection = TrainSection()
    noise: NoiseSpec = NoiseSpec(sigma=0.1, seed=1)
    perf: PerfSection = PerfSection()
    paths: PathsSection = PathsSection()


# JSON value types accepted for each annotated field type; bool is an int
# subclass in Python, so it is told apart explicitly.
_JSON_TYPES = {
    "int": (int,),
    "int | None": (int, type(None)),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
    "tuple[str, ...]": (list,),
}


def _check_type(value, type_name: str, where: str) -> None:
    allowed = _JSON_TYPES[type_name]
    ok = isinstance(value, allowed) and (bool in allowed) == isinstance(value, bool)
    if type_name == "tuple[str, ...]":
        ok = ok and all(isinstance(v, str) for v in value)
    if not ok:
        raise UsageError(f"config key {where} must be {type_name}, got {json.dumps(value)}")
    if isinstance(value, float) and not math.isfinite(value):  # JSON NaN and Infinity parse
        raise UsageError(f"config key {where} must be finite, got {json.dumps(value)}")


def _overlay(default, doc, where: str):
    """``default`` with the JSON object ``doc`` laid over it, so a key the
    document leaves out keeps its default. A field whose default is a
    dataclass recurses; every other value is type-checked under its dotted
    key path ``where``."""
    if not isinstance(doc, dict):
        raise UsageError(f"config {where or 'document'} must be a JSON object, got {json.dumps(doc)}")
    types = {f.name: f.type for f in fields(default)}
    paths = {key: f"{where}.{key}" if where else key for key in doc}
    unknown = sorted(paths[key] for key in doc if key not in types)
    if unknown:
        raise UsageError(f"unknown config key(s) {unknown}")
    values = {}
    for key, value in doc.items():
        if is_dataclass(getattr(default, key)):
            values[key] = _overlay(getattr(default, key), value, paths[key])
        else:
            _check_type(value, types[key], paths[key])
            values[key] = tuple(value) if isinstance(value, list) else value
    return replace(default, **values)


def load_run_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig()
    cfg = _overlay(RunConfig(), datapipe.read_json(path), "")
    _train_config(cfg)  # the library's own range checks, before any run directory exists
    return cfg


# arguments that change no file a command writes (config and seed act through the config)
_UNNAMED_ARGS = ("config", "seed", "out_dir", "threads", "log_every", "fn")


def config_digest(cfg: RunConfig, args: argparse.Namespace) -> str:
    """Digest of an invocation: the effective config and every parsed
    argument that changes the files the command writes."""
    named = {k: v for k, v in vars(args).items() if k not in _UNNAMED_ARGS}
    blob = json.dumps({"args": named, "config": asdict(cfg)}, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _run_dir(args, cfg: RunConfig) -> Path:
    d = Path(args.out_dir) / f"{args.command}-{config_digest(cfg, args)}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


# ---------------------------------------------------------------------------
# dataset helpers


def _split(args, cfg: RunConfig, split: str, limit: int | None) -> tuple[np.ndarray, np.ndarray, int]:
    """The first ``limit`` (all when 0 or None) images of ``split`` ("train"
    or "test") of ``args.dataset``, their labels and the class count. A
    split with no images is a data error."""
    load, path = {"mnist": (datapipe.load_mnist, cfg.paths.mnist),
                  "cifar10": (datapipe.load_cifar10, cfg.paths.cifar10),
                  "quickdraw": (datapipe.load_quickdraw, cfg.paths.quickdraw)}[args.dataset]
    ds = load(path)
    images, labels = getattr(ds, f"{split}_images"), getattr(ds, f"{split}_labels")
    if not len(images):
        raise DataFormatError(f"the {args.dataset} {split} split has no images")
    if limit:
        images, labels = images[:limit], labels[:limit]
    return images, labels, ds.n_classes


def _load_split(args, cfg: RunConfig, split: str, limit: int | None,
                params: network.ModelParams | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """``_split``, binarized. Images that are not single-channel, or that do
    not fit the checkpoint ``params`` (its window, or a label past its
    classes), are a data error."""
    images, labels, n_classes = _split(args, cfg, split, limit)
    if images.ndim != 3:
        raise DataFormatError(f"{args.dataset} images {images.shape[1:]} are not single-channel")
    if params is not None:
        window = params.image_hw
        if images.shape[1:] != window:
            raise DataFormatError(f"image size {images.shape[1:]} does not match checkpoint window {window}")
        if labels.max() >= params.n_classes:
            raise DataFormatError(f"{args.dataset} label {labels.max()} is past the checkpoint's "
                                  f"{params.n_classes} classes")
    bits = np.stack([datapipe.binarize_gray(img, cfg.quantize.threshold_frac) for img in images])
    return bits, labels, n_classes


# ---------------------------------------------------------------------------
# subcommands


def cmd_quantize(args, cfg: RunConfig) -> int:
    images, _, _ = _split(args, cfg, args.split, args.limit)
    levels = args.levels if args.levels is not None else cfg.quantize.levels
    run_dir = _run_dir(args, cfg)
    grayscale = images.ndim == 3
    scores = []
    manifest_rows = []
    for idx, img in enumerate(images):
        if grayscale and args.levels is None:
            # threshold mode: one plane at the configured fraction of peak
            plane = datapipe.binarize_gray(img, cfg.quantize.threshold_frac)
            stack = datapipe.BitPlaneStack(
                planes=plane[None],
                thresholds=(cfg.quantize.threshold_frac,),
                channel_of_plane=(0,),
                source_shape=(*img.shape, 1),
            )
            recon = plane.astype(np.float64) * datapipe.FULL_SCALE  # full-scale display
        else:
            stack = (
                datapipe.quantize_gray(img, levels)
                if grayscale
                else datapipe.quantize_rgb(img, levels)
            )
            recon = datapipe.recombine(stack)
        scores.append(datapipe.ssim(img, recon))
        p4, man = datapipe.export_stack(stack, run_dir / f"img{idx:05d}")
        manifest_rows.append({"index": idx, "planes": stack.planes.shape[0], "file": p4.name})
    mean_ssim = float(np.mean(scores))
    summary = {
        "dataset": args.dataset,
        "split": args.split,
        "count": len(images),
        "planes_per_image": manifest_rows[0]["planes"],
        "mean_ssim": mean_ssim,
        "images": manifest_rows,
    }
    (run_dir / "manifest.json").write_text(json.dumps(summary, indent=1) + "\n")
    _log(f"quantized {len(images)} {args.dataset} images -> {run_dir}")
    print(f"mean SSIM: {mean_ssim:.4f}")
    return EXIT_OK


def _train_config(cfg: RunConfig) -> network.TrainConfig:
    t = cfg.train
    return network.TrainConfig(
        lr_stage1=t.lr_stage1,
        lr_stage2=t.lr_stage2,
        momentum=t.momentum,
        batch_size=t.batch_size,
        epochs_stage1=t.epochs_stage1,
        epochs_stage2=t.epochs_stage2,
        seed=cfg.seed,
        dtype=t.dtype,
    )


def cmd_train(args, cfg: RunConfig) -> int:
    bits, labels, n_classes = _load_split(args, cfg, "train", cfg.train.limit)
    _log(f"stage 1 on {len(bits)} {args.dataset} images, grid {cfg.train.grid}")
    params = network.init_params(
        seed=cfg.seed,
        n_kernels=cfg.train.n_kernels,
        grid=cfg.train.grid,
        image_hw=bits.shape[1:],
        n_classes=n_classes,
        hidden=cfg.train.hidden,
        highpass_mask_enabled=not args.no_highpass,
    )
    params, trace = network.train_stage1(
        (bits, labels), _train_config(cfg), params, workers=args.threads, log_every=args.log_every
    )
    run_dir = _run_dir(args, cfg)
    ckpt = network.save_checkpoint(params, run_dir / "stage1.ckpt", stage=1, seed=cfg.seed)
    network.write_trace_csv(trace, run_dir / "trace.csv")
    _log(f"checkpoint -> {ckpt}")
    print(f"final train accuracy: {trace[-1]['accuracy']:.4f}")
    return EXIT_OK


def cmd_finetune(args, cfg: RunConfig) -> int:
    params, header = network.load_checkpoint(args.checkpoint)
    bits, labels, _ = _load_split(args, cfg, "train", cfg.train.capture_n, params)
    tconf = _train_config(cfg)
    _log(f"capturing {len(bits)} optical-path outputs (sigma={cfg.noise.sigma})")
    captured = network.capture_features(
        params, bits, cfg.optical, cfg.noise, seed=cfg.seed, dtype=tconf.dtype, workers=args.threads
    )
    params, trace = network.finetune_stage2(params, (captured, labels), tconf)
    run_dir = _run_dir(args, cfg)
    ckpt = network.save_checkpoint(params, run_dir / "stage2.ckpt", stage=2, seed=cfg.seed)
    network.write_trace_csv(trace, run_dir / "trace.csv")
    _log(f"checkpoint -> {ckpt}")
    print(f"final stage-2 train accuracy: {trace[-1]['accuracy']:.4f}")
    return EXIT_OK


def cmd_eval(args, cfg: RunConfig) -> int:
    params, header = network.load_checkpoint(args.checkpoint)
    bits, labels, _ = _load_split(args, cfg, "test", args.limit, params)
    result = network.evaluate(
        params, (bits, labels), mode=args.mode, config=cfg.optical, noise=cfg.noise,
        dtype=cfg.train.dtype, workers=args.threads,
    )
    metrics = {
        "dataset": args.dataset,
        "mode": args.mode,
        "n": result.n_samples,
        "accuracy": result.accuracy,
        "confusion": result.confusion.tolist(),
    }
    run_dir = _run_dir(args, cfg)
    (run_dir / "metrics.json").write_text(json.dumps(metrics, indent=1) + "\n")
    print(f"{args.dataset}  accuracy {result.accuracy * 100:.2f}%  ({result.n_samples} samples)")
    return EXIT_OK


def _load_sim_image(path: Path) -> np.ndarray:
    """A 2-D numeric image from a ``.npy`` array or, for any other suffix, a
    binary P5 graymap. A file that does not read as one is a data error."""
    img = datapipe.read_npy(path) if path.suffix == ".npy" else datapipe.read_pgm(path)
    if img.ndim != 2:
        raise DataFormatError(f"{path}: expected a 2-D image, got shape {img.shape}")
    return img


def _parse_windows(spec: str, image_shape: tuple[int, ...]) -> tuple[int, int]:
    """``RxC`` with 1 <= R <= image rows and 1 <= C <= image cols."""
    match = re.fullmatch(r"(\d+)x(\d+)", spec)
    if match is None:
        raise UsageError(f"--windows expects RxC, e.g. 7x7, got {spec!r}")
    rows, cols = int(match[1]), int(match[2])
    if not (1 <= rows <= image_shape[0] and 1 <= cols <= image_shape[1]):
        raise UsageError(
            f"--windows {spec} does not fit the {image_shape[0]}x{image_shape[1]} image: "
            "need 1 <= R <= rows and 1 <= C <= cols"
        )
    return rows, cols


def cmd_simulate(args, cfg: RunConfig) -> int:
    if args.windows and cfg.noise.bin_factor > 1:
        raise ValueError(
            f"simulate --windows needs noise.bin_factor 1, got {cfg.noise.bin_factor}: "
            "windows are cut in unbinned frame coordinates"
        )
    img = _load_sim_image(Path(args.image))
    g = cfg.train.grid
    if img.shape[0] > g or img.shape[1] > g:
        raise DataFormatError(f"image {img.shape} exceeds the {g}-px simulation grid")
    h, w = img.shape
    if args.windows:  # the image's RxC cells, cut row-major from each output
        rows, cols = _parse_windows(args.windows, img.shape)
        layout = datapipe.TileLayout(rows, cols, gap=0, tile_px=(h // rows, w // cols), frame=(h, w))
    frame = np.zeros((g, g), dtype=np.uint8)
    r0, c0 = (g - h) // 2, (g - w) // 2
    frame[r0 : r0 + h, c0 : c0 + w] = img > 0
    plane = FieldPlane.from_bits(frame, cfg.optical.dmd_pitch)

    if args.checkpoint:
        params, _ = network.load_checkpoint(args.checkpoint)
        if args.kernels > params.n_kernels:
            raise UsageError(
                f"--kernels {args.kernels} exceeds the checkpoint's bank of {params.n_kernels} kernels"
            )
        bank = network.binarized_kernels(params)[: args.kernels]
    else:
        bank = np.ones((args.kernels, g, g))
    kernels = list(bank)
    aperture = ideal_aperture(range(len(kernels)), (g, g), cfg.optical)
    outputs = multi_kernel_forward(plane, kernels, cfg.optical, aperture)
    rng = np.random.default_rng(cfg.seed)
    outputs = [camera_capture(o, cfg.noise, rng=rng) for o in outputs]

    run_dir = _run_dir(args, cfg)
    pitch = cfg.optical.dmd_pitch
    datapipe.write_pgm(frame, run_dir / "input.pgm")
    datapipe.write_raw(frame.astype(np.float64), run_dir / "input.f64", pitch)
    spectrum_mag = np.abs(plane.spectrum())
    datapipe.write_pgm(spectrum_mag, run_dir / "fourier_mag.pgm")
    datapipe.write_raw(spectrum_mag, run_dir / "fourier_mag.f64", pitch)
    n_windows = 0
    for kidx, out in enumerate(outputs):
        datapipe.write_pgm(out, run_dir / f"kernel{kidx}.pgm")
        datapipe.write_raw(out, run_dir / f"kernel{kidx}.f64", pitch)
        if args.windows:
            for i, win in enumerate(datapipe.untile(out[r0 : r0 + h, c0 : c0 + w], layout)):
                datapipe.write_pgm(win, run_dir / f"kernel{kidx}_win{i // cols}_{i % cols}.pgm")
                n_windows += 1
    _log(f"simulate: {len(outputs)} kernel outputs, {n_windows} windows -> {run_dir}")
    return EXIT_OK


def cmd_perf(args, cfg: RunConfig) -> int:
    presets = [
        perfmodel.generation_preset(name, high_res=cfg.perf.high_res)
        for name in cfg.perf.presets
    ]
    if args.custom:
        m, n, i, k, f = args.custom
        presets.append(
            perfmodel.custom_scenario(m, n, input_parallelism=i, kernel_parallelism=k, frame_rate_hz=f)
        )
    rows = perfmodel.sweep_report(presets, modes=cfg.perf.modes)
    run_dir = _run_dir(args, cfg)
    csv_path = perfmodel.write_report_csv(rows, run_dir / "perf.csv")
    json_path = perfmodel.write_report_json(rows, run_dir / "perf.json")
    _log(f"{len(rows)} report rows -> {csv_path}, {json_path}")
    for row in rows:
        print(
            f"{row['generation']:8s} {row['mode']:6s} {row['ops_per_watt']:.4e} OPS/W  "
            f"latency {row['latency_s'] * 1e3:.2f} ms  bottleneck {row['bottleneck']}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1 with one line, not argparse's 2
        raise UsageError(f"{message} (see '{self.prog} -h')")


def _int_at_least(low: int):
    """argparse type for an integer flag that must be >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_limit = _int_at_least(0)  # a count of images, 0 for all of them


class _CustomScenario(argparse.Action):
    """``perf --custom M N I K F``: four integers and a finite frame rate;
    anything else is a usage error that names the flag."""

    def __call__(self, parser, namespace, values, option_string=None):
        *counts, rate = values
        try:
            counts = [int(v) for v in counts]
        except ValueError:
            raise argparse.ArgumentError(self, f"M N I K must be integers, got {' '.join(counts)}") from None
        try:
            value = float(rate)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise argparse.ArgumentError(self, f"F (frame_rate_hz) must be a finite number, got {rate!r}")
        setattr(namespace, self.dest, (*counts, value))


def build_parser() -> _Parser:
    p = _Parser(prog="opticonv", description=__doc__)
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--seed", type=_int_at_least(0), help="override config seed")
    p.add_argument("--out-dir", default="runs", help="root directory for run artifacts")
    p.add_argument("--threads", type=_int_at_least(1), default=1, help="FFT worker threads")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="bit-plane quantization + SSIM summary")
    q.add_argument("--dataset", required=True, choices=("mnist", "cifar10", "quickdraw"))
    q.add_argument("--split", default="test", choices=("train", "test"))
    q.add_argument("--levels", type=_int_at_least(1), default=None,
                   help="threshold-ladder levels; omit for grayscale threshold mode")
    q.add_argument("--limit", type=_limit, default=100, help="max images to export, 0 = all")
    q.set_defaults(fn=cmd_quantize)

    t = sub.add_parser("train", help="stage-1 noise-free training")
    t.add_argument("--dataset", required=True, choices=("mnist", "cifar10", "quickdraw"))
    t.add_argument("--no-highpass", action="store_true", help="disable the center-3x3 kernel mask")
    t.add_argument("--log-every", type=_int_at_least(0), default=0, help="steps between log lines, 0 = none")
    t.set_defaults(fn=cmd_train)

    ft = sub.add_parser("finetune", help="stage-2 head calibration on noisy captures")
    ft.add_argument("checkpoint")
    ft.add_argument("--dataset", required=True, choices=("mnist", "cifar10", "quickdraw"))
    ft.set_defaults(fn=cmd_finetune)

    e = sub.add_parser("eval", help="test-split accuracy and confusion")
    e.add_argument("checkpoint")
    e.add_argument("--dataset", required=True, choices=("mnist", "cifar10", "quickdraw"))
    e.add_argument("--mode", default="digital", choices=("digital", "optical"))
    e.add_argument("--limit", type=_limit, default=0, help="max test images, 0 = all")
    e.set_defaults(fn=cmd_eval)

    s = sub.add_parser("simulate", help="single-frame end-to-end optical dump")
    s.add_argument("image", help="input pattern (.npy or binary P5 graymap)")
    s.add_argument("--kernels", type=_int_at_least(1), default=1, help="parallel kernel count")
    s.add_argument("--checkpoint", help="take kernels from a trained checkpoint")
    s.add_argument("--windows", help="untile outputs as RxC windows, e.g. 7x7")
    s.set_defaults(fn=cmd_simulate)

    pf = sub.add_parser("perf", help="throughput/energy sweep report")
    pf.add_argument("--custom", nargs=5, metavar=("M", "N", "I", "K", "F"), action=_CustomScenario,
                    help="append one custom scenario (image MxN, parallelism IxK, rate F)")
    pf.set_defaults(fn=cmd_perf)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out = Path(args.out_dir)  # checked before any work, so a bad one costs no run
        nearest = next(p for p in (out, *out.parents) if p.exists())
        if not nearest.is_dir():
            raise UsageError(f"--out-dir {out}: {nearest} is not a directory")
        cfg = load_run_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        return args.fn(args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, OSError) as exc:  # OSError: an input that will not read
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # a flag or config value the library rejects
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
