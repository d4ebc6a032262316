"""The benchmark's three workloads: set-up, two timed operations each, and the
checks on their outputs.

Every workload has a *fit* operation and an *eval* operation; eval scores
the model of the latest fit. ``train`` and ``capture`` go through ``opticonv.cli.main`` in-process
on synthetic IDX files, ``tiled`` calls the library directly.

- ``train``: ``opticonv train`` (stage 1, one epoch) then
  ``opticonv eval --mode digital``. The conv forward and backward do the work;
  optics and the camera never run.
- ``capture``: ``opticonv finetune`` (noisy optical capture plus head
  retraining) then ``opticonv eval --mode optical``, from a stage-1 checkpoint
  written at set-up. The per-image optical loop does the work; the stage-1
  backward never runs.
- ``tiled``: ``network.features_tiled`` plus ``network.finetune_stage2`` on
  7x7 frames, then ``network.evaluate_tiled``. Each full-grid frame carries 49
  images, so the optical layer runs per frame, not per image.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from opticonv import cli, datapipe, network
from opticonv.optics import FieldPlane, NoiseSpec, OpticalConfig, forward_4f

import synthdata

NOISE_SIGMA = 0.1
CHANCE_FLOOR = 0.3  # 3x chance for 10 classes
PROBE_RTOL = 1e-9
NOISE_RTOL = 0.1
GRAD_RTOL = 1e-6
# Finite-difference steps along the probe direction. The smaller error
# counts: a max-pool, ReLU or peak-pixel switch inside one step spoils that
# step's estimate alone.
GRAD_STEPS = (1e-6, 1e-7)
THRESHOLD_FRAC = 0.8  # the CLI's default binarization threshold
LR_STAGE1 = 0.2
LR_STAGE2 = 0.05
EPOCHS_STAGE2 = 5
HEAD_FIT_EPOCHS = 30  # capture, tiled: epochs of the set-up head fit
TILE_GAP = 8


class OpFailed(RuntimeError):
    """A timed operation returned a failure code or a malformed output."""


@dataclass(frozen=True)
class Sizes:
    grid: int = 256
    n_kernels: int = 16
    hidden: int = 256
    batch: int = 64
    train_n: int = 64  # train: stage-1 images per fit (one epoch, one step)
    test_n: int = 256  # train: digital eval images
    stage1_n: int = 64  # capture, tiled: images of the set-up head fit
    capture_n: int = 48  # capture: images captured per fit
    optical_test_n: int = 96  # capture: optical eval images
    tiles: int = 7  # tiled: tiles x tiles images per frame
    tiled_frames: int = 4  # tiled: frames per fit and per eval
    probe_n: int = 4


#: Reduced sizes for the smoke tests.
TINY = Sizes(
    grid=64, n_kernels=4, hidden=32, batch=8, train_n=16, test_n=16,
    stage1_n=20, capture_n=10, optical_test_n=10, tiles=2, tiled_frames=5, probe_n=2,
)


def _binarize(images: np.ndarray) -> np.ndarray:
    return np.stack([datapipe.binarize_gray(img, THRESHOLD_FRAC) for img in images])


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def _train_section(sizes: Sizes) -> dict:
    return {
        "lr_stage1": LR_STAGE1, "lr_stage2": LR_STAGE2, "batch_size": sizes.batch,
        "epochs_stage1": 1, "epochs_stage2": EPOCHS_STAGE2, "grid": sizes.grid,
        "dtype": "float32", "n_kernels": sizes.n_kernels, "hidden": sizes.hidden,
        "capture_n": sizes.capture_n,
    }


def _train_config(sizes: Sizes, seed: int) -> network.TrainConfig:
    """The library-side twin of the config document's ``train`` section."""
    return network.TrainConfig(
        lr_stage1=LR_STAGE1, lr_stage2=LR_STAGE2, batch_size=sizes.batch,
        epochs_stage1=1, epochs_stage2=EPOCHS_STAGE2, seed=seed,
        noise=NoiseSpec(sigma=NOISE_SIGMA, seed=seed), grid=sizes.grid, dtype="float32",
    )


def _initial_params(sizes: Sizes, seed: int) -> network.ModelParams:
    return network.init_params(
        seed=seed, n_kernels=sizes.n_kernels, grid=sizes.grid,
        image_hw=(synthdata.SIDE, synthdata.SIDE), n_classes=synthdata.N_CLASSES,
        hidden=sizes.hidden,
    )


def _stage1_params(sizes: Sizes, seed: int, split, workers: int) -> network.ModelParams:
    """Seeded kernels with the head fitted on their noise-free digital
    features: a stage-1 checkpoint without the cost of stage-1 training."""
    images, labels = split
    params = _initial_params(sizes, seed)
    bits = _binarize(images)
    # One image at a time, so the set-up's memory stays below the timed part's.
    feats = np.concatenate([
        network.conv_fourier_forward(img, params, dtype="float32", workers=workers) for img in bits
    ])
    config = replace(_train_config(sizes, seed), epochs_stage2=HEAD_FIT_EPOCHS)
    params, _ = network.finetune_stage2(params, (feats, labels.astype(np.int64)), config)
    return params


@dataclass
class Workload:
    """Shared plumbing: a work directory, the CLI prefix and the probes."""

    sizes: Sizes
    seed: int
    work: Path
    workers: int
    probe_bits: np.ndarray = field(init=False)
    probe_labels: np.ndarray = field(init=False)
    params: network.ModelParams = field(init=False)

    def _write_cli_inputs(self, train, test) -> bytes:
        mnist = synthdata.write_idx(self.work / "mnist", train, test)
        doc = {
            "seed": self.seed,
            "train": _train_section(self.sizes),
            "noise": {"sigma": NOISE_SIGMA, "seed": self.seed},
            "paths": {"mnist": str(mnist)},
        }
        (self.work / "config.json").write_text(json.dumps(doc, indent=1) + "\n")
        return b"".join(p.read_bytes() for p in sorted(mnist.iterdir()))

    def _cli(self, *argv: str) -> None:
        prefix = [
            "--config", str(self.work / "config.json"), "--out-dir", str(self.work / "runs"),
            "--threads", str(self.workers),
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*prefix, *argv])
        if code != 0:
            raise OpFailed(f"opticonv {argv[0]} exited {code}: {err.getvalue().strip()}")

    def _one(self, pattern: str) -> Path:
        found = sorted((self.work / "runs").glob(pattern))
        if len(found) != 1:
            raise OpFailed(f"expected one {pattern}, found {len(found)}")
        return found[0]

    def _cli_accuracy(self, mode: str, n: int) -> float:
        metrics = json.loads(self._one("eval-*/metrics.json").read_text())
        if metrics["mode"] != mode or metrics["n"] != n:
            raise OpFailed(f"eval reported mode {metrics['mode']} on {metrics['n']} images")
        return float(metrics["accuracy"])

    def _reference(self, bits: np.ndarray, bank: np.ndarray) -> np.ndarray:
        """``optics.forward_4f`` applied per image and kernel, cropped to the
        image window and gain-normalized per frame."""
        config = OpticalConfig()
        g, (h, w) = self.params.grid, self.params.image_hw
        r0, c0 = (g - h) // 2, (g - w) // 2
        out = np.empty((len(bits), len(bank), h, w))
        for i, img in enumerate(bits):
            frame = np.zeros((g, g), dtype=np.uint8)
            frame[r0 : r0 + h, c0 : c0 + w] = img
            plane = FieldPlane.from_bits(frame, config.dmd_pitch)
            out[i] = [forward_4f(plane, k, config)[r0 : r0 + h, c0 : c0 + w] for k in bank]
            out[i] /= out[i].max()
        return out

    def probe(self) -> float:
        """Largest deviation, relative to the largest reference value, of the
        digital float64 and the noise-free optical conv outputs from the
        physics reference."""
        ref = self._reference(self.probe_bits, network.binarized_kernels(self.params))
        worst = 0.0
        for mode in ("digital", "optical"):
            got = network.conv_fourier_forward(
                self.probe_bits, self.params, mode=mode, config=OpticalConfig(), dtype="float64",
                workers=self.workers,
            )
            worst = max(worst, float(np.max(np.abs(got - ref))))  # unit peaks: abs = rel
        return worst

    def probe_noise(self) -> float:
        """Relative deviation of the gain noise in the noisy optical capture
        from the specified ``NOISE_SIGMA``.

        The camera multiplies each pixel by ``1 + sigma * N(0, 1)`` and the
        conv layer rescales each frame to unit peak, so per image the ratio
        of noisy to noise-free output, over its mean, spreads by ``sigma``."""
        clean = network.conv_fourier_forward(
            self.probe_bits, self.params, mode="optical", config=OpticalConfig(), workers=self.workers,
        )
        noisy = network.conv_fourier_forward(
            self.probe_bits, self.params, mode="optical", config=OpticalConfig(),
            noise=NoiseSpec(sigma=NOISE_SIGMA, seed=self.seed), workers=self.workers,
        )
        ratios = []
        for c, n in zip(clean, noisy):
            r = n[c > 0.01] / c[c > 0.01]
            ratios.append(r / r.mean() - 1.0)
        return abs(float(np.std(np.concatenate(ratios))) / NOISE_SIGMA - 1.0)

    def probe_gradient(self) -> float:
        """Relative deviation of the float64 stage-1 kernel gradient, taken
        along a seeded direction, from a finite difference of the loss.

        The gradient comes from one ``train_stage1`` step at unit learning
        rate on the probe batch (the first momentum step is the plain
        gradient). The loss goes through the physics reference and
        ``head_forward``. The direction moves unmasked bins of the binary
        bank towards their other value, so the perturbed bank stays in
        [0, 1] as ``forward_4f`` requires, and the difference is the
        one-sided second-order one. Only bins whose gradient term is
        positive move: with mixed signs the terms cancel to a small sum
        whose relative error says little."""
        bits, labels = self.probe_bits, self.probe_labels
        config = replace(
            _train_config(self.sizes, self.seed), lr_stage1=1.0, batch_size=len(bits), dtype="float64",
        )
        stepped, _ = network.train_stage1((bits, labels), config, params=self.params, workers=self.workers)
        grad = self.params.fourier_kernels - stepped.fourier_kernels
        bank = network.binarized_kernels(self.params)
        towards = 1.0 - 2.0 * bank
        towards *= network.binarized_kernels(replace(self.params, fourier_kernels=np.ones_like(bank)))  # high-pass mask
        towards *= grad * towards > 0
        direction = np.random.default_rng(self.seed).uniform(0.0, 1.0, bank.shape) * towards

        def loss(t: float) -> float:
            logits = network.head_forward(self._reference(bits, bank + t * direction), self.params)
            z = logits - logits.max(axis=1, keepdims=True)
            return float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(labels)), labels]))

        analytic = float(np.sum(grad * direction))
        base = loss(0.0)
        errors = []
        for h in GRAD_STEPS:
            finite = (-3.0 * base + 4.0 * loss(h) - loss(2.0 * h)) / (2.0 * h)
            errors.append(abs(analytic - finite) / abs(finite))
        return min(errors)


class Train(Workload):
    def setup(self) -> str:
        s = self.sizes
        train, test = synthdata.make_splits(self.seed, s.train_n, s.test_n)
        self.params = _initial_params(s, self.seed)  # the kernels `opticonv train` starts from
        self.probe_bits = _binarize(test[0][: s.probe_n])
        self.probe_labels = test[1][: s.probe_n].astype(np.int64)
        return _digest(self._write_cli_inputs(train, test))

    def fit(self) -> int:
        self._cli("train", "--dataset", "mnist")
        self._one("train-*/stage1.ckpt")
        return self.sizes.train_n

    def eval(self) -> tuple[int, float]:
        ckpt = self._one("train-*/stage1.ckpt")
        self._cli("eval", str(ckpt), "--dataset", "mnist", "--mode", "digital")
        return self.sizes.test_n, self._cli_accuracy("digital", self.sizes.test_n)


class Capture(Workload):
    def setup(self) -> str:
        s = self.sizes
        stage1, train, test = synthdata.make_splits(self.seed, s.stage1_n, s.capture_n, s.optical_test_n)
        self.params = _stage1_params(s, self.seed, stage1, self.workers)
        self.probe_bits = _binarize(test[0][: s.probe_n])
        self.probe_labels = test[1][: s.probe_n].astype(np.int64)
        ckpt = network.save_checkpoint(self.params, self.work / "stage1.ckpt", stage=1, seed=self.seed)
        return _digest(self._write_cli_inputs(train, test), ckpt.read_bytes())

    def fit(self) -> int:
        self._cli("finetune", str(self.work / "stage1.ckpt"), "--dataset", "mnist")
        with self._one("finetune-*/stage2.ckpt").open("rb") as f:
            header = json.loads(f.readline())  # not load_checkpoint: it is a traced layer
        if header["stage"] != 2:
            raise OpFailed(f"finetune wrote a stage-{header['stage']} checkpoint")
        return self.sizes.capture_n

    def eval(self) -> tuple[int, float]:
        ckpt = self._one("finetune-*/stage2.ckpt")
        self._cli("eval", str(ckpt), "--dataset", "mnist", "--mode", "optical")
        return self.sizes.optical_test_n, self._cli_accuracy("optical", self.sizes.optical_test_n)


class Tiled(Workload):
    def setup(self) -> str:
        s = self.sizes
        t = s.tiles
        self.layout = datapipe.TileLayout(
            grid_rows=t, grid_cols=t, gap=TILE_GAP, tile_px=(synthdata.SIDE, synthdata.SIDE),
            frame=(s.grid, s.grid),
        )
        n = s.tiled_frames * self.layout.capacity
        stage1, fit, test = synthdata.make_splits(self.seed, s.stage1_n, n, n)
        self.params = _stage1_params(s, self.seed, stage1, self.workers)
        self.fit_set = (_binarize(fit[0]), fit[1].astype(np.int64))
        self.test_set = (_binarize(test[0]), test[1].astype(np.int64))
        self.probe_bits = self.test_set[0][: s.probe_n]
        self.probe_labels = self.test_set[1][: s.probe_n]
        self.noise = NoiseSpec(sigma=NOISE_SIGMA, seed=self.seed)
        blobs = [self.fit_set[0], self.test_set[0], self.params.fourier_kernels, self.params.fc1_w]
        return _digest(*(np.ascontiguousarray(b).tobytes() for b in blobs))

    def fit(self) -> int:
        feats = network.features_tiled(
            self.params, self.fit_set[0], self.layout, OpticalConfig(), noise=self.noise,
            workers=self.workers,
        )
        self.tuned, _ = network.finetune_stage2(
            self.params, (feats, self.fit_set[1]), _train_config(self.sizes, self.seed)
        )
        return len(self.fit_set[0])

    def eval(self) -> tuple[int, float]:
        res = network.evaluate_tiled(
            self.tuned, self.test_set, self.layout, OpticalConfig(), noise=self.noise,
            workers=self.workers,
        )
        if res.n_samples != len(self.test_set[0]):
            raise OpFailed(f"evaluate_tiled scored {res.n_samples} images")
        return res.n_samples, res.accuracy


WORKLOADS = {"train": Train, "capture": Capture, "tiled": Tiled}
