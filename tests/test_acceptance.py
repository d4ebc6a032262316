"""Acceptance gate: one test per criterion, each printing a pass/fail line
in the terminal summary. The heavyweight MNIST pipeline criteria share
session fixtures; everything is seeded and deterministic.

Criterion 5's threshold-similarity clause is asserted exactly as specified
and is a known-red measurement; see the analysis note in its docstring.
"""

import time

import numpy as np
import pytest

from opticonv import datapipe, network
from opticonv.datapipe import TileLayout, binarize_gray, quantize_gray, quantize_rgb, recombine, ssim
from opticonv.network import TrainConfig, init_params
from opticonv.optics import FieldPlane, NoiseSpec, OpticalConfig, forward_4f, fourier_plane_px
from opticonv.perfmodel import (
    generation_preset,
    ops_per_watt_brute,
    ops_per_watt_fft,
)

from conftest import DATA_DIR
from oracles import (
    conv_4f_oracle,
    forward_4f_oracle,
    highpass_mask_oracle,
    ops_per_watt_brute_oracle,
    ops_per_watt_fft_oracle,
)

pytestmark = pytest.mark.acceptance

THRESHOLD_FRAC = 0.3  # training binarization operating point (see ledger)
GRID = 256
WORKERS = 2

# desk-scale twin models (criteria 6 and 7)
TWIN_TRAIN_N = 8000
TILED_EVAL_N = 490
STAGE2_TRAIN_N = 3000
STAGE2_HELDOUT_N = 1500


def _binarize(images, frac=THRESHOLD_FRAC):
    return np.stack([binarize_gray(x, frac) for x in images])


# ---------------------------------------------------------------------------
# heavyweight fixtures


@pytest.fixture(scope="session")
def full_mnist_pipeline(mnist):
    """Two-stage pipeline on full MNIST: stage-1 on all 60k train images,
    stage-2 head calibration on noisy optical captures, full test split."""
    bits_tr = _binarize(mnist.train_images)
    bits_te = _binarize(mnist.test_images)
    cfg = TrainConfig(epochs_stage1=1, epochs_stage2=8, batch_size=64, seed=0, dtype="float32")
    t0 = time.perf_counter()
    params1 = init_params(seed=cfg.seed, grid=GRID, image_hw=(28, 28), n_classes=10)
    params1, trace = network.train_stage1((bits_tr, mnist.train_labels), cfg, params1, workers=WORKERS)
    res1 = network.evaluate(
        params1, (bits_te, mnist.test_labels), mode="digital", dtype="float32", workers=WORKERS
    )
    captures = network.capture_features(
        params1, bits_tr[:6000], OpticalConfig(), NoiseSpec(sigma=0.1, seed=1),
        seed=1, workers=WORKERS,
    )
    params2, _ = network.finetune_stage2(params1, (captures, mnist.train_labels[:6000]), cfg)
    res2 = network.evaluate(
        params2, (bits_te, mnist.test_labels), mode="digital", dtype="float32", workers=WORKERS
    )
    wall = time.perf_counter() - t0
    return {
        "params1": params1,
        "params2": params2,
        "stage1_acc": res1.accuracy,
        "stage2_acc": res2.accuracy,
        "wall_s": wall,
        "bits_test": bits_te,
        "labels_test": mnist.test_labels,
    }


def _train_twin(mnist, highpass: bool):
    bits = _binarize(mnist.train_images[:TWIN_TRAIN_N])
    labels = mnist.train_labels[:TWIN_TRAIN_N]
    cfg = TrainConfig(epochs_stage1=1, batch_size=64, seed=3, dtype="float32")
    params = init_params(
        seed=3, n_kernels=16, grid=GRID, image_hw=(28, 28), n_classes=10,
        highpass_mask_enabled=highpass,
    )
    params, _ = network.train_stage1((bits, labels), cfg, params=params, workers=WORKERS)
    return params


@pytest.fixture(scope="session")
def twin_models(mnist):
    """Identically trained desk-scale models, with and without the
    high-pass kernel mask."""
    return {"masked": _train_twin(mnist, True), "unmasked": _train_twin(mnist, False)}


def _mnist_tiled_layout():
    # 7x7 digits on the simulation grid; 8 px gaps (the 30 px physical gap
    # scaled to the desk grid)
    return TileLayout(grid_rows=7, grid_cols=7, gap=8, tile_px=(28, 28), frame=(GRID, GRID))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_convolution_theorem_oracle(paper_config, record_criterion):
    """forward_4f vs the independent sum-form DFT oracle and the direct
    spatial-convolution oracle, 20 seeded cases per grid size."""
    t0 = time.perf_counter()
    worst = 0.0
    for size in (8, 16, 32):
        for case in range(20):
            rng = np.random.default_rng(1000 * size + case)
            bits = rng.integers(0, 2, (size, size))
            kernel = rng.integers(0, 2, (size, size)).astype(float)
            got = forward_4f(FieldPlane.from_bits(bits, 7.6e-6), kernel, paper_config)
            want_spec = forward_4f_oracle(bits, kernel)
            want_conv = conv_4f_oracle(bits, kernel)
            rms = np.sqrt(np.mean(np.abs(want_spec) ** 2))
            worst = max(
                worst,
                np.sqrt(np.mean((got - want_spec) ** 2)) / max(rms, 1e-300),
                np.sqrt(np.mean((got - want_conv) ** 2)) / max(rms, 1e-300),
            )
    wall = time.perf_counter() - t0
    ok = worst < 1e-9 and wall < 60
    record_criterion(
        "criterion 1: convolution-theorem oracle",
        ok,
        f"worst relative RMS {worst:.2e}, {wall:.1f}s",
    )
    assert ok


def test_criterion_2_fourier_plane_sizing(paper_config, record_criterion):
    got = fourier_plane_px(paper_config)
    record_criterion("criterion 2: Fourier plane sizing", got == 779, f"got {got}")
    assert got == 779


def test_criterion_3_mnist_accuracy(full_mnist_pipeline, record_criterion):
    """Full-MNIST two-stage pipeline at the reduced 256 grid, 16 kernels,
    high-pass mask on: >= 95% test accuracy within the hour budget."""
    p = full_mnist_pipeline
    acc = p["stage2_acc"]
    ok = acc >= 0.95 and p["wall_s"] < 3600
    record_criterion(
        "criterion 3: MNIST two-stage accuracy",
        ok,
        f"stage1 {p['stage1_acc']:.4f}, stage2 {acc:.4f}, wall {p['wall_s'] / 60:.1f} min",
    )
    assert ok


def test_criterion_4_quickdraw_accuracy(quickdraw, record_criterion):
    """10-class Quickdraw subset, 10k train / 2k test, >= 85%."""
    train_x, train_y, test_x, test_y = [], [], [], []
    for label in range(10):
        tr = quickdraw.train_images[quickdraw.train_labels == label]
        te = quickdraw.test_images[quickdraw.test_labels == label]
        train_x.append(tr[:1000])
        train_y.append(np.full(1000, label))
        test_x.append(te[:200])
        test_y.append(np.full(200, label))
    bits_tr = _binarize(np.concatenate(train_x))
    bits_te = _binarize(np.concatenate(test_x))
    labels_tr = np.concatenate(train_y)
    labels_te = np.concatenate(test_y)
    cfg = TrainConfig(epochs_stage1=2, batch_size=64, seed=5, dtype="float32")
    params = init_params(seed=cfg.seed, grid=GRID, image_hw=(28, 28), n_classes=10)
    params, _ = network.train_stage1((bits_tr, labels_tr), cfg, params, workers=WORKERS)
    res = network.evaluate(params, (bits_te, labels_te), mode="digital", dtype="float32", workers=WORKERS)
    ok = res.accuracy >= 0.85
    record_criterion("criterion 4: Quickdraw accuracy", ok, f"accuracy {res.accuracy:.4f}")
    assert ok


def test_criterion_5a_ssim_elbow(mnist, cifar10, record_criterion):
    """Mean SSIM non-decreasing over levels {1,2,4,8} with a shrinking
    increment past 4 levels, on both datasets."""
    levels = (1, 2, 4, 8)

    def curve(images, quantizer):
        means = []
        for lv in levels:
            means.append(
                float(np.mean([ssim(img, recombine(quantizer(img, lv))) for img in images]))
            )
        return means

    curve_mnist = curve(mnist.train_images[:1000], quantize_gray)
    curve_cifar = curve(cifar10.train_images[:1000], quantize_rgb)
    ok = True
    for c in (curve_mnist, curve_cifar):
        ok &= all(b >= a for a, b in zip(c, c[1:]))
        ok &= (c[3] - c[2]) < (c[2] - c[1])  # elbow: gain 4->8 below gain 2->4
    detail = (
        "mnist " + "/".join(f"{v:.3f}" for v in curve_mnist)
        + ", cifar " + "/".join(f"{v:.3f}" for v in curve_cifar)
    )
    record_criterion("criterion 5a: SSIM elbow", bool(ok), detail)
    assert ok


def test_criterion_5b_mnist_threshold_ssim(mnist, record_criterion):
    """80%-threshold binarization holds mean SSIM >= 0.85.

    Known-red: the measured mean over the first 1000 train images is ~0.81
    under the canonical 8x8-window metric, for every defensible
    reconstruction (full-scale binary display, per-image-peak display, or
    midpoint recombination all score lower or equal). The underlying 90%
    claim reproduces only at a ~0.2-0.3 threshold, not at 0.8; see the
    decisions ledger for the full analysis.
    """
    scores = [
        ssim(img, binarize_gray(img, 0.8).astype(np.uint8) * 255)
        for img in mnist.train_images[:1000]
    ]
    mean = float(np.mean(scores))
    ok = mean >= 0.85
    record_criterion("criterion 5b: MNIST 80%-threshold SSIM >= 0.85", ok, f"measured {mean:.4f}")
    assert ok


def test_criterion_6_highpass_tiling_benefit(twin_models, mnist, record_criterion):
    """49-up tiled evaluation with sigma=0.05 noise: the masked model beats
    the unmasked twin by more than 2 points."""
    layout = _mnist_tiled_layout()
    bits = _binarize(mnist.test_images[:TILED_EVAL_N])
    labels = mnist.test_labels[:TILED_EVAL_N]
    noise = NoiseSpec(sigma=0.05, seed=11)
    accs = {}
    for name, params in twin_models.items():
        res = network.evaluate_tiled(params, (bits, labels), layout, OpticalConfig(), noise=noise)
        accs[name] = res.accuracy
    gap = accs["masked"] - accs["unmasked"]
    ok = gap > 0.02
    record_criterion(
        "criterion 6: high-pass tiling benefit",
        ok,
        f"masked {accs['masked']:.4f}, unmasked {accs['unmasked']:.4f}, gap {gap * 100:.1f} pts",
    )
    assert ok


def test_criterion_7_stage2_recovery(twin_models, mnist, record_criterion):
    """sigma=0.1 noise: head fine-tuning on captured noisy features beats the
    frozen stage-1 head and recovers at least half the clean-vs-noisy gap."""
    params = twin_models["masked"]
    lo = TWIN_TRAIN_N
    train_bits = _binarize(mnist.train_images[lo : lo + STAGE2_TRAIN_N])
    train_labels = mnist.train_labels[lo : lo + STAGE2_TRAIN_N]
    held_bits = _binarize(mnist.test_images[:STAGE2_HELDOUT_N])
    held_labels = mnist.test_labels[:STAGE2_HELDOUT_N]

    clean = network.evaluate(
        params, (held_bits, held_labels), mode="digital", dtype="float64", workers=WORKERS
    ).accuracy
    noisy_held = network.capture_features(
        params, held_bits, OpticalConfig(), NoiseSpec(sigma=0.1, seed=21), seed=21, workers=WORKERS
    )
    frozen = float(
        np.mean(network.head_forward(noisy_held, params).argmax(axis=1) == held_labels)
    )
    captures = network.capture_features(
        params, train_bits, OpticalConfig(), NoiseSpec(sigma=0.1, seed=22), seed=22, workers=WORKERS
    )
    cfg = TrainConfig(epochs_stage2=8, batch_size=64, seed=7)
    tuned, _ = network.finetune_stage2(params, (captures, train_labels), cfg)
    finetuned = float(
        np.mean(network.head_forward(noisy_held, tuned).argmax(axis=1) == held_labels)
    )
    gap = clean - frozen
    recovered = finetuned - frozen
    ok = recovered > 0 and recovered >= 0.5 * gap
    record_criterion(
        "criterion 7: stage-2 recovery",
        ok,
        f"clean {clean:.4f}, frozen-noisy {frozen:.4f}, fine-tuned {finetuned:.4f}, "
        f"recovered {recovered:.4f} of gap {gap:.4f}",
    )
    assert ok


def test_criterion_8_gradient_check(record_criterion):
    """Analytic vs central finite-difference gradients on the toy instance
    (8x8 grid, 2 kernels, 3 classes), every coordinate of every group."""
    t0 = time.perf_counter()
    params = init_params(
        seed=13, n_kernels=2, grid=8, image_hw=(4, 4), n_classes=3, hidden=16,
        highpass_mask_enabled=True,
    )
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2, (6, 4, 4)).astype(np.uint8)
    labels = rng.integers(0, 3, 6)
    _, _, grads = network._loss_and_grads(params, bits, labels, "float64", 1)

    def loss_with(p=params, bank=None):
        loss, _, _ = network._loss_and_grads(p, bits, labels, "float64", 1, bank_override=bank)
        return loss

    h = 1e-6
    worst = 0.0

    def check(analytic, fd):
        nonlocal worst
        denom = max(abs(fd), 1e-6)
        worst = max(worst, abs(analytic - fd) / denom)

    for name in ("fc1_w", "fc1_b", "fc2_w", "fc2_b"):
        base = getattr(params, name)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            arr = base.copy()
            arr[idx] += h
            lp = loss_with(network.replace(params, **{name: arr}))
            arr[idx] -= 2 * h
            lm = loss_with(network.replace(params, **{name: arr}))
            check(grads[name][idx], (lp - lm) / (2 * h))

    # kernel masters run through the straight-through surrogate: perturb the
    # binarized bank where the clip window (and high-pass mask) passes
    bank0 = network.binarized_kernels(params)
    passes = (np.abs(params.fourier_kernels) <= network.STE_CLIP).astype(float)
    passes *= highpass_mask_oracle(params.grid)
    it = np.nditer(params.fourier_kernels, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        if passes[idx] == 0.0:
            assert grads["fourier_kernels"][idx] == 0.0
            continue
        bank = bank0.copy()
        bank[idx] += h
        lp = loss_with(bank=bank)
        bank[idx] -= 2 * h
        lm = loss_with(bank=bank)
        check(grads["fourier_kernels"][idx], (lp - lm) / (2 * h))

    wall = time.perf_counter() - t0
    ok = worst < 1e-4 and wall < 60
    record_criterion(
        "criterion 8: gradient check", ok, f"worst relative error {worst:.2e}, {wall:.1f}s"
    )
    assert ok


def test_criterion_9_perf_model_properties(record_criterion):
    rng = np.random.default_rng(17)
    from opticonv.perfmodel import PerfScenario

    worst = 0.0
    for _ in range(1000):
        s = PerfScenario(
            image_rows=int(rng.integers(1, 3000)),
            image_cols=int(rng.integers(1, 3000)),
            kernel_rows=int(rng.integers(1, 12)),
            kernel_cols=int(rng.integers(1, 12)),
            input_parallelism=int(rng.integers(1, 256)),
            kernel_parallelism=int(rng.integers(1, 64)),
            frame_rate_hz=float(rng.uniform(0.01, 1e5)),
            power_w=float(rng.uniform(0.1, 1e4)),
        )
        args = (s.image_rows, s.image_cols, s.kernel_rows, s.kernel_cols,
                s.input_parallelism, s.kernel_parallelism, s.frame_rate_hz, s.power_w)
        for fn, oracle in (
            (ops_per_watt_fft, ops_per_watt_fft_oracle),
            (ops_per_watt_brute, ops_per_watt_brute_oracle),
        ):
            a, b = fn(s), oracle(*args)
            worst = max(worst, abs(a - b) / abs(b))
    dual_ok = worst <= 1e-12

    names = ("Gen1.0", "Gen1.1", "Gen1.2", "Gen1.3")
    mono_ok = True
    for fn in (ops_per_watt_fft, ops_per_watt_brute):
        vals = [fn(generation_preset(n).scenario) for n in names]
        mono_ok &= all(b > a for a, b in zip(vals, vals[1:]))

    s = PerfScenario(image_rows=1000, image_cols=1000, kernel_rows=3, kernel_cols=3,
                     input_parallelism=49, kernel_parallelism=1, frame_rate_hz=1.0)
    ratio = ops_per_watt_fft(s) / ops_per_watt_brute(s)
    ratio_ok = 50 <= ratio <= 500

    lin_ok = True
    from dataclasses import replace as dc_replace

    for _ in range(100):
        s = PerfScenario(
            image_rows=int(rng.integers(2, 500)),
            image_cols=int(rng.integers(2, 500)),
            input_parallelism=int(rng.integers(1, 64)),
            kernel_parallelism=int(rng.integers(1, 32)),
            frame_rate_hz=float(rng.uniform(1, 1e4)),
            power_w=float(rng.uniform(1, 100)),
        )
        for fn in (ops_per_watt_fft, ops_per_watt_brute):
            base = fn(s)
            lin_ok &= np.isclose(fn(dc_replace(s, kernel_parallelism=2 * s.kernel_parallelism)), 2 * base)
            lin_ok &= np.isclose(fn(dc_replace(s, frame_rate_hz=5 * s.frame_rate_hz)), 5 * base)
            lin_ok &= np.isclose(fn(dc_replace(s, power_w=4 * s.power_w)), base / 4)
        lin_ok &= np.isclose(
            ops_per_watt_brute(dc_replace(s, input_parallelism=2 * s.input_parallelism)),
            2 * ops_per_watt_brute(s),
        )

    ok = dual_ok and mono_ok and ratio_ok and bool(lin_ok)
    record_criterion(
        "criterion 9: perf-model properties",
        ok,
        f"dual worst {worst:.1e}, fft/brute ratio {ratio:.0f}, "
        f"monotone {mono_ok}, homogeneity {bool(lin_ok)}",
    )
    assert ok


def _train_checkpoint(mnist_dir, seed: int, out_dir):
    """Run ``opticonv train`` on ``mnist_dir`` with criterion 10's config;
    return the stage-1 checkpoint it wrote."""
    import json as _json

    from opticonv import cli

    cfg_doc = {
        "seed": seed,
        "train": {"grid": 64, "n_kernels": 4, "hidden": 32, "epochs_stage1": 1,
                  "batch_size": 32, "limit": 300},
        "quantize": {"threshold_frac": THRESHOLD_FRAC},
        "paths": {"mnist": str(mnist_dir)},
    }
    out_dir.mkdir()
    cfg_path = out_dir / "cfg.json"
    cfg_path.write_text(_json.dumps(cfg_doc))
    assert cli.main(["--config", str(cfg_path), "--out-dir", str(out_dir),
                     "train", "--dataset", "mnist"]) == 0
    return next(out_dir.glob("train-*")) / "stage1.ckpt"


def _check_cli_determinism(mnist_dir, source: str, tmp_path, record_criterion):
    """Two runs with seed 9 write identical bytes; training moved every
    tensor away from its seeded initialization; seed 10 writes other bytes."""
    outs = [_train_checkpoint(mnist_dir, 9, tmp_path / sub) for sub in ("a", "b")]
    identical = outs[0].read_bytes() == outs[1].read_bytes()
    trained, _ = network.load_checkpoint(outs[0])
    init = init_params(seed=9, n_kernels=4, grid=64, image_hw=trained.image_hw, hidden=32)
    unmoved = [name for name in ("fourier_kernels", "fc1_w", "fc1_b", "fc2_w", "fc2_b")
               if np.array_equal(getattr(trained, name), getattr(init, name))]
    seed_matters = _train_checkpoint(mnist_dir, 10, tmp_path / "c").read_bytes() != outs[0].read_bytes()
    record_criterion("criterion 10: checkpoint determinism", identical and not unmoved and seed_matters,
                     f"{source}, {outs[0].stat().st_size} bytes each")
    assert identical
    assert not unmoved, f"training left {unmoved} at their seeded initialization"
    assert seed_matters, "seeds 9 and 10 wrote identical checkpoints"


def test_criterion_10_cli_determinism(synthetic_mnist_dir, tmp_path, record_criterion):
    """cmd_train twice with one seed yields bit-identical checkpoints, on the
    seeded synthetic IDX set so the criterion runs wherever the suite does."""
    _check_cli_determinism(synthetic_mnist_dir, "synthetic IDX", tmp_path, record_criterion)


@pytest.mark.skipif(not (DATA_DIR / "mnist").exists(), reason="MNIST files not provisioned")
def test_criterion_10_cli_determinism_real_mnist(tmp_path, record_criterion):
    """Criterion 10 on the real MNIST files."""
    _check_cli_determinism(DATA_DIR / "mnist", "MNIST", tmp_path, record_criterion)
