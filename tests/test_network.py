import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opticonv import network
from opticonv.datapipe import DataFormatError, TileLayout
from opticonv.network import (
    ModelParams,
    TrainConfig,
    TrainingDivergedError,
    binarized_kernels,
    capture_features,
    conv_fourier_forward,
    evaluate,
    evaluate_tiled,
    features_tiled,
    finetune_stage2,
    head_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train_stage1,
    write_trace_csv,
)
from opticonv.optics import FrameOverflowError, NoiseSpec, OpticalConfig

from oracles import (
    capture_oracle,
    conv_4f_oracle,
    conv_window_oracle,
    features_tiled_oracle,
    finetune_stage2_gram_oracle,
    finetune_stage2_oracle,
    highpass_mask_oracle,
    loss_and_grads_oracle,
    maxpool2_backward_oracle,
    maxpool2_oracle,
    momentum_step_oracle,
    resample_spectrum_oracle,
    train_stage1_oracle,
)


def toy_params(seed=0, grid=16, hw=(8, 8), k=2, classes=3, hidden=8, mask=False):
    return init_params(
        seed=seed, n_kernels=k, grid=grid, image_hw=hw, n_classes=classes,
        hidden=hidden, highpass_mask_enabled=mask,
    )


def toy_batch(seed, n=6, hw=(8, 8), classes=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (n, *hw)).astype(np.uint8), rng.integers(0, classes, n)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBinarizeSte:
    def test_forward_values(self):
        # a mirror is on where its master is > 0: -0.0 is off, the least subnormal on
        values = [-0.5, 0.2, 0.0, -0.0, 5e-324, -5e-324, 1.5, -2.0]
        masters = np.resize(values, (1, 8, 8))
        b = binarized_kernels(network.replace(toy_params(k=1, grid=8), fourier_kernels=masters))
        assert b.dtype == np.float64
        assert b.ravel().tolist() == np.resize([0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], 64).tolist()

    def test_nonfinite_rejected(self):
        bits, _ = toy_batch(0)
        for bad in (np.inf, -np.inf, np.nan):
            masters = toy_params().fourier_kernels.copy()
            masters[1, 3, 5] = bad
            params = network.replace(toy_params(), fourier_kernels=masters)
            with pytest.raises(ValueError, match="finite"):
                binarized_kernels(params)
            with pytest.raises(ValueError, match="finite"):
                conv_fourier_forward(bits, params)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_step_clip_matches_oracle_bitwise(self, dtype):
        # masters drawn past +-STE_CLIP, mask on: the step's fused
        # straight-through gradient equals the oracle's and is exactly zero
        # wherever |w| > STE_CLIP
        params = toy_params(seed=8, k=3, mask=True)
        masters = params.fourier_kernels * 4.0
        params = network.replace(params, fourier_kernels=masters)
        bits, labels = toy_batch(8)
        loss, acc, grads = network._loss_and_grads(params, bits, labels, dtype, 1)
        want_loss, want_acc, want = loss_and_grads_oracle(params, bits, labels, dtype)
        assert (loss, acc) == (want_loss, want_acc)
        for name, value in want.items():
            assert_same_bits(grads[name].astype(np.float64), value)
        dk = grads["fourier_kernels"]
        outside = np.abs(masters) > network.STE_CLIP
        assert outside.any() and not dk[outside].any()
        assert dk[~outside].any()


class TestKernelBank:
    def test_default_bank_is_16_kernels(self):
        params = init_params(seed=0)
        assert params.n_kernels == 16
        assert params.fourier_kernels.shape == (16, 256, 256)

    def test_masters_uniform_half_range(self):
        params = init_params(seed=1, highpass_mask_enabled=False)
        w = params.fourier_kernels
        assert -0.5 <= w.min() and w.max() <= 0.5

    def test_binarized_view_is_binary(self):
        params = toy_params(mask=False)
        b = binarized_kernels(params)
        assert set(np.unique(b)) <= {0.0, 1.0}

    def test_highpass_center_zero(self):
        params = toy_params(grid=16, mask=True)
        b = binarized_kernels(params)
        c = 16 // 2
        assert not b[:, c - 1 : c + 2, c - 1 : c + 2].any()

    def test_masked_masters_equal_a_full_grid_multiply_bitwise(self):
        # masking keeps the sign of a zeroed master (-0.5 * 0.0 == -0.0),
        # as a multiply by the full-grid mask does
        params = init_params(seed=5, n_kernels=4, grid=16, image_hw=(8, 8))
        drawn = np.random.default_rng(5).uniform(-0.5, 0.5, size=(4, 16, 16))
        assert_same_bits(params.fourier_kernels, drawn * highpass_mask_oracle(16))

    def test_draws_equal_uniform_bitwise(self):
        params = init_params(seed=6, n_kernels=2, grid=16, image_hw=(8, 8), hidden=5, n_classes=3,
                             highpass_mask_enabled=False)
        rng = np.random.default_rng(6)
        assert_same_bits(params.fourier_kernels, rng.uniform(-0.5, 0.5, size=(2, 16, 16)))
        for w in (params.fc1_w, params.fc2_w):
            lim = np.sqrt(6.0 / sum(w.shape))
            assert_same_bits(w, rng.uniform(-lim, lim, size=w.shape))


class TestConvForward:
    def test_all_pass_kernel_reproduces_input(self):
        params = toy_params(mask=False)
        # force all masters positive -> binarized bank of ones
        params = network.replace(params, fourier_kernels=np.abs(params.fourier_kernels) + 0.1)
        bits, _ = toy_batch(2)
        feats = conv_fourier_forward(bits, params, mode="digital")
        for k in range(params.n_kernels):
            assert np.allclose(feats[:, k], bits, atol=1e-9)

    def test_digital_optical_equivalence(self):
        params = toy_params(seed=3, grid=32, hw=(8, 8), k=3, mask=True)
        bits, _ = toy_batch(3, n=4)
        dig = conv_fourier_forward(bits, params, mode="digital", dtype="float64")
        opt = conv_fourier_forward(bits, params, mode="optical", config=OpticalConfig(), noise=None)
        assert np.max(np.abs(dig - opt)) < 1e-9

    def test_highpass_kills_full_grid_constant(self):
        params = toy_params(grid=8, hw=(8, 8), mask=True)
        params = network.replace(params, fourier_kernels=np.abs(params.fourier_kernels) + 0.1)
        const = np.ones((1, 8, 8), dtype=np.uint8)
        feats = conv_fourier_forward(const, params, mode="digital")
        assert np.abs(feats).max() < 1e-12  # DC bins carry all the energy

    def test_batch_shape_validation(self):
        params = toy_params()
        with pytest.raises(ValueError):
            conv_fourier_forward(np.zeros((2, 6, 6)), params)

    def test_float32_matches_float64(self):
        params = toy_params(seed=4)
        bits, _ = toy_batch(5)
        a = conv_fourier_forward(bits, params, dtype="float32")
        b = conv_fourier_forward(bits, params, dtype="float64")
        assert np.max(np.abs(a.astype(np.float64) - b)) < 1e-5


@st.composite
def conv_shapes(draw, max_grid=48):
    """Grid G, even window sides h, w <= G, kernel count, mask flag, seed."""
    g = draw(st.integers(4, max_grid))
    h = 2 * draw(st.integers(1, g // 2))
    w = 2 * draw(st.integers(1, g // 2))
    return g, h, w, draw(st.integers(1, 3)), draw(st.booleans()), draw(st.integers(0, 2**16))


class TestWindowedEngine:
    """The small-grid engine against the direct-convolution oracle and
    finite differences, over grids where 2h-1 exceeds G, h equals G and G is
    odd."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(conv_shapes())
    @example((8, 8, 8, 2, True, 0))  # h = G: the small grid is the full grid
    @example((9, 6, 4, 3, False, 1))  # odd G, 2h-1 > G on one axis only
    @example((33, 12, 16, 1, True, 2))  # odd G, both axes on a small grid
    def test_forward_matches_direct_convolution_oracle(self, shape):
        g, h, w, k, mask, seed = shape
        params = toy_params(seed=seed, grid=g, hw=(h, w), k=k, mask=mask)
        bits = np.random.default_rng(seed).integers(0, 2, (2, h, w)).astype(np.uint8)
        # intensities before the per-frame gain, which would blow rounding
        # noise up to unit scale on frames whose true output is zero
        _, fields, _ = network._conv_digital(bits, params, dtype="float64")
        r0, c0 = (g - h) // 2, (g - w) // 2
        for img, got in zip(bits, np.abs(fields) ** 2):
            frame = np.zeros((g, g))
            frame[r0 : r0 + h, c0 : c0 + w] = img
            for kern, got_k in zip(binarized_kernels(params), got):
                want = conv_4f_oracle(frame, kern)[r0 : r0 + h, c0 : c0 + w]
                assert np.max(np.abs(got_k - want)) < 1e-9

    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(conv_shapes(max_grid=10))
    @example((8, 8, 8, 2, True, 3))
    @example((9, 6, 4, 2, True, 4))
    def test_kernel_gradient_matches_finite_difference(self, shape):
        # criterion 8's step and bar, on sampled coordinates of drawn shapes
        g, h, w, k, mask, seed = shape
        params = toy_params(seed=seed, grid=g, hw=(h, w), k=k, mask=mask)
        bits, labels = toy_batch(seed, n=4, hw=(h, w))
        _, _, grads = network._loss_and_grads(params, bits, labels, "float64", 1)
        bank0 = binarized_kernels(params)
        passes = np.abs(params.fourier_kernels) <= network.STE_CLIP
        if mask:
            passes &= highpass_mask_oracle(g) > 0
        assert not grads["fourier_kernels"][~passes].any()
        step = 1e-6
        coords = np.flatnonzero(passes)
        coords = np.random.default_rng(seed).choice(coords, min(24, len(coords)), replace=False)
        for flat in coords:
            idx = np.unravel_index(flat, bank0.shape)
            bank = bank0.copy()
            bank[idx] += step
            lp, _, _ = network._loss_and_grads(params, bits, labels, "float64", 1, bank)
            bank[idx] -= 2 * step
            lm, _, _ = network._loss_and_grads(params, bits, labels, "float64", 1, bank)
            fd = (lp - lm) / (2 * step)
            assert abs(grads["fourier_kernels"][idx] - fd) / max(abs(fd), 1e-6) < 1e-4

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(conv_shapes())
    @example((8, 8, 8, 2, True, 0))
    @example((9, 6, 4, 3, False, 1))
    @example((33, 12, 16, 1, True, 2))
    def test_dense_operators_match_fft_resample_oracle(self, shape):
        g, h, w, k, _, seed = shape
        rng = np.random.default_rng(seed)
        sizes = tuple(min(scipy.fft.next_fast_len(2 * s - 1), g) for s in (h, w))

        def assert_close(got, want):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        # a real bank has a real resample: its lags are Hermitian
        bank = rng.integers(0, 2, (k, g, g)).astype(np.float64)
        got = network._resample_spectrum(bank, (h, w), sizes)
        assert got.dtype == np.float64
        assert_close(got, resample_spectrum_oracle(bank, (h, w), sizes))
        spec = rng.standard_normal((k, g, g)) + 1j * rng.standard_normal((k, g, g))
        assert_close(
            network._resample_spectrum(spec, (h, w), sizes),
            resample_spectrum_oracle(spec, (h, w), sizes),
        )
        corr = rng.standard_normal((k, *sizes)) + 1j * rng.standard_normal((k, *sizes))
        want = resample_spectrum_oracle(corr, (h, w), (g, g)).real / g**2
        assert_close(
            network._kernel_gradient(corr, (h, w), g),
            scipy.fft.fftshift(want, axes=(-2, -1)),
        )

    def test_float32_kernel_gradient_matches_float64(self):
        params = init_params(seed=6, n_kernels=16, grid=64, image_hw=(28, 28), hidden=32)
        bits, labels = toy_batch(6, n=8, hw=(28, 28), classes=10)
        _, _, g32 = network._loss_and_grads(params, bits, labels, "float32", 1)
        _, _, g64 = network._loss_and_grads(params, bits, labels, "float64", 1)
        got, want = g32["fourier_kernels"], g64["fourier_kernels"]
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    def test_float32_head_matches_float64(self):
        # the head's feature-sized GEMMs run in float32 in the float32 step,
        # so the fc1_w gradient is float32; the loss and the rest stay float64
        params = init_params(seed=6, n_kernels=16, grid=64, image_hw=(28, 28), hidden=32)
        bits, labels = toy_batch(6, n=8, hw=(28, 28), classes=10)
        l32, a32, g32 = network._loss_and_grads(params, bits, labels, "float32", 1)
        l64, a64, g64 = network._loss_and_grads(params, bits, labels, "float64", 1)
        assert abs(l32 - l64) <= 1e-5 * abs(l64) and a32 == a64
        for name in ("fc1_w", "fc1_b", "fc2_w", "fc2_b"):
            got, want = g32[name], g64[name]
            assert got.dtype == (np.float32 if name == "fc1_w" else np.float64)
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    def test_forward_memory_stays_windowed(self):
        # full-grid (B, K, G, G) intermediates would need gigabytes here, and
        # one (B, K, 55, 55) product over the whole batch took 131 MB; the
        # blocked engine holds one block of it and eval writes no fields
        params = init_params(seed=0, n_kernels=16, grid=256, image_hw=(28, 28))
        bits = np.random.default_rng(0).integers(0, 2, (256, 28, 28)).astype(np.uint8)
        tracemalloc.start()
        try:
            conv_fourier_forward(bits, params, dtype="float32")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_capture_memory_stays_chunked(self):
        # the (B, K, h, w) output is 25.7 MB here; the whole batch through
        # the engine and then the camera peaked at 49.0 MB, and chunks whose
        # windows fit a block hold one chunk's intermediates besides it
        params = init_params(seed=0, n_kernels=16, grid=256, image_hw=(28, 28))
        bits = np.random.default_rng(0).integers(0, 2, (256, 28, 28)).astype(np.uint8)
        tracemalloc.start()
        try:
            capture_features(params, bits, OpticalConfig(), NoiseSpec(sigma=0.1, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36e6

    def test_float32_step_memory(self):
        # one float32 stage-1 step peaked at 55.8 MB while the head and the
        # pool backward ran in float64 and the STE mask had its own buffers
        params = init_params(seed=0, n_kernels=16, grid=256, image_hw=(28, 28))
        bits, labels = toy_batch(0, n=64, hw=(28, 28), classes=10)
        tracemalloc.start()
        try:
            network._loss_and_grads(params, bits, labels, "float32", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6

    def test_window_larger_than_grid_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            toy_params(grid=8, hw=(10, 8))


class TestBlockedEngine:
    """The engine walks the batch in blocks of images; at every block
    boundary it equals the one-shot forms it replaced, bit for bit."""

    @pytest.mark.parametrize("k", [1, 3, 16])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_forward_matches_one_shot_oracle_bitwise(self, dtype, k):
        rdtype = np.float32 if dtype == "float32" else np.float64
        params = init_params(seed=k, n_kernels=k, grid=64, image_hw=(28, 28))
        sizes = (55, 55)  # next_fast_len(2 * 28 - 1) on the 64-px grid
        bank = scipy.fft.ifftshift(binarized_kernels(params).astype(rdtype), axes=(-2, -1))
        kernel_spec = network._resample_spectrum(bank, (28, 28), sizes)
        step = network._blocks(1 << 10, k * 55 * 55 * 2 * np.dtype(rdtype).itemsize)[0].stop
        rng = np.random.default_rng(k)
        for b in sorted({1, max(step - 1, 1), step, step + 1, 2 * step + 1}):
            bits = rng.integers(0, 2, (b, 28, 28)).astype(np.uint8)
            intensity, fields, spectrum = network._conv_digital(bits, params, dtype=dtype)
            assert_same_bits(spectrum, scipy.fft.fft2(bits.astype(rdtype), s=sizes))
            want_intensity, want_fields = conv_window_oracle(spectrum, kernel_spec, (28, 28))
            assert_same_bits(intensity, want_intensity)
            assert_same_bits(fields, want_fields)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_kernel_blocks_match_one_shot_oracle_bitwise(self, monkeypatch, dtype):
        # when one image's K spectra exceed the block, the engine walks its
        # kernels in blocks: here 2 + 2 + 1 of K=5
        rdtype = np.float32 if dtype == "float32" else np.float64
        params = init_params(seed=5, n_kernels=5, grid=64, image_hw=(28, 28))
        monkeypatch.setattr(network, "_BLOCK_BYTES", 2 * 55 * 55 * 2 * np.dtype(rdtype).itemsize)
        bits = np.random.default_rng(5).integers(0, 2, (3, 28, 28)).astype(np.uint8)
        intensity, fields, spectrum = network._conv_digital(bits, params, dtype=dtype)
        bank = scipy.fft.ifftshift(binarized_kernels(params).astype(rdtype), axes=(-2, -1))
        kernel_spec = network._resample_spectrum(bank, (28, 28), (55, 55))
        want_intensity, want_fields = conv_window_oracle(spectrum, kernel_spec, (28, 28))
        assert_same_bits(intensity, want_intensity)
        assert_same_bits(fields, want_fields)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_training_matches_oracle_loop_bitwise(self, dtype):
        # 37 images in batches of 8 leave a batch of 5; at K=16 on the 64-px
        # grid a block holds 2 float32 images or 1 float64 image, so blocks
        # split the batches. The mask is on, so its centre-only form is covered.
        params = init_params(seed=3, n_kernels=16, grid=64, image_hw=(28, 28), hidden=32)
        bits, labels = toy_batch(3, n=37, hw=(28, 28), classes=10)
        cfg = TrainConfig(epochs_stage1=3, batch_size=8, lr_stage1=0.2, seed=4, dtype=dtype)
        got, got_trace = train_stage1((bits, labels), cfg, params=params)
        want, want_trace = train_stage1_oracle((bits, labels), cfg, params)
        assert got_trace == want_trace
        for name in network._PARAM_NAMES:
            assert_same_bits(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_small_blocks_match_oracle_loop_bitwise(self, monkeypatch, dtype):
        # 64 KiB blocks: the bank is built, the kernel gradient masked and
        # the optimizer run in blocks of kernels or elements, and the
        # inverse walks kernel blocks of each image
        monkeypatch.setattr(network, "_BLOCK_BYTES", 2 * 64 * 64 * 8)
        params = init_params(seed=7, n_kernels=5, grid=64, image_hw=(28, 28), hidden=16)
        bits, labels = toy_batch(7, n=11, hw=(28, 28), classes=10)
        cfg = TrainConfig(epochs_stage1=2, batch_size=4, lr_stage1=0.2, seed=8, dtype=dtype)
        got, got_trace = train_stage1((bits, labels), cfg, params=params)
        want, want_trace = train_stage1_oracle((bits, labels), cfg, params)
        assert got_trace == want_trace
        for name in network._PARAM_NAMES:
            assert_same_bits(getattr(got, name), getattr(want, name))

    def test_momentum_matches_out_of_place_oracle_and_writes_no_input(self):
        params = toy_params(seed=4, mask=True)
        rng = np.random.default_rng(4)
        opt = network._Momentum(network._PARAM_NAMES)
        velocity: dict = {}
        for _ in range(3):
            grads = {n: rng.standard_normal(getattr(params, n).shape) for n in network._PARAM_NAMES}
            for arr in (*grads.values(), *(getattr(params, n) for n in network._PARAM_NAMES)):
                arr.flags.writeable = False
            current = {n: getattr(params, n) for n in network._PARAM_NAMES}
            want = momentum_step_oracle(current, velocity, grads, 0.05, 0.9)
            params = opt.step(params, grads, 0.05, 0.9)
            for name in network._PARAM_NAMES:
                assert_same_bits(getattr(params, name), want[name])

    def test_momentum_chunks_and_float32_gradients_match_oracle(self, monkeypatch):
        # 5-element chunks: every parameter spans several, most with a
        # remainder; a float32 gradient steps as its exact float64 value
        monkeypatch.setattr(network, "_BLOCK_BYTES", 4 * 8 * 5)
        params = toy_params(seed=5, mask=True)
        rng = np.random.default_rng(5)
        opt = network._Momentum(network._PARAM_NAMES)
        velocity: dict = {}
        for _ in range(3):
            grads = {n: rng.standard_normal(getattr(params, n).shape) for n in network._PARAM_NAMES}
            grads["fc1_w"] = grads["fc1_w"].astype(np.float32)
            current = {n: getattr(params, n) for n in network._PARAM_NAMES}
            exact = {n: g.astype(np.float64) for n, g in grads.items()}
            want = momentum_step_oracle(current, velocity, exact, 0.05, 0.9)
            params = opt.step(params, grads, 0.05, 0.9)
            for name in network._PARAM_NAMES:
                assert_same_bits(getattr(params, name), want[name])


@st.composite
def engine_shapes(draw):
    """Even window sides h, w <= 12; a grid G from max(h, w, 2h - 3), where
    the small grid is the full grid, to 2h + 9; K from 1 to 5; the number
    of spectra per block, from 1 (kernel blocks) to 2K + 1 (image blocks);
    the batch size; the mask flag; the dtype; the seed."""
    h = 2 * draw(st.integers(1, 6))
    w = 2 * draw(st.integers(1, 6))
    g = draw(st.integers(max(h, w, 2 * h - 3), 2 * h + 9))
    k = draw(st.integers(1, 5))
    per_block = draw(st.integers(1, 2 * k + 1))
    b = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from(["float32", "float64"]))
    return h, w, g, k, per_block, b, draw(st.booleans()), dtype, draw(st.integers(0, 2**16))


def unmasked_masters(params, seed):
    """``params`` with masters drawn afresh, the centre bins included, so
    that the bank's own high-pass mask is what zeroes them."""
    masters = np.random.default_rng(seed).uniform(-0.5, 0.5, params.fourier_kernels.shape)
    return network.replace(params, fourier_kernels=masters)


class TestEngineShapeSweep:
    """The block loop of ``_inverse_windows`` splits on slice vs index rows
    and cols, image vs kernel blocks and a resampled vs a kept axis; each
    split is swept here against the one-shot and physics oracles."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(engine_shapes())
    @example((28, 28, 64, 5, 2, 3, True, "float32", 0))  # kernel blocks 2 + 2 + 1
    @example((8, 6, 13, 3, 7, 5, False, "float64", 1))  # 2h - 3 = G: a kept axis
    @example((2, 2, 2, 2, 1, 2, True, "float32", 3))  # G = 2 and 3: the mask covers
    @example((2, 2, 3, 2, 4, 2, True, "float64", 4))  # every bin, some bins twice
    def test_digital_matches_one_shot_oracle_bitwise(self, shape):
        h, w, g, k, per_block, b, mask, dtype, seed = shape
        rdtype = np.float32 if dtype == "float32" else np.float64
        params = unmasked_masters(toy_params(seed=seed, grid=g, hw=(h, w), k=k, mask=mask), seed)
        bits = np.random.default_rng(seed).integers(0, 2, (b, h, w)).astype(np.uint8)
        sizes = tuple(min(scipy.fft.next_fast_len(2 * s - 1), g) for s in (h, w))
        block = per_block * sizes[0] * sizes[1] * 2 * np.dtype(rdtype).itemsize
        with mock.patch.object(network, "_BLOCK_BYTES", block):
            intensity, fields, spectrum = network._conv_digital(bits, params, dtype=dtype)
        binary = params.fourier_kernels > 0
        bank = scipy.fft.ifftshift(binary * highpass_mask_oracle(g) if mask else binary, axes=(-2, -1))
        bank = bank.astype(rdtype)
        assert_same_bits(network._shifted_bank(params.fourier_kernels, mask, rdtype), bank)
        kernel_spec = network._resample_spectrum(bank, (h, w), sizes)
        want_intensity, want_fields = conv_window_oracle(spectrum, kernel_spec, (h, w))
        assert_same_bits(intensity, want_intensity)
        assert_same_bits(fields, want_fields)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(engine_shapes(), st.integers(0, 3))
    @example((6, 6, 9, 5, 2, 5, True, "float64", 2), 1)  # odd G, kernel blocks
    def test_tiled_matches_optics_oracle(self, shape, gap):
        h, w, g, k, per_block, n, mask, _, seed = shape
        params = unmasked_masters(toy_params(seed=seed, grid=g, hw=(h, w), k=k, mask=mask), seed)
        bits = np.random.default_rng(seed).integers(0, 2, (n, h, w)).astype(np.uint8)
        rows, cols = max(1, (g + gap) // (h + gap)), max(1, (g + gap) // (w + gap))
        layout = TileLayout(grid_rows=rows, grid_cols=cols, gap=gap, tile_px=(h, w), frame=(g, g))
        with mock.patch.object(network, "_BLOCK_BYTES", per_block * g * g * 16):
            got = features_tiled(params, bits, layout, OpticalConfig())
        want = features_tiled_oracle(params, bits, layout, OpticalConfig())
        assert got.shape == want.shape == (n, k, h, w)
        assert np.max(np.abs(got - want)) <= 1e-9


    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(engine_shapes())
    def test_capture_matches_optics_oracle(self, shape):
        h, w, g, k, per_block, n, mask, _, seed = shape
        params = unmasked_masters(toy_params(seed=seed, grid=g, hw=(h, w), k=k, mask=mask), seed)
        bits = np.random.default_rng(seed).integers(0, 2, (n, h, w)).astype(np.uint8)
        # the dark floor bounds the gain where a frame's true output is zero
        # and rounding noise would be scaled up to unit peak
        noise = NoiseSpec(dark=1e-6)
        with mock.patch.object(network, "_BLOCK_BYTES", per_block * k * h * w * 8):
            got = capture_features(params, bits, OpticalConfig(), noise)
        want = capture_oracle(params, bits, OpticalConfig(), noise)
        assert got.shape == want.shape == (n, k, h, w)
        assert np.max(np.abs(got - want)) <= 1e-9


class TestHead:
    def test_cifar_shape_chain(self):
        params = init_params(seed=0, n_kernels=16, grid=64, image_hw=(32, 32), n_classes=10)
        assert params.fc1_w.shape == (16 * 16 * 16, 256)  # 4096 x 256
        feats = np.random.default_rng(0).random((2, 16, 32, 32))
        assert head_forward(feats, params).shape == (2, 10)

    def test_mnist_shape_chain(self):
        params = init_params(seed=0, n_kernels=16, grid=64, image_hw=(28, 28), n_classes=10)
        assert params.fc1_w.shape == (16 * 14 * 14, 256)  # 3136 x 256

    def test_zero_features_give_bias_path(self):
        params = toy_params(seed=5)
        params = network.replace(
            params,
            fc1_b=np.random.default_rng(1).standard_normal(8),
            fc2_b=np.random.default_rng(2).standard_normal(3),
        )
        logits = head_forward(np.zeros((1, 2, 8, 8)), params)
        want = np.maximum(params.fc1_b, 0) @ params.fc2_w + params.fc2_b
        assert np.allclose(logits[0], want)

    def test_feature_shape_mismatch(self):
        params = toy_params()
        with pytest.raises(ValueError):
            head_forward(np.zeros((1, 2, 6, 6)), params)

    def test_float64_features_take_the_float64_head_bitwise(self):
        params = toy_params(seed=7)
        feats = np.random.default_rng(7).random((5, 2, 8, 8))
        flat = maxpool2_oracle(feats)[0].reshape(5, -1)
        want = np.maximum(flat @ params.fc1_w + params.fc1_b, 0.0) @ params.fc2_w + params.fc2_b
        assert_same_bits(head_forward(feats, params), want)

    def test_float32_features_take_fc1_in_float32(self):
        params = toy_params(seed=8)
        feats = np.random.default_rng(8).random((5, 2, 8, 8)).astype(np.float32)
        flat = maxpool2_oracle(feats)[0].reshape(5, -1)
        pre1 = flat @ params.fc1_w.astype(np.float32) + params.fc1_b
        want = np.maximum(pre1, 0.0) @ params.fc2_w + params.fc2_b
        assert_same_bits(head_forward(feats, params), want)

    def test_float32_step_loss_stays_finite_when_a_class_underflows(self):
        # the label's logit at least 300 below another: its probability is
        # 0 in float32, and the float64 softmax and loss with their 1e-300
        # floor keep the loss finite
        params = toy_params(seed=9, classes=3)
        bits, _ = toy_batch(9, n=4, classes=3)
        feats = conv_fourier_forward(bits, params, dtype="float32")
        hidden = np.maximum(
            maxpool2_oracle(feats)[0].reshape(4, -1) @ params.fc1_w + params.fc1_b, 0.0
        )
        push = np.array([1.0, 0.0, -1.0]) * 150.0 / max(hidden.sum(axis=1).min(), 1e-3)
        params = network.replace(params, fc2_w=np.zeros((8, 3)) + push, fc2_b=np.zeros(3))
        labels = np.full(4, 2)
        loss, _, grads = network._loss_and_grads(params, bits, labels, "float32", 1)
        assert np.isfinite(loss) and loss > 250
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_label_permutation_equivariance(self):
        params = toy_params(seed=6)
        feats = np.random.default_rng(3).random((10, 2, 8, 8))
        logits = head_forward(feats, params)
        perm = np.array([2, 0, 1])
        permuted = network.replace(
            params, fc2_w=params.fc2_w[:, perm], fc2_b=params.fc2_b[perm]
        )
        logits_p = head_forward(feats, permuted)
        assert np.allclose(logits_p, logits[:, perm])
        inv = np.argsort(perm)
        assert np.array_equal(logits_p.argmax(axis=1), inv[logits.argmax(axis=1)])


class TestMaxPool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_argmax_oracle_bitwise(self, dtype):
        rng = np.random.default_rng(21)
        x = rng.integers(0, 3, (4, 3, 8, 10)).astype(dtype)  # three levels: random ties
        x[0] = 0.0  # all-zero frames
        x[1] = rng.random((3, 4, 5)).repeat(2, axis=-2).repeat(2, axis=-1)  # constant blocks
        x[2] = rng.random((3, 8, 10))  # no ties
        grad = rng.standard_normal((4, 3, 4, 5)).astype(dtype)
        grad[0, 0, 0, 0] = -0.0  # the routed value keeps its sign bit
        pooled = network._maxpool2(x)
        want, idx = maxpool2_oracle(x)
        assert pooled.dtype == want.dtype and pooled.tobytes() == want.tobytes()
        got = network._maxpool2_backward(grad, x, pooled)
        ref = maxpool2_backward_oracle(grad, idx, x.shape)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


class TestGradients:
    def test_gradcheck_sampled(self):
        # quick spot check; the acceptance suite sweeps every coordinate
        params = toy_params(seed=7, mask=True)
        bits, labels = toy_batch(8, n=5)
        _, _, grads = network._loss_and_grads(params, bits, labels, "float64", 1)
        self._fd_compare(params, bits, labels, grads, "fc2_w", (1, 2))
        self._fd_compare(params, bits, labels, grads, "fc2_b", (0,))
        self._fd_compare(params, bits, labels, grads, "fc1_w", (4, 3))
        self._fd_compare(params, bits, labels, grads, "fc1_b", (2,))

    @staticmethod
    def _fd_compare(params, bits, labels, grads, name, idx, h=1e-6):
        def loss_at(p):
            loss, _, _ = network._loss_and_grads(p, bits, labels, "float64", 1)
            return loss

        arr = getattr(params, name).copy()
        arr[idx] += h
        lp = loss_at(network.replace(params, **{name: arr}))
        arr[idx] -= 2 * h
        lm = loss_at(network.replace(params, **{name: arr}))
        fd = (lp - lm) / (2 * h)
        an = grads[name][idx]
        assert an == pytest.approx(fd, rel=1e-4, abs=1e-10)


class TestTrainStage1:
    def test_learns_two_class_toy(self):
        rng = np.random.default_rng(8)
        n = 200
        labels = rng.integers(0, 2, n)
        bits = np.zeros((n, 8, 8), dtype=np.uint8)
        bits[labels == 0, :4] = rng.integers(0, 2, (int((labels == 0).sum()), 4, 8))
        bits[labels == 1, 4:] = rng.integers(0, 2, (int((labels == 1).sum()), 4, 8))
        cfg = TrainConfig(epochs_stage1=5, batch_size=32, seed=0, dtype="float64")
        params, trace = train_stage1((bits, labels), cfg, params=toy_params(seed=9, classes=2))
        assert trace[-1]["accuracy"] >= 0.95

    def test_seeded_determinism(self):
        bits, labels = toy_batch(10, n=64)
        cfg = TrainConfig(epochs_stage1=2, batch_size=16, seed=5, dtype="float64")
        p1, _ = train_stage1((bits, labels), cfg, params=toy_params(seed=11))
        p2, _ = train_stage1((bits, labels), cfg, params=toy_params(seed=11))
        for name in network._PARAM_NAMES:
            assert getattr(p1, name).tobytes() == getattr(p2, name).tobytes()

    def test_divergence_raises(self):
        # the gain normalization and stabilized softmax keep blowups finite,
        # so drive the NaN-loss abort directly through a poisoned weight
        bits, labels = toy_batch(12, n=32)
        cfg = TrainConfig(epochs_stage1=1, batch_size=8, seed=0, dtype="float64")
        params = toy_params(seed=12)
        bad = params.fc1_w.copy()
        bad[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match="diverged"):
            train_stage1((bits, labels), cfg, params=network.replace(params, fc1_w=bad))

    def test_log_every_prints_one_line_per_step(self, capsys):
        bits, labels = toy_batch(12, n=20)  # 3 steps per epoch, the last of 4 images
        cfg = TrainConfig(epochs_stage1=2, batch_size=8, seed=0, dtype="float64")
        train_stage1((bits, labels), cfg, params=toy_params(seed=12), log_every=1)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" loss ")[0] for line in lines] == [
            f"stage1 epoch {e} step {s}" for e in range(2) for s in range(3)
        ]

    def test_mask_persists_after_steps(self):
        bits, labels = toy_batch(13, n=32)
        cfg = TrainConfig(epochs_stage1=1, batch_size=8, seed=0, dtype="float64")
        params, _ = train_stage1((bits, labels), cfg, params=toy_params(seed=13, mask=True))
        b = binarized_kernels(params)
        c = params.grid // 2
        assert not b[:, c - 1 : c + 2, c - 1 : c + 2].any()
        # the masked gradient alone keeps the masters' centre bins at zero
        assert np.all(params.fourier_kernels[:, c - 1 : c + 2, c - 1 : c + 2] == 0)


class TestStage2:
    def _trained(self):
        bits, labels = toy_batch(14, n=48)
        cfg = TrainConfig(epochs_stage1=2, batch_size=16, seed=1, dtype="float64")
        params, _ = train_stage1((bits, labels), cfg, params=toy_params(seed=14))
        return params, bits, labels, cfg

    def test_kernels_frozen(self):
        params, bits, labels, cfg = self._trained()
        feats = capture_features(params, bits, OpticalConfig(), NoiseSpec(sigma=0.1, seed=3))
        before = params.fourier_kernels.tobytes()
        tuned, _ = finetune_stage2(params, (feats, labels), cfg)
        assert tuned.fourier_kernels.tobytes() == before

    def test_train_loss_decreases(self):
        params, bits, labels, cfg = self._trained()
        feats = capture_features(params, bits, OpticalConfig(), NoiseSpec(sigma=0.2, seed=4))
        _, trace = finetune_stage2(params, (feats, labels), cfg)
        assert trace[-1]["loss"] <= trace[0]["loss"]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_divergence_names_stage_epoch_and_step(self, dtype):
        params, captured = self._captured()
        bad = params.fc1_w.copy()
        bad[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match=r"^stage 2 diverged at epoch 0, step 0: loss=nan$"):
            finetune_stage2(network.replace(params, fc1_w=bad), captured, self.config(dtype))

    def test_feature_shape_mismatch(self):
        params, bits, labels, cfg = self._trained()
        with pytest.raises(ValueError):
            finetune_stage2(params, (np.zeros((4, 2, 6, 6)), labels[:4]), cfg)

    def test_noise_free_capture_matches_digital(self):
        params, bits, _, _ = self._trained()
        cap = capture_features(params, bits[:4], OpticalConfig(), noise=None)
        dig = conv_fourier_forward(bits[:4], params, mode="digital", dtype="float64")
        assert np.max(np.abs(cap - dig)) < 1e-9

    def _captured(self, n=45, dtype="float64"):
        # 45 captures in batches of 16 leave a batch of 13
        params, bits, labels, _ = self._trained()
        feats = capture_features(params, bits[:n], OpticalConfig(), NoiseSpec(sigma=0.1, seed=5), dtype=dtype)
        return params, (feats, labels[:n])

    @staticmethod
    def config(dtype):
        return TrainConfig(epochs_stage2=3, batch_size=16, lr_stage2=0.05, seed=6, dtype=dtype)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_oracle_loop_bitwise(self, dtype):
        params, captured = self._captured()
        got, got_trace = finetune_stage2(params, captured, self.config(dtype))
        want, want_trace = finetune_stage2_oracle(params, captured, self.config(dtype))
        assert got_trace == want_trace
        for name in network._PARAM_NAMES:
            assert_same_bits(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_pool_blocks_match_oracle_bitwise(self, monkeypatch, dtype):
        # 45 captures of 2 * 8 * 8 float64 pixels pooled 4 per block: 11
        # blocks and a remainder of 1
        params, captured = self._captured()
        pooled, pool = [], network._maxpool2

        def recording_pool(x):
            pooled.append(len(x))
            return pool(x)

        monkeypatch.setattr(network, "_BLOCK_BYTES", 4 * 2 * 8 * 8 * 8)
        monkeypatch.setattr(network, "_maxpool2", recording_pool)
        got, got_trace = finetune_stage2(params, captured, self.config(dtype))
        assert pooled == [4] * 11 + [1]
        want, want_trace = finetune_stage2_oracle(params, captured, self.config(dtype))
        assert got_trace == want_trace
        for name in network._PARAM_NAMES:
            assert_same_bits(getattr(got, name), getattr(want, name))

    def test_float64_keeps_the_float64_head_bitwise(self):
        # the float64 loop as it ran before the dtype rule reached stage 2:
        # float64 pooled features with fc1_w itself
        params, (feats, labels) = self._captured()
        cfg = self.config("float64")
        flat_all = network._maxpool2(feats).reshape(len(feats), -1)
        rng = np.random.default_rng(cfg.seed + 1)
        opt = network._Momentum(("fc1_w", "fc1_b", "fc2_w", "fc2_b"))
        want = params
        for _ in range(cfg.epochs_stage2):
            order = rng.permutation(len(feats))
            for s in range(0, len(feats), cfg.batch_size):
                sel = order[s : s + cfg.batch_size]
                _, _, grads, _ = network._head_step(flat_all[sel], want.fc1_w, labels[sel], want)
                want = opt.step(want, grads, cfg.lr_stage2, cfg.momentum)
        got, _ = finetune_stage2(params, (feats, labels), cfg)
        for name in network._PARAM_NAMES:
            assert_same_bits(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_float32_captures_keep_the_bits_of_a_float64_copy(self, dtype):
        # float32 captures pool in float32; the parameters keep the bits of
        # pooling a float64 copy of them, which the oracle makes
        params, captured = self._captured(dtype="float32")
        assert captured[0].dtype == np.float32
        got, got_trace = finetune_stage2(params, captured, self.config(dtype))
        want, want_trace = finetune_stage2_oracle(params, captured, self.config(dtype))
        assert got_trace == want_trace
        for name in network._PARAM_NAMES:
            assert_same_bits(getattr(got, name), getattr(want, name))

    def test_float32_captures_are_not_copied_to_float64(self):
        # 2016 float32 captures: a float64 copy alone would take twice their bytes
        params, bits, labels, _ = self._trained()
        feats = np.tile(capture_features(params, bits, OpticalConfig(), None, dtype="float32"), (42, 1, 1, 1))
        cfg = network.replace(self.config("float32"), epochs_stage2=1)
        tracemalloc.start()
        try:
            finetune_stage2(params, (feats, np.tile(labels, 42)), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * feats.nbytes

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_masters_and_velocities_stay_float64(self, monkeypatch, dtype):
        optimizers, grad_dtypes = [], set()

        class Recording(network._Momentum):
            def __init__(self, names):
                super().__init__(names)
                optimizers.append(self)

            def step(self, params, grads, lr, momentum):
                grad_dtypes.add(grads["fc1_w"].dtype)
                return super().step(params, grads, lr, momentum)

        params, captured = self._captured()
        monkeypatch.setattr(network, "_Momentum", Recording)
        tuned, _ = finetune_stage2(params, captured, self.config(dtype))
        assert grad_dtypes == {np.dtype(dtype)}  # the fc1_w gradient GEMM ran in the config's dtype
        (opt,) = optimizers
        assert {v.dtype for v in opt.v.values()} == {np.dtype(np.float64)}
        assert all(getattr(tuned, name).dtype == np.float64 for name in network._PARAM_NAMES)


class TestStage2Gram:
    """Stage 2 trains fc1 through the captures' Gram matrix where that costs
    less; for the toy head (D = 32, hidden 8) in batches of 5 over 3
    epochs, up to 31 captures take that form."""

    _captured = TestStage2._captured
    _trained = TestStage2._trained

    @staticmethod
    def config(dtype, batch_size=5):
        # 16 captures in batches of 5 leave a batch of 1
        return TrainConfig(epochs_stage2=3, batch_size=batch_size, lr_stage2=0.05, seed=6, dtype=dtype)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_gram_oracle_loop_bitwise(self, dtype):
        params, captured = self._captured(n=16)
        got, got_trace = finetune_stage2(params, captured, self.config(dtype))
        want, want_trace = finetune_stage2_gram_oracle(params, captured, self.config(dtype))
        assert got_trace == want_trace
        for name in network._PARAM_NAMES:
            assert_same_bits(getattr(got, name), getattr(want, name))

    @staticmethod
    def assert_tracks_plain_loop(params, captured, cfg, rtol):
        got, got_trace = finetune_stage2(params, captured, cfg)
        want, want_trace = finetune_stage2_oracle(params, captured, cfg)
        head = network._PARAM_NAMES[1:]
        scale = max(np.abs(getattr(want, name)).max() for name in head)
        for name in head:
            assert np.abs(getattr(got, name) - getattr(want, name)).max() <= rtol * scale, name
        assert [r["accuracy"] for r in got_trace] == [r["accuracy"] for r in want_trace]
        assert [r["loss"] for r in got_trace] == pytest.approx([r["loss"] for r in want_trace], rel=rtol)
        assert got.fourier_kernels is params.fourier_kernels

    @pytest.mark.parametrize("dtype, rtol", [("float32", 1e-5), ("float64", 1e-12)])
    def test_tracks_the_plain_loop_oracle_on_toy_sizes(self, dtype, rtol):
        params, captured = self._captured(n=16)
        self.assert_tracks_plain_loop(params, captured, self.config(dtype), rtol)

    @pytest.mark.parametrize("dtype, rtol", [("float32", 1e-5), ("float64", 1e-12)])
    def test_tracks_the_plain_loop_oracle_at_tiled_sizes(self, dtype, rtol):
        # the tiled fit's shape: N = 196 captures, K = 16, G = 256, hidden 256
        params = init_params(seed=31, n_kernels=16, grid=256, hidden=256)
        rng = np.random.default_rng(31)
        feats = rng.random((196, 16, 28, 28)) ** 4
        feats /= feats.reshape(196, -1).max(axis=1)[:, None, None, None]
        captured = (feats.astype(dtype), rng.integers(0, 10, 196))
        self.assert_tracks_plain_loop(params, captured, self.config(dtype, batch_size=64), rtol)

    @pytest.mark.parametrize("n, trained", [(31, "fc1_coef"), (32, "fc1_w")])
    def test_form_switches_where_gram_pays(self, monkeypatch, n, trained):
        names = []

        class Recording(network._Momentum):
            def __init__(self, opt_names):
                super().__init__(opt_names)
                names.append(tuple(opt_names))

        params, captured = self._captured(n=n)
        monkeypatch.setattr(network, "_Momentum", Recording)
        finetune_stage2(params, captured, self.config("float64"))
        assert names == [(trained, "fc1_b", "fc2_w", "fc2_b")]

    @pytest.mark.parametrize("n, epochs, gram", [
        # 15% either side of the measured crossovers at the benchmark's head
        # (D = 3136, hidden 256, batch 64, float32): N = 480, 1150, 2200, 3550
        (400, 1, True), (560, 1, False), (980, 2, True), (1320, 2, False),
        (1870, 5, True), (2530, 5, False), (3000, 30, True), (4080, 30, False),
        # the benchmark's capture and tiled fits, its set-up head fit, the
        # CLI default capture set and the paper's 6000 captures
        (48, 5, True), (196, 5, True), (64, 30, True), (2000, 5, True), (6000, 5, False),
    ])
    def test_rule_tracks_the_measured_crossovers(self, n, epochs, gram):
        cfg = TrainConfig(epochs_stage2=epochs, batch_size=64)
        assert network._gram_pays(n, 3136, 256, cfg) is gram

    @pytest.mark.parametrize("dtype, lr, epochs, batch_size, message", [
        ("float32", 1e30, 3, 5, "epoch 0, step 2: overflow encountered in cast"),
        ("float32", 1e300, 3, 5, "epoch 0, step 1: overflow encountered in cast"),
        ("float32", 1e45, 1, 16, "epoch 0, step 0: fc1_w does not fit float32"),
        ("float64", 1e300, 3, 5, "epoch 0, step 1: overflow encountered in matmul"),
    ])
    def test_both_forms_diverge_at_the_same_step(self, monkeypatch, dtype, lr, epochs, batch_size, message):
        # a step that overflows the training dtype, or a last step that
        # leaves an fc1_w which does not fit it, fails in either form
        params, captured = self._captured(n=16)
        cfg = TrainConfig(epochs_stage2=epochs, batch_size=batch_size, lr_stage2=lr, seed=6, dtype=dtype)
        for gram in (True, False):
            monkeypatch.setattr(network, "_gram_pays", lambda *args: gram)
            with pytest.raises(TrainingDivergedError, match=rf"^stage 2 diverged at {message}$"):
                finetune_stage2(params, captured, cfg)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_coefficients_and_velocities_stay_float64(self, monkeypatch, dtype):
        optimizers, grad_dtypes = [], set()

        class Recording(network._Momentum):
            def __init__(self, names):
                super().__init__(names)
                optimizers.append(self)

            def step(self, params, grads, lr, momentum):
                grad_dtypes.update(g.dtype for g in grads.values())
                assert params.fc1_coef.dtype == np.float64
                return super().step(params, grads, lr, momentum)

        params, captured = self._captured(n=16)
        monkeypatch.setattr(network, "_Momentum", Recording)
        tuned, _ = finetune_stage2(params, captured, self.config(dtype))
        assert grad_dtypes == {np.dtype(np.float64)}
        (opt,) = optimizers
        assert opt.v["fc1_coef"].shape == (16, 8)
        assert {v.dtype for v in opt.v.values()} == {np.dtype(np.float64)}
        assert all(getattr(tuned, name).dtype == np.float64 for name in network._PARAM_NAMES)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_divergence_names_stage_epoch_and_step(self, dtype):
        params, captured = self._captured(n=16)
        bad = params.fc1_w.copy()
        bad[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match=r"^stage 2 diverged at epoch 0, step 0: loss=nan$"):
            finetune_stage2(network.replace(params, fc1_w=bad), captured, self.config(dtype))


class TestStageInputs:
    """Both training stages reject labels that do not fit their samples."""

    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("labels, needle", [
        (np.zeros(12, np.int64), "12 labels for 10 samples"),
        (np.array([0, 1, 2, -1, 0, 1, 2, 0, 1, 2]), r"labels must be in \[0, 3\)"),
        (np.array([0, 1, 2, 3, 0, 1, 2, 0, 1, 2]), r"labels must be in \[0, 3\)"),
    ])
    def test_bad_labels_rejected(self, stage, labels, needle):
        params = toy_params(seed=24)
        bits, _ = toy_batch(24, n=10)
        cfg = TrainConfig(epochs_stage1=1, epochs_stage2=1, batch_size=4, seed=0, dtype="float64")
        with pytest.raises(ValueError, match=needle):
            if stage == 1:
                train_stage1((bits, labels), cfg, params)
            else:
                finetune_stage2(params, (conv_fourier_forward(bits, params), labels), cfg)


class TestReadOnlyParams:
    def test_training_and_capture_never_write_to_params(self):
        # The perfbench gradient probe reads a step as the caller's masters
        # minus the stepped ones; an in-place update would zero it silently.
        params = toy_params(seed=15, mask=True)
        for name in network._PARAM_NAMES:
            getattr(params, name).flags.writeable = False
        bits, labels = toy_batch(15, n=12)
        cfg = TrainConfig(epochs_stage1=1, epochs_stage2=1, batch_size=4, seed=1)
        stepped, _ = train_stage1((bits, labels), cfg, params=params)
        assert not np.array_equal(stepped.fourier_kernels, params.fourier_kernels)
        feats = capture_features(params, bits, OpticalConfig(), NoiseSpec(sigma=0.1, seed=2))
        tuned, _ = finetune_stage2(params, (feats, labels), cfg)
        assert not np.array_equal(tuned.fc1_w, params.fc1_w)


class TestKernelSpectrumMemo:
    """Each ModelParams builds its kernel spectrum once per real dtype and
    keeps it, with its masters, read-only."""

    def test_one_build_per_dtype_across_forwards(self, monkeypatch):
        # digital float64 and optical share the float64 spectrum
        params = toy_params(seed=30, mask=True)
        bits = toy_batch(30, n=3)[0]
        builds, build = [], network._kernel_spectrum

        def counting_build(p, rdtype, *args):
            builds.append(np.dtype(rdtype))
            return build(p, rdtype, *args)

        monkeypatch.setattr(network, "_kernel_spectrum", counting_build)
        for _ in range(3):
            conv_fourier_forward(bits, params, dtype="float32")
            conv_fourier_forward(bits, params, dtype="float64")
            conv_fourier_forward(bits, params, mode="optical", noise=NoiseSpec(sigma=0.1, seed=1))
        capture_features(params, bits, OpticalConfig(), NoiseSpec(sigma=0.1, seed=1))
        assert builds == [np.dtype(np.float32), np.dtype(np.float64)]

    @pytest.mark.parametrize("mode, dtype", [("digital", "float32"), ("digital", "float64"),
                                             ("optical", "float64")])
    def test_memo_gives_the_bits_of_a_fresh_instance(self, mode, dtype):
        params = toy_params(seed=31, mask=True)
        bits = toy_batch(31, n=4)[0]
        noise = NoiseSpec(sigma=0.1, seed=2) if mode == "optical" else None

        def forward(p):
            return conv_fourier_forward(bits, p, mode=mode, noise=noise, dtype=dtype)

        forward(params)
        assert_same_bits(forward(params), forward(network.replace(params)))

    def test_forward_makes_masters_and_spectrum_read_only(self):
        params = toy_params(seed=32)
        assert params.fourier_kernels.flags.writeable
        conv_fourier_forward(toy_batch(32, n=2)[0], params)
        spec = params._kernel_spec(np.float64)
        for arr in (params.fourier_kernels, spec):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = 1

    def test_replace_never_reuses_the_old_spectrum(self):
        params = toy_params(seed=33, mask=True)
        bits = toy_batch(33, n=3)[0]
        before = conv_fourier_forward(bits, params)
        old = params._kernel_spec(np.float64)
        flipped = network.replace(params, fourier_kernels=-params.fourier_kernels)
        assert flipped._spectra == {}
        after = conv_fourier_forward(bits, flipped)
        assert flipped._kernel_spec(np.float64) is not old
        assert_same_bits(flipped._kernel_spec(np.float64), network._kernel_spectrum(flipped, np.float64))
        assert not np.array_equal(before, after)
        assert network.replace(params)._spectra == {}

    def test_bank_override_neither_reads_nor_fills_the_memo(self):
        params = toy_params(seed=34, mask=True)
        bits, labels = toy_batch(34, n=4)
        bank = np.random.default_rng(34).random(params.fourier_kernels.shape)
        want = network._loss_and_grads(params, bits, labels, "float64", 1, bank_override=bank)
        assert params._spectra == {} and params.fourier_kernels.flags.writeable
        params._spectra[np.dtype(np.float64)] = np.zeros_like(network._kernel_spectrum(params, np.float64))
        got = network._loss_and_grads(params, bits, labels, "float64", 1, bank_override=bank)
        assert got[:2] == want[:2]
        for name in network._PARAM_NAMES:
            assert_same_bits(got[2][name], want[2][name])


class TestEvaluate:
    def test_chance_level_random_params(self):
        rng = np.random.default_rng(15)
        bits = rng.integers(0, 2, (2000, 8, 8)).astype(np.uint8)
        labels = rng.integers(0, 10, 2000)
        params = init_params(seed=16, n_kernels=2, grid=16, image_hw=(8, 8), n_classes=10, hidden=8)
        res = evaluate(params, (bits, labels), mode="digital")
        sigma = np.sqrt(0.1 * 0.9 / 2000)
        assert abs(res.accuracy - 0.1) < 3 * sigma + 1e-9
        assert res.confusion.sum() == 2000

    def test_confusion_diagonal_counts_hits(self):
        bits, labels = toy_batch(17, n=20)
        params = toy_params(seed=17)
        res = evaluate(params, (bits, labels), mode="digital")
        assert res.confusion.trace() == int(round(res.accuracy * 20))

    def test_optical_noise_stream_spans_batches(self, monkeypatch):
        # identical images in two batches must not see the same noise draws:
        # the batched features equal one capture of all images under one seed
        params = toy_params(seed=22)
        bits = np.repeat(toy_batch(22, n=1)[0], 8, axis=0)
        noise = NoiseSpec(sigma=0.2, seed=5)
        seen = []
        head = network.head_forward

        def recording_head(features, p):
            seen.append(features)
            return head(features, p)

        monkeypatch.setattr(network, "head_forward", recording_head)
        monkeypatch.setattr(network, "_PREDICT_BATCH", 4)
        network.predict(params, bits, mode="optical", config=OpticalConfig(), noise=noise)
        assert len(seen) == 2 and not np.array_equal(seen[0], seen[1])
        whole = conv_fourier_forward(bits, params, mode="optical", config=OpticalConfig(),
                                     noise=noise, rng=np.random.default_rng(noise.seed))
        assert np.array_equal(np.concatenate(seen), whole)


    @pytest.mark.parametrize("mode", ["digital", "optical"])
    def test_predict_builds_the_kernel_spectrum_once(self, monkeypatch, mode):
        # 12 images in batches of 4 through per-batch forwards on one noise
        # stream, then predict on the same instance and on a fresh copy: the
        # features equal the forwards', and each instance builds its
        # spectrum once, in the dtype asked for in either mode, however many
        # batches it runs
        params = toy_params(seed=25)
        fresh = network.replace(params)
        bits = toy_batch(25, n=12)[0]
        noise = NoiseSpec(sigma=0.2, seed=6) if mode == "optical" else None
        builds, seen = [], []
        build, head = network._kernel_spectrum, network.head_forward

        def counting_build(p, rdtype, *args):
            builds.append((id(p), rdtype))
            return build(p, rdtype, *args)

        def recording_head(features, p):
            seen.append(features)
            return head(features, p)

        monkeypatch.setattr(network, "_kernel_spectrum", counting_build)
        rng = None if noise is None else np.random.default_rng(noise.seed)
        want = [conv_fourier_forward(bits[s : s + 4], params, mode=mode, noise=noise, rng=rng, dtype="float32")
                for s in range(0, 12, 4)]
        monkeypatch.setattr(network, "head_forward", recording_head)
        monkeypatch.setattr(network, "_PREDICT_BATCH", 4)
        for p in (params, fresh):
            seen.clear()
            preds = network.predict(p, bits, mode=mode, noise=noise, dtype="float32")
            assert len(seen) == 3
            for got, ref in zip(seen, want):
                assert_same_bits(got, ref)
            assert_same_bits(preds, np.concatenate([head(f, params).argmax(axis=1) for f in want]))
        assert builds == [(id(params), np.float32), (id(fresh), np.float32)]

    @pytest.mark.parametrize("dtype, needle", [("float32", "unknown mode 'holographic'"),
                                               ("float16", "dtype must be one of")])
    def test_predict_rejects_an_unknown_mode_after_the_dtype(self, dtype, needle):
        with pytest.raises(ValueError, match=needle):
            network.predict(toy_params(seed=26), toy_batch(26, n=2)[0], mode="holographic", dtype=dtype)


class TestOpticalCapture:
    """The per-image optical path: the engine's windows through the camera
    against the optics-module physics reference, and the bench's rejections."""

    @staticmethod
    def case(grid=63, n=5, k=5):
        # masked random bank; K=5 leaves the last kernel alone on order 0
        params = init_params(seed=24, n_kernels=k, grid=grid, image_hw=(8, 8), n_classes=3, hidden=8)
        return params, toy_batch(24, n=n)[0]

    @pytest.mark.parametrize("noise", [None, NoiseSpec(dark=1e-4)], ids=["clean", "dark"])
    @pytest.mark.parametrize("grid", [63, 64])
    def test_matches_optics_oracle(self, grid, noise):
        # the dark floor is added before the gain, so it pins the absolute
        # intensity scale the camera sees
        params, bits = self.case(grid)
        got = capture_features(params, bits, OpticalConfig(), noise)
        want = capture_oracle(params, bits, OpticalConfig(), noise)
        assert got.shape == want.shape == (5, 5, 8, 8)
        assert np.max(np.abs(got - want)) <= 1e-9

    @pytest.mark.parametrize("value", [2, 0.5, -1])
    def test_non_binary_input_rejected(self, value):
        # a uint8 frame would truncate 0.5 to a valid 0
        params, bits = self.case()
        bits = bits.astype(np.float64)
        bits[3, 2, 2] = value
        with pytest.raises(ValueError, match="binary"):
            capture_features(params, bits, OpticalConfig(), None)

    def test_order_one_off_the_array_rejected(self):
        params, bits = self.case()
        narrow = OpticalConfig(dmd_cols=1000)  # order 1 centred 779 px out
        with pytest.raises(FrameOverflowError):
            capture_features(params, bits, narrow, None)
        one, _ = self.case(k=1)
        assert capture_features(one, bits, narrow, None).shape == (5, 1, 8, 8)  # order 0 only

    def test_noise_has_the_specified_sigma(self):
        # as TestTiled's: per image the noisy-to-clean ratio, over its mean,
        # spreads by sigma
        params, bits = self.case(grid=64, n=27)
        sigma = 0.1
        clean = capture_features(params, bits, OpticalConfig(), None)
        noisy = capture_features(params, bits, OpticalConfig(), NoiseSpec(sigma=sigma, seed=7))
        spread = []
        for c, n in zip(clean, noisy):
            r = n[c > 0.01] / c[c > 0.01]
            spread.append(r / r.mean() - 1.0)
        assert abs(np.std(np.concatenate(spread)) / sigma - 1.0) <= 0.1

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_capture_draws_from_the_noise_seed(self, seed, dtype):
        # capture_features and optical conv_fourier_forward seed one rule
        params, bits = self.case()
        noise = NoiseSpec(sigma=0.1, seed=seed)
        got = capture_features(params, bits, OpticalConfig(), noise, dtype=dtype)
        assert_same_bits(got, conv_fourier_forward(bits, params, mode="optical", noise=noise, dtype=dtype))

    def test_single_image_equals_one_image_batch(self):
        # conv_fourier_forward promotes a 2-D image once, for both modes
        params, bits = self.case()
        noise = NoiseSpec(sigma=0.1, dark=1e-4)
        for mode in ("digital", "optical"):
            one, batch = (conv_fourier_forward(x, params, mode=mode, noise=noise, rng=np.random.default_rng(2))
                          for x in (bits[0], bits[:1]))
            assert one.shape == (1, 5, 8, 8)
            assert_same_bits(one, batch)

    def test_chunks_give_the_bits_of_one_capture(self, monkeypatch):
        params, bits = self.case()
        noise = NoiseSpec(sigma=0.1, dark=1e-4, seed=3)
        whole = capture_features(params, bits, OpticalConfig(), noise)
        monkeypatch.setattr(network, "_BLOCK_BYTES", 2 * 5 * 8 * 8 * 8)  # chunks of 2 + 2 + 1
        assert_same_bits(capture_features(params, bits, OpticalConfig(), noise), whole)


class TestOpticalPrecision:
    """Optical mode runs the conv engine in the dtype asked for, as digital
    mode does; the camera computes in float64 and draws the same normals in
    either dtype."""

    case = staticmethod(TestOpticalCapture.case)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_noise_free_optical_equals_digital_bitwise(self, dtype):
        params, bits = self.case()
        digital = conv_fourier_forward(bits, params, dtype=dtype)
        assert digital.dtype == np.dtype(dtype)
        assert_same_bits(conv_fourier_forward(bits, params, mode="optical", dtype=dtype), digital)
        assert_same_bits(capture_features(params, bits, OpticalConfig(), None, dtype=dtype), digital)

    def test_float32_capture_tracks_float64(self):
        # one seed, one noise stream: the dtypes differ by the engine's
        # rounding alone, far below the unit peak, and a head scores both alike
        params, bits = self.case(grid=64, n=27)
        noise = NoiseSpec(sigma=0.1, dark=1e-4, seed=7)
        f32, f64 = (capture_features(params, bits, OpticalConfig(), noise, dtype=dtype)
                    for dtype in ("float32", "float64"))
        assert f32.dtype == np.float32 and f64.dtype == np.float64
        assert np.max(np.abs(f32 - f64)) <= 1e-5
        preds = [head_forward(f, params).argmax(axis=1) for f in (f32, f64)]
        assert np.array_equal(*preds)

    def test_float32_batch_equals_its_parts_from_one_rng(self, monkeypatch):
        # parts of 2 + 2 + 1 images drawn in order from one generator give
        # the bits of one capture of the batch, and so do image groups of
        # two float32 windows; the same block holds one float64 image
        params, bits = self.case()
        noise = NoiseSpec(sigma=0.1, dark=1e-4, seed=3)
        rng = np.random.default_rng(3)
        parts = np.concatenate([
            conv_fourier_forward(bits[s : s + 2], params, mode="optical", noise=noise, rng=rng, dtype="float32")
            for s in range(0, 5, 2)
        ])
        whole = capture_features(params, bits, OpticalConfig(), noise, dtype="float32")
        assert_same_bits(parts, whole)
        groups, camera = [], network.camera_capture

        def counting_camera(intensity, *args, **kwargs):
            groups.append(len(intensity))
            return camera(intensity, *args, **kwargs)

        monkeypatch.setattr(network, "camera_capture", counting_camera)
        monkeypatch.setattr(network, "_BLOCK_BYTES", 2 * 5 * 8 * 8 * 4)
        assert_same_bits(capture_features(params, bits, OpticalConfig(), noise, dtype="float32"), whole)
        assert groups == [2, 2, 1]
        groups.clear()
        capture_features(params, bits, OpticalConfig(), noise)
        assert groups == [1] * 5


class TestTiled:
    def test_tiled_windows_transparent_on_all_pass_path(self):
        # all-pass kernels: window extraction must reproduce each input
        # exactly, so tiled and single-image features and predictions agree
        # bit for bit (no crosstalk on the identity path)
        grid = 64
        params = init_params(seed=18, n_kernels=2, grid=grid, image_hw=(8, 8),
                             n_classes=3, hidden=8, highpass_mask_enabled=False)
        params = network.replace(params, fourier_kernels=np.abs(params.fourier_kernels) + 0.1)
        bits, _ = toy_batch(18, n=8)
        layout = TileLayout(grid_rows=2, grid_cols=2, gap=12, tile_px=(8, 8), frame=(grid, grid))
        single_feats = conv_fourier_forward(bits, params, mode="digital", dtype="float64")
        tiled_feats = features_tiled(params, bits, layout, OpticalConfig())
        assert np.max(np.abs(single_feats - tiled_feats)) < 1e-9
        single = network.predict(params, bits, mode="digital", dtype="float64")
        tiled_preds = head_forward(tiled_feats, params).argmax(axis=1)
        assert np.array_equal(tiled_preds, single)

    def test_frame_must_match_grid(self):
        params = toy_params(seed=19)
        layout = TileLayout(grid_rows=1, grid_cols=1, gap=0, tile_px=(8, 8), frame=(32, 32))
        with pytest.raises(ValueError, match="grid"):
            features_tiled(params, np.zeros((1, 8, 8), np.uint8), layout, OpticalConfig())

    def test_binning_rejected(self):
        params = toy_params(seed=19, grid=32)
        layout = TileLayout(grid_rows=1, grid_cols=1, gap=0, tile_px=(8, 8), frame=(32, 32))
        with pytest.raises(ValueError, match="bin_factor"):
            features_tiled(params, np.zeros((1, 8, 8), np.uint8), layout, OpticalConfig(),
                           noise=NoiseSpec(bin_factor=2))

    @staticmethod
    def odd_case(grid=63, n=12):
        # masked random bank, so the tiles' outputs spill into one another;
        # K=5 leaves the last kernel alone on order 0; 10-px cells around
        # 8-px images; 12 images on 3x3 frames leave the last frame partial
        params = init_params(seed=22, n_kernels=5, grid=grid, image_hw=(8, 8), n_classes=3, hidden=8)
        bits, _ = toy_batch(22, n=n)
        layout = TileLayout(grid_rows=3, grid_cols=3, gap=5, tile_px=(10, 10), frame=(grid, grid))
        return params, bits, layout

    @pytest.mark.parametrize("spectra_per_block", [None, 1, 2])
    @pytest.mark.parametrize("grid", [63, 64])
    def test_engine_matches_optics_oracle(self, monkeypatch, grid, spectra_per_block):
        # None: all K=5 kernels in one block; 1 as at G=256; 2 gives 2 + 2 + 1
        if spectra_per_block:
            monkeypatch.setattr(network, "_BLOCK_BYTES", spectra_per_block * grid * grid * 16)
        params, bits, layout = self.odd_case(grid)
        got = features_tiled(params, bits, layout, OpticalConfig())
        want = features_tiled_oracle(params, bits, layout, OpticalConfig())
        assert got.shape == want.shape == (12, 5, 8, 8)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_non_binary_input_rejected(self):
        params, bits, layout = self.odd_case()
        bits[3, 2, 2] = 2
        with pytest.raises(ValueError, match="binary"):
            features_tiled(params, bits, layout, OpticalConfig())

    def test_fractional_input_rejected(self):
        # tile() writes a uint8 frame, which would truncate 0.5 to a valid 0
        params, bits, layout = self.odd_case()
        bits = bits.astype(np.float64)
        bits[3, 2, 2] = 0.5
        with pytest.raises(ValueError, match="binary"):
            features_tiled(params, bits, layout, OpticalConfig())

    def test_order_one_off_the_array_rejected(self):
        params, bits, layout = self.odd_case()
        narrow = OpticalConfig(dmd_cols=1000)  # order 1 centred 779 px out
        with pytest.raises(FrameOverflowError):
            features_tiled(params, bits, layout, narrow)
        one = init_params(seed=22, n_kernels=1, grid=63, image_hw=(8, 8), n_classes=3, hidden=8)
        assert features_tiled(one, bits, layout, narrow).shape == (12, 1, 8, 8)  # order 0 only

    def test_noise_is_seeded(self):
        params, bits, layout = self.odd_case()
        def run(seed):
            noise = NoiseSpec(sigma=0.1, seed=seed)
            return features_tiled(params, bits, layout, OpticalConfig(), noise=noise)

        assert_same_bits(run(5), run(5))
        assert not np.array_equal(run(5), run(6))

    def test_noise_has_the_specified_sigma(self):
        # the camera multiplies each pixel by 1 + sigma * N(0, 1) and each
        # image is rescaled to unit peak, so per image the noisy-to-clean
        # ratio, over its mean, spreads by sigma
        params, bits, layout = self.odd_case(grid=64, n=27)
        sigma = 0.1
        clean = features_tiled(params, bits, layout, OpticalConfig())
        noisy = features_tiled(params, bits, layout, OpticalConfig(), noise=NoiseSpec(sigma=sigma, seed=7))
        spread = []
        for c, n in zip(clean, noisy):
            r = n[c > 0.01] / c[c > 0.01]
            spread.append(r / r.mean() - 1.0)
        assert abs(np.std(np.concatenate(spread)) / sigma - 1.0) <= 0.1

    def test_evaluate_tiled_smoke(self):
        grid = 64
        params = init_params(seed=20, n_kernels=2, grid=grid, image_hw=(8, 8),
                             n_classes=3, hidden=8)
        bits, labels = toy_batch(20, n=12, classes=3)
        layout = TileLayout(grid_rows=2, grid_cols=2, gap=12, tile_px=(8, 8), frame=(grid, grid))
        res = evaluate_tiled(params, (bits, labels), layout, OpticalConfig())
        assert res.n_samples == 12


class TestEmptyBatch:
    """An empty batch gives empty features and an empty, zero-count score;
    an empty training set is rejected by both stages."""

    @staticmethod
    def case():
        params = toy_params(seed=23, grid=32, k=2)
        layout = TileLayout(grid_rows=2, grid_cols=2, gap=2, tile_px=(8, 8), frame=(32, 32))
        return params, np.zeros((0, 8, 8), np.uint8), np.zeros(0, np.int64), layout

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_digital_forward(self, dtype):
        params, bits, _, _ = self.case()
        feats = conv_fourier_forward(bits, params, dtype=dtype)
        assert feats.shape == (0, 2, 8, 8) and feats.dtype == np.dtype(dtype)

    def test_optical_forward(self):
        params, bits, _, _ = self.case()
        feats = conv_fourier_forward(bits, params, mode="optical", noise=NoiseSpec(sigma=0.1))
        assert feats.shape == (0, 2, 8, 8)

    def test_features_tiled(self):
        params, bits, _, layout = self.case()
        assert features_tiled(params, bits, layout, OpticalConfig()).shape == (0, 2, 8, 8)

    def test_predict(self):
        params, bits, _, _ = self.case()
        preds = network.predict(params, bits)
        assert preds.shape == (0,) and preds.dtype == np.intp

    @staticmethod
    def assert_empty_score(res, n_classes):
        assert res.n_samples == 0 and res.accuracy == 0.0
        assert res.confusion.shape == (n_classes, n_classes) and not res.confusion.any()

    def test_evaluate(self):
        params, bits, labels, _ = self.case()
        self.assert_empty_score(evaluate(params, (bits, labels)), params.n_classes)

    def test_evaluate_tiled(self):
        params, bits, labels, layout = self.case()
        self.assert_empty_score(evaluate_tiled(params, (bits, labels), layout, OpticalConfig()),
                                params.n_classes)

    def test_train_stage1_rejected(self):
        params, bits, labels, _ = self.case()
        with pytest.raises(ValueError, match="at least one sample"):
            train_stage1((bits, labels), TrainConfig(epochs_stage1=1), params)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_finetune_stage2_rejected(self, dtype):
        params, _, labels, _ = self.case()
        feats = np.zeros((0, 2, 8, 8), dtype)
        with pytest.raises(ValueError, match="at least one sample"):
            finetune_stage2(params, (feats, labels), TrainConfig(epochs_stage2=1, dtype=dtype))


class TestTrainConfigValues:
    @pytest.mark.parametrize("field, value", [
        ("lr_stage1", float("nan")), ("lr_stage1", float("inf")), ("lr_stage1", 0.0),
        ("lr_stage2", float("nan")), ("lr_stage2", -0.1),
        ("momentum", float("nan")), ("momentum", 1.0), ("momentum", 5.0), ("momentum", -0.1),
    ])
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = toy_params(seed=21, mask=True)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(params, p1, stage=1, seed=21)
        loaded, header = load_checkpoint(p1)
        save_checkpoint(loaded, p2, stage=1, seed=21)
        assert p1.read_bytes() == p2.read_bytes()
        assert header["stage"] == 1
        for name in network._PARAM_NAMES:
            assert np.array_equal(getattr(loaded, name), getattr(params, name))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_round_trip_bit_exact_property(self, tmp_path_factory, data):
        # finite values with -0.0 and subnormals; the masters read-only
        # after a forward, as every trained or captured instance has them
        values = st.one_of(st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308]),
                           st.floats(allow_nan=False, allow_infinity=False))
        shapes = {"fourier_kernels": (2, 4, 4), "fc1_w": (2, 3), "fc1_b": (3,), "fc2_w": (3, 2), "fc2_b": (2,)}
        drawn = {name: data.draw(arrays(np.float64, shape, elements=values), label=name)
                 for name, shape in shapes.items()}
        params = ModelParams(**drawn, highpass_mask_enabled=data.draw(st.booleans()), image_hw=(2, 2))
        conv_fourier_forward(np.ones((1, 2, 2), np.uint8), params)
        assert not params.fourier_kernels.flags.writeable
        path = save_checkpoint(params, tmp_path_factory.mktemp("ckpt") / "a.ckpt", stage=1, seed=0)
        loaded, _ = load_checkpoint(path)
        for name in network._PARAM_NAMES:
            assert_same_bits(getattr(loaded, name), getattr(params, name))
        assert save_checkpoint(loaded, path.with_name("b.ckpt"), stage=1, seed=0).read_bytes() == path.read_bytes()

    def test_layout_is_header_line_then_raw_tensors(self, tmp_path):
        params = toy_params(seed=22)
        path = save_checkpoint(params, tmp_path / "a.ckpt", stage=2, seed=22)
        header, body = path.read_bytes().split(b"\n", 1)
        want = b"".join(np.asarray(getattr(params, n), dtype="<f8").tobytes() for n in network._PARAM_NAMES)
        assert body == want and b'"stage": 2' in header

    def test_save_over_a_longer_file_writes_a_fresh_save(self, tmp_path):
        params = toy_params(seed=25)
        fresh = save_checkpoint(params, tmp_path / "fresh.ckpt", stage=1, seed=25).read_bytes()
        path = tmp_path / "a.ckpt"
        path.write_bytes(b"\xff" * (2 * len(fresh)))
        assert save_checkpoint(params, path, stage=1, seed=25).read_bytes() == fresh

    def test_truncated_tensor_rejected(self, tmp_path):
        path = save_checkpoint(toy_params(seed=23), tmp_path / "a.ckpt", stage=1, seed=23)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataFormatError, match="truncated tensor fc2_b"):
            load_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        f = tmp_path / "x.ckpt"
        f.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            load_checkpoint(f)

    @pytest.mark.parametrize("head", [bytes(range(128, 256)) + b"\n", b"[1]\n"])
    def test_rejects_non_json_header(self, tmp_path, head):
        f = tmp_path / "x.ckpt"
        f.write_bytes(head)
        with pytest.raises(DataFormatError, match="not a model checkpoint"):
            load_checkpoint(f)

    @pytest.mark.parametrize("edit, needle", [
        (lambda h: h.pop("tensors"), "malformed checkpoint header"),
        (lambda h: h.update(tensors={"fc1_w": [2]}), "malformed checkpoint header"),
        (lambda h: h["tensors"][0].pop("shape"), "malformed checkpoint header"),
        (lambda h: h["tensors"][0].update(shape=[-1]), "malformed checkpoint header"),
        (lambda h: h["tensors"][0].update(shape=[2.0, 16, 16]), "malformed checkpoint header"),
        (lambda h: h["tensors"][0].update(shape=[True, 16, 16]), "malformed checkpoint header"),
        (lambda h: h["tensors"][0].update(name=3), "malformed checkpoint header"),
        (lambda h: h["tensors"].__setitem__(0, "fourier_kernels"), "malformed checkpoint header"),
        (lambda h: h.pop("image_hw"), "malformed checkpoint header"),
        (lambda h: h.update(image_hw=[8]), "malformed checkpoint header"),
        (lambda h: h.update(image_hw="8x8"), "malformed checkpoint header"),
        (lambda h: h.pop("highpass_mask_enabled"), "malformed checkpoint header"),
        (lambda h: h.update(highpass_mask_enabled=1), "malformed checkpoint header"),
        (lambda h: h["tensors"].pop(), "no tensor(s) ['fc2_b']"),
        (lambda h: h["tensors"][0].update(name="kernels"), "no tensor(s) ['fourier_kernels']"),
        (lambda h: h["tensors"][0].update(shape=[32, 16]), "fourier_kernels must be (K, G, G)"),
        (lambda h: h["tensors"][2].update(shape=[1, 8]), "head shapes"),
        (lambda h: h.update(image_hw=[6, 6]), "fc1 expects"),
        (lambda h: h["tensors"][0].update(shape=[10**6, 10**6, 10**6]), "truncated tensor fourier_kernels"),
    ], ids=["no-tensors", "tensors-not-list", "no-shape", "negative-shape", "float-shape", "bool-shape",
            "name-not-str", "spec-not-object", "no-image-hw", "short-image-hw", "image-hw-text", "no-mask-flag",
            "mask-flag-int", "missing-tensor", "renamed-tensor", "kernels-2d", "head-mismatch", "window-mismatch",
            "huge-shape"])
    def test_rejects_malformed_header(self, tmp_path, edit, needle):
        # a header with the checkpoint magic that still does not describe a model
        path = save_checkpoint(toy_params(seed=24), tmp_path / "a.ckpt", stage=1, seed=24)
        line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(DataFormatError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and needle in str(info.value)

    def test_trace_csv(self, tmp_path):
        trace = [{"epoch": 0, "split": "train", "loss": 1.5, "accuracy": 0.5}]
        path = write_trace_csv(trace, tmp_path / "t.csv")
        assert path.read_text().splitlines()[0] == "epoch,split,loss,accuracy"
