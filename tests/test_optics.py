import numpy as np
import pytest

from opticonv import optics
from opticonv.optics import (
    ApertureMask,
    FieldPlane,
    FrameOverflowError,
    NoiseSpec,
    OpticalConfig,
    camera_capture,
    cft2,
    diffraction_angle,
    forward_4f,
    fourier_plane_px,
    geometry_pretransform,
    ideal_aperture,
    multi_kernel_forward,
    order_offset_px,
)

from oracles import conv_4f_oracle, forward_4f_oracle


def rel_rms(a, b):
    return float(np.sqrt(np.mean(np.abs(a - b) ** 2)) / max(np.sqrt(np.mean(np.abs(b) ** 2)), 1e-300))


def random_plane(rng, n, pitch=7.6e-6):
    return FieldPlane.from_bits(rng.integers(0, 2, (n, n)), pitch)


# ---------------------------------------------------------------------------
# config and geometry


class TestOpticalConfig:
    def test_paper_defaults(self, paper_config):
        assert paper_config.wavelength == 450e-9
        assert paper_config.focal_length == 100e-3
        assert paper_config.dmd_pitch == 7.6e-6
        assert (paper_config.dmd_cols, paper_config.dmd_rows) == (1920, 1080)
        assert paper_config.superpixel == 3
        assert paper_config.horizontal_expand == 2

    @pytest.mark.parametrize("bad", [
        dict(wavelength=0), dict(focal_length=-1e-3), dict(dmd_pitch=0),
        dict(dmd_cols=0), dict(superpixel=0), dict(horizontal_expand=0),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            OpticalConfig(**bad)


class TestFourierPlanePx:
    def test_paper_value(self, paper_config):
        assert fourier_plane_px(paper_config) == 779

    def test_pitch_scaling(self, paper_config):
        doubled = OpticalConfig(dmd_pitch=2 * paper_config.dmd_pitch)
        assert abs(fourier_plane_px(doubled) - 779 / 4) <= 1

    def test_short_focal(self):
        assert fourier_plane_px(OpticalConfig(focal_length=30e-3)) == 234


class TestDiffractionAngle:
    def test_paper_value(self, paper_config):
        assert diffraction_angle(paper_config) == pytest.approx(5.921e-2, rel=1e-3)

    def test_wavelength_limit(self):
        tiny = OpticalConfig(wavelength=1e-30)
        assert diffraction_angle(tiny) == pytest.approx(0.0, abs=1e-20)

    def test_inverse_pitch_scaling(self, paper_config):
        halved = OpticalConfig(dmd_pitch=15.2e-6)
        assert diffraction_angle(halved) == pytest.approx(diffraction_angle(paper_config) / 2)


class TestOrderOffset:
    def test_zeroth(self, paper_config):
        assert order_offset_px(0, paper_config) == 0

    def test_first_order_paper(self, paper_config):
        # theta * f / pitch with the bench constants equals one Fourier window
        theta = diffraction_angle(paper_config)
        expected = round(theta * paper_config.focal_length / paper_config.dmd_pitch)
        assert order_offset_px(1, paper_config) == expected == 779

    def test_short_focal_fit(self):
        cfg = OpticalConfig(focal_length=30e-3)
        assert order_offset_px(2, cfg) == 468
        with pytest.raises(ValueError):
            order_offset_px(5, cfg)

    def test_antisymmetry(self, paper_config):
        for cfg in (paper_config, OpticalConfig(focal_length=30e-3)):
            for m in (1, -1):
                assert order_offset_px(-m, cfg) == -order_offset_px(m, cfg)
            assert order_offset_px(0, cfg) == 0


class TestGeometryPretransform:
    def test_single_pixel(self, paper_config):
        out = geometry_pretransform(np.array([[1]]), paper_config)
        assert out.shape == (3, 6)
        assert (out == 1).all()

    def test_mnist_sizing(self, paper_config):
        out = geometry_pretransform(np.ones((28, 28), dtype=np.uint8), paper_config)
        assert out.shape == (84, 168)

    def test_zero_preservation(self, paper_config):
        out = geometry_pretransform(np.zeros((5, 7), dtype=np.uint8), paper_config)
        assert out.shape == (15, 42)
        assert not out.any()

    def test_frame_overflow(self, paper_config):
        with pytest.raises(FrameOverflowError):
            geometry_pretransform(np.ones((400, 400), dtype=np.uint8), paper_config)

    def test_rejects_nonbinary(self, paper_config):
        with pytest.raises(ValueError):
            geometry_pretransform(np.full((2, 2), 3), paper_config)


# ---------------------------------------------------------------------------
# field plane and aperture types


class TestFieldPlane:
    def test_rejects_nonbinary_bits(self):
        with pytest.raises(ValueError):
            FieldPlane.from_bits(np.array([[0.5]]), 7.6e-6)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FieldPlane(amplitude=np.array([[np.nan + 0j]]), pitch=7.6e-6)

    def test_rejects_bad_pitch(self):
        with pytest.raises(ValueError):
            FieldPlane(amplitude=np.zeros((2, 2), complex), pitch=0.0)

    def test_owns_a_read_only_copy(self):
        src = np.zeros((8, 8), complex)
        bits = np.zeros((8, 8), np.uint8)
        planes = [FieldPlane(src, 7.6e-6), FieldPlane.from_bits(bits, 7.6e-6)]
        for plane in planes:
            plane.spectrum()
        src[0, 0] = 1.0
        bits[0, 0] = 1
        for plane in planes:
            assert plane.amplitude.dtype == np.complex128
            assert not plane.amplitude.any()
            assert not plane.spectrum().any()
            with pytest.raises(ValueError):
                plane.amplitude[0, 0] = 1.0
            with pytest.raises(ValueError):
                plane.spectrum()[0, 0] = 1.0


class TestApertureMask:
    def test_mask_matches_regions(self):
        mask = ApertureMask.from_regions((8, 16), [(0, 0, 8, 8), (0, 8, 8, 16)])
        assert mask.open_regions == ((0, 0, 8, 8), (0, 8, 8, 16))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="crosstalk"):
            ApertureMask.from_regions((8, 16), [(0, 0, 8, 9), (0, 8, 8, 16)])

    def test_out_of_frame_rejected(self):
        with pytest.raises(ValueError):
            ApertureMask.from_regions((8, 8), [(0, 0, 9, 8)])


# ---------------------------------------------------------------------------
# forward 4f


class TestForward4f:
    def test_all_pass_identity(self, paper_config):
        rng = np.random.default_rng(0)
        plane = random_plane(rng, 32)
        out = forward_4f(plane, np.ones((32, 32)), paper_config)
        assert rel_rms(out, plane.amplitude.real) < 1e-9

    def test_all_zero_kernel(self, paper_config):
        rng = np.random.default_rng(1)
        plane = random_plane(rng, 16)
        out = forward_4f(plane, np.zeros((16, 16)), paper_config)
        assert np.abs(out).max() == 0.0

    def test_matches_direct_dft_oracle(self, paper_config):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, (16, 16))
        kernel = rng.integers(0, 2, (16, 16)).astype(float)
        got = forward_4f(FieldPlane.from_bits(bits, 7.6e-6), kernel, paper_config)
        want = forward_4f_oracle(bits, kernel)
        assert rel_rms(got, want) < 1e-9

    def test_convolution_theorem_oracle(self, paper_config):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, (8, 8))
        kernel = rng.random((8, 8))
        got = forward_4f(FieldPlane.from_bits(bits, 7.6e-6), kernel, paper_config)
        want = conv_4f_oracle(bits, kernel)
        assert rel_rms(got, want) < 1e-9

    def test_energy_conservation(self, paper_config):
        rng = np.random.default_rng(4)
        plane = random_plane(rng, 32)
        out = forward_4f(plane, np.ones((32, 32)), paper_config)
        energy_in = float((np.abs(plane.amplitude) ** 2).sum())
        assert out.sum() == pytest.approx(energy_in, rel=1e-9)

    def test_detection_is_nonlinear(self, paper_config):
        # |FT(a+b)|^2 != |FT a|^2 + |FT b|^2 on a generic pair; a bandpass
        # kernel spreads the fields so the cross term cannot vanish
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, (16, 16))
        b = rng.integers(0, 2, (16, 16)) * (1 - a)  # disjoint supports
        kern = np.zeros((16, 16))
        kern[4:12, 4:12] = 1
        out_sum = forward_4f(FieldPlane((a + b).astype(complex), 7.6e-6), kern, paper_config)
        out_a = forward_4f(FieldPlane(a.astype(complex), 7.6e-6), kern, paper_config)
        out_b = forward_4f(FieldPlane(b.astype(complex), 7.6e-6), kern, paper_config)
        assert not np.allclose(out_sum, out_a + out_b, atol=1e-6)

    def test_dimension_mismatch(self, paper_config):
        plane = FieldPlane(np.zeros((8, 8), complex), 7.6e-6)
        with pytest.raises(ValueError):
            forward_4f(plane, np.ones((4, 4)), paper_config)

    def test_overflowing_intensity_raises(self, paper_config):
        # a finite field whose intensity overflows float64 reaches the guard
        plane = FieldPlane(np.full((8, 8), 1e200), 7.6e-6)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite intensity"):
            forward_4f(plane, np.ones((8, 8)), paper_config)

    def test_flip_disabled_gives_inverted_image(self, paper_config):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, (16, 16))
        plane = FieldPlane.from_bits(bits, 7.6e-6)
        out = forward_4f(plane, np.ones((16, 16)), paper_config, flip_normalize=False)
        # physical 4f inversion: x -> x(-r) about the center sample
        inverted = np.roll(bits[::-1, ::-1], (1, 1), axis=(0, 1))
        assert rel_rms(out, inverted) < 1e-9


# ---------------------------------------------------------------------------
# multi-kernel path


class TestMultiKernel:
    @pytest.mark.parametrize("with_aperture", [True, False], ids=["aperture", "no-aperture"])
    def test_overflowing_intensity_raises(self, paper_config, with_aperture):
        plane = FieldPlane(np.full((8, 8), 1e200), 7.6e-6)
        aperture = ideal_aperture([0, 1], (8, 8), paper_config) if with_aperture else None
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite intensity"):
            multi_kernel_forward(plane, [np.ones((8, 8))] * 2, paper_config, aperture)

    def test_single_kernel_bit_identical(self, paper_config):
        rng = np.random.default_rng(7)
        plane = random_plane(rng, 32)
        kernel = rng.integers(0, 2, (32, 32)).astype(float)
        aperture = ideal_aperture([0], (32, 32), paper_config)
        multi = multi_kernel_forward(plane, [kernel], paper_config, aperture)
        single = forward_4f(plane, kernel, paper_config)
        assert multi[0].tobytes() == single.tobytes()

    def test_two_kernels_match_single_runs(self, paper_config):
        rng = np.random.default_rng(8)
        plane = random_plane(rng, 32)
        kernels = [rng.integers(0, 2, (32, 32)).astype(float) for _ in range(2)]
        aperture = ideal_aperture([0, 1], (32, 32), paper_config)
        outs = multi_kernel_forward(plane, kernels, paper_config, aperture)
        for out, kern in zip(outs, kernels):
            assert rel_rms(out, forward_4f(plane, kern, paper_config)) < 1e-9

    def test_spectrum_formed_once_per_plane(self, paper_config, monkeypatch):
        rng = np.random.default_rng(12)
        plane = random_plane(rng, 32)
        kernels = rng.integers(0, 2, (6, 32, 32)).astype(float)
        aperture = ideal_aperture([0, 1], (32, 32), paper_config)
        calls = []
        real_cft2 = optics.cft2

        def counted(field):
            calls.append(field.shape)
            return real_cft2(field)

        monkeypatch.setattr(optics, "cft2", counted)
        maps = [
            m
            for k0 in range(0, len(kernels), 2)
            for m in multi_kernel_forward(plane, list(kernels[k0 : k0 + 2]), paper_config, aperture)
        ]
        assert calls == [(32, 32)]
        for m, kern in zip(maps, kernels, strict=True):
            assert np.array_equal(m, forward_4f(plane, kern, paper_config))
        assert calls == [(32, 32)]

    @pytest.mark.parametrize("n", [15, 16])
    def test_batched_forward_on_odd_and_even_grids(self, paper_config, n):
        # ifftshift and fftshift differ only on odd sides
        rng = np.random.default_rng(n)
        plane = random_plane(rng, n)
        kernels = list(rng.integers(0, 2, (2, n, n)).astype(float))
        aperture = ideal_aperture([0, 1], (n, n), paper_config)
        maps = multi_kernel_forward(plane, kernels, paper_config, aperture)
        for m, kern in zip(maps, kernels, strict=True):
            assert np.array_equal(m, forward_4f(plane, kern, paper_config))

    def test_no_aperture_has_cross_terms(self, paper_config):
        rng = np.random.default_rng(9)
        plane = random_plane(rng, 32)
        kernels = [rng.integers(0, 2, (32, 32)).astype(float) for _ in range(2)]
        aperture = ideal_aperture([0, 1], (32, 32), paper_config)
        clean = multi_kernel_forward(plane, kernels, paper_config, aperture)
        leaky = multi_kernel_forward(plane, kernels, paper_config, aperture=None)
        assert not np.allclose(clean[0], leaky[0])
        assert not np.allclose(clean[1], leaky[1])
        # unit order weights: both windows see the same coherent sum
        assert np.array_equal(leaky[0], leaky[1])

    def test_no_aperture_outputs_are_separate_arrays(self, paper_config):
        rng = np.random.default_rng(10)
        plane = random_plane(rng, 15)
        kernels = list(rng.integers(0, 2, (3, 15, 15)).astype(float))
        leaky = multi_kernel_forward(plane, kernels, paper_config, aperture=None)
        for i, out in enumerate(leaky):
            assert out.flags.writeable
            assert not any(np.shares_memory(out, other) for other in leaky[i + 1 :])
        leaky[0][0, 0] += 1.0
        assert not np.array_equal(leaky[0], leaky[1])

    def test_permutation_equivariance(self, paper_config):
        rng = np.random.default_rng(10)
        plane = random_plane(rng, 16)
        kernels = [rng.random((16, 16)) for _ in range(3)]
        aperture = ideal_aperture([0, 1, -1], (16, 16), paper_config)
        outs = multi_kernel_forward(plane, kernels, paper_config, aperture)
        perm = [2, 0, 1]
        outs_p = multi_kernel_forward(plane, [kernels[j] for j in perm], paper_config, aperture)
        for dst, src in enumerate(perm):
            assert np.allclose(outs_p[dst], outs[src], atol=1e-12)

    def test_duplicate_orders_rejected(self, paper_config):
        plane = FieldPlane(np.zeros((8, 8), complex), 7.6e-6)
        kernels = [np.ones((8, 8))] * 2
        with pytest.raises(ValueError, match="overlap"):
            multi_kernel_forward(plane, kernels, paper_config, None, orders=[1, 1])

    def test_region_count_mismatch_rejected(self, paper_config):
        plane = FieldPlane(np.zeros((8, 8), complex), 7.6e-6)
        aperture = ideal_aperture([0], (8, 8), paper_config)
        with pytest.raises(ValueError, match="regions"):
            multi_kernel_forward(plane, [np.ones((8, 8))] * 2, paper_config, aperture)

    def test_order_window_must_fit(self):
        cfg = OpticalConfig(focal_length=30e-3)  # window 234 px
        plane = FieldPlane(np.zeros((8, 8), complex), 7.6e-6)
        kernels = [np.ones((8, 8))] * 5
        with pytest.raises(ValueError):
            multi_kernel_forward(plane, kernels, cfg, None, orders=[0, 1, -1, 2, 5])


# ---------------------------------------------------------------------------
# camera model


class TestCameraCapture:
    def test_identity_without_noise(self):
        rng = np.random.default_rng(11)
        img = rng.random((16, 16))
        out = camera_capture(img, NoiseSpec())
        assert np.array_equal(out, img)

    def test_binning_averages(self):
        img = np.arange(16, dtype=float).reshape(4, 4)
        out = camera_capture(img, NoiseSpec(bin_factor=2))
        assert out.shape == (2, 2)
        assert out[0, 0] == pytest.approx(img[:2, :2].mean())

    def test_seeded_determinism(self):
        img = np.ones((8, 8))
        spec = NoiseSpec(sigma=0.1, seed=42)
        a = camera_capture(img, spec)
        b = camera_capture(img, spec)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, img)

    @pytest.mark.parametrize("b", [1, 2])
    def test_one_normal_per_binned_pixel(self, b):
        img = np.random.default_rng(13).random((16, 16))
        before = img.copy()
        spec = NoiseSpec(sigma=1.5, dark=0.02, bin_factor=b)  # wide enough to clamp
        got = camera_capture(img, spec, rng=np.random.default_rng(5))
        binned = img.reshape(16 // b, b, 16 // b, b).mean(axis=(1, 3))
        n = np.random.default_rng(5).standard_normal(binned.shape)
        want = np.maximum(binned * (1 + spec.sigma * n) + spec.dark, 0.0)
        assert (want == 0).any()
        assert got.tobytes() == want.tobytes()
        assert img.tobytes() == before.tobytes()

    @pytest.mark.parametrize("spec", [
        NoiseSpec(), NoiseSpec(bin_factor=2), NoiseSpec(dark=0.02), NoiseSpec(dark=0.02, bin_factor=2),
        NoiseSpec(sigma=1.5, dark=0.02), NoiseSpec(sigma=1.5, dark=0.02, bin_factor=2),
    ], ids=["identity", "binned", "dark", "dark-binned", "noisy", "noisy-binned"])
    def test_float32_input_gives_the_bytes_of_its_float64_copy(self, spec):
        img = np.random.default_rng(13).random((16, 16)).astype(np.float32)
        got = camera_capture(img, spec, rng=np.random.default_rng(5))
        want = camera_capture(img.astype(np.float64), spec, rng=np.random.default_rng(5))
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_noise_unbiased(self):
        # Monte-Carlo: mean over 10^4 noisy samples of a constant plane
        img = np.full((100, 100), 3.0)
        out = camera_capture(img, NoiseSpec(sigma=0.1, seed=0))
        assert abs(out.mean() - 3.0) / 3.0 < 0.01

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-0.1)

    @pytest.mark.parametrize("field", ["sigma", "dark"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(**{field: value})

    def test_clamp_at_zero(self):
        img = np.full((50, 50), 1e-6)
        out = camera_capture(img, NoiseSpec(sigma=5.0, seed=1))
        assert out.min() >= 0.0
