import gzip
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from opticonv import datapipe
from opticonv.datapipe import (
    BitPlaneStack,
    DataFormatError,
    TileLayout,
    binarize_gray,
    export_stack,
    import_stack,
    load_cifar10,
    load_mnist,
    load_quickdraw,
    quantize_gray,
    quantize_rgb,
    read_pgm,
    recombine,
    ssim,
    tile,
    untile,
    write_pgm,
)

import synthcifar
import synthmnist
import synthquickdraw


# ---------------------------------------------------------------------------
# binarization and quantization


class TestBinarizeGray:
    def test_paper_threshold_rule(self):
        img = np.array([[200, 160, 159], [0, 100, 180]], dtype=np.uint8)
        plane = binarize_gray(img, 0.8)  # max 200 -> cut at 160
        assert plane.tolist() == [[1, 1, 0], [0, 0, 1]]

    def test_all_zero_image(self):
        assert not binarize_gray(np.zeros((4, 4), np.uint8), 0.8).any()

    @pytest.mark.parametrize("img", [np.zeros((4, 4)), np.full((4, 4), -0.5)], ids=["float-zero", "negative"])
    def test_non_positive_float_peak(self, img):
        plane = binarize_gray(img, 0.8)
        assert plane.dtype == np.uint8 and plane.shape == img.shape and not plane.any()

    @pytest.mark.parametrize("frac", [0.3, 0.5, 0.8])
    def test_uint8_bits_equal_the_integer_peak_rule(self, frac):
        # every value 0..peak against every peak 1..255
        for peak in range(1, 256):
            img = np.arange(peak + 1, dtype=np.uint8).reshape(1, -1)
            want = (img >= frac * int(img.max())).astype(np.uint8)
            assert binarize_gray(img, frac).tobytes() == want.tobytes()

    def test_float_peak_below_one(self):
        # the cut sits at 0.8 * 0.003 = 0.0024, not at 0.8 * int(0.003) = 0
        img = np.array([[0.001, 0.003, 0.0], [0.003, 0.001, 0.0025]])
        assert binarize_gray(img, 0.8).tolist() == [[0, 1, 0], [1, 0, 1]]

    def test_constant_saturated(self):
        assert binarize_gray(np.full((3, 3), 255, np.uint8), 0.8).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            binarize_gray(np.zeros((0, 0), np.uint8), 0.8)

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.2, 1.5])
    def test_threshold_range(self, frac):
        with pytest.raises(ValueError):
            binarize_gray(np.ones((2, 2), np.uint8), frac)


class TestQuantize:
    def test_cifar_plane_count(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (32, 32, 3)).astype(np.uint8)
        stack = quantize_rgb(img, 4)
        assert stack.planes.shape == (12, 32, 32)
        assert stack.channel_of_plane == (0,) * 4 + (1,) * 4 + (2,) * 4

    def test_single_level_rgb(self):
        img = np.repeat(np.arange(256, dtype=np.uint8).reshape(16, 16)[:, :, None], 3, axis=2)
        stack = quantize_rgb(img, 1)
        assert stack.planes.shape == (3, 16, 16)
        assert len(set(stack.thresholds)) == 1
        assert np.array_equal(stack.planes[0], stack.planes[1])

    def test_saturated_channel_all_ones(self):
        img = np.zeros((8, 8, 3), np.uint8)
        img[:, :, 1] = 255
        stack = quantize_rgb(img, 4)
        green = stack.planes_of_channel(1)
        assert green.all()
        assert not stack.planes_of_channel(0).any()

    def test_levels_zero_rejected(self):
        with pytest.raises(ValueError):
            quantize_rgb(np.zeros((4, 4, 3), np.uint8), 0)

    def test_nesting_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            img = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
            stack = quantize_rgb(img, 4)
            for c in range(3):
                planes = stack.planes_of_channel(c)  # ascending thresholds
                for j in range(1, len(planes)):
                    assert (planes[j] <= planes[j - 1]).all()

    def test_grayscale_single_plane(self):
        stack = quantize_gray(np.full((8, 8), 128, np.uint8), 1)
        assert stack.planes.shape == (1, 8, 8)


class TestRecombine:
    def test_all_zero(self):
        stack = quantize_rgb(np.zeros((4, 4, 3), np.uint8), 4)
        assert not recombine(stack).any()

    def test_all_ones_midpoint(self):
        stack = quantize_rgb(np.full((4, 4, 3), 255, np.uint8), 4)
        assert (recombine(stack) == 204).all()  # 255 * 4/5

    def test_ramp_error_bound(self):
        # exhaustive 0..255 ramp: |recombine(quantize(x)) - x| <= 255/(L+1) + 1
        ramp = np.arange(256, dtype=np.uint8).reshape(16, 16)
        for levels in (1, 2, 4, 8):
            stack = quantize_gray(ramp, levels)
            recon = recombine(stack).astype(int)
            err = np.abs(recon - ramp.astype(int)).max()
            assert err <= 255 / (levels + 1) + 1

    def test_rgb_shape(self):
        img = np.random.default_rng(2).integers(0, 256, (8, 8, 3)).astype(np.uint8)
        assert recombine(quantize_rgb(img, 2)).shape == (8, 8, 3)


class TestStackValidation:
    def test_rejects_nonbinary_planes(self):
        with pytest.raises(ValueError):
            BitPlaneStack(
                planes=np.full((1, 4, 4), 2, np.uint8),
                thresholds=(0.5,),
                channel_of_plane=(0,),
                source_shape=(4, 4, 1),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            BitPlaneStack(
                planes=np.zeros((2, 4, 4), np.uint8),
                thresholds=(0.5,),
                channel_of_plane=(0, 0),
                source_shape=(4, 4, 1),
            )


# ---------------------------------------------------------------------------
# ssim


class TestSsim:
    def test_identity(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 256, (28, 28)).astype(np.uint8)
        assert ssim(x, x) == pytest.approx(1.0)

    def test_inverted_checkerboard_negative(self):
        x = np.indices((16, 16)).sum(axis=0) % 2 * 255
        assert ssim(x.astype(np.uint8), (255 - x).astype(np.uint8)) < 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 9)))

    def test_window_larger_than_image(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)))

    def test_mnist_threshold_similarity_regression(self, mnist):
        # measured level of the 80%-threshold binarization on this metric;
        # the >= 0.85 claim itself is exercised (and analyzed) in the
        # acceptance suite
        scores = [
            ssim(img, binarize_gray(img, 0.8).astype(np.uint8) * 255)
            for img in mnist.train_images[:1000]
        ]
        assert float(np.mean(scores)) >= 0.80


# ---------------------------------------------------------------------------
# layout and tiling


class TestTileUntile:
    def layout(self):
        return TileLayout(grid_rows=3, grid_cols=3, gap=2, tile_px=(10, 10), frame=(34, 34))

    def test_single_image_placement(self):
        layout = self.layout()
        img = np.ones((10, 10), np.uint8)
        frame = tile([img], layout)
        assert frame[:10, :10].all()
        assert frame.sum() == 100  # other cells empty

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rows=st.integers(1, 4), cols=st.integers(1, 4), gap=st.integers(0, 3),
           tile_px=st.tuples(st.integers(1, 6), st.integers(1, 6)),
           margin=st.tuples(st.integers(0, 3), st.integers(0, 3)), data=st.data())
    def test_round_trip_exact(self, rows, cols, gap, tile_px, margin, data):
        # any layout that fits its frame gives each binary image back bit for
        # bit, lights nothing outside the images, and leaves spare cells dark
        frame = tuple(n * t + (n - 1) * gap + m for n, t, m in zip((rows, cols), tile_px, margin))
        layout = TileLayout(rows, cols, gap, tile_px, frame)
        n = data.draw(st.integers(0, layout.capacity))
        imgs = data.draw(st.lists(arrays(np.uint8, tile_px, elements=st.integers(0, 1)), min_size=n, max_size=n))
        placed = tile(imgs, layout)
        back = untile(placed, layout)
        assert [b.tobytes() for b in back[:n]] == [a.tobytes() for a in imgs]
        assert not any(b.any() for b in back[n:])
        assert placed.sum() == sum(int(a.sum()) for a in imgs)

    def test_capacity_exceeded(self):
        layout = self.layout()
        with pytest.raises(ValueError, match="capacity"):
            tile([np.zeros((10, 10), np.uint8)] * 10, layout)

    def test_image_too_large(self):
        layout = self.layout()
        with pytest.raises(ValueError, match="larger than tile"):
            tile([np.zeros((11, 10), np.uint8)], layout)

    def test_untile_frame_mismatch(self):
        layout = self.layout()
        with pytest.raises(ValueError, match="frame"):
            untile(np.zeros((30, 30)), layout)


# ---------------------------------------------------------------------------
# loaders


class TestLoaders:
    def test_mnist_shapes(self, mnist):
        assert mnist.train_images.shape == (60000, 28, 28)
        assert mnist.test_images.shape == (10000, 28, 28)
        assert mnist.train_labels.shape == (60000,)
        assert set(np.unique(mnist.train_labels)) == set(range(10))

    def test_cifar_shapes(self, cifar10):
        assert cifar10.train_images.shape == (50000, 32, 32, 3)
        assert cifar10.test_images.shape == (10000, 32, 32, 3)
        assert cifar10.n_classes == 10

    def test_quickdraw_shapes(self, quickdraw):
        assert quickdraw.train_images.shape[1:] == (28, 28)
        assert quickdraw.n_classes == 10
        assert len(quickdraw.train_images) + len(quickdraw.test_images) == 100000

    def test_corrupt_magic_rejected(self, tmp_path):
        bad = tmp_path / "train-images-idx3-ubyte"
        bad.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        (tmp_path / "train-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        with pytest.raises(DataFormatError, match="magic"):
            load_mnist(tmp_path)

    def test_truncated_images_rejected(self, tmp_path):
        f = tmp_path / "imgs"
        f.write_bytes(struct.pack(">IIII", 0x803, 10, 28, 28) + b"\x00" * 100)
        with pytest.raises(DataFormatError, match="truncated"):
            datapipe._read_idx(f, 3)

    def test_gzip_accepted(self, tmp_path):
        payload = struct.pack(">IIII", 0x803, 1, 2, 2) + bytes(range(4))
        with gzip.open(tmp_path / "train-images-idx3-ubyte.gz", "wb") as f:
            f.write(payload)
        imgs = datapipe._read_idx(tmp_path / "train-images-idx3-ubyte.gz", 3)
        assert imgs.shape == (1, 2, 2)

    def test_cifar_bad_record_size(self, tmp_path):
        f = tmp_path / "data_batch_1.bin"
        f.write_bytes(b"\x00" * 100)
        with pytest.raises(DataFormatError, match="record"):
            datapipe._read_cifar_batch(f)

    def test_cifar_round_trip(self, tmp_path):
        written = synthcifar.make_batches(seed=3)
        ds = load_cifar10(synthcifar.write_bins(tmp_path, seed=3))
        train = [written[f"data_batch_{i}.bin"] for i in range(1, 6)]
        assert np.array_equal(ds.train_images, np.concatenate([x for x, _ in train]))
        assert np.array_equal(ds.train_labels, np.concatenate([y for _, y in train]))
        assert np.array_equal(ds.test_images, written["test_batch.bin"][0])
        assert np.array_equal(ds.test_labels, written["test_batch.bin"][1])
        assert ds.train_images.shape[1:] == (32, 32, 3) and ds.n_classes == 10
        assert ds.train_labels.dtype == np.int64

    def test_cifar_label_out_of_range(self, tmp_path):
        f = tmp_path / "data_batch_1.bin"
        rec = bytes([99]) + b"\x00" * 3072
        f.write_bytes(rec)
        with pytest.raises(DataFormatError, match="label"):
            datapipe._read_cifar_batch(f)

    # per-class test counts in sorted class order (apple, cat, house, moon,
    # zigzag hold 5, 6, 8, 9, 7 images); 0.5 rounds 2.5 and 4.5 to even
    @pytest.mark.parametrize("test_fraction, n_test", [(0.2, [1, 1, 2, 2, 1]), (0.5, [2, 3, 4, 4, 4])])
    def test_quickdraw_round_trip(self, tmp_path, test_fraction, n_test):
        written = synthquickdraw.write_npy(tmp_path, seed=4)
        ds = load_quickdraw(tmp_path, test_fraction=test_fraction)
        names = sorted(written)
        assert ds.class_names == tuple(names)
        train_x, train_y, test_x, test_y = [], [], [], []
        for label, name in enumerate(names):
            images = written[name]
            split = len(images) - n_test[label]
            train_x.append(images[:split])
            test_x.append(images[split:])
            train_y += [label] * split
            test_y += [label] * (len(images) - split)
        assert np.array_equal(ds.train_images, np.concatenate(train_x))
        assert np.array_equal(ds.test_images, np.concatenate(test_x))
        assert ds.train_labels.tolist() == train_y and ds.test_labels.tolist() == test_y
        assert ds.train_images.dtype == np.uint8 and ds.train_labels.dtype == np.int64
        assert ds.n_classes == len(synthquickdraw.CLASSES)

    def test_synthetic_quickdraw_has_both_layouts(self, tmp_path):
        synthquickdraw.write_npy(tmp_path, seed=4)
        ndims = {np.load(f).ndim for f in tmp_path.glob("*.npy")}
        assert ndims == {2, 3}

    @pytest.mark.parametrize("bitmaps", [np.zeros((5, 100), np.uint8), np.full((5, 784), 300.7),
                                         np.full((5, 28, 28), 300, np.int64)],
                             ids=["shape", "float", "out-of-range"])
    def test_quickdraw_bad_shape(self, tmp_path, bitmaps):
        np.save(tmp_path / "cat.npy", bitmaps)
        with pytest.raises(DataFormatError, match="bitmap"):
            load_quickdraw(tmp_path)

    def test_quickdraw_empty_dir(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_quickdraw(tmp_path)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["idx", "idx.gz", "npy", "p5", "p4-stack"]),
           array=arrays(np.uint8, array_shapes(max_dims=3)),
           npy_dtype=st.sampled_from([np.uint8, ">i2", np.float64]), npy_order=st.sampled_from("CF"),
           data=st.data())
    def test_every_proper_prefix_is_a_data_error(self, tmp_path, kind, array, npy_dtype, npy_order, data):
        # a file cut anywhere short of its end: one exception type, never a
        # traceback from the gzip, struct or numpy layers under the reader.
        # The 2-D formats take the array as rows of its first axis; a stack
        # is 2 to 4 planes of it with their manifest, and only its .p4 is cut.
        path = tmp_path / f"cut.{kind}"
        grid = array.reshape(len(array), -1)
        if kind == "npy":
            array = array.astype(npy_dtype, order=npy_order)
            np.save(path, array)
            read = datapipe.read_npy
        elif kind == "p5":
            array = grid.copy()
            array[0, 0] = 255  # full scale, so write_pgm keeps every sample
            write_pgm(array, path)
            read = read_pgm
        elif kind == "p4-stack":
            stack = quantize_gray(grid, data.draw(st.integers(2, 4), label="planes"))
            path, _ = export_stack(stack, tmp_path / "cut")
            array = stack.planes
            read = lambda p: import_stack(p.with_suffix("")).planes  # noqa: E731
        else:
            full = struct.pack(f">{1 + array.ndim}I", 0x800 + array.ndim, *array.shape) + array.tobytes()
            path.write_bytes(gzip.compress(full, mtime=0) if kind == "idx.gz" else full)
            read = lambda p: datapipe._read_idx(p, array.ndim)  # noqa: E731
        full = path.read_bytes()
        whole = read(path)
        assert whole.tobytes() == array.tobytes() and whole.shape == array.shape and whole.dtype == array.dtype
        path.write_bytes(full[: data.draw(st.integers(0, len(full) - 1), label="prefix length")])
        with pytest.raises(DataFormatError, match="cut"):
            read(path)

    @pytest.mark.parametrize("kind, name, raw, needle", [
        ("pgm", "x.pgm", b"P6\n2 2\n255\n\x00\x00\x00\x00", "not a binary P5"),
        ("pgm", "x.pgm", b"P5\n0 2\n255\n", "bad P5 header"),
        ("pgm", "x.pgm", b"P5\n2 1\n9\n\x00\x0a", "above maxval"),
        ("stack", "x.json", b"{nope", "not a UTF-8 JSON"),
        ("stack", "x.p4", lambda p4: p4[:6], "not a binary P4"),
        ("stack", "x.p4", lambda p4: p4[: len(p4) // 2], "holds 1 bitmaps, x.json lists n_planes 2"),
        ("stack", "x.json", lambda m: m.replace(b'"thresholds"', b'"levels"'), "not a manifest of 2 bit planes"),
        ("stack", "x.p4", lambda p4: p4.replace(b"P4\n", b"P4\n# a comment\n"), None),
    ], ids=["magic", "zero-width", "above-maxval", "manifest-not-json", "p4-cut-in-header",
            "p4-cut-between-planes", "manifest-without-thresholds",
            "p4-comment-reads"])
    def test_read_rejects_malformed_files(self, tmp_path, kind, name, raw, needle):
        # each reader's files start valid (a 2-plane 6x8 stack);
        # ``name`` is then rewritten to ``raw``, or to ``raw`` of its bytes. A
        # stack cut between its planes reads whole bitmaps, so only the
        # manifest's count tells. The last input is well formed: a comment
        # line in each P4 header.
        stack = quantize_gray(np.arange(48, dtype=np.uint8).reshape(6, 8) * 5, 2)
        export_stack(stack, tmp_path / "x")
        path = tmp_path / name
        path.write_bytes(raw(path.read_bytes()) if callable(raw) else raw)
        read = {"pgm": lambda: read_pgm(tmp_path / "x.pgm"), "stack": lambda: import_stack(tmp_path / "x")}[kind]
        if needle is None:
            assert np.array_equal(read().planes, stack.planes)
            return
        with pytest.raises(DataFormatError, match=needle) as exc:
            read()
        assert str(path) in str(exc.value)


class TestSyntheticMnist:
    """The seeded IDX fixture that stands in for MNIST in the CLI tests."""

    def test_loads_back(self, synthetic_mnist_dir):
        ds = load_mnist(synthetic_mnist_dir)
        assert ds.train_images.shape == (synthmnist.N_TRAIN, 28, 28)
        assert ds.test_images.shape == (synthmnist.N_TEST, 28, 28)
        assert ds.train_images.dtype == ds.test_images.dtype == np.uint8
        for labels in (ds.train_labels, ds.test_labels):
            assert set(np.unique(labels)) == set(range(10))
        for img in np.concatenate([ds.train_images, ds.test_images]):
            assert 0 < binarize_gray(img, 0.3).sum() < img.size

    def test_same_seed_same_bytes(self, tmp_path):
        a = synthmnist.write_idx(tmp_path / "a", seed=3)
        b = synthmnist.write_idx(tmp_path / "b", seed=3)
        c = synthmnist.write_idx(tmp_path / "c", seed=4)
        for name in synthmnist.IDX_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / "train-images-idx3-ubyte").read_bytes() != (c / "train-images-idx3-ubyte").read_bytes()


# ---------------------------------------------------------------------------
# bit-plane stacks, graymaps and raw grids


class TestStackExport:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (12, 20, 3)).astype(np.uint8)
        stack = quantize_rgb(img, 4)
        export_stack(stack, tmp_path / "sample")
        back = import_stack(tmp_path / "sample")
        assert np.array_equal(back.planes, stack.planes)
        assert back.thresholds == stack.thresholds
        assert back.channel_of_plane == stack.channel_of_plane
        assert back.source_shape == stack.source_shape

    def test_truncated_p4_body_rejected(self, tmp_path):
        stack = quantize_gray(np.arange(48, dtype=np.uint8).reshape(6, 8) * 5, 2)
        p4_path, _ = export_stack(stack, tmp_path / "sample")
        p4_path.write_bytes(p4_path.read_bytes()[:-2])
        with pytest.raises(DataFormatError, match="truncated"):
            import_stack(tmp_path / "sample")


class TestPgm:
    def test_header_and_scaling(self, tmp_path):
        grid = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = write_pgm(grid, tmp_path / "x.pgm")
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        body = np.frombuffer(raw[-4:], dtype=np.uint8)
        assert body[-1] == 255  # max scales to full range
        assert body[0] == 0

    def test_all_zero_grid(self, tmp_path):
        path = write_pgm(np.zeros((3, 3)), tmp_path / "z.pgm")
        assert path.read_bytes()[-9:] == b"\x00" * 9

    def test_rejects_3d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(np.zeros((2, 2, 2)), tmp_path / "bad.pgm")

    def test_read_round_trips_a_full_scale_grid(self, tmp_path):
        grid = np.random.default_rng(1).integers(0, 256, (5, 7)).astype(np.uint8)
        grid[2, 3] = 255  # full scale: write_pgm keeps every sample
        back = read_pgm(write_pgm(grid, tmp_path / "x.pgm"))
        assert back.dtype == np.uint8 and back.tobytes() == grid.tobytes()

