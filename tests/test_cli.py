import ast
import dataclasses
import gzip
import io
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from opticonv import cli, network
from opticonv.datapipe import DataFormatError, read_raw, write_pgm
from opticonv.optics import FieldPlane, OpticalConfig, ideal_aperture, multi_kernel_forward

import synthquickdraw

DATA_DIR = Path(os.environ.get("OPTICONV_DATA_DIR", "/root/data"))


@pytest.fixture
def small_config(tmp_path, synthetic_mnist_dir, synthetic_cifar_dir):
    doc = {
        "seed": 7,
        "train": {
            "grid": 64,
            "n_kernels": 4,
            "hidden": 32,
            "epochs_stage1": 1,
            "epochs_stage2": 2,
            "batch_size": 32,
            "limit": 200,
            "capture_n": 64,
        },
        "quantize": {"levels": 4, "threshold_frac": 0.3},
        "noise": {"sigma": 0.05, "seed": 1},
        "paths": {
            "mnist": str(synthetic_mnist_dir),
            "cifar10": str(synthetic_cifar_dir),
            "quickdraw": str(DATA_DIR / "quickdraw"),
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run(args):
    return cli.main([str(a) for a in args])


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"trian": {}}))
        assert_one_line_usage_error(run(["--config", path, "perf"]), capsys, "['trian']")

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"learning_rate": 1}}))
        assert_one_line_usage_error(run(["--config", path, "perf"]), capsys, "['train.learning_rate']")

    @pytest.mark.parametrize("body", [b"{nope", b"\xff", b"[" * 100_000], ids=["not-json", "not-utf8", "too-deep"])
    def test_malformed_json_is_data_error(self, tmp_path, capsys, body):
        path = tmp_path / "bad.json"
        path.write_bytes(body)
        assert run(["--config", path, "perf"]) == cli.EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(path) in err[0]

    def test_usage_error_exit_code(self):
        assert run(["no-such-command"]) == cli.EXIT_USAGE

    def test_every_config_field_is_read(self):
        # a config value nothing reads is a knob that silently does nothing;
        # reads inside __post_init__ are validation, not use
        class Reads(ast.NodeVisitor):
            def __init__(self):
                self.names = set()

            def visit_FunctionDef(self, node):
                if node.name != "__post_init__":
                    self.generic_visit(node)

            def visit_Attribute(self, node):
                if isinstance(node.ctx, ast.Load):
                    self.names.add(node.attr)
                self.generic_visit(node)

        reads = Reads()
        for path in Path(cli.__file__).parent.glob("*.py"):
            reads.visit(ast.parse(path.read_text()))
        sections = [f.default for f in dataclasses.fields(cli.RunConfig)
                    if dataclasses.is_dataclass(f.default)]
        assert {type(s).__name__ for s in sections} >= {"OpticalConfig", "NoiseSpec"}
        unread = [f"{type(s).__name__}.{f.name}" for s in sections
                  for f in dataclasses.fields(s) if f.name not in reads.names]
        assert unread == []

    def test_default_digests_pinned(self):
        # run directories are named by these digests of default invocations
        argv = {"quantize": ["--dataset", "mnist"], "train": ["--dataset", "mnist"],
                "finetune": ["stage1.ckpt", "--dataset", "mnist"], "eval": ["stage2.ckpt", "--dataset", "mnist"],
                "simulate": ["img.npy"], "perf": []}
        want = {"quantize": "88b73ba3dc64", "train": "7ae9b8a452b1", "finetune": "0e79118e8a19",
                "eval": "e42c3d8ced1d", "simulate": "269f567a0c1e", "perf": "6e0ae9470066"}
        parser = cli.build_parser()
        got = {cmd: cli.config_digest(cli.RunConfig(), parser.parse_args([cmd, *rest])) for cmd, rest in argv.items()}
        assert got == want

    def test_partial_noise_section_keeps_config_defaults(self, tmp_path):
        # keys left out take RunConfig's noise defaults, not the library NoiseSpec's
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({"noise": {"dark": 1e-4}}))
        cfg = cli.load_run_config(path)
        assert (cfg.noise.sigma, cfg.noise.dark, cfg.noise.bin_factor, cfg.noise.seed) == (
            0.1, 1e-4, 1, 1)
        args = cli.build_parser().parse_args(["eval", "stage2.ckpt", "--dataset", "mnist"])
        assert cli.config_digest(cfg, args) == "53acba18523d"

    @pytest.mark.parametrize("doc", [{"layout": {"gap_px": 30}},
                                     {"optical": {"incidence_angle": 57.0}}],
                             ids=["layout", "incidence_angle"])
    def test_removed_keys_rejected(self, tmp_path, doc):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.UsageError):
            cli.load_run_config(path)


def assert_one_line_usage_error(code, capsys, needle):
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and needle in err[0]


def stage1_checkpoint(cfg: dict, tmp_path: Path, n_classes: int = 10) -> Path:
    """A fresh stage-1 checkpoint of the config document's model shape."""
    t = cfg["train"]
    params = network.init_params(seed=0, n_kernels=t["n_kernels"], grid=t["grid"], hidden=t["hidden"],
                                 n_classes=n_classes)
    return network.save_checkpoint(params, tmp_path / f"stage1-{n_classes}.ckpt", stage=1, seed=0)


class TestFailureContract:
    """Values the library rejects end in exit 1 and one stderr line."""

    def test_bad_custom_perf_scenario(self, tmp_path, capsys):
        code = run(["--out-dir", tmp_path, "perf", "--custom", 28, 28, 0, 1, 10])
        assert_one_line_usage_error(code, capsys, "input_parallelism")

    @pytest.mark.parametrize("rate", ["inf", "nan", "abc"])
    def test_non_finite_custom_perf_rate(self, tmp_path, capsys, rate):
        # perf.json would carry Infinity or NaN, which is not JSON; a rate
        # that is no number at all fails alike
        out_dir = tmp_path / "runs"
        code = run(["--out-dir", out_dir, "perf", "--custom", 10, 10, 1, 1, rate])
        assert_one_line_usage_error(code, capsys, "frame_rate_hz")
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv, needle", [
        (["--threads", 0, "train", "--dataset", "mnist"], "--threads"),
        (["--seed", -1, "train", "--dataset", "mnist"], "--seed"),
        (["--seed", "x", "perf"], "--seed"),
        (["simulate", "IMG", "--kernels", 0], "--kernels"),
        (["simulate", "IMG", "--kernels", -1], "--kernels"),
        (["perf", "--custom", "10.5", 10, 1, 1, 5], "--custom"),
        (["train", "--dataset", "mnist", "--log-every", -1], "--log-every"),
        (["quantize", "--dataset", "mnist", "--levels", 0], "--levels"),
    ], ids=["threads-0", "seed-negative", "seed-text", "kernels-0", "kernels-negative",
            "custom-fraction", "log-every-negative", "levels-0"])
    def test_integer_flag_rejected(self, small_config, tmp_path, capsys, argv, needle):
        img_path = tmp_path / "img.npy"
        np.save(img_path, np.ones((16, 16), np.uint8))
        out_dir = tmp_path / "runs"
        argv = [img_path if a == "IMG" else a for a in argv]
        code = run(["--config", small_config, "--out-dir", out_dir, *argv])
        assert_one_line_usage_error(code, capsys, needle)
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv, code", [
        (["simulate", "IMG", "--kernels", 8], cli.EXIT_USAGE),
        (["simulate", "IMG", "--checkpoint", "CKPT", "--kernels", 5], cli.EXIT_USAGE),
        (["train", "--dataset", "mnist"], cli.EXIT_DATA),
        (["quantize", "--dataset", "mnist"], cli.EXIT_DATA),
        (["finetune", "MISSING", "--dataset", "mnist"], cli.EXIT_DATA),
        (["finetune", "CKPT", "--dataset", "mnist"], cli.EXIT_DATA),
        (["eval", "MISSING", "--dataset", "mnist"], cli.EXIT_DATA),
        (["eval", "CKPT", "--dataset", "mnist"], cli.EXIT_DATA),
        (["eval", "CKPT", "--dataset", "cifar10"], cli.EXIT_DATA),
        (["finetune", "CKPT", "--dataset", "cifar10"], cli.EXIT_DATA),
        (["train", "--dataset", "cifar10"], cli.EXIT_DATA),
        (["eval", "CKPT3", "--dataset", "quickdraw"], cli.EXIT_DATA),
        (["finetune", "CKPT3", "--dataset", "quickdraw"], cli.EXIT_DATA),
        (["--config", "SPARSE", "quantize", "--dataset", "quickdraw"], cli.EXIT_DATA),
        (["simulate", "DIR"], cli.EXIT_DATA),
        (["eval", "DIR", "--dataset", "mnist"], cli.EXIT_DATA),
        (["--config", "DIR", "perf"], cli.EXIT_DATA),
        (["eval", "HEADLESS", "--dataset", "mnist"], cli.EXIT_DATA),
        (["--config", "QD-EMPTY", "quantize", "--dataset", "quickdraw"], cli.EXIT_DATA),
        (["--config", "QD-NOT-NUMPY", "quantize", "--dataset", "quickdraw"], cli.EXIT_DATA),
        (["--config", "QD-OBJECT", "quantize", "--dataset", "quickdraw"], cli.EXIT_DATA),
        (["--config", "QD-FLOAT", "quantize", "--dataset", "quickdraw"], cli.EXIT_DATA),
        (["--config", "QD-HUGE", "quantize", "--dataset", "quickdraw"], cli.EXIT_DATA),
        (["simulate", "HUGE-NPY"], cli.EXIT_DATA),
        (["--config", "MNIST-HALF-GZ", "train", "--dataset", "mnist"], cli.EXIT_DATA),
        (["--config", "MNIST-HUGE", "train", "--dataset", "mnist"], cli.EXIT_DATA),
        (["--config", "NOT-UTF8", "perf"], cli.EXIT_DATA),
        (["perf", "--custom", 1, 1, 1, 1, "1e308"], cli.EXIT_USAGE),
    ], ids=["simulate-kernels-above-7", "simulate-kernels-above-bank", "train-no-data",
            "quantize-no-data", "finetune-no-checkpoint", "finetune-no-data", "eval-no-checkpoint",
            "eval-no-data", "eval-geometry", "finetune-geometry", "train-rgb", "eval-classes",
            "finetune-classes", "quantize-empty", "simulate-directory", "eval-directory",
            "config-directory", "eval-malformed-checkpoint", "quickdraw-empty-npy",
            "quickdraw-not-numpy", "quickdraw-object-array", "quickdraw-float", "quickdraw-huge-header",
            "simulate-huge-header", "mnist-gzip-cut-at-half", "mnist-huge-header", "config-not-utf8",
            "perf-overflow"])
    def test_failed_command_leaves_no_run_directory(self, small_config, tmp_path, capsys, argv, code):
        # paths.mnist names a missing directory; CKPT is a 4-kernel, 28x28
        # checkpoint and CKPT3 its 3-class twin; paths.quickdraw holds the
        # 5-class synthetic export. The SPARSE config, which overrides the
        # first, points paths.quickdraw at an export of 2 images per class,
        # whose test split rounds to no images. DIR is a directory where a
        # file belongs; HEADLESS has the checkpoint magic and nothing else.
        # Each QD-* config points paths.quickdraw at one cat.npy that will
        # not decode as uint8 bitmaps; HUGE-NPY is the QD-HUGE file, whose
        # header claims 10**12 bytes before a 100-byte body. MNIST-HALF-GZ
        # cuts a gzipped image file at half; MNIST-HUGE's header claims
        # (2**32 - 1) images of 65535 x 65535. A frame rate of 1e308 makes
        # the custom perf scenario's OPS/W overflow to infinity.
        cfg = json.loads(small_config.read_text())
        mnist = cfg["paths"]["mnist"]
        cfg["paths"]["mnist"] = str(tmp_path / "no-mnist")
        cfg["paths"]["quickdraw"] = str(tmp_path / "quickdraw")
        synthquickdraw.write_npy(tmp_path / "quickdraw", seed=0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        sparse = tmp_path / "sparse.json"
        synthquickdraw.write_npy(tmp_path / "sparse-quickdraw", seed=0, counts=(2,) * 5)
        sparse.write_text(json.dumps({**cfg, "paths": {**cfg["paths"], "quickdraw": str(tmp_path / "sparse-quickdraw")}}))
        img_path = tmp_path / "img.npy"
        np.save(img_path, np.ones((28, 28), np.uint8))
        headless = tmp_path / "headless.ckpt"
        headless.write_text('{"format": "opticonv-checkpoint"}\n')
        names = {"IMG": img_path, "CKPT": stage1_checkpoint(cfg, tmp_path), "MISSING": tmp_path / "none.ckpt",
                 "CKPT3": stage1_checkpoint(cfg, tmp_path, n_classes=3), "SPARSE": sparse,
                 "DIR": tmp_path / "quickdraw", "HEADLESS": headless, "NOT-UTF8": tmp_path / "not-utf8.json"}
        names["NOT-UTF8"].write_bytes(b"\xff")
        huge = io.BytesIO()
        np.lib.format.write_array_header_1_0(huge, {"descr": "|u1", "fortran_order": False, "shape": (10**12,)})
        bad = {"QD-EMPTY": b"", "QD-NOT-NUMPY": b"P5\n1 1\n255\n\x00", "QD-HUGE": huge.getvalue() + bytes(100)}
        for case, array in (("QD-OBJECT", np.array([[{}, None]])), ("QD-FLOAT", np.full((5, 784), 300.7))):
            with io.BytesIO() as f:
                np.save(f, array, allow_pickle=True)
                bad[case] = f.getvalue()
        gz = gzip.compress((Path(mnist) / "train-images-idx3-ubyte").read_bytes())
        bad["MNIST-HALF-GZ"] = gz[: len(gz) // 2]
        bad["MNIST-HUGE"] = struct.pack(">IIII", 0x803, 2**32 - 1, 65535, 65535)
        for case, body in bad.items():
            key, file = ("quickdraw", "cat.npy") if case.startswith("QD") else ("mnist", "train-images-idx3-ubyte")
            (tmp_path / case).mkdir()
            (tmp_path / case / (file + ".gz" if case.endswith("GZ") else file)).write_bytes(body)
            names[case] = tmp_path / f"{case}.json"
            names[case].write_text(json.dumps({**cfg, "paths": {**cfg["paths"], key: str(tmp_path / case)}}))
        names["HUGE-NPY"] = tmp_path / "QD-HUGE" / "cat.npy"
        out_dir = tmp_path / "runs"
        assert run(["--config", path, "--out-dir", out_dir, *(names.get(a, a) for a in argv)]) == code
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("stage, lr, code, needle", [
        (1, 1e3, cli.EXIT_OK, None),
        (1, 1e8, cli.EXIT_OK, None),
        (1, 1e30, cli.EXIT_NUMERIC, "stage 1 diverged at epoch 0, step 1: overflow"),
        (1, 1e300, cli.EXIT_NUMERIC, "stage 1 diverged at epoch 0, step 1: overflow"),
        (2, 1e8, cli.EXIT_OK, None),
        (2, 1e30, cli.EXIT_NUMERIC, "stage 2 diverged at epoch 0, step 2: overflow"),
        (2, 1e300, cli.EXIT_NUMERIC, "stage 2 diverged at epoch 0, step 1: overflow"),
    ])
    def test_diverging_training(self, small_config, tmp_path, capsys, stage, lr, code, needle):
        # a step whose arithmetic overflows is a numerical failure, caught
        # before its non-finite parameters reach the next step
        cfg = json.loads(small_config.read_text())
        cfg["train"].update(batch_size=8, hidden=16, **{f"lr_stage{stage}": lr})
        path = tmp_path / "lr.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "runs"
        command = ["train"] if stage == 1 else ["finetune", stage1_checkpoint(cfg, tmp_path)]
        assert run(["--config", path, "--out-dir", out_dir, "--seed", 3, *command, "--dataset", "mnist"]) == code
        err = capsys.readouterr().err.strip().splitlines()
        if needle is None:
            assert err == [] and len(list(out_dir.glob(f"{command[0]}-*/stage{stage}.ckpt"))) == 1
        else:
            assert len(err) == 1 and err[0].startswith("numerical failure: ") and needle in err[0]
            assert not out_dir.exists()

    @pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
    def test_out_dir_under_a_file_fails_before_the_command_runs(self, small_config, tmp_path, capsys, out_dir):
        # at exit 1 and before any training, not as a data error once the run is done
        (tmp_path / "afile").write_text("kept\n")
        before = sorted(tmp_path.iterdir())
        code = run(["--config", small_config, "--out-dir", tmp_path / out_dir, "train", "--dataset", "mnist"])
        assert_one_line_usage_error(code, capsys, "--out-dir")
        assert sorted(tmp_path.iterdir()) == before and (tmp_path / "afile").read_text() == "kept\n"

    def test_too_many_simulated_kernels(self, small_config, tmp_path, capsys):
        img_path = tmp_path / "digit.npy"
        np.save(img_path, np.ones((28, 28), np.uint8))
        code = run(["--config", small_config, "--out-dir", tmp_path / "runs",
                    "simulate", img_path, "--kernels", 8])
        assert_one_line_usage_error(code, capsys, "at most 7 kernels")

    @pytest.mark.parametrize("command", [["finetune"], ["eval", "--mode", "optical"]])
    def test_binned_optical_capture(self, small_config, tmp_path, capsys, command):
        cfg = json.loads(small_config.read_text())
        cfg["noise"]["bin_factor"] = 2
        binned = tmp_path / "binned.json"
        binned.write_text(json.dumps(cfg))
        ckpt = stage1_checkpoint(cfg, tmp_path)
        code = run(["--config", binned, "--out-dir", tmp_path / "runs",
                    command[0], ckpt, "--dataset", "mnist", *command[1:]])
        assert_one_line_usage_error(code, capsys, "bin_factor")

    @pytest.mark.parametrize("command", [["finetune"], ["eval", "--mode", "optical"]])
    def test_order_one_off_the_kernel_array(self, small_config, tmp_path, capsys, command):
        # kernel pairs put every second kernel on order 1, centred 779 px
        # out; a 1000-mirror array reaches 500 px either side of order 0
        cfg = json.loads(small_config.read_text())
        cfg["optical"] = {"dmd_cols": 1000}
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps(cfg))
        ckpt = stage1_checkpoint(cfg, tmp_path)
        code = run(["--config", narrow, "--out-dir", tmp_path / "runs",
                    command[0], ckpt, "--dataset", "mnist", *command[1:]])
        assert_one_line_usage_error(code, capsys, "order 1")

    def test_binned_optical_eval_at_zero_sigma(self, small_config, tmp_path, capsys):
        # the camera model runs at sigma 0 too, so its bin_factor must reach it
        cfg = json.loads(small_config.read_text())
        cfg["noise"].update(sigma=0.0, bin_factor=2)
        binned = tmp_path / "binned.json"
        binned.write_text(json.dumps(cfg))
        ckpt = stage1_checkpoint(cfg, tmp_path)
        code = run(["--config", binned, "--out-dir", tmp_path / "runs",
                    "eval", ckpt, "--dataset", "mnist", "--mode", "optical", "--limit", 4])
        assert_one_line_usage_error(code, capsys, "bin_factor")

    def test_binned_simulate_windows(self, small_config, tmp_path, capsys):
        cfg = json.loads(small_config.read_text())
        cfg["train"]["grid"] = 32
        cfg["noise"].update(sigma=0.01, bin_factor=2)
        binned = tmp_path / "binned.json"
        binned.write_text(json.dumps(cfg))
        img_path = tmp_path / "img.npy"
        np.save(img_path, np.ones((16, 16), np.uint8))
        out_dir = tmp_path / "runs"
        code = run(["--config", binned, "--out-dir", out_dir,
                    "simulate", img_path, "--windows", "2x2"])
        assert_one_line_usage_error(code, capsys, "bin_factor")
        assert not out_dir.exists()

    @pytest.mark.parametrize("windows", ["0x2", "2x0", "17x2", "2x17", "32x2", "2", "2x2x2", "ax2"])
    def test_simulate_windows_must_fit_the_image(self, small_config, tmp_path, capsys, windows):
        cfg = json.loads(small_config.read_text())
        cfg["train"]["grid"] = 32
        path = tmp_path / "grid32.json"
        path.write_text(json.dumps(cfg))
        img_path = tmp_path / "img.npy"
        np.save(img_path, np.ones((16, 16), np.uint8))
        out_dir = tmp_path / "runs"
        code = run(["--config", path, "--out-dir", out_dir, "simulate", img_path, "--windows", windows])
        assert_one_line_usage_error(code, capsys, "--windows")
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, key, value, needle", [
        ("train", "n_kernels", 0, "train.n_kernels"),
        ("train", "hidden", 0, "train.hidden"),
        ("train", "grid", 0, "train.grid"),
        ("train", "grid", 64.5, "train.grid"),
        ("train", "batch_size", True, "train.batch_size"),
        ("train", "momentum", "x", "train.momentum"),
        ("train", "limit", -5, "train.limit"),
        ("train", "limit", 0, "train.limit"),
        ("train", "capture_n", -1, "train.capture_n"),
        ("train", "capture_n", 0, "train.capture_n"),
        ("train", "dtype", "float16", "train.dtype"),
        ("noise", "sigma", "high", "noise.sigma"),
        ("optical", "dmd_cols", 1920.5, "optical.dmd_cols"),
        ("perf", "modes", ["fft", 3], "perf.modes"),
        (None, "seed", 1.5, "seed"),
        (None, "seed", -1, "seed"),
        ("noise", "seed", -1, "noise seed"),
        ("noise", "sigma", float("nan"), "noise.sigma"),
        ("noise", "dark", float("inf"), "noise.dark"),
        ("noise", "dark", -1.0, "dark floor"),
        ("train", "lr_stage1", float("nan"), "train.lr_stage1"),
        ("quantize", "levels", 0, "quantize.levels"),
        ("quantize", "threshold_frac", 1.0, "quantize.threshold_frac"),
        ("train", "lr_stage2", 0, "lr_stage2"),
        ("train", "momentum", 5.0, "momentum"),
        ("optical", "wavelength", float("-inf"), "optical.wavelength"),
        (None, None, [1], "config document must be a JSON object"),
        (None, "train", 3, "config train must be a JSON object"),
        (None, "seed", {}, "config key seed must be int"),
        ("train", "learning_rate", 1, "['train.learning_rate']"),
    ])
    def test_config_value_rejected(self, small_config, tmp_path, capsys, section, key, value, needle):
        cfg = json.loads(small_config.read_text())
        if key is None:  # the value is the whole document
            cfg = value
        else:
            (cfg if section is None else cfg.setdefault(section, {}))[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        out_dir = tmp_path / "runs"
        code = run(["--config", bad, "--out-dir", out_dir, "train", "--dataset", "mnist"])
        assert_one_line_usage_error(code, capsys, needle)
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [["quantize", "--dataset", "mnist"],
                                         ["eval", "stage1.ckpt", "--dataset", "mnist"]],
                             ids=["quantize", "eval"])
    def test_negative_limit_rejected(self, small_config, tmp_path, capsys, command):
        out_dir = tmp_path / "runs"
        code = run(["--config", small_config, "--out-dir", out_dir, *command, "--limit", -5])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--limit" in err.strip().splitlines()[-1] and "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("case", ["empty", "truncated", "not-numpy", "object-array"])
    def test_simulate_malformed_npy_is_data_error(self, small_config, tmp_path, capsys, case):
        img_path = tmp_path / "img.npy"
        np.save(img_path, np.ones((16, 16), np.uint8))
        if case == "object-array":
            np.save(img_path, np.array([[{"a": 1}, None]], dtype=object), allow_pickle=True)
        else:
            body = {"empty": b"", "truncated": img_path.read_bytes()[:-5], "not-numpy": b"P5\n1 1\n255\n\x00"}
            img_path.write_bytes(body[case])
        out_dir = tmp_path / "runs"
        code = run(["--config", small_config, "--out-dir", out_dir, "simulate", img_path])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(img_path) in err[0]
        assert not out_dir.exists()

    @pytest.mark.parametrize("shape", [(), (16,), (4, 4, 3)], ids=["0-D", "1-D", "3-D"])
    def test_simulate_image_must_be_2d(self, small_config, tmp_path, capsys, shape):
        img_path = tmp_path / "img.npy"
        np.save(img_path, np.ones(shape, np.uint8))
        out_dir = tmp_path / "runs"
        code = run(["--config", small_config, "--out-dir", out_dir, "simulate", img_path])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "2-D" in err[0]
        assert not out_dir.exists()


class TestPerfCommand:
    def test_default_report(self, tmp_path):
        assert run(["--out-dir", tmp_path, "perf"]) == 0
        run_dirs = list(tmp_path.glob("perf-*"))
        assert len(run_dirs) == 1
        rows = (run_dirs[0] / "perf.csv").read_text().splitlines()
        assert len(rows) == 1 + 8  # header + 4 generations x 2 modes
        doc = json.loads((run_dirs[0] / "perf.json").read_text())
        by_mode = {}
        for row in doc["rows"]:
            by_mode.setdefault(row["mode"], []).append(row["ops_per_watt"])
        for mode, vals in by_mode.items():
            assert vals == sorted(vals)  # generational ordering holds in output

    def test_custom_scenario_adds_rows(self, tmp_path):
        assert run(["--out-dir", tmp_path, "perf", "--custom", 100, 100, 4, 2, 50]) == 0
        run_dir = next(tmp_path.glob("perf-*"))
        rows = (run_dir / "perf.csv").read_text().splitlines()
        assert len(rows) == 1 + 10


class TestQuantizeCommand:
    def test_mnist_threshold_mode(self, small_config, tmp_path, capsys):
        code = run(["--config", small_config, "--out-dir", tmp_path / "runs",
                    "quantize", "--dataset", "mnist", "--limit", 5])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean SSIM" in out
        run_dir = next((tmp_path / "runs").glob("quantize-*"))
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["planes_per_image"] == 1
        assert len(list(run_dir.glob("img*.p4"))) == 5

    def test_cifar_level_mode(self, small_config, tmp_path):
        code = run(["--config", small_config, "--out-dir", tmp_path / "runs",
                    "quantize", "--dataset", "cifar10", "--levels", 4, "--limit", 3])
        assert code == 0
        run_dir = next((tmp_path / "runs").glob("quantize-*"))
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["planes_per_image"] == 12

    def test_bad_path_exit_code(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"paths": {"mnist": str(tmp_path / "nowhere")}}))
        code = run(["--config", cfg, "--out-dir", tmp_path / "runs",
                    "quantize", "--dataset", "mnist"])
        assert code == cli.EXIT_DATA


class TestTrainEvalPipeline:
    def test_train_finetune_eval(self, small_config, tmp_path, capsys):
        out_dir = tmp_path / "runs"

        def cli_run(*argv):
            return run(["--config", small_config, "--out-dir", out_dir, *argv])

        assert cli_run("train", "--dataset", "mnist") == 0
        ckpt = next(out_dir.glob("train-*")) / "stage1.ckpt"
        assert ckpt.exists()
        assert (ckpt.parent / "trace.csv").read_text().startswith("epoch,split")
        # flags that change no file name no new run
        stage1 = ckpt.read_bytes()
        assert cli_run("--threads", 2, "train", "--dataset", "mnist", "--log-every", 1) == 0
        assert list(out_dir.glob("train-*")) == [ckpt.parent] and ckpt.read_bytes() == stage1

        assert cli_run("finetune", ckpt, "--dataset", "mnist") == 0
        ckpt2 = next(out_dir.glob("finetune-*")) / "stage2.ckpt"
        assert ckpt2.exists()

        # the digital and the optical eval each keep their own metrics
        for mode in ("digital", "optical"):
            assert cli_run("eval", ckpt2, "--dataset", "mnist", "--limit", 100, "--mode", mode) == 0
        metrics = [json.loads(p.read_text()) for p in out_dir.glob("eval-*/metrics.json")]
        assert sorted(m["mode"] for m in metrics) == ["digital", "optical"]
        assert all(m["n"] == 100 and 0.0 <= m["accuracy"] <= 1.0 for m in metrics)
        assert "accuracy" in capsys.readouterr().out
        # another limit and another checkpoint each name a new run
        assert cli_run("eval", ckpt2, "--dataset", "mnist", "--limit", 50) == 0
        assert cli_run("eval", ckpt, "--dataset", "mnist", "--limit", 100) == 0
        assert len(list(out_dir.glob("eval-*/metrics.json"))) == 4
        # as does simulate on another image
        for seed in (0, 1):
            np.save(tmp_path / f"img{seed}.npy", np.random.default_rng(seed).integers(0, 2, (28, 28)))
            assert cli_run("simulate", tmp_path / f"img{seed}.npy") == 0
        assert len(list(out_dir.glob("simulate-*/kernel0.f64"))) == 2

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_capture_and_eval_run_in_the_training_dtype(self, small_config, tmp_path, monkeypatch, dtype):
        # eval writes what network.evaluate gives in train.dtype, and the
        # finetune capture hands the head features of that dtype
        cfg = json.loads(small_config.read_text())
        cfg["train"]["dtype"] = dtype
        small_config.write_text(json.dumps(cfg))
        ckpt = stage1_checkpoint(cfg, tmp_path)
        evals, captures = [], []
        evaluate, capture = network.evaluate, network.capture_features

        def recording_evaluate(params, dataset, **kwargs):
            evals.append((params, dataset, kwargs))
            return evaluate(params, dataset, **kwargs)

        def recording_capture(*args, **kwargs):
            captures.append(capture(*args, **kwargs))
            return captures[-1]

        monkeypatch.setattr(network, "evaluate", recording_evaluate)
        monkeypatch.setattr(network, "capture_features", recording_capture)
        out_dir = tmp_path / "runs"
        for argv in (["eval", ckpt, "--dataset", "mnist", "--limit", 100], ["finetune", ckpt, "--dataset", "mnist"]):
            assert run(["--config", small_config, "--out-dir", out_dir, *argv]) == 0
        (params, dataset, kwargs), = evals
        assert kwargs["dtype"] == dtype
        want = evaluate(params, dataset, mode="digital", dtype=dtype)
        metrics = json.loads(next(out_dir.glob("eval-*/metrics.json")).read_text())
        assert (metrics["accuracy"], metrics["confusion"]) == (want.accuracy, want.confusion.tolist())
        assert [c.dtype for c in captures] == [np.dtype(dtype)]

    def test_deterministic_checkpoints(self, small_config, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(["--config", small_config, "--out-dir", a, "train", "--dataset", "mnist"]) == 0
        assert run(["--config", small_config, "--out-dir", b, "train", "--dataset", "mnist"]) == 0
        ck_a = next(a.glob("train-*")) / "stage1.ckpt"
        ck_b = next(b.glob("train-*")) / "stage1.ckpt"
        assert ck_a.read_bytes() == ck_b.read_bytes()

    def test_geometry_mismatch_is_data_error(self, small_config, tmp_path):
        out_dir = tmp_path / "runs"
        assert run(["--config", small_config, "--out-dir", out_dir,
                    "train", "--dataset", "mnist"]) == 0
        ckpt = next(out_dir.glob("train-*")) / "stage1.ckpt"
        code = run(["--config", small_config, "--out-dir", out_dir,
                    "eval", ckpt, "--dataset", "cifar10", "--limit", 10])
        assert code == cli.EXIT_DATA

    @pytest.mark.parametrize("command", ["finetune", "eval"])
    def test_window_mismatch_is_data_error(self, small_config, tmp_path, capsys, command):
        # single-channel 28x28 images against a 16x16 checkpoint
        params = network.init_params(seed=0, n_kernels=4, grid=64, image_hw=(16, 16), hidden=32)
        ckpt = network.save_checkpoint(params, tmp_path / "small.ckpt", stage=1, seed=0)
        out_dir = tmp_path / "runs"
        code = run(["--config", small_config, "--out-dir", out_dir, command, ckpt, "--dataset", "mnist"])
        assert code == cli.EXIT_DATA
        assert "checkpoint window (16, 16)" in capsys.readouterr().err
        assert not out_dir.exists()


    @pytest.mark.parametrize("command", ["train", "finetune", "eval"])
    def test_empty_split_is_data_error(self, small_config, tmp_path, capsys, command):
        mnist = tmp_path / "empty-mnist"
        mnist.mkdir()
        for prefix in ("train", "t10k"):
            (mnist / f"{prefix}-images-idx3-ubyte").write_bytes(struct.pack(">IIII", 0x803, 0, 28, 28))
            (mnist / f"{prefix}-labels-idx1-ubyte").write_bytes(struct.pack(">II", 0x801, 0))
        cfg = json.loads(small_config.read_text())
        cfg["paths"]["mnist"] = str(mnist)
        small_config.write_text(json.dumps(cfg))
        ckpt = [stage1_checkpoint(cfg, tmp_path)] if command != "train" else []
        out_dir = tmp_path / "runs"
        code = run(["--config", small_config, "--out-dir", out_dir, command, *ckpt, "--dataset", "mnist"])
        assert code == cli.EXIT_DATA
        assert "has no images" in capsys.readouterr().err
        assert not out_dir.exists()


class TestSimulateCommand:
    @pytest.mark.parametrize("header, body, want", [
        # first sample is a whitespace byte (32) right after the header
        (b"P5\n2 2\n255\n", bytes([32, 0, 10, 255]), [[32, 0], [10, 255]]),
        # comment in the header; maxval above 255 means 16-bit big-endian samples
        (b"P5\n# pattern\n2 1\n1000\n", (500).to_bytes(2, "big") + (1000).to_bytes(2, "big"),
         [[500, 1000]]),
    ], ids=["whitespace-sample", "16-bit-maxval"])
    def test_p5_header_tokens_and_maxval(self, tmp_path, header, body, want):
        path = tmp_path / "img.pgm"
        path.write_bytes(header + body)
        assert cli._load_sim_image(path).tolist() == want
        path.write_bytes(header + body[:-1])
        with pytest.raises(DataFormatError, match="truncated"):
            cli._load_sim_image(path)

    def test_all_pass_identity(self, small_config, tmp_path):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, (28, 28)).astype(np.uint8)
        img_path = tmp_path / "digit.npy"
        np.save(img_path, bits * 255)
        out_dir = tmp_path / "runs"
        cfg = json.loads(small_config.read_text())
        cfg["noise"]["sigma"] = 0.0
        small = tmp_path / "clean.json"
        small.write_text(json.dumps(cfg))
        assert run(["--config", small, "--out-dir", out_dir, "simulate", img_path]) == 0
        run_dir = next(out_dir.glob("simulate-*"))
        assert (run_dir / "input.pgm").exists()
        assert (run_dir / "fourier_mag.f64").exists()
        out, _ = read_raw(run_dir / "kernel0.f64")
        g = cfg["train"]["grid"]
        r0, c0 = (g - 28) // 2, (g - 28) // 2
        assert np.allclose(out[r0 : r0 + 28, c0 : c0 + 28], bits, atol=1e-9)

    def test_checkpoint_kernels_are_the_first_of_the_bank(self, small_config, tmp_path):
        # with the noise off, --kernels 2 projects the checkpoint's first two
        # binary kernels on orders 0 and 1 behind the ideal aperture
        img = np.random.default_rng(3).integers(0, 2, (28, 28)).astype(np.uint8)
        np.save(tmp_path / "digit.npy", img)
        cfg = json.loads(small_config.read_text())
        cfg["noise"]["sigma"] = 0.0
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(cfg))
        ckpt = stage1_checkpoint(cfg, tmp_path)
        out_dir = tmp_path / "runs"
        assert run(["--config", path, "--out-dir", out_dir, "simulate", tmp_path / "digit.npy",
                    "--checkpoint", ckpt, "--kernels", 2]) == 0
        g = cfg["train"]["grid"]
        frame = np.zeros((g, g), np.uint8)
        frame[(g - 28) // 2 : (g + 28) // 2, (g - 28) // 2 : (g + 28) // 2] = img
        optical = OpticalConfig()
        want = multi_kernel_forward(FieldPlane.from_bits(frame, optical.dmd_pitch),
                                    list(network.binarized_kernels(network.load_checkpoint(ckpt)[0])[:2]),
                                    optical, ideal_aperture([0, 1], (g, g), optical))
        run_dir = next(out_dir.glob("simulate-*"))
        for k in range(2):
            got, _ = read_raw(run_dir / f"kernel{k}.f64")
            assert got.tobytes() == want[k].tobytes()
        assert not (run_dir / "kernel2.f64").exists()

    def test_binning_at_zero_sigma(self, small_config, tmp_path):
        # sigma 0 still runs the camera model: bin_factor 2 halves the maps
        rng = np.random.default_rng(2)
        img_path = tmp_path / "digit.npy"
        np.save(img_path, rng.integers(0, 2, (28, 28)).astype(np.uint8))
        cfg = json.loads(small_config.read_text())
        maps = {}
        for b in (1, 2):
            cfg["noise"].update(sigma=0.0, bin_factor=b)
            path = tmp_path / f"bin{b}.json"
            path.write_text(json.dumps(cfg))
            out_dir = tmp_path / f"runs{b}"
            assert run(["--config", path, "--out-dir", out_dir, "simulate", img_path]) == 0
            maps[b], _ = read_raw(next(out_dir.glob("simulate-*")) / "kernel0.f64")
        g = cfg["train"]["grid"]
        assert maps[2].shape == (g // 2, g // 2)
        assert np.allclose(maps[2], maps[1].reshape(g // 2, 2, g // 2, 2).mean(axis=(1, 3)))

    def test_oversized_image_rejected(self, small_config, tmp_path):
        img_path = tmp_path / "big.npy"
        np.save(img_path, np.ones((300, 300), np.uint8))
        code = run(["--config", small_config, "--out-dir", tmp_path / "runs",
                    "simulate", img_path])
        assert code == cli.EXIT_DATA

    def test_window_dumps(self, small_config, tmp_path):
        # a pre-tiled 2x2 frame with 2 kernels -> 8 window files
        rng = np.random.default_rng(1)
        frame = rng.integers(0, 2, (56, 56)).astype(np.uint8) * 255
        img_path = tmp_path / "frame.npy"
        np.save(img_path, frame)
        out_dir = tmp_path / "runs"
        assert run(["--config", small_config, "--out-dir", out_dir,
                    "simulate", img_path, "--kernels", 2, "--windows", "2x2"]) == 0
        run_dir = next(out_dir.glob("simulate-*"))
        assert len(list(run_dir.glob("kernel*_win*.pgm"))) == 8

    def test_window_dumps_are_the_output_crops(self, small_config, tmp_path):
        # a 30x21 image cut 3x2: 10x10 cells, the remainder row and column dropped
        img_path = tmp_path / "frame.npy"
        np.save(img_path, np.random.default_rng(4).integers(0, 2, (30, 21)).astype(np.uint8))
        out_dir = tmp_path / "runs"
        assert run(["--config", small_config, "--out-dir", out_dir,
                    "simulate", img_path, "--kernels", 2, "--windows", "3x2"]) == 0
        run_dir = next(out_dir.glob("simulate-*"))
        g = json.loads(small_config.read_text())["train"]["grid"]
        r0, c0 = (g - 30) // 2, (g - 21) // 2
        for k in range(2):
            out, _ = read_raw(run_dir / f"kernel{k}.f64")
            for r in range(3):
                for c in range(2):
                    crop = out[r0 + 10 * r : r0 + 10 * (r + 1), c0 + 10 * c : c0 + 10 * (c + 1)]
                    want = write_pgm(crop, tmp_path / "want.pgm").read_bytes()
                    assert (run_dir / f"kernel{k}_win{r}_{c}.pgm").read_bytes() == want
        assert len(list(run_dir.glob("kernel*_win*.pgm"))) == 12

    def test_one_pixel_windows(self, small_config, tmp_path):
        img_path = tmp_path / "img.npy"
        np.save(img_path, np.ones((16, 4), np.uint8))
        out_dir = tmp_path / "runs"
        assert run(["--config", small_config, "--out-dir", out_dir,
                    "simulate", img_path, "--windows", "16x4"]) == 0
        run_dir = next(out_dir.glob("simulate-*"))
        assert len(list(run_dir.glob("kernel0_win*.pgm"))) == 64
