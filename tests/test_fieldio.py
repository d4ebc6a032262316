import numpy as np
import pytest

from opticonv.datapipe import DataFormatError
from opticonv.fieldio import read_pgm, read_raw, write_pgm, write_raw


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

    @pytest.mark.parametrize("raw, needle", [
        (b"P6\n2 2\n255\n\x00\x00\x00\x00", "not a binary P5"),
        (b"P5\n0 2\n255\n", "bad P5 header"),
        (b"P5\n2 1\n9\n\x00\x0a", "above maxval"),
    ], ids=["magic", "zero-width", "above-maxval"])
    def test_read_rejects_malformed_files(self, tmp_path, raw, needle):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match=needle):
            read_pgm(path)


class TestRaw:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = rng.standard_normal((17, 23))
        write_raw(grid, tmp_path / "f.f64", pitch_m=7.6e-6)
        back, pitch = read_raw(tmp_path / "f.f64")
        assert back.tobytes() == grid.astype("<f8").tobytes()
        assert pitch == 7.6e-6

    def test_sidecar_contents(self, tmp_path):
        import json

        _, sidecar = write_raw(np.zeros((4, 6)), tmp_path / "g.f64", pitch_m=1e-6)
        header = json.loads(sidecar.read_text())
        assert header == {"width": 6, "height": 4, "pitch_m": 1e-6}

    def test_special_values_survive(self, tmp_path):
        grid = np.array([[0.0, -0.0], [np.pi, 1e-308]])
        write_raw(grid, tmp_path / "s.f64", pitch_m=1.0)
        back, _ = read_raw(tmp_path / "s.f64")
        assert back.tobytes() == grid.tobytes()
