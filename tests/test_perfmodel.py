import csv
import json

import numpy as np
import pytest

from opticonv.perfmodel import (
    DEFAULT_POWER_W,
    GenerationPreset,
    LatencyReport,
    PerfScenario,
    custom_scenario,
    dram_power_w,
    generation_preset,
    latency,
    ops_per_watt_brute,
    ops_per_watt_fft,
    sweep_report,
    write_report_csv,
    write_report_json,
)

from oracles import ops_per_watt_brute_oracle, ops_per_watt_fft_oracle

GENERATIONS = ("Gen1.0", "Gen1.1", "Gen1.2", "Gen1.3")


def scenario(**kw):
    base = dict(image_rows=28, image_cols=28, kernel_rows=3, kernel_cols=3,
                input_parallelism=49, kernel_parallelism=2, frame_rate_hz=100.0,
                power_w=DEFAULT_POWER_W)
    base.update(kw)
    return PerfScenario(**base)


class TestScenario:
    def test_paper_power_default(self):
        assert DEFAULT_POWER_W == pytest.approx(29.6)

    @pytest.mark.parametrize("bad", [
        dict(image_rows=0), dict(kernel_cols=-3), dict(input_parallelism=0),
        dict(frame_rate_hz=0.0), dict(power_w=-1.0), dict(kernel_parallelism=2.5),
        # NaN <= 0 is False, so a sign test alone lets NaN through
        dict(frame_rate_hz=float("nan")), dict(frame_rate_hz=float("inf")),
        dict(power_w=float("nan")), dict(power_w=float("inf")),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            scenario(**bad)


class TestOpsPerWatt:
    def test_unit_case_fft(self):
        s = scenario(image_rows=1, image_cols=1, kernel_rows=1, kernel_cols=1,
                     input_parallelism=1, kernel_parallelism=1, frame_rate_hz=1.0, power_w=1.0)
        assert ops_per_watt_fft(s) == pytest.approx(1.0)  # log terms vanish at M=N=1

    def test_unit_case_brute(self):
        s = scenario(image_rows=1, image_cols=1, kernel_rows=1, kernel_cols=1,
                     input_parallelism=1, kernel_parallelism=1, frame_rate_hz=1.0, power_w=1.0)
        assert ops_per_watt_brute(s) == pytest.approx(1.0)

    def test_brute_paper_arithmetic(self):
        s = scenario()
        assert ops_per_watt_brute(s) == pytest.approx(28 * 28 * 9 * 49 * 2 * 100 / 29.6)
        assert ops_per_watt_brute(s) == pytest.approx(2.336e6, rel=1e-3)

    def test_fft_matches_transcription_oracle(self):
        s = scenario()
        want = ops_per_watt_fft_oracle(28, 28, 3, 3, 49, 2, 100.0, 29.6)
        assert ops_per_watt_fft(s) == pytest.approx(want, rel=1e-12)

    def test_oracle_agreement_random_scenarios(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            s = PerfScenario(
                image_rows=int(rng.integers(1, 2000)),
                image_cols=int(rng.integers(1, 2000)),
                kernel_rows=int(rng.integers(1, 16)),
                kernel_cols=int(rng.integers(1, 16)),
                input_parallelism=int(rng.integers(1, 128)),
                kernel_parallelism=int(rng.integers(1, 64)),
                frame_rate_hz=float(rng.uniform(0.1, 1e5)),
                power_w=float(rng.uniform(0.1, 1e3)),
            )
            a = ops_per_watt_fft(s)
            b = ops_per_watt_fft_oracle(
                s.image_rows, s.image_cols, s.kernel_rows, s.kernel_cols,
                s.input_parallelism, s.kernel_parallelism, s.frame_rate_hz, s.power_w,
            )
            assert abs(a - b) <= 1e-12 * abs(b)
            a2 = ops_per_watt_brute(s)
            b2 = ops_per_watt_brute_oracle(
                s.image_rows, s.image_cols, s.kernel_rows, s.kernel_cols,
                s.input_parallelism, s.kernel_parallelism, s.frame_rate_hz, s.power_w,
            )
            assert abs(a2 - b2) <= 1e-12 * abs(b2)

    def test_frame_rate_linearity(self):
        s = scenario()
        doubled = scenario(frame_rate_hz=200.0)
        assert ops_per_watt_fft(doubled) == pytest.approx(2 * ops_per_watt_fft(s))
        assert ops_per_watt_brute(doubled) == pytest.approx(2 * ops_per_watt_brute(s))

    def test_kernel_area_scaling_brute(self):
        s = scenario()
        big = scenario(kernel_rows=6, kernel_cols=6)
        assert ops_per_watt_brute(big) == pytest.approx(4 * ops_per_watt_brute(s))

    def test_homogeneity(self):
        # linear in i (brute), k, f; inverse-linear in P
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = scenario(
                image_rows=int(rng.integers(2, 300)),
                input_parallelism=int(rng.integers(1, 64)),
                kernel_parallelism=int(rng.integers(1, 32)),
                frame_rate_hz=float(rng.uniform(1, 1e4)),
                power_w=float(rng.uniform(1, 100)),
            )
            for fn in (ops_per_watt_fft, ops_per_watt_brute):
                base = fn(s)
                assert fn(scenario_like(s, kernel_parallelism=2 * s.kernel_parallelism)) == pytest.approx(2 * base)
                assert fn(scenario_like(s, frame_rate_hz=3 * s.frame_rate_hz)) == pytest.approx(3 * base)
                assert fn(scenario_like(s, power_w=2 * s.power_w)) == pytest.approx(base / 2)
            assert ops_per_watt_brute(
                scenario_like(s, input_parallelism=2 * s.input_parallelism)
            ) == pytest.approx(2 * ops_per_watt_brute(s))

    def test_fft_brute_ratio_large_matrix(self):
        # the two-orders-of-magnitude neighborhood for 1000x1000 processing
        s = scenario(image_rows=1000, image_cols=1000, input_parallelism=49,
                     kernel_parallelism=1, frame_rate_hz=1.0)
        ratio = ops_per_watt_fft(s) / ops_per_watt_brute(s)
        assert 50 <= ratio <= 500


def scenario_like(s, **kw):
    from dataclasses import replace
    return replace(s, **kw)


class TestDramEnergy:
    def test_negligible_at_presets(self):
        for name in GENERATIONS:
            s = generation_preset(name).scenario
            assert dram_power_w(s) < 0.005 * s.power_w  # < 0.5% of device power


class TestPresets:
    def test_parallelism_ladder(self):
        assert generation_preset("Gen1.0").scenario.input_parallelism == 1
        products = []
        for name in GENERATIONS:
            s = generation_preset(name).scenario
            products.append(s.input_parallelism * s.kernel_parallelism)
        assert products == [1, 49, 98, 1536]

    def test_frame_rates_span(self):
        rates = [generation_preset(n).scenario.frame_rate_hz for n in GENERATIONS]
        assert rates[0] == 1.0 and rates[-1] == 2000.0
        assert rates == sorted(rates)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            generation_preset("Gen2.0")

    def test_high_res_mode(self):
        s = generation_preset("Gen1.3", high_res=True).scenario
        assert (s.image_rows, s.image_cols) == (1080, 1920)

    def test_ops_strictly_increasing(self):
        for fn in (ops_per_watt_fft, ops_per_watt_brute):
            vals = [fn(generation_preset(n).scenario) for n in GENERATIONS]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestLatency:
    def test_camera_bottleneck(self):
        rep = latency(scenario(), {"camera": 100.0, "dmd": 15000.0, "head": 1000.0})
        assert rep.bottleneck == "camera"
        assert rep.throughput_hz == 100.0

    def test_single_stage(self):
        rep = latency(scenario(), {"dmd": 250.0})
        assert rep.total_s == pytest.approx(1 / 250.0)

    def test_gen13_bottleneck_leaves_camera(self):
        preset = generation_preset("Gen1.3")
        rep = latency(preset.scenario, preset.pipeline_hz)
        assert rep.bottleneck != "camera"

    def test_empty_table(self):
        with pytest.raises(ValueError):
            latency(scenario(), {})


class TestSweepReport:
    def test_cardinality(self):
        rows = sweep_report([generation_preset(n) for n in GENERATIONS])
        assert len(rows) == 8

    def test_fft_beats_brute_at_presets(self):
        rows = sweep_report([generation_preset(n) for n in GENERATIONS])
        by_gen = {}
        for r in rows:
            by_gen.setdefault(r["generation"], {})[r["mode"]] = r["ops_per_watt"]
        for gen, modes in by_gen.items():
            assert modes["fft"] > modes["brute"]

    def test_csv_json_outputs(self, tmp_path):
        rows = sweep_report([generation_preset(n) for n in GENERATIONS])
        csv_path = write_report_csv(rows, tmp_path / "perf.csv")
        json_path = write_report_json(rows, tmp_path / "perf.json")
        with open(csv_path) as f:
            parsed = list(csv.DictReader(f))
        assert len(parsed) == 8
        assert parsed[0]["generation"] == "Gen1.0"
        doc = json.loads(json_path.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["rows"]) == 8

    def test_custom_scenario_joins_sweep(self):
        rows = sweep_report([custom_scenario(100, 100, label="bench")])
        assert {r["generation"] for r in rows} == {"bench"}

    def test_empty_presets_rejected(self):
        with pytest.raises(ValueError):
            sweep_report([])
