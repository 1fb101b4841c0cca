from __future__ import annotations

import contextlib
import csv
import json
import os
import platform
import re
import signal
import struct
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import oracles
from conftest import (
    BAD_DESK_WAVEFORMS,
    desk_raw,
    make_array,
    make_radio,
    make_scene,
    on_grid_target,
)
from mars_jcas import cli, harness
from mars_jcas.channel import DropDraws, synthesize_if_cube
from mars_jcas.cli import main, preset_path
from mars_jcas.harness import CustomRanges, ExperimentPlan, schedule_for
from mars_jcas.io import (
    ConfigError,
    _ConfigLoader,
    _converter,
    _fields,
    config_from_dict,
    config_hash,
    dbm_to_watts,
    format_cell,
    parse_config,
    read_cube,
    read_manifest,
    to_dict,
    write_csv,
    write_cube,
)
from mars_jcas.pipeline import PipelineSpec, front_end, run_pipeline
from mars_jcas.scene import (
    ArrayGeometry,
    ClutterConfig,
    SPEED_OF_LIGHT,
    RadioParams,
    ReceiverConfig,
    Target,
    WaveformConfig,
    validate_scene,
)
from mars_jcas.seeding import derive_seed
from mars_jcas.waveform import MarsSchedule, symbol_time_samples


@contextlib.contextmanager
def _alarm(seconds):
    """Raise TimeoutError in this process if the block runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# Every optional key set, each None-default optional included, and at least
# one unit variant in each section that has them.
EVERY_KEY_CONFIG = """
radio: {carrier_freq_ghz: 5.1, subcarrier_spacing_hz: 60.0e3, num_subcarriers: 512,
        pri_ms: 0.25, num_pri: 64, symbols_per_pri: 15, avg_tx_power_dbm: 27.0,
        noise_density_w_per_hz: 4.0e-21, si_attenuation_db: 40.0, uplink_power_dbm: 20.0,
        uplink_distance_m: 50.0, gain_tx_dbi: 3.0, gain_rx: 2.0, bandwidth_mhz: 30.72,
        symbol_duration_s: 16.666666666666668e-6}
array: {rx_cols: 4, rx_rows: 4, rx_spacing_x_m: 0.03, rx_spacing_y_wavelengths: 0.6,
        tx_cols: 2, tx_rows: 2, va_enabled: true}
waveform: {structure: comb, chirp_pri_indices: [1, 6, 15], tone_subcarrier_index: 200,
           guard_subcarriers: 1, duty_ratio: 0.0666}
clutter: {enabled: true, terrain: soil_5ghz, area_x_m: 100.0, area_y_m: 50.0, cell_m: 2.0,
          station_height_m: 5.0, area_standoff_m: 10.0, gtri_a: 0.1, gtri_b: 1.0,
          gtri_c: 0.2, gtri_d: 1.5, surface_rms_height_m: 0.02}
receiver: {butterworth_order: 3, butterworth_cutoff_hz: 30.0e3, dc_removal: false,
           residual_dc_db: 60.0, tone_noise_bandwidth: symbol,
           exact_within_symbol_doppler: true, uplink_cfo_fraction: 0.1}
targets:
  - {range_km: 0.3, speed_kmh: 72.0, psi_x_deg: 10.0, sin_psi_y: 0.2, rcs_m2: 10.0}
  - {range_m: 200.0, radial_velocity_mps: -5.0, psi_x_rad: 0.1, psi_y_rad: -0.05, rcs_m2: 1.0}
seed: 11
experiment:
  scenario: custom
  num_drops: 7
  sweep_axis: range
  sweep_values_m: [100, 200.5]
  pipelines:
    - {structure: comb, suppressor: stap, eps_mode: em, refinement: music, va: true,
       music_factor: 4, stte_guard: 2}
  target_count: 2
  seed: 5
  range_bounds_m: [50, 900]
  azimuth_max_deg: 45.0
  custom: {range_m: [10, 20], speed_mps: [1, 2], sin_psi_x: [-0.1, 0.1],
           sin_psi_y: [-0.2, 0.2], rcs_m2: 3.0}
  workers: 2
"""


class TestConfigParsing:
    def test_table1_car_preset_values(self):
        scene_cfg, plan = parse_config(preset_path("table1_car"))
        r = scene_cfg.radio
        assert r.carrier_freq_hz == 5e9
        assert r.subcarrier_spacing_hz == 60e3
        assert r.num_subcarriers == 2048
        assert r.avg_tx_power_w == pytest.approx(0.01)       # 10 dBm
        assert r.noise_density_w_per_hz == pytest.approx(dbm_to_watts(-174.0),
                                                         rel=1e-12, abs=0)
        assert r.uplink_power_w == pytest.approx(dbm_to_watts(23.0))
        assert scene_cfg.array.rx_cols == 8 and scene_cfg.array.rx_rows == 8
        assert scene_cfg.array.tx_cols == 2
        assert scene_cfg.waveform.chirp_pri_indices == (1, 3, 6, 10)
        assert plan.scenario == "car"
        # Spacing resolved to half the 5 GHz wavelength.
        lam = 299792458.0 / 5e9
        assert scene_cfg.array.rx_spacing_x_m == pytest.approx(lam / 2)

    def test_antenna_gain_keys(self, tmp_path):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["radio"]["gain_tx_dbi"] = 3.0
        raw["radio"]["gain_rx"] = 2.0
        cfg = tmp_path / "g.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        scene_cfg, _ = parse_config(cfg)
        assert scene_cfg.radio.gain_tx == pytest.approx(10 ** 0.3)
        assert scene_cfg.radio.gain_rx == 2.0

    def test_empty_file_lists_required_sections(self, tmp_path):
        cfg = tmp_path / "empty.yaml"
        cfg.write_text("")
        with pytest.raises(ConfigError, match="radio"):
            parse_config(cfg)

    def test_unknown_key_named(self, tmp_path):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["radio"]["carier_freq_ghz"] = 5.0  # typo
        cfg = tmp_path / "typo.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="carier_freq_ghz"):
            parse_config(cfg)

    def test_duplicate_unit_variants_rejected(self, tmp_path):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["radio"]["carrier_freq_hz"] = 5e9  # alongside carrier_freq_ghz
        cfg = tmp_path / "dup.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="only one of"):
            parse_config(cfg)

    def test_type_mismatch_path_qualified(self, tmp_path):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["radio"]["num_subcarriers"] = "many"
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="num_subcarriers"):
            parse_config(cfg)

    @pytest.mark.parametrize("override,key", [
        ({"structure": "conventional_chirp"}, "structure"),
        ({"suppressor": "stpa"}, "suppressor"),
        ({"eps_mode": "bogus"}, "eps_mode"),
        ({"refinement": "musik"}, "refinement"),
        ({"music_factor": 0}, "music_factor"),
        ({"stte_guard": -1}, "stte_guard"),
        ({"structure": "fa", "suppressor": "mf", "va": True}, "va"),
        ({"structure": "lshape", "suppressor": "sthp"}, "suppressor"),
        # MF is STAP at eps = inf; FA is its own matched filter, FFT angles only.
        ({"suppressor": "mf", "eps_mode": "zero"}, "eps_mode"),
        ({"structure": "fa", "eps_mode": "em", "refinement": "music"}, "suppressor"),
        ({"structure": "fa", "suppressor": "mf", "eps_mode": "em"}, "eps_mode"),
        ({"structure": "fa", "suppressor": "mf", "refinement": "music"}, "refinement"),
    ])
    def test_bad_pipeline_spec_fails_closed(self, tmp_path, capsys, override, key):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        pipe = {"structure": "comb", "suppressor": "sthp", "eps_mode": "inf",
                "refinement": "fft", "va": False}
        raw["experiment"]["pipelines"] = [pipe, {**pipe, **override}]
        cfg = tmp_path / "pipe.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        where = f"experiment.pipelines[1].{key}"
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(cfg)
        assert main(["resolution", "--config", str(cfg)]) == 3
        assert where in capsys.readouterr().err
        assert main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path / "mc")]) == 3
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("override,key", [
        ({"scenario": "boat"}, "scenario"),
        ({"num_drops": -1}, "num_drops"),
        ({"target_count": 0}, "target_count"),
        ({"sweep_values": [1.0, 0.5]}, "sweep_values"),
        ({"sweep_axis": "speed"}, "sweep_axis"),
        ({"workers": 0}, "workers"),
        ({"stte_guard": 1}, "stte_guard"),   # a per-pipeline key only
        ({"sweep_values_dbm": [30.0, 30.0]}, "sweep_values"),   # each drop scored twice
        # A unit against the axis: 150 m would run as 150 W, 50 dBm as 100 m.
        ({"sweep_values_m": [150.0, 400.0]}, "sweep_values_m: bad value [150.0, 400.0] "
                                             "(expected sweep_axis range, got 'tx_power')"),
        ({"sweep_axis": "range", "sweep_values_dbm": [50.0, 54.0]},
         "sweep_values_dbm: bad value [50.0, 54.0] (expected sweep_axis tx_power, got 'range')"),
    ])
    def test_bad_plan_value_fails_closed(self, tmp_path, capsys, override, key):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["experiment"].update(override)
        cfg = tmp_path / "plan.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        where = f"{cfg}.experiment"
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(cfg)
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert where in err and key in err
        assert not out.exists()

    def test_duplicate_pipeline_tag_fails_closed(self, tmp_path, capsys):
        # FA guard 1 and guard 3 share the tag fa-mf-inf-fft: their curves
        # would merge and simulate would write both to the same files.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        fa = {"structure": "fa", "suppressor": "mf", "eps_mode": "inf", "refinement": "fft"}
        raw["experiment"]["pipelines"] = [{**fa, "stte_guard": 1}, {**fa, "stte_guard": 3}]
        cfg = tmp_path / "dup.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        where = f"{cfg}.experiment"
        with pytest.raises(ConfigError, match=re.escape(where) + ".*pipelines\\[1\\].*fa-mf-inf-fft"):
            parse_config(cfg)
        for command in ("montecarlo", "simulate"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert where in err and "fa-mf-inf-fft" in err
            assert not out.exists()

    @pytest.mark.parametrize("flag,value,key", [
        ("--workers", "0", "workers"),
        ("--drops", "-1", "num_drops"),
    ])
    def test_bad_override_fails_before_output_dir(self, tmp_path, capsys, flag, value, key):
        out = tmp_path / "mc"
        assert main(["montecarlo", "--preset", "desk_small", "--out", str(out),
                     flag, value]) == 3
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_zero_targets_fails_before_output_dir(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--preset", "desk_small", "--out", str(out),
                     "--targets", "0"]) == 3
        assert "target_count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("structure", ["comb", "fa"])
    def test_stte_guard_masking_every_velocity_bin_fails_closed(self, tmp_path, capsys,
                                                               structure):
        # desk_small has M = 64 velocity bins, signed -32..31: guard 31 leaves
        # bin -32, guard 32 masks them all and used to fail at drop 0.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"]["enabled"] = False
        pipe = {"structure": structure, "suppressor": "mf" if structure == "fa" else "sthp"}
        for guard, code in ((31, 0), (32, 3)):
            raw["experiment"]["pipelines"] = [{**pipe, "stte_guard": guard}]
            cfg = tmp_path / f"guard{guard}.yaml"
            cfg.write_text(yaml.safe_dump(raw))
            out = tmp_path / f"mc{guard}"
            assert main(["montecarlo", "--config", str(cfg), "--out", str(out),
                         "--drops", "1"]) == code
            err = capsys.readouterr().err
            assert out.exists() == (code == 0)
        tag = PipelineSpec(**pipe).tag
        assert f"{cfg}: pipelines[0] {tag}: stte_guard 32 masks every velocity bin" in err
        # Under simulate --targets too, a rule of the config names the config.
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"),
                     "--targets", "1"]) == 3
        assert f"{cfg}: pipelines[0] {tag}: stte_guard 32" in capsys.readouterr().err

    @pytest.mark.parametrize("refinement,fits,over,reason", [
        # 16 elements x (64 - 3 masked) bins = 976 STTE cells: each peak
        # claims at most 27, so 37 are always there; 300 stopped at 110.
        ("fft", 37, 300, "exceeds the 37 peaks its STTE map of 976 unmasked cells"),
        # MUSIC's spatial covariance is 16 x 16 (M = 64): K + 1 <= 16.
        ("music", 15, 16, "needs K + 1 <= min(num_rx, M) = 16 for MUSIC"),
    ])
    def test_target_count_the_drop_cannot_return_fails_closed(self, tmp_path, capsys,
                                                              refinement, fits, over, reason):
        # Each over-count used to exit 4 at drop 0, after the output
        # directory was made.
        pipe = {"structure": "comb", "suppressor": "sthp", "refinement": refinement}
        tag = PipelineSpec(**pipe).tag
        for k, code in ((fits, 0), (over, 3)):
            cfg = self._desk_without_clutter(tmp_path, f"k{k}",
                                             {"target_count": k, "pipelines": [pipe]})
            out = tmp_path / f"mc{k}"
            assert main(["montecarlo", "--config", str(cfg), "--out", str(out),
                         "--drops", "2"]) == code
            assert out.exists() == (code == 0)
        err = capsys.readouterr().err
        assert f"{cfg}: pipelines[0] {tag}: experiment.target_count {over} {reason}" in err
        # simulate --targets K goes through the same check.
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--targets", str(over)]) == 3
        err = capsys.readouterr().err
        assert f"experiment.target_count {over} {reason}" in err
        # The count is the command line's.
        assert err.startswith(f"config error: command-line override: pipelines[0] {tag}:")
        assert not out.exists()
        # simulate scores the count it is given, or the config's targets,
        # never the config's target_count.
        targets = [{"range_m": 100.0 + 10.0 * j, "radial_velocity_mps": 10.0, "rcs_m2": 100.0}
                   for j in range(over)]
        cfg = self._desk_without_clutter(tmp_path, "one", {"target_count": over,
                                                           "pipelines": [pipe]}, targets[:1])
        for flags in (["--targets", str(fits)], []):
            out = tmp_path / f"sim{len(flags)}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out), *flags]) == 0
        cfg = self._desk_without_clutter(tmp_path, "own", {"pipelines": [pipe]}, targets)
        out = tmp_path / "own"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert (f"{cfg}: pipelines[0] {tag}: len(targets) {over} {reason}"
                in capsys.readouterr().err)
        assert not out.exists()

    # A value of another type than its key's: a callable value maps the
    # preset's own value to the bad one.
    @pytest.mark.parametrize("section,key,value", [
        ("waveform", "chirp_pri_indices", [1.5, 6]),
        ("experiment", "num_drops", 2.7),
        ("radio", "num_subcarriers", 2048.5),
        ("array", "rx_cols", True),
        (None, "seed", 3.9),
        ("waveform", "chirp_pri_indices", "16"),     # read as (1, 6)
        ("experiment", "sweep_values_dbm", "25"),    # read as 2 and 5 dBm
        ("experiment", "num_drops", "7"),
        ("radio", "avg_tx_power_dbm", True),         # read as 1 dBm
        ("clutter", "terrain", 5),                   # read as "5"
        (None, "radio", lambda radio: [list(pair) for pair in radio.items()]),
        (None, "radio", [1]),
        # A null list item once read as a section of defaults: one default
        # pipeline, or a target missing its range_m.
        ("experiment", "pipelines", [None]),
        (None, "targets", [None]),
        # Not a list where a list goes: each once read its items first.
        ("waveform", "chirp_pri_indices", 5),
        ("waveform", "chirp_pri_indices", {"a": 1}),
        ("experiment", "pipelines", 5),
        (None, "targets", 5),
        ("experiment.custom", "range_m", 5),
        # A quoted number where a float goes: once read as 0.25 ms.
        ("radio", "pri_ms", "0.25"),
    ])
    def test_key_rejects_value_of_another_type(self, tmp_path, capsys, section, key, value):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        mapping = raw
        for name in section.split(".") if section else ():
            mapping = mapping[name]
        mapping[key] = value(mapping[key]) if callable(value) else value
        cfg = tmp_path / "typed.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        where = f"{cfg}.{section}.{key}" if section else f"{cfg}.{key}"
        # Where a section goes, a list or a null list item says so; where a
        # list goes, any other value says so.
        said = {"[1]": ": bad value [1] (expected a mapping)",
                "[None]": "[0]: expected a mapping, got NoneType"}.get(repr(value), ": bad value")
        if key in ("chirp_pri_indices", "sweep_values_dbm", "pipelines", "targets", "range_m") \
                and not isinstance(value, list):
            said = f": bad value {value!r} (expected a list)"
        with pytest.raises(ConfigError, match=re.escape(where + said)):
            parse_config(cfg)
        for command in ("montecarlo", "simulate"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            assert where in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("section,key,value", [
        ("radio", "avg_tx_power_dbm", float("inf")),
        ("radio", "avg_tx_power_dbm", 1e308),         # 10 ** 1e307 W overflows
        ("radio", "carrier_freq_ghz", 1e305),         # finite GHz, inf Hz
        ("clutter", "cell_m", float("nan")),
        ("experiment", "sweep_values_dbm", [10.0, float("nan")]),
    ])
    def test_non_finite_float_fails_closed(self, tmp_path, capsys, section, key, value):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw[section][key] = value
        cfg = tmp_path / "finite.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        where = f"{cfg}.{section}.{key}"
        with pytest.raises(ConfigError, match=re.escape(where) + ": bad value"):
            parse_config(cfg)
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out), "--drops", "1"]) == 3
        assert where in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("sin_psi_x", [2.0, 3.0], "sin_psi_x, custom.sin_psi_y: the box [2.0, 3.0]"),
        ("sin_psi_y", [-3.0, -1.0], "sin_psi_x, custom.sin_psi_y: the box"),  # touches at -1
        ("rcs_m2", 0.0, "rcs_m2: must be > 0"),
        ("rcs_m2", -5.0, "rcs_m2: must be > 0"),
    ])
    def test_custom_draw_box_fails_closed(self, tmp_path, capsys, key, value, message):
        # Before this check a box outside the disk hung draw_targets and a
        # zero RCS failed at drop 0; an alarm in this process bounds a hang.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"]["enabled"] = False
        raw["experiment"]["custom"][key] = value
        cfg = tmp_path / "custom.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        where = f"{cfg}.experiment.custom.{message}"
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(cfg)
        out = tmp_path / "mc"

        def hang(signum, frame):
            raise TimeoutError("montecarlo did not finish within 30 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(30)
        try:
            code = main(["montecarlo", "--config", str(cfg), "--out", str(out), "--drops", "1"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 3
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_empty_pipeline_list_fails_closed(self, tmp_path, capsys):
        # An empty list used to run every drop and write header-only CSVs.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"]["enabled"] = False
        raw["experiment"]["pipelines"] = []
        cfg = tmp_path / "empty.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        where = f"{cfg}.experiment.pipelines: must list at least one pipeline"
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(cfg)
        for command, flags in (("montecarlo", ["--drops", "2"]), ("simulate", ["--targets", "1"])):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 3
            assert where in capsys.readouterr().err
            assert not out.exists()

    # c * T_sym / 2 on desk_small (60 kHz subcarriers): the farthest range
    # whose round trip fits the OFDM symbol.
    IF_RANGE_LIMIT_M = SPEED_OF_LIGHT / 60e3 / 2.0

    @staticmethod
    def _desk_without_clutter(tmp_path, name, experiment=None, targets=None):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"]["enabled"] = False
        for key, value in (experiment or {}).items():
            if key == "custom":
                raw["experiment"]["custom"].update(value)
            else:
                raw["experiment"][key] = value
        if targets is not None:
            raw["targets"] = targets
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        return cfg

    @pytest.mark.parametrize("experiment,targets,key,runs", [
        ({"custom": {"range_m": [100.0, 50000.0]}}, None, "custom.range_m: 50000.0 m",
         [("montecarlo", "--drops", "2"), ("simulate", "--targets", "1")]),
        ({}, [{"range_m": 3000.0, "radial_velocity_mps": 10.0, "rcs_m2": 100.0}],
         "targets[0].range_m: 3000.0 m", [("simulate",)]),
        ({"sweep_axis": "range", "sweep_values_m": [200.0, 3000.0]}, None,
         "sweep_values[1]: 3000.0 m", [("montecarlo", "--drops", "2")]),
    ], ids=["custom_range", "config_target", "range_sweep"])
    def test_range_beyond_if_symbol_fails_closed(self, tmp_path, capsys, experiment, targets,
                                                 key, runs):
        # Each used to exit 4 at drop 0, after the output directory was made.
        cfg = self._desk_without_clutter(tmp_path, "far", experiment, targets)
        for command, *flags in runs:
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 3
            err = capsys.readouterr().err
            assert f"{cfg}: {key} has delay" in err and "> symbol duration" in err
            assert not out.exists()

    def test_range_at_if_symbol_boundary(self, tmp_path, capsys):
        inside = self.IF_RANGE_LIMIT_M * (1 - 1e-12)
        outside = self.IF_RANGE_LIMIT_M * (1 + 1e-12)
        cases = [  # (experiment edit, exit code)
            ({"custom": {"range_m": [100.0, inside]}}, 0),
            ({"custom": {"range_m": [100.0, outside]}}, 3),
            # A range sweep puts a target exactly at its value.
            ({"sweep_axis": "range", "sweep_values_m": [200.0, inside]}, 0),
            ({"sweep_axis": "range", "sweep_values_m": [200.0, outside]}, 3),
            # FA cubes hold no beat: an FA-only plan is not held to the bound.
            ({"custom": {"range_m": [100.0, 50000.0]},
              "pipelines": [{"structure": "fa", "suppressor": "mf"}]}, 0),
        ]
        for k, (experiment, code) in enumerate(cases):
            cfg = self._desk_without_clutter(tmp_path, f"edge{k}", experiment)
            out = tmp_path / f"mc{k}"
            assert main(["montecarlo", "--config", str(cfg), "--out", str(out),
                         "--drops", "2"]) == code, experiment
            assert out.exists() == (code == 0)
        assert "sweep_values[1]: " in capsys.readouterr().err

    def test_far_config_target_with_drawn_ranges_runs(self, tmp_path, capsys):
        # montecarlo and simulate --targets draw every drop's targets, so a
        # config target beyond c * T_sym / 2 never reaches a cube there.
        cfg = self._desk_without_clutter(
            tmp_path, "far_target",
            targets=[{"range_m": 3000.0, "radial_velocity_mps": 10.0, "rcs_m2": 100.0}])
        for command, *flags in (("montecarlo", "--drops", "2"), ("simulate", "--targets", "1")):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 0
            assert out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("experiment,message", [
        ({"custom": {"range_m": [0.0, 0.0]}},
         ": custom.range_m: 0.0 m is nearer than 0.0599584916 m, one wavelength or, for car "
         "and uav, the farthest target height from the station"),
        ({"custom": {"range_m": [300.0, 100.0]}},
         ".experiment.custom.range_m: [low, high] needs low <= high, got [300.0, 100.0]"),
        ({"custom": {"speed_mps": [50.0, 7.0]}}, ".experiment.custom.speed_mps: [low, high]"),
        ({"custom": {"sin_psi_x": [0.5, -0.5]}}, ".experiment.custom.sin_psi_x: [low, high]"),
        ({"scenario": "car", "range_bounds_m": [900.0, 200.0]},
         ".experiment.range_bounds_m: [low, high]"),
        ({"scenario": "car", "azimuth_max_deg": -10.0}, ".experiment.azimuth_max_rad: must be >= 0"),
        ({"scenario": "car", "range_bounds_m": [0.0, 0.0]},
         ": range_bounds_m: 0.0 m is nearer than 10.0 m"),
        # Car targets sit on the ground, 10 m below the station; uav targets
        # up to 90 m above it.
        ({"scenario": "car", "range_bounds_m": [5.0, 5.0]},
         ": range_bounds_m: 5.0 m is nearer than 10.0 m"),
        ({"scenario": "uav", "range_bounds_m": [50.0, 60.0]},
         ": range_bounds_m: 50.0 m is nearer than 90.0 m"),
        ({"scenario": "car", "sweep_axis": "range", "sweep_values_m": [5.0, 200.0]},
         ": sweep_values[0]: 5.0 m is nearer than 10.0 m"),
        # The echoes follow the far-field radar equation.
        ({"custom": {"range_m": [1e-300, 1e-300]}},
         ": custom.range_m: 1e-300 m is nearer than 0.0599584916 m"),
        ({"custom": {"speed_mps": [0.0, -0.0]}},
         ".experiment.custom.speed_mps: [low, high] needs low <= high, got [0.0, -0.0]"),
        # A box whose corner barely reaches into the unit disk: each draw
        # took about 10^15 tries.
        ({"custom": {"sin_psi_x": [0.70710678, 1.0], "sin_psi_y": [0.70710677, 1.0]}},
         ".experiment.custom.sin_psi_x, custom.sin_psi_y: the box [0.70710678, 1.0] x "
         "[0.70710677, 1.0] has less than a thousandth of its area inside the unit disk"),
    ], ids=["custom_range_zero", "custom_range_reversed", "speed_reversed", "sin_x_reversed",
            "car_range_reversed", "car_azimuth_negative", "car_range_zero", "car_below_station",
            "uav_below_heights", "car_range_sweep_below_station", "custom_range_tiny",
            "speed_zero_reversed", "sin_box_sliver"])
    def test_undrawable_targets_fail_before_output_dir(self, tmp_path, capsys, experiment,
                                                       message):
        # Each exited 4 at drop 0, most after the output directory was made
        # (car at [0, 0] with a ZeroDivisionError traceback, exit 1), or
        # hung (the sliver); an alarm in this process bounds a hang.
        cfg = self._desk_without_clutter(tmp_path, "draw", experiment)
        for command, *flags in (("montecarlo", "--drops", "1"), ("simulate", "--targets", "1")):
            out = tmp_path / command
            with _alarm(30):
                code = main([command, "--config", str(cfg), "--out", str(out), *flags])
            assert code == 3
            assert f"{cfg}{message}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("experiment", [
        {"scenario": "car", "range_bounds_m": [10.0, 10.0]},
        {"scenario": "uav", "range_bounds_m": [90.0, 90.0]},
        {"scenario": "car", "sweep_axis": "range", "sweep_values_m": [10.0, 200.0]},
    ], ids=["car", "uav", "car_range_sweep"])
    def test_nearest_range_at_the_height_reach_runs(self, tmp_path, capsys, experiment):
        cfg = self._desk_without_clutter(tmp_path, "reach", experiment)
        assert main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path / "mc"),
                     "--drops", "2"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("section,edit,message", [
        ("radio", {"uplink_distance_m": 0.0},
         "radio.uplink_distance_m must be at least one wavelength (0.0599584916 m)"),
        ("radio", {"uplink_distance_m": 1e-300}, "radio.uplink_distance_m must be at least"),
        ("receiver", {"residual_dc_db": -6166.0}, "receiver.residual_dc_db must be >= 0"),
        # A zero carrier had no wavelength to parse the spacings with (a
        # ZeroDivisionError traceback); 400 dBm is 1e37 W.
        ("radio", {"carrier_freq_ghz": 0.0}, ".radio.carrier_freq_hz must be > 0, got 0.0"),
        ("radio", {"avg_tx_power_dbm": 400.0},
         ".radio.avg_tx_power_dbm: bad value 400.0 (not within ±1e+30)"),
        ("receiver", {"butterworth_cutoff_hz": 0.0}, "receiver.butterworth_cutoff_hz must be > 0"),
        ("receiver", {"butterworth_cutoff_hz": -5.0}, "receiver.butterworth_cutoff_hz must be > 0"),
        ("clutter", {"terrain": "mars_dust"}, "unknown terrain preset 'mars_dust'"),
        ("clutter", {"gtri_a": -1.0}, ": gtri_reflectivity: A must be >= 0"),
        ("clutter", {"gtri_b": 0.5, "gtri_c": -1.0},
         ": gtri_reflectivity: (delta + C) must be >= 0"),
        # An integer B let a negative C load: sigma0 had no bound where
        # delta + C crosses zero, and the run scored no hits (exit 0).
        ("clutter", {"gtri_b": -20.0, "gtri_c": -0.3},
         ": gtri_reflectivity: (delta + C) must be >= 0"),
        ("clutter", {"gtri_d": -1075.0}, ": gtri_reflectivity: D and sigma_h must be >= 0"),
        ("clutter", {"gtri_b": 100.0, "gtri_c": 2.0},
         "at grazing 0 and 90 degrees; it must be at most 1e+30"),
    ], ids=["uplink_distance_zero", "uplink_distance_tiny", "residual_dc_negative",
            "carrier_zero", "power_past_largest", "cutoff_zero", "cutoff_negative",
            "unknown_terrain", "gtri_a_negative", "gtri_fractional_b_negative_c",
            "gtri_integer_b_negative_c", "gtri_d_negative", "reflectivity_past_largest"])
    def test_scene_value_the_run_needs_fails_before_output_dir(self, tmp_path, capsys, section,
                                                               edit, message):
        # The uplink distance, the residual DC and the clutter values failed
        # at drop 0 (the unknown terrain exit 3, the rest exit 4), after the
        # output directory was made; a zero cutoff divided by zero in every
        # cube, and a negative one ran as its magnitude.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"].update(enabled=section == "clutter", area_x_m=60.0, area_y_m=60.0,
                              cell_m=50.0)
        raw.setdefault(section, {}).update(edit)
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        runs = [("montecarlo", "--drops", "1"), ("simulate", "--targets", "1")]
        if section == "clutter":
            runs.append(("clutter-map",))
        for command, *flags in runs:
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 3
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("edit", [{"gtri_b": 400.0, "gtri_c": 10.0},
                                      {"gtri_b": -400.0, "gtri_c": 0.0},
                                      {"gtri_a": 0.0, "gtri_b": -400.0, "gtri_c": 0.0}],
                             ids=["overflow", "divide_by_zero", "zero_times_inf"])
    def test_unbounded_reflectivity_is_refused_without_a_warning(self, tmp_path, capsys, edit):
        # Each printed a RuntimeWarning (overflow, divide by zero, invalid
        # value) before its config error.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"].update(enabled=True, area_x_m=60.0, area_y_m=60.0, cell_m=50.0, **edit)
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "mc"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["montecarlo", "--config", str(cfg), "--out", str(out),
                         "--drops", "1"]) == 3
        assert "at grazing 0 and 90 degrees; it must be at most 1e+30" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [10.0, float("nan")], ids=["ten", "nan"])
    def test_target_sin_psi_past_one_names_the_bound(self, tmp_path, capsys, value):
        # asin refused 10.0 as a "math domain error", and NaN read as "not within ±1e+30".
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["targets"] = [{"range_m": 200.0, "radial_velocity_mps": 10.0, "sin_psi_x": value,
                           "psi_y_rad": 0.0, "rcs_m2": 1.0}]
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["resolution", "--config", str(cfg)]) == 3
        assert (f"targets[0].sin_psi_x: bad value {value!r} (expected |sin ψ| ≤ 1)"
                in capsys.readouterr().err)

    def test_custom_box_partly_outside_disk_parses(self):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["experiment"]["custom"].update(sin_psi_x=[0.5, 2.0], sin_psi_y=[0.8, 0.9])
        _, plan = config_from_dict(raw)
        assert plan.custom.sin_psi_x == (0.5, 2.0)

    def test_integral_float_parses_as_int(self):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["array"]["rx_cols"] = 8.0
        scene_cfg, _ = config_from_dict(raw)
        assert scene_cfg.array.rx_cols == 8 and type(scene_cfg.array.rx_cols) is int

    @pytest.mark.parametrize("cls", [RadioParams, ArrayGeometry, WaveformConfig, ClutterConfig,
                                     ReceiverConfig, Target, CustomRanges, PipelineSpec,
                                     ExperimentPlan, MarsSchedule])
    def test_every_config_field_has_a_converter(self, cls):
        # An annotation the reader cannot convert would otherwise surface as
        # a KeyError at a user's load, reported as a config error.
        for f, annotation in _fields(cls):
            assert callable(_converter(annotation, f"{cls.__name__}.{f.name}"))

    def test_effective_dict_round_trip(self):
        # The effective config of every preset, and of a config that sets
        # every optional key, parses back to the same scene and plan; the
        # preset hashes are pinned so that old manifests keep replaying.
        pinned = {
            "desk_small": "f378aea5351d449767b14a27fffbeafb5e5bc643b57784b081f90db33ec7bd40",
            "table1_car": "4226376d54f9ee010fedd40f84edfdd99eb7e464921a11f9471a5e792b24bf8e",
            "table1_uav": "419dda2f4e38f77261c31a2c219a4fa319de9bef0cb044061d9e116b4db24843",
            "every_key": "9b5ad26d8c9b6288844f67552d66459724ce5acf8536e0e383aae9d4ad9ce697",
        }
        configs = {name: parse_config(preset_path(name)) for name in pinned if name != "every_key"}
        configs["every_key"] = config_from_dict(yaml.load(EVERY_KEY_CONFIG, _ConfigLoader),
                                                source="every")
        scene_cfg = configs["every_key"][0]
        sections = (scene_cfg.radio, scene_cfg.array, scene_cfg.waveform, scene_cfg.clutter,
                    scene_cfg.receiver, *scene_cfg.targets)
        assert all(v is not None for section in sections for v in asdict(section).values())
        for name, (scene_cfg, plan) in configs.items():
            effective = to_dict(scene_cfg)
            effective["experiment"] = to_dict(plan)
            back_scene, back_plan = config_from_dict(effective, source="round")
            assert back_scene == scene_cfg, name
            assert back_plan == plan, name
            assert config_hash(effective) == pinned[name], name

    def test_readme_config_block_shows_true_defaults(self, tmp_path, capsys):
        # The README's schema block is a working config, and every optional
        # value it shows is the default: reduced to the keys it marks
        # "required", it gives the same scene and plan.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"## Config schema \(YAML\).*?```yaml\n(.*?)```", readme, re.S)[1]
        raw = yaml.load(block, _ConfigLoader)    # as parse_config reads it
        required = set(re.findall(r"^  (\w+):.*#\s*required\b", block, re.M))
        reduced = {section: {k: v for k, v in body.items() if k in required}
                   for section, body in raw.items() if isinstance(body, dict)}
        assert set(reduced["radio"]) | set(reduced["array"]) == required
        full_scene, full_plan = config_from_dict(raw)
        bare_scene, bare_plan = config_from_dict(reduced)
        assert to_dict(full_scene) == to_dict(bare_scene)
        assert to_dict(full_plan) == to_dict(bare_plan)
        for section in ("radio", "array"):
            for key in reduced[section]:
                body = {k: v for k, v in reduced[section].items() if k != key}
                with pytest.raises(ConfigError, match="missing required key"):
                    config_from_dict({**reduced, section: body})
        # The defaults run together: the default pipeline (comb, STHP) gets
        # the two chirp occasions it needs from the default waveform.
        cfg = tmp_path / "readme.yaml"
        cfg.write_text(block)
        assert main(["resolution", "--config", str(cfg)]) == 0
        assert main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path / "mc"),
                     "--drops", "1"]) == 0

    def test_config_hash_key_order_invariant(self):
        a = {"radio": {"x": 1.0, "y": 2.0}, "seed": 3}
        b = {"seed": 3, "radio": {"y": 2.0, "x": 1.0}}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"radio": {"x": 1.0, "y": 2.5}, "seed": 3})


class TestCubeFormat:
    def _cube(self):
        scene = make_scene(radio=make_radio(power_w=10.0))
        scene = replace(scene, targets=(on_grid_target(scene),))
        sched = schedule_for(scene, PipelineSpec(structure="comb"), 1)
        return scene, synthesize_if_cube(scene, sched)

    def test_round_trip_exact(self, tmp_path):
        scene, cube = self._cube()
        path = tmp_path / "c.bin"
        write_cube(path, cube)
        back = read_cube(path)
        np.testing.assert_array_equal(back.chirp_branch, cube.chirp_branch)
        np.testing.assert_array_equal(back.tone_branch_compressed,
                                      cube.tone_branch_compressed)
        assert back.sample_rate_hz == cube.sample_rate_hz
        assert to_dict(back.schedule) == to_dict(cube.schedule)

    def test_estimator_accepts_file_cube(self, tmp_path):
        scene, cube = self._cube()
        path = tmp_path / "c.bin"
        write_cube(path, cube)
        back = read_cube(path)
        pipe = PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf")
        direct = run_pipeline(front_end(cube, scene), scene, pipe, 1)[0]
        loaded = run_pipeline(front_end(back, scene), scene, pipe, 1)[0]
        assert direct == loaded

    @pytest.mark.parametrize("va", [False, True])
    def test_file_bytes_keep_element_major_layout(self, tmp_path, va):
        # The file is version 1 as documented in the README: the chirp
        # branch element-major, (L, symbols * N), as the per-symbol oracle
        # concatenates it; the cube's symbol-major branch is transposed on
        # the way out and back.
        scene = make_scene(radio=make_radio(n=64, power_w=10.0),
                           arr=make_array(cols=2, rows=3, tx=2, va=va),
                           indices=(1, 5) if va else (1, 6, 15))
        scene = replace(scene, targets=(on_grid_target(scene),))
        sched = schedule_for(scene, PipelineSpec(structure="comb", va=va), 1)
        cube = synthesize_if_cube(scene, sched, draws=DropDraws(9))
        path = tmp_path / "c.bin"
        write_cube(path, cube)
        chirp = oracles.chirp_branch_per_symbol(scene, sched, seed=9)
        meta = json.dumps({"schedule": to_dict(sched)}).encode("utf-8")
        want = (b"MARSCUB1"
                + struct.pack("<IIIII", 1, 6, sched.num_chirp_symbols, 64, sched.num_tone_pris)
                + struct.pack("<d", cube.sample_rate_hz) + struct.pack("<I", len(meta)) + meta
                + chirp.astype("<c16").tobytes()
                + cube.tone_branch_compressed.astype("<c16").tobytes())
        assert path.read_bytes() == want
        back = read_cube(path)
        assert back.chirp_branch.flags.c_contiguous
        assert np.array_equal(back.chirp_branch.view(float), cube.chirp_branch.view(float))

    @staticmethod
    def _with_header(path, header):
        """The cube file at ``path`` with its JSON header replaced."""
        data = path.read_bytes()
        (old,) = struct.unpack("<I", data[36:40])
        meta = json.dumps(header).encode("utf-8")
        path.write_bytes(data[:36] + struct.pack("<I", len(meta)) + meta + data[40 + old:])

    def test_reads_a_cube_whose_schedule_has_a_null_fa_seed(self, tmp_path):
        # Cubes written while the schedule serialized itself carry
        # "fa_seed": null; they read back as written.
        scene, cube = self._cube()
        path = tmp_path / "c.bin"
        write_cube(path, cube)
        self._with_header(path, {"schedule": {**to_dict(cube.schedule), "fa_seed": None}})
        back = read_cube(path)
        np.testing.assert_array_equal(back.chirp_branch, cube.chirp_branch)
        np.testing.assert_array_equal(back.tone_branch_compressed,
                                      cube.tone_branch_compressed)
        assert back.schedule.fa_seed is None
        assert to_dict(back.schedule) == to_dict(cube.schedule)

    @pytest.mark.parametrize("edit,message", [
        (lambda s: {"schedule": {**s, "fa_sed": 3}}, "schedule: unknown keys ['fa_sed']"),
        (lambda s: {"schedule": {k: v for k, v in s.items() if k != "va_slots"}},
         "schedule: missing required key va_slots"),
        (lambda s: {"schedule": {**s, "num_pri": 64.5}}, "schedule.num_pri: bad value 64.5"),
        (lambda s: {"schedule": {**s, "va_slots": [[[1, 0]]]}},
         "schedule.va_slots: bad value [[[1, 0]]] (expected 3 items)"),
        (lambda s: {"schedule": {**s, "per_symbol_power_w": "high"}},
         "schedule.per_symbol_power_w: bad value 'high'"),
        (lambda s: {"schedule": s, "version": 2}, "header: unknown keys ['version']"),
        (lambda s: {}, "header: missing required key schedule"),
        (lambda s: {"schedule": [list(pair) for pair in s.items()]},
         "header.schedule: bad value [['num_pri', "),
    ], ids=["unknown", "missing", "fraction", "pair", "string", "header-unknown",
            "header-missing", "header-pairs"])
    def test_schedule_fails_closed(self, tmp_path, edit, message):
        # An unknown key was ignored and a missing one raised KeyError.
        _, cube = self._cube()
        path = tmp_path / "c.bin"
        write_cube(path, cube)
        self._with_header(path, edit(to_dict(cube.schedule)))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_cube(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACUBE" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_cube(path)

    @pytest.mark.parametrize("damage,message", [
        # Cut inside the fixed header: struct.error, not a ValueError.
        (lambda data: data[:20], "not a cube file (20 bytes"),
        # Cut inside the payload: numpy's buffer error, naming no file.
        (lambda data: data[:len(data) // 2], "bytes, but its header gives"),
        # Trailing bytes were read past silently.
        (lambda data: data + b"\0\0", "bytes, but its header gives"),
        # One JSON header byte edited in place, the length unchanged: a
        # UnicodeDecodeError and a JSONDecodeError, naming no file.
        (lambda data: data[:41] + b"\xff" + data[42:], "damaged header: 'utf-8' codec"),
        (lambda data: data[:41] + b"x" + data[42:], "damaged header: Expecting property name"),
    ], ids=["header-cut", "payload-cut", "trailing", "header-not-utf8", "header-not-json"])
    def test_damaged_file_fails_closed(self, tmp_path, damage, message):
        _, cube = self._cube()
        path = tmp_path / "c.bin"
        write_cube(path, cube)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            read_cube(path)

    @pytest.mark.parametrize("field", ["symbols", "tone"])
    def test_header_counts_must_match_the_schedule(self, tmp_path, field):
        # A file of consistent length whose header counts one chirp symbol
        # of symbols * N samples, or one tone PRI fewer, than its schedule.
        _, cube = self._cube()
        path = tmp_path / "c.bin"
        write_cube(path, cube)
        data = path.read_bytes()
        l, n_sym, n, m_tone = struct.unpack("<IIII", data[12:28])
        if field == "symbols":
            counts = (l, 1, n_sym * n, m_tone)
        else:
            counts, data = (l, n_sym, n, m_tone - 1), data[:-16 * l]
        path.write_bytes(data[:12] + struct.pack("<IIII", *counts) + data[28:])
        with pytest.raises(ValueError, match=re.escape(f"{path}: header counts ")):
            read_cube(path)


class TestCsv:
    def test_cell_formats(self):
        assert format_cell(None) == ""
        assert format_cell(True) == "1"
        assert format_cell(3) == "3"
        assert format_cell(0.5) == format(0.5, ".17e")
        assert format_cell("comb") == "comb"

    def test_write_csv_deterministic(self, tmp_path):
        rows = [{"a": 1, "b": 0.1}, {"a": 2, "b": None}]
        p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
        write_csv(p1, ["a", "b"], rows)
        write_csv(p2, ["a", "b"], rows)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[2] == "2,"


class TestCli:
    def test_drop_failure_names_what_replays_it(self, tmp_path, capsys, monkeypatch):
        # A pipeline that raises inside a drop is a runtime error (exit 4)
        # naming the drop, its sweep value, its seed and the pipeline.
        def broken(*args, **kwargs):
            raise RuntimeError("injected failure")
        monkeypatch.setattr(harness, "run_pipeline", broken)
        raw = desk_raw()
        raw["clutter"]["enabled"] = False
        cfg = tmp_path / "desk.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        _, plan = parse_config(cfg)
        code = main(["montecarlo", "--config", str(cfg), "--drops", "2",
                     "--out", str(tmp_path / "mc")])
        assert code == 4
        seed = derive_seed(plan.seed, "drop", 0, "None")
        assert capsys.readouterr().err == (
            f"runtime error: drop 0 (sweep value None, seed {seed}, pipeline "
            f"{plan.pipelines[0].tag}): injected failure\n")

    def test_target_at_a_blind_speed_is_a_miss(self, tmp_path):
        # Occasions 5 PRIs apart make the temporal steering the static-clutter
        # signature at multiples of 2/5 of v_max = 60 m/s. MUSIC refines drop
        # 6's target onto 47.97 m/s, which STHP's zero-forcing nulls: the run
        # ended there in exit 4, with no output directory.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["waveform"]["chirp_pri_indices"] = [1, 6]
        raw["clutter"]["enabled"] = False
        raw["experiment"]["pipelines"] = [{"structure": "comb", "suppressor": "sthp",
                                           "eps_mode": "inf", "refinement": "music"}]
        cfg = tmp_path / "blind.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(cfg), "--drops", "10", "--seed", "1",
                     "--out", str(out)]) == 0
        with open(out / "records.csv", newline="") as f:
            rows = {int(row["drop"]): row for row in csv.DictReader(f)}
        assert sorted(rows) == list(range(10))
        assert (rows[6]["est_velocity_mps"], rows[6]["hit"]) == ("", "0")
        assert abs(float(rows[6]["truth_velocity_mps"]) - 48.0) < 0.1

    @pytest.mark.parametrize("argv,schedules", [
        (["montecarlo", "--preset", "desk_small", "--drops", "3"], 2),
        (["montecarlo", "--preset", "table1_car", "--drops", "1"], 5),
        (["simulate", "--preset", "desk_small", "--targets", "1"], 2),
        (["simulate", "--preset", "table1_car", "--targets", "1"], 5),
        (["waveform", "--preset", "table1_car"], 2),
    ], ids=["montecarlo-desk", "montecarlo-car", "simulate-desk", "simulate-car", "waveform"])
    def test_rules_applied_once_and_schedules_built_once_per_point(self, tmp_path, monkeypatch,
                                                                   argv, schedules):
        # The waveform section's schedule, and one per pipeline group and
        # sweep point (one group; desk_small has one point, table1_car four);
        # waveform applies the plan's rules, which build each group's at the
        # first point, and prints the section's schedule it loaded.
        calls = {"plan_groups": 0, "build_schedule": 0}
        for module in (cli, harness):
            for name in calls:
                def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert calls == {"plan_groups": 1, "build_schedule": schedules}

    def test_seed_override_reaches_scene_and_plan(self, tmp_path):
        out = tmp_path / "mc"
        assert main(["montecarlo", "--preset", "desk_small", "--drops", "1", "--seed", "5",
                     "--out", str(out)]) == 0
        manifest = read_manifest(out / "manifest.json")
        assert manifest.master_seed == 5
        assert manifest.effective_config["seed"] == 5
        assert manifest.effective_config["experiment"]["seed"] == 5

    def test_resolution_prints_and_writes(self, tmp_path, capsys):
        code = main(["resolution", "--preset", "table1_car", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "range_res_m" in out
        csv = (tmp_path / "resolution.csv").read_text().splitlines()
        row = dict(zip(("quantity", "no_va", "va"), csv[1].split(",")))
        assert float(row["no_va"]) == pytest.approx(1.22, abs=0.005)
        manifest = read_manifest(tmp_path / "manifest.json")
        assert manifest.outputs[0]["path"] == "resolution.csv"

    def test_waveform_symbol_dump(self, tmp_path, capsys):
        code = main(["waveform", "--preset", "desk_small", "--out", str(tmp_path),
                     "--symbol", "1"])
        assert code == 0
        assert "overhead_fraction" in capsys.readouterr().out
        sym = (tmp_path / "symbol_1.csv").read_text().splitlines()
        assert sym[0] == "index,re,im"
        assert len(sym) == 1 + 512
        sched = yaml.safe_load((tmp_path / "schedule.yaml").read_text())
        assert sched["chirp_pri_indices"] == [1, 6, 15]

    @pytest.mark.parametrize("symbol", ["999", "-1"])
    def test_waveform_symbol_outside_the_cpi_fails_before_output_dir(self, tmp_path, capsys,
                                                                    symbol):
        # With --out each used to exit 4 after writing schedule.yaml and
        # overhead.txt, and without it exit 0.
        out = tmp_path / "w"
        for flags in (["--out", str(out)], []):
            assert main(["waveform", "--preset", "desk_small", "--symbol", symbol, *flags]) == 3
            assert f"--symbol {symbol} is outside the PRIs 0..63" in capsys.readouterr().err
        assert not out.exists()

    def test_waveform_fa_hops_as_the_run_does(self, tmp_path):
        # The FA schedule `waveform` writes is the one every FA pipeline of
        # the run uses: the same subcarriers, from the same seed.
        cfg = tmp_path / "fa.yaml"
        cfg.write_text(yaml.safe_dump(desk_raw(structure="fa")))
        assert main(["waveform", "--config", str(cfg), "--out", str(tmp_path / "w"),
                     "--symbol", "3"]) == 0
        written = yaml.safe_load((tmp_path / "w" / "schedule.yaml").read_text())
        scene_cfg, plan = parse_config(cfg)
        scene = validate_scene(scene_cfg)
        used = schedule_for(scene, PipelineSpec(structure="fa", suppressor="mf"), plan.seed)
        assert written["fa_seed"] == used.fa_seed
        assert written["fa_subcarrier_indices"] == used.fa_subcarrier_indices.tolist()
        samples = symbol_time_samples(used, scene.radio, 3)
        rows = (tmp_path / "w" / "symbol_3.csv").read_text().splitlines()[1:]
        assert [tuple(map(float, row.split(",")[1:])) for row in rows] == \
            [(s.real, s.imag) for s in samples]

    def test_clutter_map_prints_build_cpus(self, tmp_path, capsys, monkeypatch):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"].update(area_x_m=60.0, area_y_m=30.0)
        cfg = tmp_path / "small.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "cm"
        # The CPU set the build reads, as under `taskset -c 0`, and one of 64
        # CPUs, which the build caps at two.
        for cpu_set, cpus in (({0}, "1"), (set(range(64)), "2")):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpu_set, raising=False)
            assert main(["clutter-map", "--config", str(cfg), "--out", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[-2].startswith("build_seconds ")
            assert lines[-1].split() == ["build_cpus", cpus]
        # Stdout only: the manifest holds the build time, not the CPU count.
        manifest = (out / "manifest.json").read_text()
        assert "build_clutter_map" in manifest and "cpus" not in manifest

    def test_unknown_preset_is_config_error(self, capsys):
        assert main(["resolution", "--preset", "nope"]) == 3
        assert "unknown preset" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        assert main(["resolution"]) == 2
        assert main(["not-a-command"]) == 2

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["waveform"]["chirp_pri_indices"] = [0, 3]
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["resolution", "--config", str(cfg)]) == 3
        assert "index 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["montecarlo", "simulate"])
    @pytest.mark.parametrize("waveform,message", BAD_DESK_WAVEFORMS)
    def test_bad_schedule_fails_before_output_dir(self, tmp_path, capsys, command,
                                                  waveform, message):
        # Each config parses and validates, and one of its pipeline groups'
        # schedules cannot be built: a config error naming that pipeline.
        raw = desk_raw(**waveform)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        tag = config_from_dict(raw)[1].pipelines[0].tag
        out = tmp_path / command
        targets = ["--targets", "1"] if command == "simulate" else []
        assert main([command, "--config", str(cfg), "--out", str(out), *targets]) == 3
        err = capsys.readouterr().err
        assert f"{cfg}: pipelines[0] {tag}:" in err and message in err
        assert not out.exists()

    def test_simulate_default_plan_schedule_checked(self, tmp_path, capsys):
        # Without an experiment section simulate runs the default comb-STHP
        # pipeline, which W = 1 cannot feed; commands with no plan still run.
        raw = desk_raw(chirp_pri_indices=[1])
        del raw["experiment"]
        cfg = tmp_path / "w1.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--targets", "1"]) == 3
        assert "pipelines[0] comb-sthp-inf-fft: sthp needs W >= 2" in capsys.readouterr().err
        assert not out.exists()
        assert main(["resolution", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("waveform,va,message", [
        ({"structure": "lshape", "chirp_pri_indices": [1, 6]}, False, "exactly one"),
        ({"structure": "fa"}, True, "virtual aperture"),
    ])
    def test_scene_waveform_schedule_checked_at_load(self, tmp_path, capsys, waveform, va,
                                                     message):
        # The waveform section's own schedule fails while every pipeline
        # group's builds: still a config error for any command.
        raw = desk_raw(**waveform)
        raw["array"]["va_enabled"] = va
        cfg = tmp_path / "scene.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        for command in ("resolution", "waveform"):
            assert main([command, "--config", str(cfg)]) == 3
            assert message in capsys.readouterr().err

    def _fast_config(self, tmp_path, drops=2):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"]["enabled"] = False
        raw["experiment"]["num_drops"] = drops
        cfg = tmp_path / "fast.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        return cfg

    def test_simulate_writes_cube_and_estimates(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path)
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--targets", "1", "--dump-cube", "--dump-spectra"])
        assert code == 0
        est = (out / "estimates.csv").read_text().splitlines()
        assert len(est) == 2
        cube = read_cube(out / "cube_comb-sthp-inf-fft-va.bin")
        assert cube.num_elements == 16 and cube.chirp_branch.shape[1] == 16
        manifest = read_manifest(out / "manifest.json")
        names = {o["path"] for o in manifest.outputs}
        assert "estimates.csv" in names and "truth.csv" in names
        assert any(n.startswith("range_spectrum") for n in names)

    def test_simulate_runs_the_scored_drop(self, tmp_path, capsys):
        # simulate --drop d and montecarlo share one drop path: the same
        # targets, cubes and estimates, down to the last printed digit.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"].update(area_x_m=200.0, area_y_m=100.0)
        pipe = {"structure": "comb", "suppressor": "sthp", "eps_mode": "inf",
                "refinement": "fft", "va": False}
        raw["experiment"].update(num_drops=3, target_count=1, pipelines=[
            {**pipe, "va": True}, {**pipe, "structure": "fa", "suppressor": "mf"},
            {**pipe, "refinement": "music"}, {**pipe, "suppressor": "mf"}])
        cfg = tmp_path / "four.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        sim, mc = tmp_path / "sim", tmp_path / "mc"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim),
                     "--targets", "1", "--drop", "2"]) == 0
        assert main(["montecarlo", "--config", str(cfg), "--out", str(mc)]) == 0

        def rows(path):
            lines = path.read_text().splitlines()
            return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]

        simulated = [(r["pipeline"], r["range_m"], r["velocity_mps"], r["psi_x_rad"])
                     for r in rows(sim / "estimates.csv")]
        scored = [(r["pipeline"], r["est_range_m"], r["est_velocity_mps"], r["est_psi_x_rad"])
                  for r in rows(mc / "records.csv") if r["drop"] == "2"]
        assert len(simulated) == 4
        assert sorted(simulated) == sorted(scored)
        # Each row's tags are its pipeline's: structure-method-eps_mode-refinement[-va].
        tags = [(r["pipeline"], r["method"], r["eps_mode"], r["refinement"])
                for r in rows(sim / "estimates.csv")]
        assert all(p.split("-")[1:4] == [m, e, f] for p, m, e, f in tags)
        assert {t[1] for t in tags} == {"sthp", "mf"} and {t[3] for t in tags} == {"fft", "music"}

    def test_simulate_runs_the_scored_drop_at_every_sweep_point(self, tmp_path, capsys):
        # With --targets on a swept plan, simulate draws drop d at each sweep
        # point, as montecarlo scores it, even where the point is the
        # scene's own power.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"]["enabled"] = False
        raw["radio"]["avg_tx_power_dbm"] = -30.0
        raw["experiment"].update(num_drops=6, sweep_values_dbm=[-30.0, -25.0], pipelines=[
            {"structure": "comb", "suppressor": "sthp", "eps_mode": "inf",
             "refinement": "music"}])
        cfg = tmp_path / "swept.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        mc = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(mc)]) == 0

        def rows(path):
            with path.open(newline="") as f:
                return list(csv.DictReader(f))

        records = rows(mc / "records.csv")
        for drop in range(6):
            sim = tmp_path / f"sim{drop}"
            assert main(["simulate", "--config", str(cfg), "--out", str(sim),
                         "--targets", "1", "--drop", str(drop), "--dump-spectra"]) == 0
            simulated = [(r["sweep_value"], r["range_m"], r["velocity_mps"], r["psi_x_rad"])
                         for r in rows(sim / "estimates.csv")]
            scored = [(r["sweep_value"], r["est_range_m"], r["est_velocity_mps"],
                       r["est_psi_x_rad"]) for r in records if r["drop"] == str(drop)]
            truth = [(r["sweep_value"], r["range_m"], r["radial_velocity_mps"])
                     for r in rows(sim / "truth.csv")]
            assert len(simulated) == 2 and simulated == scored
            assert truth == [(r["sweep_value"], r["truth_range_m"], r["truth_velocity_mps"])
                             for r in records if r["drop"] == str(drop)]
        names = {o["path"] for o in read_manifest(sim / "manifest.json").outputs}
        assert {"angle_velocity_map_comb-sthp-inf-music_sweep0.csv",
                "angle_velocity_map_comb-sthp-inf-music_sweep1.csv"} <= names

    def test_simulate_table1_cube_header_dims(self, tmp_path, capsys):
        # Table-I geometry: 64 elements, 4 chirp symbols, 2048 samples each.
        raw = yaml.safe_load(preset_path("table1_car").read_text())
        raw["clutter"]["enabled"] = False
        raw["experiment"]["num_drops"] = 1
        cfg = tmp_path / "t1.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--targets", "1", "--dump-cube"])
        assert code == 0
        cube = read_cube(out / "cube_comb-sthp-inf-fft_sweep0.bin")
        assert cube.chirp_branch.shape == (4, 64, 2048)
        assert cube.tone_branch_compressed.shape == (64, 496)
        assert cube.schedule.num_chirp_occasions == 4
        assert cube.sample_rate_hz == pytest.approx(122.88e6)

    def test_montecarlo_and_replay_byte_identical(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path)
        out1 = tmp_path / "run1"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out1)]) == 0
        out2 = tmp_path / "run2"
        code = main(["replay", "--manifest", str(out1 / "manifest.json"),
                     "--out", str(out2)])
        assert code == 0
        for name in ("curves.csv", "records.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_workers_stay_out_of_the_config_hash(self, tmp_path, capsys):
        # --workers sets how the drops run, not what they compute: runs with
        # one and two workers write the same outputs under the same config
        # hash, and the command keeps the option. A manifest whose effective
        # config still carries experiment.workers replays ok.
        cfg = self._fast_config(tmp_path)
        manifests = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}"
            assert main(["montecarlo", "--config", str(cfg), "--out", str(out),
                         "--workers", str(workers)]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        one, two = manifests
        assert "workers" not in one["effective_config"]["experiment"]
        assert one["effective_config"] == two["effective_config"]
        assert one["config_hash"] == two["config_hash"]
        assert one["outputs"] == two["outputs"]
        assert two["command"][-2:] == ["--workers", "2"]
        two["effective_config"]["experiment"]["workers"] = 2
        old = tmp_path / "old.json"
        old.write_text(json.dumps(two))
        capsys.readouterr()
        assert main(["replay", "--manifest", str(old), "--out", str(tmp_path / "again")]) == 0
        report = capsys.readouterr().out
        for name in ("curves.csv", "records.csv"):
            assert re.search(rf"^{re.escape(name)}\s+ok$", report, re.MULTILINE)

    def test_montecarlo_timings_unhashed_and_replay_identical(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path, drops=3)
        raw = yaml.safe_load(cfg.read_text())
        raw["experiment"]["sweep_values"] = [0.5, 1.0]
        cfg.write_text(yaml.safe_dump(raw))
        out1 = tmp_path / "run1"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out1)]) == 0
        manifest = read_manifest(out1 / "manifest.json")
        assert sorted(o["path"] for o in manifest.outputs) == ["curves.csv", "records.csv"]
        lines = (out1 / "timings.csv").read_text().splitlines()
        assert lines[0] == "sweep_value,drop,seconds"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3 * 2
        assert {(float(v), int(d)) for v, d, _ in rows} == {
            (v, d) for v in (0.5, 1.0) for d in range(3)}
        assert all(float(sec) > 0 for _, _, sec in rows)
        capsys.readouterr()
        code = main(["replay", "--manifest", str(out1 / "manifest.json"),
                     "--out", str(tmp_path / "run2")])
        assert code == 0
        report = capsys.readouterr().out
        for name in ("curves.csv", "records.csv"):
            assert re.search(rf"^{re.escape(name)}\s+ok$", report, re.MULTILINE)

    def test_scale_full_raises_drop_floor_but_yields_to_override(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path)
        out = tmp_path / "scaled"
        # --drops wins over the --scale floor, keeping the smoke run cheap;
        # the flag must still be recorded for replay.
        code = main(["montecarlo", "--config", str(cfg), "--out", str(out),
                     "--scale", "full", "--drops", "2"])
        assert code == 0
        manifest = read_manifest(out / "manifest.json")
        assert "--scale" in manifest.command and "full" in manifest.command
        records = (out / "records.csv").read_text().splitlines()
        assert len(records) == 1 + 2

    @staticmethod
    def _records_of_drop(run, drop):
        """records.csv's header and its lines of this drop, as one text."""
        lines = (run / "records.csv").read_text().splitlines(keepends=True)
        return [lines[0]] + [line for line in lines[1:] if line.split(",")[1] == str(drop)]

    def test_replay_single_drop(self, tmp_path, capsys):
        # replay --drop K writes the run's records of drop K, one sweep point
        # after another, in the order montecarlo wrote them.
        cfg = self._fast_config(tmp_path)
        raw = yaml.safe_load(cfg.read_text())
        raw["experiment"].update(sweep_axis="tx_power", sweep_values_dbm=[-30.0, 10.0])
        cfg.write_text(yaml.safe_dump(raw))
        out1 = tmp_path / "run1"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out1)]) == 0
        out2 = tmp_path / "drop"
        code = main(["replay", "--manifest", str(out1 / "manifest.json"),
                     "--out", str(out2), "--drop", "1"])
        assert code == 0
        want = self._records_of_drop(out1, 1)
        assert len(want) == 1 + 2
        assert [float(line.split(",")[2]) for line in want[1:]] == pytest.approx([1e-6, 1e-2])
        assert (out2 / "drop_1_records.csv").read_text() == "".join(want)

    def test_replay_drop_outside_the_run_fails_before_output_dir(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path)
        out1 = tmp_path / "run1"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out1)]) == 0
        capsys.readouterr()
        for drop in ("-1", "2"):
            out2 = tmp_path / f"drop{drop}"
            code = main(["replay", "--manifest", str(out1 / "manifest.json"),
                         "--out", str(out2), "--drop", drop])
            assert code == 3
            err = capsys.readouterr().err
            assert f"manifest, --drop {drop}: drop {drop} is not a drop of this run, " \
                "which has 2 drops (0 to 1)" in err
            assert not out2.exists()

    def test_replay_drop_of_a_zero_drop_run_names_no_range(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["montecarlo", "--config", str(self._fast_config(tmp_path)),
                     "--out", str(run), "--drops", "0"]) == 0
        capsys.readouterr()
        out = tmp_path / "drop"
        assert main(["replay", "--manifest", str(run / "manifest.json"), "--out", str(out),
                     "--drop", "0"]) == 3
        assert capsys.readouterr().err.endswith("which has 0 drops\n")
        assert not out.exists()

    @pytest.mark.parametrize("own_targets", [False, True])
    def test_simulate_negative_drop_fails_before_output_dir(self, tmp_path, capsys,
                                                            own_targets):
        # Each used to exit 0 and write a drop no run has; an index past the
        # plan's drops stays allowed, since montecarlo --drops reaches it.
        raw = yaml.safe_load(self._fast_config(tmp_path).read_text())
        flags = ["--targets", "1"]
        if own_targets:
            raw["targets"] = [{"range_m": 200.0, "radial_velocity_mps": 10.0,
                               "psi_x_rad": 0.1, "psi_y_rad": 0.0, "rcs_m2": 1.0}]
            flags = []
        cfg = tmp_path / "sim.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--drop", "-3",
                     *flags]) == 3
        assert "--drop -3: a drop index is at least 0" in capsys.readouterr().err
        assert not out.exists()
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--drop", "5",
                     *flags]) == 0

    @pytest.mark.parametrize("section,edit,message", [
        ("waveform", {"structure": "lshape"}, "lshape requires exactly one chirp occasion"),
        ("clutter", {"gtri_b": 100.0, "gtri_c": 2.0},
         "at grazing 0 and 90 degrees; it must be at most 1e+30"),
    ], ids=["lshape_three_occasions", "reflectivity_past_largest"])
    def test_replay_drop_applies_the_load_rules(self, tmp_path, capsys, section, edit,
                                                message):
        # A manifest's config meets every rule a config file meets: replay
        # --drop ran both edits, which montecarlo refuses at load.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"].update(area_x_m=60.0, area_y_m=30.0)
        cfg = tmp_path / "small.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        run = tmp_path / "run"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(run), "--drops", "1"]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["effective_config"][section].update(edit)
        bad = tmp_path / "edited.json"
        bad.write_text(json.dumps(manifest))
        (tmp_path / "edited.yaml").write_text(yaml.safe_dump(manifest["effective_config"]))
        capsys.readouterr()
        assert main(["montecarlo", "--config", str(tmp_path / "edited.yaml"),
                     "--out", str(tmp_path / "mc")]) == 3
        assert message in capsys.readouterr().err
        out = tmp_path / "drop"
        assert main(["replay", "--manifest", str(bad), "--out", str(out), "--drop", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: manifest: ") and message in err
        assert not out.exists() and not (tmp_path / "mc").exists()

    @pytest.mark.parametrize("argv", [
        ["resolution"], ["waveform"], ["clutter-map"],
        ["simulate", "--targets", "1", "--dump-cube", "--dump-spectra"],
    ], ids=["resolution", "waveform", "clutter-map", "simulate"])
    def test_replay_drop_of_a_run_without_drops_fails_before_output_dir(self, tmp_path,
                                                                       capsys, argv):
        # Only a montecarlo run has drops and a records.csv: --drop of any
        # other manifest, even one whose config has an experiment section,
        # is a config error before the output directory is made.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"].update(area_x_m=60.0, area_y_m=30.0)
        cfg = tmp_path / "small.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        run = tmp_path / "run"
        assert main(argv + ["--config", str(cfg), "--out", str(run)]) == 0
        capsys.readouterr()
        out = tmp_path / "drop"
        assert main(["replay", "--manifest", str(run / "manifest.json"), "--out", str(out),
                     "--drop", "3"]) == 3
        assert f"the manifest is of a {argv[0]} run" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case, message", [
        ("clutter-map", "clutter disabled in config; nothing to build"),
        ("simulate", "no targets: give a targets section or --targets K"),
        ("montecarlo", "config has no experiment section"),
        ("replay-resolution",
         "--drop replays a drop of a montecarlo run; the manifest is of a resolution run"),
        ("replay-no-plan", "manifest has no experiment plan to replay a drop from"),
    ])
    def test_every_refusal_goes_through_main(self, tmp_path, capsys, case, message):
        # A command's own refusal is a ConfigError that main prints with its
        # prefix: exit 3, before the output directory is made.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"].update(area_x_m=60.0, area_y_m=30.0, enabled=case != "clutter-map")
        if case == "montecarlo":
            del raw["experiment"]
        cfg = tmp_path / "small.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        argv = [case, "--config", str(cfg)]
        if case.startswith("replay"):
            run, path = tmp_path / "run", tmp_path / "run" / "manifest.json"
            command = ["resolution"] if case == "replay-resolution" else ["montecarlo",
                                                                          "--drops", "0"]
            assert main([*command, "--config", str(cfg), "--out", str(run)]) == 0
            if case == "replay-no-plan":
                manifest = json.loads(path.read_text())
                del manifest["effective_config"]["experiment"]
                path.write_text(json.dumps(manifest))
            argv = ["replay", "--manifest", str(path), "--drop", "0"]
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_replay_single_drop_runs_every_sweep_point(self, tmp_path, capsys):
        # The drop seed and the fixed target range both depend on the sweep
        # value, so drop K is replayed at each point, as montecarlo ran it.
        cfg = self._fast_config(tmp_path)
        raw = yaml.safe_load(cfg.read_text())
        raw["experiment"].update(sweep_axis="range", sweep_values_m=[150.0, 300.0])
        cfg.write_text(yaml.safe_dump(raw))
        out1 = tmp_path / "run1"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out1)]) == 0
        out2 = tmp_path / "drop"
        code = main(["replay", "--manifest", str(out1 / "manifest.json"),
                     "--out", str(out2), "--drop", "1"])
        assert code == 0
        want = self._records_of_drop(out1, 1)
        assert len(want) == 1 + 2
        assert (out2 / "drop_1_records.csv").read_text() == "".join(want)

    def test_montecarlo_zero_drops_writes_the_records_header(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path)
        none, one = tmp_path / "none", tmp_path / "one"
        for out, drops in ((none, "0"), (one, "1")):
            assert main(["montecarlo", "--config", str(cfg), "--out", str(out),
                         "--drops", drops]) == 0
        header = (one / "records.csv").read_text().splitlines(keepends=True)[0]
        assert len(header.split(",")) == 16
        assert (none / "records.csv").read_text() == header

    @pytest.mark.parametrize("argv, legacy", [
        (["resolution"], []),
        (["waveform", "--symbol", "3"], []),
        (["clutter-map"], []),
        (["simulate", "--drop", "2", "--targets", "1", "--dump-cube", "--dump-spectra"], []),
        # simulate once recorded its default --drop 0; such manifests replay.
        (["simulate", "--targets", "1"], ["--drop", "0"]),
        (["montecarlo", "--scale", "full", "--drops", "2", "--workers", "1"], []),
    ], ids=["resolution", "waveform", "clutter-map", "simulate", "simulate-drop-0",
            "montecarlo"])
    def test_manifest_command_round_trip(self, tmp_path, capsys, argv, legacy):
        # The manifest records each option given, and a valid manifest of
        # each command replays every output.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"].update(area_x_m=60.0, area_y_m=30.0)
        cfg = tmp_path / "small.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        run = tmp_path / "run"
        assert main(argv + ["--config", str(cfg), "--out", str(run)]) == 0
        path = run / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["command"] == argv
        manifest["command"][1:1] = legacy
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", "--manifest", str(path), "--out", str(tmp_path / "again")]) == 0
        report = capsys.readouterr().out
        assert manifest["outputs"]
        for entry in manifest["outputs"]:
            assert re.search(rf"^{re.escape(entry['path'])}\s+ok$", report, re.MULTILINE)

    # Each message names the field at fault; the manifest is at bad.json.
    @pytest.mark.parametrize("edit, message", [
        (lambda m: "{not json", "not a JSON manifest"),
        (lambda m: [1, 2], "bad.json: expected a mapping, got list"),
        (lambda m: {"tool": "x"}, "bad.json: missing required key version"),
        (lambda m: {k: v for k, v in m.items() if k != "config_hash"},
         "bad.json: missing required key config_hash"),
        (lambda m: {**m, "note": 1}, "bad.json: unknown keys ['note']"),
        (lambda m: {**m, "command": "resolution"},
         "bad.json.command: bad value 'resolution' (expected a list)"),
        (lambda m: {**m, "command": ["resolution", 3]},
         "bad.json.command: bad value ['resolution', 3] (expected a string)"),
        (lambda m: {**m, "command": []}, "bad.json.command: must name the subcommand"),
        (lambda m: {**m, "effective_config": [1]},
         "bad.json.effective_config: bad value [1] (expected a mapping)"),
        (lambda m: {**m, "outputs": m["outputs"][0]},
         "bad.json.outputs: bad value {'path': 'resolution.csv'"),
        (lambda m: {**m, "outputs": [{**m["outputs"][0], "path": "../resolution.csv"}]},
         "bad.json.outputs[0]: {'path': '../resolution.csv'"),
        (lambda m: {**m, "outputs": [{"path": "resolution.csv"}]},
         "bad.json.outputs[0]: {'path': 'resolution.csv'} is not a bare file name and its sha256"),
        (lambda m: {**m, "outputs": [{**m["outputs"][0], "sha256": "0"}]},
         "bad.json.outputs[0]: {'path': 'resolution.csv', 'sha256': '0'}"),
        (lambda m: {**m, "outputs": [1]}, "bad.json.outputs: bad value [1] (expected a mapping)"),
        (lambda m: {**m, "tool": 3}, "bad.json.tool: bad value 3 (expected a string)"),
        (lambda m: {**m, "version": [1]}, "bad.json.version: bad value [1] (expected a string)"),
        (lambda m: {**m, "master_seed": "abc"}, "bad.json.master_seed: bad value 'abc'"),
        (lambda m: {**m, "config_hash": None},
         "bad.json.config_hash: bad value None (expected a string)"),
        (lambda m: {**m, "stages": 5}, "bad.json.stages: bad value 5 (expected a list)"),
        (lambda m: {**m, "stages": [{"name": "monte_carlo"}]},
         "bad.json.stages[0]: missing required key seconds"),
        (lambda m: {**m, "stages": [{"name": 1, "seconds": 0.5}]},
         "bad.json.stages[0].name: bad value 1 (expected a string)"),
        # Commands no run records: a subcommand that writes no manifest, one
        # the parser refuses, or an option replay supplies itself.
        (lambda m: {**m, "command": ["replay", "--manifest", "x.json", "--out", "y"]},
         "bad.json.command: ['replay', '--manifest', 'x.json', '--out', 'y']: "
         "no run records 'replay'"),
        (lambda m: {**m, "command": ["bogus"]}, "bad.json.command: ['bogus']: no run records"),
        (lambda m: {**m, "command": ["resolution", "--symbol", "3"]},
         "no run records it: unrecognized arguments: --symbol 3"),
        (lambda m: {**m, "command": ["montecarlo", "--drops", "2", "--seed", "9"]},
         "no run records --seed; replay takes"),
        (lambda m: {**m, "command": ["resolution", "--preset", "desk_small"]},
         "no run records it: argument --preset: not allowed with argument --config"),
        (lambda m: {**m, "command": ["resolution", "--config", "other.yaml"]},
         "no run records --config; replay takes"),
        (lambda m: {**m, "command": ["resolution", "--out", "elsewhere"]},
         "no run records --out; replay takes"),
    ], ids=["invalid-json", "not-an-object", "fields-missing", "field-missing",
            "field-unknown", "command-string", "command-token", "command-empty",
            "effective-config", "outputs-object", "output-path", "output-no-sha256",
            "output-bad-sha256", "output-number", "tool", "version", "master-seed",
            "config-hash", "stages-number", "stage-no-seconds", "stage-name",
            "command-replay", "command-unknown", "command-refused", "command-seed",
            "command-preset", "command-config", "command-out"])
    def test_malformed_manifest_fails_before_output_dir(self, tmp_path, capsys, edit, message):
        run = tmp_path / "run"
        assert main(["resolution", "--preset", "desk_small", "--out", str(run)]) == 0
        edited = edit(json.loads((run / "manifest.json").read_text()))
        bad = tmp_path / "bad.json"
        bad.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        capsys.readouterr()
        out = tmp_path / "again"
        for drop in ([], ["--drop", "0"]):
            assert main(["replay", "--manifest", str(bad), "--out", str(out), *drop]) == 3
            assert message in capsys.readouterr().err
        assert not out.exists()

    def test_replay_detects_tampering(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path)
        out1 = tmp_path / "run1"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest["outputs"][0]["sha256"] = "0" * 64
        (out1 / "manifest.json").write_text(json.dumps(manifest))
        out2 = tmp_path / "run2"
        code = main(["replay", "--manifest", str(out1 / "manifest.json"),
                     "--out", str(out2)])
        assert code == 4

    def test_replay_reports_a_missing_output(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["resolution", "--preset", "desk_small", "--out", str(run)]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["outputs"].append({"path": "extra.csv", "sha256": "0" * 64})
        (run / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", "--manifest", str(run / "manifest.json"),
                     "--out", str(tmp_path / "again")]) == 4
        captured = capsys.readouterr()
        assert re.search(r"^resolution\.csv\s+ok$", captured.out, re.MULTILINE)
        assert re.search(r"^extra\.csv\s+missing$", captured.out, re.MULTILINE)
        assert "1 outputs differ from the manifest" in captured.err


# numpy 2.4's names for its AVX2/FMA3 (X86_V3) and AVX-512 targets; the names
# older numpy dispatched on (AVX2, AVX512F, ...) disable nothing there.
SLOW_KERNELS = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
                "OPENBLAS_CORETYPE": "Haswell"}

# Prints numpy's enabled dispatch targets and OpenBLAS's core name as one
# JSON line, then runs the CLI on the remaining arguments.
KERNEL_RUN = """
import ctypes, json, sys
from numpy._core import _multiarray_umath as umath
from mars_jcas import cli, cpus
corename = getattr(cpus._openblas(), "scipy_openblas_get_corename64_", None)
if corename is not None:
    corename.restype = ctypes.c_char_p
    corename = corename().decode()
print(json.dumps([[t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
                  corename]))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the kernel names are x86-64's")
def test_records_do_not_depend_on_the_host_kernels(tmp_path):
    # desk_small's records with numpy's AVX2 and AVX-512 loops off and
    # OpenBLAS's Haswell kernels equal the default run's byte for byte; on
    # two CPUs each run's clutter map is built with a forked child.
    env = {k: v for k, v in os.environ.items() if k not in SLOW_KERNELS}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                         *filter(None, [env.get("PYTHONPATH")])])
    kernels = []
    for name, extra in (("default", {}), ("slow", SLOW_KERNELS)):
        out = subprocess.run(
            [sys.executable, "-c", KERNEL_RUN, "montecarlo", "--preset", "desk_small",
             "--drops", "20", "--workers", "1", "--out", str(tmp_path / name)],
            env={**env, **extra}, capture_output=True, text=True, timeout=120, check=True)
        kernels.append(json.loads(out.stdout.splitlines()[0]))
    assert kernels[1][0] == [] and kernels[1][1] in ("Haswell", None)
    assert kernels[0] != kernels[1], "the default run used the same kernels"
    assert ((tmp_path / "default" / "records.csv").read_bytes()
            == (tmp_path / "slow" / "records.csv").read_bytes())
