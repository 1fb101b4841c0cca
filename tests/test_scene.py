from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C0

from conftest import WAVELENGTH, desk_raw, make_array, make_radio, make_scene, ura
from mars_jcas.cli import main, preset_path
from mars_jcas.io import parse_config
from oracles import psi_from_spherical, spherical_from_psi
from mars_jcas.scene import (
    SceneConfig,
    SceneValidationError,
    Target,
    WaveformConfig,
    received_power,
    resolution_report,
    steering_from_sin,
    steering_ura_from_sin,
    validate_scene,
)
from mars_jcas.waveform import build_schedule


class TestValidation:
    def test_table1_config_valid(self):
        scene_cfg, _ = parse_config(preset_path("table1_car"))
        scene = validate_scene(scene_cfg)
        assert scene.array.num_rx == 64
        assert scene.radio.num_pri == 500
        assert scene.radio.derived_bandwidth_hz == pytest.approx(122.88e6)

    def test_boresight_target_valid(self):
        scene = make_scene(targets=[Target(300.0, 10.0, 0.0, 0.0, 1.0)])
        assert scene.targets[0].sin_psi_x == 0.0

    def test_direction_constraint_violated(self):
        bad = Target(300.0, 10.0, math.asin(0.8), math.asin(0.8), 1.0)
        with pytest.raises(SceneValidationError, match="sin"):
            make_scene(targets=[bad])

    def test_inconsistent_bandwidth(self):
        radio = replace(make_radio(), bandwidth_hz=1.0)
        with pytest.raises(SceneValidationError, match="bandwidth"):
            make_scene(radio=radio)

    # Occasion rules depend on each pipeline's VA choice, so build_schedule
    # owns them: validate_scene passes such a scene and its schedule fails.
    def test_chirp_index_zero_forbidden(self):
        scene = make_scene(indices=(0, 3))
        with pytest.raises(ValueError, match="index 0"):
            build_schedule(scene.radio, scene.array, "comb",
                           chirp_pri_indices=scene.waveform.chirp_pri_indices)

    def test_va_overlap_rejected(self):
        scene = make_scene(arr=make_array(tx=2, va=True), indices=(1, 3, 6, 10))
        with pytest.raises(ValueError, match="overlap"):
            build_schedule(scene.radio, scene.array, "comb",
                           chirp_pri_indices=scene.waveform.chirp_pri_indices)

    def test_duty_ratio_incompatible(self):
        cfg = SceneConfig(radio=make_radio(spp=15), array=make_array(),
                          waveform=WaveformConfig(duty_ratio=0.5))
        with pytest.raises(SceneValidationError, match="duty"):
            validate_scene(cfg)

    def test_all_violations_reported(self):
        bad = Target(-5.0, 10.0, math.asin(0.9), math.asin(0.9), -1.0)
        with pytest.raises(SceneValidationError) as err:
            make_scene(targets=[bad])
        assert len(err.value.violations) >= 3

    def test_zero_divisors_list_every_violation(self):
        # No value is derived by dividing by a zero key; the rest of the
        # scene is still checked.
        radio = replace(make_radio(), subcarrier_spacing_hz=0.0, pri_s=0.0, symbols_per_pri=0)
        cfg = SceneConfig(radio=radio, array=make_array(cols=0),
                          waveform=WaveformConfig(duty_ratio=0.5))
        with pytest.raises(SceneValidationError) as err:
            validate_scene(cfg)
        assert err.value.violations == [
            "radio.subcarrier_spacing_hz must be > 0", "radio.pri_s must be > 0",
            "radio.symbols_per_pri must be >= 1", "array.rx_cols and array.rx_rows must be >= 1"]

    # desk_small with one quantity changed ("section.key": value; None
    # removes the key, so its SI form can replace a unit variant), and the
    # rule of validate_scene it breaks. The first three divided by zero.
    @pytest.mark.parametrize("edits,message", [
        ({"radio.subcarrier_spacing_khz": 0}, "radio.subcarrier_spacing_hz must be > 0"),
        ({"radio.pri_ms": 0}, "radio.pri_s must be > 0"),
        ({"radio.symbols_per_pri": 0, "waveform.duty_ratio": 0.5},
         "radio.symbols_per_pri must be >= 1"),
        ({"radio.num_subcarriers": 1}, "radio.num_subcarriers must be >= 2"),
        ({"radio.avg_tx_power_dbm": None, "radio.avg_tx_power_w": 0.0},
         "radio.avg_tx_power_w must be > 0"),
        ({"radio.noise_density_dbm_per_hz": None, "radio.noise_density_w_per_hz": -1e-21},
         "radio.noise_density_w_per_hz must be > 0"),
        ({"radio.cpi_ms": 0}, "radio.cpi_s must be > 0"),
        ({"radio.uplink_power_dbm": None, "radio.uplink_power_w": -1.0},
         "radio.uplink_power_w must be >= 0"),
        ({"radio.si_attenuation_db": -1.0}, "radio.si_attenuation_db must be >= 0"),
        ({"radio.symbol_duration_us": 10.0}, "inconsistent with 1/subcarrier_spacing_hz="),
        ({"radio.cpi_ms": 16.1}, "is not an integer multiple of pri_s="),
        ({"radio.symbols_per_pri": 14}, "does not equal symbols_per_pri*symbol_duration (14*"),
        ({"array.rx_rows": 0}, "array.rx_cols and array.rx_rows must be >= 1"),
        ({"array.tx_cols": 0}, "array.tx_cols and array.tx_rows must be >= 1"),
        ({"array.rx_spacing_y_wavelengths": 0.0}, "array element spacings must be > 0"),
        ({"waveform.structure": "zigzag"}, "waveform.structure must be one of"),
        ({"waveform.guard_subcarriers": -1}, "waveform.guard_subcarriers must be >= 0"),
        ({"clutter.station_height_m": 0.0}, "clutter.station_height_m must be > 0"),
        ({"clutter.cell_m": 0.0}, "clutter area and cell size must be > 0"),
        ({"clutter.area_standoff_m": -1.0}, "clutter.area_standoff_m must be >= 0"),
        ({"receiver.butterworth_order": 0}, "receiver.butterworth_order must be >= 1"),
        ({"receiver.tone_noise_bandwidth": "cpi"},
         "receiver.tone_noise_bandwidth must be 'pri' or 'symbol'"),
        # cpi_s / pri_s overflows to inf: no integer count, and no int(round(inf)).
        ({"radio.pri_ms": 1e-300, "radio.cpi_ms": 1e29}, "is not an integer multiple of pri_s="),
        # round(0.4) and round(0.5) are 0: a grid with no patch.
        ({"clutter.area_x_m": 0.4}, "clutter.area_x_m=0.4 holds no patch of cell_m=1.0"),
        ({"clutter.area_y_m": 0.5}, "clutter.area_y_m=0.5 holds no patch of cell_m=1.0"),
    ])
    def test_every_rule_is_a_config_error(self, tmp_path, capsys, edits, message):
        raw = desk_raw()
        for where, value in edits.items():
            section, key = where.split(".")
            raw.setdefault(section, {}).pop(key, None)
            if value is not None:
                raw[section][key] = value
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        for command in ("montecarlo", "simulate", "resolution"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            assert message in capsys.readouterr().err
            assert not out.exists()

    # clutter-map refuses a grid with no patch instead of writing a map of
    # none; just above half a cell, the side holds one patch.
    def test_clutter_grid_with_no_patch_refused(self, tmp_path, capsys):
        # The other side is 4 m by 3 m of 1 m cells.
        for key, patches in (("area_x_m", 3), ("area_y_m", 4)):
            raw = desk_raw()
            raw["clutter"].update({"area_x_m": 4.0, "area_y_m": 3.0, key: 0.5})
            cfg = tmp_path / f"{key}.yaml"
            cfg.write_text(yaml.safe_dump(raw))
            out = tmp_path / key
            assert main(["clutter-map", "--config", str(cfg), "--out", str(out)]) == 3
            assert f"clutter.{key}=0.5 holds no patch" in capsys.readouterr().err
            assert not out.exists()
            raw["clutter"][key] = 0.5000001
            cfg.write_text(yaml.safe_dump(raw))
            assert main(["clutter-map", "--config", str(cfg), "--out", str(out)]) == 0
            assert f"patches              {patches}\n" in capsys.readouterr().out


class TestResolution:
    def test_table1_values(self):
        scene_cfg, _ = parse_config(preset_path("table1_car"))
        scene = validate_scene(scene_cfg)
        rep = resolution_report(scene.radio, scene.array.with_va(False))
        assert rep.range_res_m == pytest.approx(1.22, abs=0.005)
        assert rep.velocity_res_mps == pytest.approx(0.24, abs=0.0005)
        assert rep.sin_angle_res_x == pytest.approx(0.25)
        rep_va = resolution_report(scene.radio, scene.array.with_va(True))
        assert rep_va.sin_angle_res_x == pytest.approx(0.125)
        assert rep_va.sin_angle_res_y == pytest.approx(0.125)
        # Formula value, not the published +-120 m/s figure.
        assert rep.max_unambiguous_speed_mps == pytest.approx(
            C0 / (4 * 5e9 * 0.25e-3))

    def test_homogeneous_scaling(self):
        r1 = make_radio(n=512)
        r2 = make_radio(n=1024)  # doubles B
        arr = make_array()
        assert resolution_report(r1, arr).range_res_m == pytest.approx(
            2 * resolution_report(r2, arr).range_res_m)
        r3 = make_radio(num_pri=128)  # doubles CPI
        assert resolution_report(r1, arr).velocity_res_mps == pytest.approx(
            2 * resolution_report(r3, arr).velocity_res_mps)

    def test_va_halves_sin_resolution(self):
        radio = make_radio()
        off = resolution_report(radio, make_array(tx=2, va=False))
        on = resolution_report(radio, make_array(tx=2, va=True))
        assert on.sin_angle_res_x == pytest.approx(off.sin_angle_res_x / 2)
        assert on.sin_angle_res_y == pytest.approx(off.sin_angle_res_y / 2)


class TestSteering:
    def test_boresight_is_ones(self):
        np.testing.assert_allclose(steering_from_sin(math.sin(0.0), 8, 0.03, 0.06), np.ones(8))

    def test_two_element_endfire(self):
        got = steering_from_sin(math.sin(math.pi / 2), 2, 0.03, 0.06)
        np.testing.assert_allclose(got, [1.0, -1.0], atol=1e-12)

    def test_eight_element_oracle(self):
        # Independent element-wise evaluation of exp(j*pi*l*sin(30deg)).
        got = steering_from_sin(math.sin(math.pi / 6), 8, 0.03, 0.06)
        want = [complex(math.cos(math.pi * l * 0.5), math.sin(math.pi * l * 0.5))
                for l in range(8)]
        np.testing.assert_allclose(got, want, atol=1e-12)

    @given(psi=st.floats(-1.5, 1.5), count=st.integers(1, 16),
           spacing=st.floats(0.005, 0.1))
    @settings(max_examples=50, deadline=None)
    def test_unit_modulus_and_self_product(self, psi, count, spacing):
        a = steering_from_sin(math.sin(psi), count, spacing, 0.06)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert np.vdot(a, a).real == pytest.approx(count)

    def test_ura_boresight(self):
        got = steering_ura_from_sin(math.sin(0.0), math.sin(0.0), ura(3, 2, 0.03, 0.03), 0.06)
        np.testing.assert_allclose(got, np.ones(6))

    def test_ura_2x2_kron_order(self):
        got = steering_ura_from_sin(math.sin(math.pi / 2), math.sin(0.0),
                                    ura(2, 2, 0.03, 0.03), 0.06)
        np.testing.assert_allclose(got, [1, -1, 1, -1], atol=1e-12)

    @given(psi=st.floats(-1.2, 1.2), count=st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    def test_ura_degenerates_to_ula(self, psi, count):
        ula = steering_from_sin(math.sin(psi), count, 0.03, 0.06)
        s, zero = math.sin(psi), math.sin(0.0)
        for cols, rows, sx, sy in ((count, 1, s, zero), (1, count, zero, s)):
            np.testing.assert_allclose(
                steering_ura_from_sin(sx, sy, ura(cols, rows, 0.03, 0.03), 0.06), ula)

    def test_va_aperture_identity(self):
        # Kronecker of small-array (spacing L*d) and large-array steering
        # equals the uniform (eta*L)-element steering, eta=2, L=4.
        lam, d, psi = 0.06, 0.03, 0.41
        eta, count = 2, 4
        small = steering_from_sin(math.sin(psi), eta, count * d, lam)
        large = steering_from_sin(math.sin(psi), count, d, lam)
        np.testing.assert_allclose(np.kron(small, large),
                                   steering_from_sin(math.sin(psi), eta * count, d, lam),
                                   atol=1e-12)

    def test_va_geometry_steers_its_aperture(self):
        # A VA geometry steers the va_cols x va_rows aperture the angle grid
        # reads: the plain receive URA of that size at the receive spacing.
        arr = make_array(tx=2, va=True)
        res = resolution_report(make_radio(), arr)
        kx, ky = 3, -2
        sx, sy = kx * res.sin_angle_res_x, ky * res.sin_angle_res_y
        got = steering_ura_from_sin(sx, sy, arr, WAVELENGTH)
        plain = ura(arr.va_cols, arr.va_rows, arr.rx_spacing_x_m, arr.rx_spacing_y_m)
        assert got.shape == (arr.va_cols * arr.va_rows,) == (64,)
        assert np.array_equal(got, steering_ura_from_sin(sx, sy, plain, WAVELENGTH))
        spec = np.abs(np.fft.fft2(got.reshape(arr.va_rows, arr.va_cols)))
        by, bx = np.unravel_index(int(np.argmax(spec)), spec.shape)
        assert (bx, by) == (kx % arr.va_cols, ky % arr.va_rows)


class TestLinkBudget:
    def test_radar_r4_law(self):
        p1 = received_power("radar", 1.0, 1.0, 1.0, 0.06, 100.0, rcs_m2=1.0)
        p2 = received_power("radar", 1.0, 1.0, 1.0, 0.06, 200.0, rcs_m2=1.0)
        assert p1 / p2 == pytest.approx(16.0)

    def test_comm_r2_law(self):
        p1 = received_power("comm", 1.0, 1.0, 1.0, 0.06, 100.0)
        p2 = received_power("comm", 1.0, 1.0, 1.0, 0.06, 200.0)
        assert p1 / p2 == pytest.approx(4.0)

    def test_table1_car_hand_evaluation(self):
        lam = C0 / 5e9
        got = received_power("radar", 0.01, 1.0, 1.0, lam, 100.0, rcs_m2=100.0)
        want = 0.01 * 1.0 * 1.0 * lam**2 * 100.0 / ((4 * math.pi) ** 3 * 100.0**4)
        assert got == pytest.approx(want, rel=1e-12)

    def test_radar_requires_rcs(self):
        with pytest.raises(ValueError, match="rcs"):
            received_power("radar", 1.0, 1.0, 1.0, 0.06, 100.0)


def test_spherical_round_trip():
    psi_x, psi_y = psi_from_spherical(0.5, 1.1)
    assert math.sin(psi_x) == pytest.approx(math.cos(1.1) * math.sin(0.5))
    theta, phi = spherical_from_psi(psi_x, psi_y)
    assert theta == pytest.approx(0.5)
    assert phi == pytest.approx(1.1)
