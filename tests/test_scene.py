from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C0

from conftest import make_array, make_radio, make_scene
from mars_jcas.cli import preset_path
from mars_jcas.io import parse_config
from oracles import psi_from_spherical, spherical_from_psi
from mars_jcas.scene import (
    SceneValidationError,
    Target,
    received_power,
    resolution_report,
    steering_ula,
    steering_ura,
    validate_scene,
)


class TestValidation:
    def test_table1_config_valid(self):
        scene_cfg, _ = parse_config(preset_path("table1_car"))
        scene = validate_scene(scene_cfg)
        assert scene.array.num_rx == 64
        assert scene.num_pri == 500
        assert scene.bandwidth_hz == pytest.approx(122.88e6)

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

    def test_chirp_index_zero_forbidden(self):
        with pytest.raises(SceneValidationError, match="index 0"):
            make_scene(indices=(0, 3))

    def test_va_overlap_rejected(self):
        arr = make_array(tx=2, va=True)
        with pytest.raises(SceneValidationError, match="overlap"):
            make_scene(arr=arr, indices=(1, 3, 6, 10))

    def test_duty_ratio_incompatible(self):
        from mars_jcas.scene import SceneConfig, WaveformConfig

        cfg = SceneConfig(radio=make_radio(spp=15), array=make_array(),
                          waveform=WaveformConfig(duty_ratio=0.5))
        with pytest.raises(SceneValidationError, match="duty"):
            validate_scene(cfg)

    def test_all_violations_reported(self):
        bad = Target(-5.0, 10.0, math.asin(0.9), math.asin(0.9), -1.0)
        with pytest.raises(SceneValidationError) as err:
            make_scene(targets=[bad])
        assert len(err.value.violations) >= 3


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
        np.testing.assert_allclose(steering_ula(0.0, 8, 0.03, 0.06), np.ones(8))

    def test_two_element_endfire(self):
        got = steering_ula(math.pi / 2, 2, 0.03, 0.06)
        np.testing.assert_allclose(got, [1.0, -1.0], atol=1e-12)

    def test_eight_element_oracle(self):
        # Independent element-wise evaluation of exp(j*pi*l*sin(30deg)).
        got = steering_ula(math.pi / 6, 8, 0.03, 0.06)
        want = [complex(math.cos(math.pi * l * 0.5), math.sin(math.pi * l * 0.5))
                for l in range(8)]
        np.testing.assert_allclose(got, want, atol=1e-12)

    @given(psi=st.floats(-1.5, 1.5), count=st.integers(1, 16),
           spacing=st.floats(0.005, 0.1))
    @settings(max_examples=50, deadline=None)
    def test_unit_modulus_and_self_product(self, psi, count, spacing):
        a = steering_ula(psi, count, spacing, 0.06)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert np.vdot(a, a).real == pytest.approx(count)

    def test_ura_boresight(self):
        np.testing.assert_allclose(steering_ura(0.0, 0.0, 3, 2, 0.03, 0.03, 0.06),
                                   np.ones(6))

    def test_ura_2x2_kron_order(self):
        got = steering_ura(math.pi / 2, 0.0, 2, 2, 0.03, 0.03, 0.06)
        np.testing.assert_allclose(got, [1, -1, 1, -1], atol=1e-12)

    @given(psi=st.floats(-1.2, 1.2), count=st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    def test_ura_degenerates_to_ula(self, psi, count):
        ula = steering_ula(psi, count, 0.03, 0.06)
        np.testing.assert_allclose(steering_ura(psi, 0.0, count, 1, 0.03, 0.03, 0.06), ula)
        np.testing.assert_allclose(steering_ura(0.0, psi, 1, count, 0.03, 0.03, 0.06), ula)

    def test_va_aperture_identity(self):
        # Kronecker of small-array (spacing L*d) and large-array steering
        # equals the uniform (eta*L)-element steering, eta=2, L=4.
        lam, d, psi = 0.06, 0.03, 0.41
        eta, count = 2, 4
        small = steering_ula(psi, eta, count * d, lam)
        large = steering_ula(psi, count, d, lam)
        np.testing.assert_allclose(np.kron(small, large),
                                   steering_ula(psi, eta * count, d, lam), atol=1e-12)


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
