from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import c as C0

import oracles
from conftest import make_array, make_radio, make_scene
from mars_jcas import channel
from mars_jcas.channel import (
    butterworth_power_gain,
    synthesize_fa_measurements,
    synthesize_if_cube,
)
from mars_jcas.clutter import ClutterMap, build_clutter_map
from mars_jcas.estimator import column_compress
from mars_jcas.scene import Target
from mars_jcas.waveform import build_schedule
from oracles import tone_branch_unfused


def quiet_radio(**kw):
    """No thermal noise floor: set an absurdly low density."""
    return make_radio(noise=1e-60, **kw)


def schedule_of(scene):
    return build_schedule(scene.radio, scene.array, "comb",
                          chirp_pri_indices=scene.waveform.chirp_pri_indices)


class TestChirpBranch:
    def test_static_target_beat_bin(self):
        radio = quiet_radio()
        t = Target(range_m=300.0, radial_velocity_mps=0.0, psi_x_rad=0.0,
                   psi_y_rad=0.0, rcs_m2=100.0)
        scene = make_scene(radio=radio, targets=[t], si_attenuation_db=300.0)
        cube = synthesize_if_cube(scene, schedule_of(scene))
        symbol = cube.chirp_symbol(0)
        spectrum = np.abs(np.fft.fft(symbol[0]))
        expected_bin = round(300.0 / scene.range_res_m)
        assert int(np.argmax(spectrum)) == expected_bin

    def test_si_removed_by_dcoc(self):
        radio = quiet_radio()
        scene = make_scene(radio=radio)  # SI at -50 dB, no targets
        cube = synthesize_if_cube(scene, schedule_of(scene))
        si_amp = math.sqrt(10 * scene.radio.avg_tx_power_w * 1e-5)
        assert np.max(np.abs(cube.chirp_branch)) < 1e-9 * si_amp

    def test_residual_dc_knob(self):
        radio = quiet_radio()
        scene = make_scene(radio=radio, residual_dc_db=40.0)
        cube = synthesize_if_cube(scene, schedule_of(scene))
        si_amp = math.sqrt(10 * scene.radio.avg_tx_power_w * 1e-5)
        got = np.abs(cube.chirp_branch[0, 0, 0])
        assert got == pytest.approx(si_amp * 10 ** (-40 / 20), rel=1e-6)

    @given(targets=st.lists(st.tuples(st.floats(10.0, 2000.0), st.floats(-60.0, 60.0),
                                      st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
                            max_size=2),
           va=st.booleans(), w=st.integers(1, 4), clutter=st.booleans(), exact=st.booleans(),
           residual=st.sampled_from([None, 40.0]), seed=st.integers(0, 2**32 - 1))
    @example(targets=[(300.0, 18.0, 0.1, 0.0)], va=True, w=3, clutter=True, exact=True,
             residual=40.0, seed=1)
    @example(targets=[], va=False, w=1, clutter=False, exact=False, residual=None, seed=2)
    @example(targets=[(300.0, 18.0, 0.1, 0.0), (800.0, -7.0, -0.3, 0.2)], va=True, w=4,
             clutter=False, exact=False, residual=None, seed=3)
    @settings(max_examples=40, deadline=None)
    def test_in_place_symbols_equal_per_symbol_oracle(self, targets, va, w, clutter, exact,
                                                      residual, seed):
        # Symbols built in place in the symbol-major branch, beat tones made
        # once per cube and real noise parts added in place must give the
        # per-symbol blocks with two-normal complex noise, bit for bit.
        slots = 4 if va else 1
        scene = make_scene(arr=make_array(tx=2, va=va), exact_within_symbol_doppler=exact,
                           residual_dc_db=residual, indices=tuple(1 + k * slots for k in range(w)),
                           targets=[Target(r, v, x, y, 50.0) for r, v, x, y in targets])
        cmap = None
        if clutter:
            cmap = build_clutter_map(replace(scene, clutter=replace(
                scene.clutter, enabled=True, area_x_m=60.0, area_y_m=30.0)))
        sched = schedule_of(scene)
        got = synthesize_if_cube(scene, sched, cmap, seed=seed).chirp_branch
        want = oracles.chirp_branch_per_symbol(scene, sched, cmap, seed=seed)
        n_el, n = scene.array.num_rx, scene.radio.num_subcarriers
        assert got.shape == (w * slots, n_el, n) and got.flags.c_contiguous
        want = want.reshape(n_el, w * slots, n).transpose(1, 0, 2)
        assert np.array_equal(got.view(float), want.view(float))

    @given(uplink=st.sampled_from([0.0, 0.2]), fa=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_tone_and_fa_noise_equal_two_normal_draws(self, uplink, fa, seed):
        # The tone, uplink and FA noise are one standard_normal draw per
        # stream; with the two-normal draw patched in, every sample is equal.
        scene = make_scene(uplink_power_w=uplink, uplink_cfo_fraction=0.3,
                           targets=[Target(300.0, 18.0, 0.1, 0.0, 50.0)])
        if fa:
            sched = build_schedule(scene.radio, scene.array, "fa", fa_seed=4)
            synth = synthesize_fa_measurements
        else:
            sched = schedule_of(scene)
            synth = synthesize_if_cube
        got = synth(scene, sched, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel, "_complex_noise", oracles.complex_noise)
            want = synth(scene, sched, seed=seed)
        if not fa:
            got, want = got.tone_branch_compressed, want.tone_branch_compressed
        assert np.array_equal(got.view(float), want.view(float))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0, 0, 0), (2, 1, 5, 511)])
    def test_non_finite_sample_raises(self, value, where):
        # One bad noise sample, in the real or imaginary part of any symbol,
        # makes its row mean non-finite, and the cube is refused.
        k, part, row, col = where
        scene = make_scene(targets=[Target(300.0, 18.0, 0.1, 0.0, 50.0)])

        class PoisonedDraws(oracles.FreshDraws):
            def chirp_noise(self, scale, shape, count):
                blocks = list(super().chirp_noise(scale, shape, count))
                blocks[k][part, row, col] = value
                return iter(blocks)

        with pytest.raises(ValueError, match="non-finite samples"):
            synthesize_if_cube(scene, schedule_of(scene), draws=PoisonedDraws(7))
        synthesize_if_cube(scene, schedule_of(scene), draws=oracles.FreshDraws(7))

    def test_delay_beyond_symbol_rejected(self):
        t = Target(range_m=3000.0, radial_velocity_mps=0.0, psi_x_rad=0.0,
                   psi_y_rad=0.0, rcs_m2=1.0)
        scene = make_scene(radio=quiet_radio(), targets=[t])
        with pytest.raises(ValueError, match="3000"):
            synthesize_if_cube(scene, schedule_of(scene))


class TestToneBranch:
    def test_moving_target_doppler_bin(self):
        radio = quiet_radio()
        t = Target(range_m=200.0, radial_velocity_mps=20.0, psi_x_rad=0.0,
                   psi_y_rad=0.0, rcs_m2=100.0)
        scene = make_scene(radio=radio, targets=[t], si_attenuation_db=300.0,
                           dc_removal=False)
        cube = synthesize_if_cube(scene, schedule_of(scene))
        sched = cube.schedule
        # Brute-force DFT over the tone PRI sequence, evaluated on the PRI grid.
        m = sched.num_pri
        pris = sched.tone_pri_indices()
        fd = t.doppler_hz(radio.carrier_freq_hz)
        row = cube.tone_branch_compressed[0]
        mags = [abs(np.sum(row * np.exp(-2j * np.pi * f * pris / m)))
                for f in range(m)]
        expected = round(fd * m * radio.pri_s) % m
        assert int(np.argmax(mags)) == expected

    def test_fused_equals_column_compress_of_unfused(self):
        radio = quiet_radio()
        t = Target(range_m=150.0, radial_velocity_mps=13.0, psi_x_rad=0.2,
                   psi_y_rad=-0.1, rcs_m2=30.0)
        # SI pushed far below rtol; the unfused oracle carries no SI term.
        scene = make_scene(radio=radio, targets=[t], si_attenuation_db=600.0,
                           dc_removal=False)
        scene = replace(scene, radio=replace(scene.radio, uplink_power_w=0.0))
        sched = schedule_of(scene)
        cube = synthesize_if_cube(scene, sched)
        unfused = tone_branch_unfused(scene, sched)
        fused = column_compress(unfused, scene.radio.num_subcarriers)
        np.testing.assert_allclose(cube.tone_branch_compressed, fused, rtol=1e-10)

    def test_clutter_constant_across_pris(self, desk, desk_clutter):
        scene, _ = desk
        scene = replace(scene, radio=replace(scene.radio, noise_density_w_per_hz=1e-60,
                                             uplink_power_w=0.0, si_attenuation_db=300.0))
        scene = replace(scene, receiver=replace(scene.receiver, dc_removal=False))
        cube = synthesize_if_cube(scene, schedule_of(scene), desk_clutter)
        tone = cube.tone_branch_compressed
        spread = np.max(np.abs(tone - tone[:, :1]))
        assert spread < 1e-9 * np.max(np.abs(tone))

    def test_dc_removal_nulls_static_field(self, desk, desk_clutter):
        scene, _ = desk
        scene = replace(scene, radio=replace(scene.radio, noise_density_w_per_hz=1e-60,
                                             uplink_power_w=0.0))
        cube = synthesize_if_cube(scene, schedule_of(scene), desk_clutter)
        assert np.max(np.abs(cube.tone_branch_compressed)) < 1e-12


class TestLinearityAndScaling:
    def _scene_for(self, targets):
        radio = quiet_radio()
        return make_scene(radio=radio, targets=targets, si_attenuation_db=300.0)

    def test_two_target_linearity(self):
        t1 = Target(250.0, 15.0, 0.1, 0.05, 40.0)
        t2 = Target(420.0, -22.0, -0.2, 0.0, 70.0)
        both = self._scene_for([t1, t2])
        sched = schedule_of(both)
        cube12 = synthesize_if_cube(both, sched)
        cube1 = synthesize_if_cube(self._scene_for([t1]), sched)
        cube2 = synthesize_if_cube(self._scene_for([t2]), sched)
        np.testing.assert_allclose(cube12.chirp_branch,
                                   cube1.chirp_branch + cube2.chirp_branch,
                                   atol=1e-18)
        np.testing.assert_allclose(cube12.tone_branch_compressed,
                                   cube1.tone_branch_compressed
                                   + cube2.tone_branch_compressed, atol=1e-18)

    def test_power_scaling(self):
        t = Target(300.0, 18.0, 0.1, 0.0, 50.0)
        base = make_scene(radio=make_radio(power_w=1.0), targets=[t],
                          si_attenuation_db=300.0)
        loud = replace(base, radio=replace(base.radio, avg_tx_power_w=2.0))
        sched_b, sched_l = schedule_of(base), schedule_of(loud)
        cube_b = synthesize_if_cube(base, sched_b)
        cube_l = synthesize_if_cube(loud, sched_l)
        # Noise-free copies isolate the signal power ratio.
        quiet_b = replace(base, radio=replace(base.radio, noise_density_w_per_hz=1e-60))
        quiet_l = replace(loud, radio=replace(loud.radio, noise_density_w_per_hz=1e-60))
        sig_b = synthesize_if_cube(quiet_b, sched_b).chirp_branch
        sig_l = synthesize_if_cube(quiet_l, sched_l).chirp_branch
        assert np.sum(np.abs(sig_l) ** 2) == pytest.approx(
            2 * np.sum(np.abs(sig_b) ** 2), rel=1e-9)
        noise_b = cube_b.chirp_branch - sig_b
        noise_l = cube_l.chirp_branch - sig_l
        assert np.sum(np.abs(noise_l) ** 2) == pytest.approx(
            np.sum(np.abs(noise_b) ** 2), rel=1e-9)

    def test_antenna_gains_scale_echo_only(self):
        t = Target(300.0, 18.0, 0.1, 0.0, 50.0)
        base = make_scene(radio=make_radio(), targets=[t], si_attenuation_db=600.0)
        gained = replace(base, radio=replace(base.radio, gain_tx=2.0, gain_rx=2.0))
        sched_b, sched_g = schedule_of(base), schedule_of(gained)
        quiet_b = replace(base, radio=replace(base.radio, noise_density_w_per_hz=1e-60))
        quiet_g = replace(gained, radio=replace(gained.radio, noise_density_w_per_hz=1e-60))
        sig_b = synthesize_if_cube(quiet_b, sched_b).chirp_branch
        sig_g = synthesize_if_cube(quiet_g, sched_g).chirp_branch
        assert np.sum(np.abs(sig_g) ** 2) == pytest.approx(
            4 * np.sum(np.abs(sig_b) ** 2), rel=1e-9)
        noise_b = synthesize_if_cube(base, sched_b).chirp_branch - sig_b
        noise_g = synthesize_if_cube(gained, sched_g).chirp_branch - sig_g
        assert np.sum(np.abs(noise_g) ** 2) == pytest.approx(
            np.sum(np.abs(noise_b) ** 2), rel=1e-9)

    def test_determinism_same_seed(self):
        t = Target(300.0, 18.0, 0.1, 0.0, 50.0)
        scene = make_scene(targets=[t])
        sched = schedule_of(scene)
        c1 = synthesize_if_cube(scene, sched, seed=42)
        c2 = synthesize_if_cube(scene, sched, seed=42)
        np.testing.assert_array_equal(c1.chirp_branch, c2.chirp_branch)
        np.testing.assert_array_equal(c1.tone_branch_compressed, c2.tone_branch_compressed)


class TestDopplerModes:
    def test_within_symbol_doppler_below_tenth_db(self):
        # 300 km/h: frozen-phase vs exact within-symbol evolution. On-grid
        # range keeps the comparison off the Dirichlet scalloping slope,
        # where the claim lives.
        v = 300.0 / 3.6
        radio0 = quiet_radio()
        dr = C0 / (2 * radio0.derived_bandwidth_hz)
        t = Target(60 * dr, v, 0.0, 0.0, 100.0)
        frozen = make_scene(radio=quiet_radio(), targets=[t], si_attenuation_db=300.0)
        exact = make_scene(radio=quiet_radio(), targets=[t], si_attenuation_db=300.0,
                           exact_within_symbol_doppler=True)
        sched = schedule_of(frozen)
        cf = synthesize_if_cube(frozen, sched)
        ce = synthesize_if_cube(exact, sched)
        for cube in (cf, ce):
            assert cube.chirp_branch.shape == cf.chirp_branch.shape
        pf = np.max(np.abs(np.fft.fft(cf.chirp_symbol(0)[0]))) ** 2
        pe = np.max(np.abs(np.fft.fft(ce.chirp_symbol(0)[0]))) ** 2
        assert abs(10 * math.log10(pf / pe)) < 0.1
        tf = np.max(np.abs(cf.tone_branch_compressed))
        te = np.max(np.abs(ce.tone_branch_compressed))
        assert abs(20 * math.log10(tf / te)) < 0.1


    def test_exact_mode_with_doppler_below_rounding_stays_finite(self):
        # A Doppler too small to rotate the symbol (here subnormal, where the
        # geometric sum's quotient overflowed) integrates like a static target.
        scene = make_scene(radio=quiet_radio(), si_attenuation_db=600.0, dc_removal=False,
                           exact_within_symbol_doppler=True,
                           targets=[Target(300.0, 2.2250738585072014e-309, 0.0, 0.0, 100.0)])
        static = replace(scene, targets=(Target(300.0, 0.0, 0.0, 0.0, 100.0),))
        sched = schedule_of(scene)
        got, want = (synthesize_if_cube(s, sched, seed=5) for s in (scene, static))
        assert np.all(np.isfinite(got.tone_branch_compressed))
        np.testing.assert_allclose(np.abs(got.tone_branch_compressed),
                                   np.abs(want.tone_branch_compressed), rtol=1e-9)


class TestUplinkAndFilters:
    def test_butterworth_half_power_at_cutoff(self):
        assert butterworth_power_gain(1000.0, 1000.0, 5) == pytest.approx(0.5)
        assert butterworth_power_gain(0.0, 1000.0, 5) == pytest.approx(1.0)
        # Order-5 rolloff: one octave above cutoff is ~30 dB down.
        assert butterworth_power_gain(2000.0, 1000.0, 5) == pytest.approx(1 / 1025)

    def test_uplink_reaches_tone_branch_only(self):
        radio = replace(quiet_radio(), uplink_power_w=0.2)
        scene = make_scene(radio=radio, si_attenuation_db=300.0, dc_removal=False,
                           uplink_cfo_fraction=0.3)
        cube = synthesize_if_cube(scene, schedule_of(scene))
        assert np.max(np.abs(cube.tone_branch_compressed)) > 0
        assert np.max(np.abs(cube.chirp_branch)) < 1e-15

    def test_residual_power_cached_per_radio_receiver_and_tone(self):
        # Every cube of a run asks for the same residual power: computed once,
        # and a changed receiver (here the CFO) is a new key and a new value.
        radio = replace(quiet_radio(), uplink_power_w=0.2)
        scene = make_scene(radio=radio, dc_removal=False, uplink_cfo_fraction=0.3)
        shifted = replace(scene, receiver=replace(scene.receiver, uplink_cfo_fraction=0.1))
        sched = schedule_of(scene)
        channel._uplink_residual_power.cache_clear()
        first, again = (synthesize_if_cube(scene, sched, seed=1) for _ in range(2))
        assert np.array_equal(first.tone_branch_compressed, again.tone_branch_compressed)
        info = channel._uplink_residual_power.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        key = (sched.guard_subcarriers, sched.tone_subcarrier_index)
        assert (channel._uplink_residual_power(radio, shifted.receiver, *key)
                != channel._uplink_residual_power(radio, scene.receiver, *key))
        assert channel._uplink_residual_power.cache_info().misses == 2

    def test_on_grid_uplink_is_orthogonal(self):
        # With zero fractional offset the integrate-and-hold nulls every
        # data subcarrier exactly: the cube matches a no-uplink synthesis.
        radio = replace(quiet_radio(), uplink_power_w=0.2)
        scene = make_scene(radio=radio, dc_removal=False, uplink_cfo_fraction=0.0)
        silent = replace(scene, radio=replace(scene.radio, uplink_power_w=0.0))
        sched = schedule_of(scene)
        with_up = synthesize_if_cube(scene, sched)
        without = synthesize_if_cube(silent, sched)
        np.testing.assert_array_equal(with_up.tone_branch_compressed,
                                      without.tone_branch_compressed)


class TestFaMeasurements:
    def test_single_target_matches_template(self):
        radio = quiet_radio()
        t = Target(range_m=240.0, radial_velocity_mps=12.0, psi_x_rad=0.0,
                   psi_y_rad=0.0, rcs_m2=100.0)
        scene = make_scene(radio=radio, targets=[t], si_attenuation_db=300.0)
        sched = build_schedule(scene.radio, scene.array, "fa", fa_seed=4)
        meas = synthesize_fa_measurements(scene, sched)
        # Independent reconstruction of the expected per-symbol phases.
        tau = 2 * 240.0 / C0
        fd = t.doppler_hz(radio.carrier_freq_hz)
        m = sched.num_pri
        ramp = (np.exp(-2j * np.pi * sched.fa_subcarrier_indices
                       * radio.subcarrier_spacing_hz * tau)
                * np.exp(2j * np.pi * fd * np.arange(m) * radio.pri_s))
        row = meas[0] / meas[0, 0]
        np.testing.assert_allclose(row, ramp / ramp[0], atol=1e-9)

    @staticmethod
    def _table_case(seed, l, m, n, r_bins):
        rng = np.random.default_rng(seed)
        base = make_scene()
        scene = replace(base, radio=make_radio(n=n, num_pri=m),
                        array=make_array(cols=l, rows=1), num_pri=m)
        sched = build_schedule(scene.radio, scene.array, "fa", fa_seed=seed)
        shape = (1, r_bins, l)
        cmap = ClutterMap(chirp_tables=rng.normal(size=shape) + 1j * rng.normal(size=shape),
                          tone_vec=np.zeros(l, dtype=complex), range_res_m=1.0,
                          terrain="synthetic", params=None, patch_count=0, area_x_m=0.0,
                          area_y_m=0.0, cell_m=1.0, station_height_m=1.0, seed=seed)
        return scene, sched, cmap

    @given(seed=st.integers(0, 2**32 - 1), l=st.integers(1, 8), m=st.integers(2, 40),
           n=st.integers(4, 64), short=st.booleans())
    @example(seed=3, l=2, m=40, n=4, short=False)   # M > N: every subcarrier repeats
    @settings(max_examples=40, deadline=None)
    def test_clutter_term_matches_ramp_table_oracle(self, seed, l, m, n, short):
        # short: a table with fewer range bins than subcarriers (zero-padded FFT).
        scene, sched, cmap = self._table_case(seed, l, m, n, n // 2 if short else n)
        got = synthesize_fa_measurements(scene, sched, cmap)
        want = (synthesize_fa_measurements(scene, sched)
                + oracles.fa_clutter_term(cmap, sched, n))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_clutter_table_longer_than_symbol_rejected(self):
        scene, sched, cmap = self._table_case(0, 2, 8, 16, 17)
        with pytest.raises(ValueError, match="17 range bins"):
            synthesize_fa_measurements(scene, sched, cmap)

    def test_fa_requires_fa_schedule(self):
        scene = make_scene(radio=quiet_radio())
        with pytest.raises(ValueError, match="FA"):
            synthesize_fa_measurements(scene, schedule_of(scene))
        with pytest.raises(ValueError, match="fa"):
            synthesize_if_cube(scene, build_schedule(scene.radio, scene.array, "fa",
                                                     fa_seed=1))
