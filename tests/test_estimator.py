from __future__ import annotations

import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import c as C0

import oracles
from conftest import AtSubmission, Stepped, make_array, make_radio, ura
from mars_jcas import cpus, estimator
from mars_jcas.cli import preset_path
from mars_jcas.estimator import (
    AngleVelocityMap,
    CoarsePeak,
    angle_velocity_map,
    epsilon_m,
    expand_nn,
    fa_range_doppler_map,
    greedy_peaks,
    interference_cov,
    music_refine,
    reshape_space_time,
    signed_bin,
    space_time_steering,
    stap_range_spectrum,
    sthp_range_spectrum,
    stte_peaks,
    temporal_steering,
    va_assemble,
)
from mars_jcas.io import config_from_dict
from mars_jcas.pipeline import run_fa_pipeline
from mars_jcas.scene import (
    resolution_report,
    steering_from_sin,
    steering_ura_from_sin,
    validate_scene,
)
from mars_jcas.waveform import MarsSchedule, build_schedule
from oracles import column_compress, unshape_space_time

LAM = C0 / 5e9  # conftest radio wavelength
RNG = np.random.default_rng


def _map_from(y, arr=None, radio=None):
    arr = arr or make_array()
    radio = radio or make_radio()
    return angle_velocity_map(y, arr, radio)


class TestColumnCompress:
    def test_all_ones(self):
        out = column_compress(np.ones((3, 12)), 4)
        np.testing.assert_allclose(out, 4.0 * np.ones((3, 3)))

    def test_shape_contract(self):
        out = column_compress(np.zeros((5, 7 * 16)), 16)
        assert out.shape == (5, 7)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="divisible"):
            column_compress(np.ones((2, 10)), 4)

    def test_doppler_tone_matches_direct_sum_oracle(self):
        n, m_tone, fd, t_pri = 64, 9, 900.0, 0.25e-3
        bw = n / t_pri * 15  # arbitrary sample rate
        t = (np.arange(m_tone * n) // n) * t_pri + (np.arange(m_tone * n) % n) / bw
        raw = np.exp(2j * np.pi * fd * t)[None, :]
        got = column_compress(raw, n)
        # Direct python summation oracle per output column.
        for m in range(m_tone):
            acc = 0.0 + 0.0j
            for k in range(n):
                acc += np.exp(2j * np.pi * fd * (m * t_pri + k / bw))
            dirichlet = np.sum(np.exp(2j * np.pi * fd * np.arange(n) / bw))
            assert got[0, m] == pytest.approx(acc, rel=1e-12)
            assert got[0, m] == pytest.approx(
                np.exp(2j * np.pi * fd * m * t_pri) * dirichlet, rel=1e-12)


def brute_nearest_preceding(y, num_pri, chirp_pris):
    """Independent per-column reference: walk back to the latest tone PRI."""
    chirp = set(int(c) for c in chirp_pris)
    tone_pris = [m for m in range(num_pri) if m not in chirp]
    col_of = {pri: j for j, pri in enumerate(tone_pris)}
    out = np.empty((y.shape[0], num_pri), dtype=y.dtype)
    for m in range(num_pri):
        src = m
        while src in chirp:
            src -= 1
        out[:, m] = y[:, col_of[src]]
    return out


def chirp_schedule(num_pri, chirp_pris):
    """A schedule of single-slot chirp occasions at ``chirp_pris``, free of
    build_schedule's occasion and power rules (PRI 0 included)."""
    occasions = tuple(int(p) for p in chirp_pris)
    return MarsSchedule(num_pri, "comb", occasions, 0, 1, 0, 1,
                        tuple(((p, 0, 0),) for p in occasions), np.ones(num_pri), 1.0)


class TestExpandNn:
    def test_spec_worked_example(self):
        y = np.arange(3)[None, :].astype(complex)
        out = expand_nn(y, chirp_schedule(5, [1, 3]))
        np.testing.assert_allclose(out[0].real, [0, 0, 1, 1, 2])

    def test_no_chirps_is_identity(self):
        y = RNG(0).normal(size=(2, 6)) + 0j
        np.testing.assert_allclose(expand_nn(y, chirp_schedule(6, [])), y)

    def test_against_brute_force(self):
        rng = RNG(1)
        y = rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))
        got = expand_nn(y, chirp_schedule(12, [2, 5, 9]))
        np.testing.assert_allclose(got, brute_nearest_preceding(y, 12, [2, 5, 9]))

    def test_chirp_at_zero_rejected(self):
        # build_schedule refuses such a schedule; a cube file may still hold one.
        with pytest.raises(ValueError, match="preceding"):
            expand_nn(np.ones((1, 4)), chirp_schedule(5, [0]))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="compressed columns"):
            expand_nn(np.ones((1, 4)), chirp_schedule(5, [1, 2]))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_matches_brute_force(self, data):
        if data.draw(st.booleans(), label="va"):
            # 2 x 2 VA: each occasion start spans four consecutive chirp PRIs.
            gaps = data.draw(st.lists(st.integers(4, 9), max_size=3), label="gaps")
            starts = tuple(int(i) for i in data.draw(st.integers(1, 5), label="first")
                           + np.cumsum([0] + gaps))
            low = max(starts[-1] + 4, 10 * len(starts) + 1)
            num_pri = data.draw(st.integers(low, low + 20), label="num_pri")
            sched = build_schedule(make_radio(num_pri=num_pri), make_array(tx=2, va=True),
                                   "comb", chirp_pri_indices=starts)
        else:
            num_pri = data.draw(st.integers(4, 24), label="num_pri")
            chirp = data.draw(st.sets(st.integers(1, num_pri - 1), max_size=num_pri - 2),
                              label="chirp")
            sched = chirp_schedule(num_pri, sorted(chirp))
        y = RNG(7).normal(size=(2, sched.num_tone_pris)) + 0j
        got = expand_nn(y, sched)
        np.testing.assert_array_equal(
            got, brute_nearest_preceding(y, num_pri, sched.chirp_slot_pris()))

    def test_schedule_wrapper(self):
        radio = make_radio(num_pri=64)
        sched = build_schedule(radio, make_array(tx=2, va=True), "comb",
                               chirp_pri_indices=(1, 8))
        y = RNG(2).normal(size=(16, 64 - sched.num_chirp_symbols)) + 0j
        got = expand_nn(y, sched)
        np.testing.assert_allclose(
            got, brute_nearest_preceding(y, 64, sched.chirp_slot_pris()))


class TestAngleVelocityMap:
    def test_on_grid_single_peak(self):
        arr = make_array()
        radio = make_radio()
        m = 32
        a = steering_ura_from_sin(0.5, -0.5, ura(4, 4, LAM / 2, LAM / 2), LAM)
        dop = np.exp(2j * np.pi * 5 * np.arange(m) / m)
        avm = _map_from(np.outer(a, dop), arr, radio)
        peak = np.unravel_index(np.argmax(avm.values), avm.values.shape)
        assert peak == (1, 3, 5)  # sin 0.5 -> bin 1; sin -0.5 -> raw bin 3
        assert avm.sin_x(peak[0]) == pytest.approx(0.5)
        assert avm.sin_y(peak[1]) == pytest.approx(-0.5)
        rest = avm.values.copy()
        rest[peak] = 0
        assert rest.max() < 1e-9 * avm.values[peak]

    def test_static_clutter_in_zero_velocity_bin(self):
        rng = RNG(3)
        clutter_vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        y = np.tile(clutter_vec[:, None], (1, 32))
        avm = _map_from(y)
        energy = avm.values**2
        assert energy[:, :, 1:].sum() < 1e-18 * energy.sum()

    def test_half_bin_split_against_dirichlet(self):
        m = 32
        arr = make_array()
        dop = np.exp(2j * np.pi * 7.5 * np.arange(m) / m)
        y = np.outer(np.ones(16), dop)
        avm = _map_from(y, arr)
        col = avm.values[0, 0, :]
        assert col[7] == pytest.approx(col[8], rel=0.01)
        # Dirichlet-kernel oracle for the straddled bins.
        want = 16 * abs(np.sum(np.exp(2j * np.pi * (7.5 - 7) * np.arange(m) / m)))
        assert col[7] == pytest.approx(want, rel=1e-9)

    def test_row_count_must_factor(self):
        with pytest.raises(ValueError, match="factorable"):
            _map_from(np.ones((15, 8)))

    def test_kron_dft_equivalence(self):
        # 2D-FFT over the element grid equals the explicit Kronecker DFT
        # synthesis matrix acting on the stacked vector (4x4 toy).
        rng = RNG(4)
        lx, ly, m = 4, 4, 6
        y = rng.normal(size=(lx * ly, m)) + 1j * rng.normal(size=(lx * ly, m))
        f_x = np.exp(-2j * np.pi * np.outer(np.arange(lx), np.arange(lx)) / lx)
        f_y = np.exp(-2j * np.pi * np.outer(np.arange(ly), np.arange(ly)) / ly)
        explicit = np.kron(f_y, f_x) @ y          # (L, m), row = ky*lx + kx
        avm = _map_from(y, make_array(), make_radio(num_pri=m))
        spec = np.fft.fft(explicit, axis=1)       # velocity transform
        for kx in range(lx):
            for ky in range(ly):
                np.testing.assert_allclose(avm.values[kx, ky],
                                           np.abs(spec[ky * lx + kx]), atol=1e-9)

    def test_parseval_along_axes(self):
        rng = RNG(5)
        y = rng.normal(size=(16, 32)) + 1j * rng.normal(size=(16, 32))
        avm = _map_from(y)
        lhs = np.sum(avm.values**2)
        rhs = np.sum(np.abs(y) ** 2) * 16 * 32
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestSttePeaks:
    def _map(self, values):
        return AngleVelocityMap(values=values, sin_res_x=0.5, sin_res_y=0.5,
                                velocity_res_mps=1.875)

    @staticmethod
    def _values(peak):
        return (peak.sin_psi_x, peak.sin_psi_y, peak.velocity_mps)

    @staticmethod
    def _cell(avmap, bx, by, bv):
        """The physical values of map cell (bx, by, bv), one to one with the cell."""
        return (avmap.sin_x(bx), avmap.sin_y(by), avmap.velocity(bv))

    def test_single_target_exact_bin(self):
        v = np.zeros((4, 4, 16))
        v[2, 1, 5] = 3.0
        avmap = self._map(v)
        got = stte_peaks(avmap, 1)
        assert self._values(got[0]) == self._cell(avmap, 2, 1, 5)
        assert got[0].velocity_mps == pytest.approx(5 * 1.875)

    def test_two_separated_targets_recovered(self):
        v = np.zeros((4, 4, 16))
        v[1, 1, 4] = 3.0
        v[3, 3, 9] = 2.0
        avmap = self._map(v)
        got = stte_peaks(avmap, 2)
        # Brute-force maxima scan oracle.
        flat = np.argsort(v, axis=None)[::-1][:2]
        want = {self._cell(avmap, *np.unravel_index(f, v.shape)) for f in flat}
        assert {self._values(p) for p in got} == want

    def test_zero_velocity_guard_masks_clutter(self):
        v = np.zeros((4, 4, 16))
        v[0, 0, 0] = 100.0   # static ridge
        v[2, 2, 15] = 1.0    # |signed bin| = 1: inside default guard
        v[1, 1, 6] = 0.5
        avmap = self._map(v)
        got = stte_peaks(avmap, 1, guard=1)
        assert self._values(got[0]) == self._cell(avmap, 1, 1, 6)

    def test_too_few_maxima(self):
        v = np.zeros((2, 2, 8))
        v[0, 1, 3] = 1.0
        with pytest.raises(ValueError, match="extractable"):
            stte_peaks(self._map(v), 5)

    def test_angle_edges_wrap(self):
        # A peak at sin bin 0 in x and y claims the other ends' bins too: the
        # next strongest cell, diagonal across both wraps, is never a peak.
        v = np.zeros((4, 4, 16))
        v[0, 0, 5] = 3.0
        v[3, 3, 6] = 2.0
        v[2, 2, 10] = 1.0
        avmap = self._map(v)
        got = stte_peaks(avmap, 2)
        assert [self._values(p) for p in got] == [self._cell(avmap, 0, 0, 5),
                                                  self._cell(avmap, 2, 2, 10)]


class TestGreedyPeaks:
    # One peak on a map of ones. Guard -1 masks no velocity band, so every
    # masked cell is the peak's +-1-bin neighbourhood: wrapped on the
    # periodic axes, clipped on the others. FA's (velocity, range) grid
    # wraps in velocity only; STTE's map wraps on every axis.
    @pytest.mark.parametrize("shape, vel_axis, periodic, index, near", [
        ((8, 6), 0, (True, False), (3, 0), ([2, 3, 4], [0, 1])),
        ((8, 6), 0, (True, False), (3, 5), ([2, 3, 4], [4, 5])),
        ((8, 6), 0, (True, False), (0, 2), ([7, 0, 1], [1, 2, 3])),
        ((8, 6), 0, (True, False), (7, 2), ([6, 7, 0], [1, 2, 3])),
        ((4, 4, 16), 2, (True, True, True), (0, 3, 0), ([3, 0, 1], [2, 3, 0], [15, 0, 1])),
        ((4, 4, 16), 2, (True, True, True), (3, 0, 15), ([2, 3, 0], [3, 0, 1], [14, 15, 0])),
    ])
    def test_edges_wrap_only_on_periodic_axes(self, shape, vel_axis, periodic, index, near):
        values = np.ones(shape)
        values[index] = 5.0
        assert greedy_peaks(values, 1, -1, vel_axis, periodic, "test") == [(index, 5.0)]
        want = np.zeros(shape, dtype=bool)
        want[np.ix_(*near)] = True
        assert np.array_equal(np.isneginf(values), want)


class TestMusicRefine:
    def _fixture(self, sin_x, sin_y, velocity, m=64, snr_db=40.0, seed=0):
        arr = make_array()
        radio = make_radio(num_pri=m)
        a = steering_ura_from_sin(sin_x, sin_y, ura(4, 4, LAM / 2, LAM / 2), LAM)
        fd = 2 * velocity * radio.carrier_freq_hz / C0
        s = np.exp(2j * np.pi * fd * np.arange(m) * radio.pri_s)
        rng = RNG(seed)
        noise = (rng.normal(size=(16, m)) + 1j * rng.normal(size=(16, m)))
        y = np.outer(a, s) + 10 ** (-snr_db / 20) * noise
        return y, arr, radio

    def test_on_grid_returns_coarse(self):
        y, arr, radio = self._fixture(0.5, 0.0, 3 * 1.875)
        avm = angle_velocity_map(y, arr, radio)
        peak = stte_peaks(avm, 1)[0]
        vel, px, py = music_refine(y, peak, arr, radio)
        assert math.sin(px) == pytest.approx(0.5, abs=0.051)
        assert math.sin(py) == pytest.approx(0.0, abs=0.051)
        assert vel == pytest.approx(peak.velocity_mps, abs=1.1 * 0.1875)

    def test_off_grid_high_snr_accuracy(self):
        truth_x = 0.5 + 0.37 * 0.5  # coarse bin + 0.37 bin
        y, arr, radio = self._fixture(truth_x, -0.21, 17.0, snr_db=50.0)
        avm = angle_velocity_map(y, arr, radio)
        peak = stte_peaks(avm, 1)[0]
        vel, px, py = music_refine(y, peak, arr, radio)
        assert abs(math.sin(px) - truth_x) < 0.1 * 0.5
        assert abs(math.sin(py) + 0.21) < 0.1 * 0.5
        assert abs(vel - 17.0) < 0.1 * 1.875

    def test_rank_deficient_rejected(self):
        arr = make_array()
        radio = make_radio(num_pri=8)
        y = np.zeros((16, 8), dtype=complex)
        peak = type("P", (), {"sin_psi_x": 0.0, "sin_psi_y": 0.0, "velocity_mps": 0.0})
        with pytest.raises(ValueError, match="rank"):
            music_refine(y, peak, arr, radio)

    @given(sin_x=st.floats(-0.6, 0.6), sin_y=st.floats(-0.6, 0.6),
           velocity=st.floats(-40.0, 40.0), seed=st.integers(0, 1000),
           factor=st.integers(1, 10))
    @settings(max_examples=20, deadline=None)
    def test_matches_list_built_grid_oracle(self, sin_x, sin_y, velocity, seed, factor):
        y, arr, radio = self._fixture(sin_x, sin_y, velocity, m=32, snr_db=20.0, seed=seed)
        peak = stte_peaks(angle_velocity_map(y, arr, radio), 1)[0]
        assert (music_refine(y, peak, arr, radio, factor=factor)
                == oracles.music_refine(y, peak, arr, radio, factor=factor))

    @staticmethod
    def _dense_fb_stages(y):
        """(snapshots, dense forward-backward covariance) of both MUSIC
        stages: spatial (L x L) and temporal (M x M)."""
        return [(z, oracles.forward_backward_dense(z @ z.conj().T / z.shape[1]))
                for z in (y, y.T)]

    @given(l=st.integers(1, 70), m=st.integers(1, 520), k=st.integers(1, 4),
           seed=st.integers(0, 1000))
    @example(l=16, m=64, k=1, seed=0)     # desk size
    @example(l=64, m=500, k=1, seed=1)    # table1_uav size
    @example(l=7, m=13, k=2, seed=2)
    @settings(max_examples=40, deadline=None)
    def test_signal_subspace_matches_dense_fb_eigh(self, l, m, k, seed):
        # 2L < M and 2L >= M both occur: one SVD path serves every shape.
        rng = RNG(seed)
        y = rng.normal(size=(l, m)) + 1j * rng.normal(size=(l, m))
        for z, r in self._dense_fb_stages(y):
            try:
                want = oracles._noise_projector(r, k)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    estimator._signal_subspace(z, k)
                assert str(got.value) == str(exc)
                continue
            got = estimator._signal_subspace(z, k)
            vals = np.linalg.eigvalsh(r)[::-1]
            if vals[k - 1] - vals[k] > 1e-6 * vals[0]:
                p_want = want @ want.conj().T
                assert (np.linalg.norm(got @ got.conj().T - p_want)
                        <= 1e-10 * np.linalg.norm(p_want))

    @pytest.mark.parametrize("l, m", [(16, 64), (64, 500), (7, 13), (6, 8)])
    @pytest.mark.parametrize("sources", [1, 2])
    def test_noiseless_sources_raise_the_oracles_rank(self, l, m, sources):
        # A noiseless ULA-by-PRI source a s^T has J conj(a) parallel to a, so
        # forward-backward averaging adds no rank: K sources give rank K < K+1.
        phases = [(0.7, 0.3), (-1.9, 2.4)][:sources]
        y = sum(np.outer(np.exp(1j * px * np.arange(l)), np.exp(1j * pt * np.arange(m)))
                for px, pt in phases)
        for z, r in self._dense_fb_stages(y):
            with pytest.raises(ValueError) as want:
                oracles._noise_projector(r, sources)
            with pytest.raises(ValueError) as got:
                estimator._signal_subspace(z, sources)
            assert str(got.value) == str(want.value)
            assert f"covariance rank {sources} <" in str(got.value)


class TestSpaceTime:
    def test_w1_identity(self):
        y = RNG(0).normal(size=(1, 4, 8)) + 0j
        y_st = reshape_space_time(y, 8)
        assert y_st.shape == (4, 8)     # W = 1: one block of L = 4 rows
        np.testing.assert_allclose(y_st, y[0])
        assert np.shares_memory(y_st, y)

    def test_toy_layout(self):
        # W=2, L=2, N=3: block rows stack symbol samples, symbol by symbol,
        # as the occasion interleave of the element-major (L, W*N) layout.
        y = np.arange(12).reshape(2, 6).astype(complex)
        y_st = reshape_space_time(y.reshape(2, 2, 3).transpose(1, 0, 2).copy(), 3)
        want = np.array([[0, 1, 2], [6, 7, 8], [3, 4, 5], [9, 10, 11]], dtype=complex)
        np.testing.assert_allclose(y_st, want)
        np.testing.assert_allclose(oracles.interleave_space_time(y, 3), want)

    def test_round_trip(self):
        y = RNG(1).normal(size=(4, 6, 5)) + 1j * RNG(2).normal(size=(4, 6, 5))
        y_st = reshape_space_time(y, 5)
        assert y_st.shape == (24, 5) and np.shares_memory(y_st, y)
        np.testing.assert_allclose(unshape_space_time(y_st, 6), y)

    def test_mismatched_columns(self):
        with pytest.raises(ValueError, match="N=4"):
            reshape_space_time(np.ones((2, 2, 10)), 4)
        with pytest.raises(ValueError, match="N=4"):      # the element-major layout
            reshape_space_time(np.ones((2, 8)), 4)


class TestSpaceTimeSteering:
    @staticmethod
    def _steering(velocity_mps, sin_x, sin_y, arr, sched, radio):
        """The (W*L[, C]) space-time steering on ``arr``'s aperture."""
        a_s = steering_ura_from_sin(sin_x, sin_y, arr, radio.wavelength_m)
        a = space_time_steering(temporal_steering(velocity_mps, sched, radio), a_s)
        return a.reshape((-1,) + a_s.shape[1:])

    def test_zero_velocity_all_ones_temporal(self):
        radio = make_radio()
        arr = make_array()
        sched = build_schedule(radio, arr, "comb", chirp_pri_indices=(1, 6, 15))
        a = self._steering(0.0, 0.3, -0.2, arr, sched, radio)
        a2d = steering_ura_from_sin(0.3, -0.2, ura(4, 4, LAM / 2, LAM / 2), radio.wavelength_m)
        np.testing.assert_allclose(a, np.tile(a2d, 3))

    def test_w1_is_spatial_only(self):
        radio = make_radio()
        arr = make_array()
        sched = build_schedule(radio, arr, "lshape", chirp_pri_indices=(1,))
        a = self._steering(25.0, 0.1, 0.0, arr, sched, radio)
        a2d = steering_ura_from_sin(0.1, 0.0, ura(4, 4, LAM / 2, LAM / 2), radio.wavelength_m)
        np.testing.assert_allclose(a, a2d)

    def test_table1_car_oracle(self):
        radio = make_radio(n=2048, num_pri=500)
        arr = make_array(cols=8, rows=8)
        sched = build_schedule(radio, arr, "comb", chirp_pri_indices=(1, 3, 6, 10))
        v = 30.0
        a_t = temporal_steering(v, sched, radio)
        # Independent element-wise evaluation.
        for w, i in enumerate((1, 3, 6, 10)):
            fd = 2 * v * radio.carrier_freq_hz / C0
            want = complex(math.cos(2 * math.pi * fd * (i - 1) * 0.25e-3),
                           math.sin(2 * math.pi * fd * (i - 1) * 0.25e-3))
            assert a_t[w] == pytest.approx(want, rel=1e-12)
        full = self._steering(v, 0.25, -0.125, arr, sched, radio)
        a2d = steering_ura_from_sin(0.25, -0.125, ura(8, 8, LAM / 2, LAM / 2),
                                    radio.wavelength_m)
        np.testing.assert_allclose(full, np.kron(a_t, a2d))


class TestInterferenceCov:
    def test_zero_input(self):
        np.testing.assert_allclose(interference_cov(np.zeros((4, 8))), np.zeros((4, 4)))

    def test_white_noise_approaches_identity(self):
        rng = RNG(11)
        sigma2 = 2.5
        y = math.sqrt(sigma2 / 2) * (rng.normal(size=(8, 4096))
                                     + 1j * rng.normal(size=(8, 4096)))
        s = interference_cov(y)
        np.testing.assert_allclose(np.diag(s).real, sigma2, rtol=0.05)
        off = s - np.diag(np.diag(s))
        assert np.max(np.abs(off)) < 0.05 * sigma2

    def test_static_clutter_rank_at_most_l(self):
        # Zero-velocity ridge: temporal signature all-ones, so the W*L
        # covariance rank collapses to the spatial rank (<= L).
        rng = RNG(12)
        l, w, n = 4, 3, 64
        blocks = []
        spatial = rng.normal(size=(l, 5)) + 1j * rng.normal(size=(l, 5))
        ranges = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        base = spatial @ ranges
        y = np.tile(base, (w, 1))
        s = interference_cov(y)
        rank = np.linalg.matrix_rank(s, hermitian=True)
        assert rank <= l

    def test_hermitian(self):
        rng = RNG(13)
        y = rng.normal(size=(6, 32)) + 1j * rng.normal(size=(6, 32))
        s = interference_cov(y)
        np.testing.assert_allclose(s, s.conj().T)


class TestEpsilonM:
    def test_identity(self):
        assert epsilon_m(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert epsilon_m(np.diag([1.0, 2.0, 3.0, 4.0])) == pytest.approx(2.5)

    @given(c=st.floats(0.01, 100.0))
    @settings(max_examples=20, deadline=None)
    def test_scaling(self, c):
        rng = RNG(14)
        y = rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16))
        s = interference_cov(y)
        assert epsilon_m(c * s) == pytest.approx(c * epsilon_m(s), rel=1e-9)

    def test_square_required(self):
        with pytest.raises(ValueError):
            epsilon_m(np.ones((2, 3)))


def beat_matrix(bins, n):
    """Range responses for unit scatterers at the given integer bins."""
    k = np.arange(n)
    return np.stack([np.exp(2j * np.pi * b * k / n) for b in bins])


class TestStapSpectrum:
    def _target_fixture(self, noise=1e-3, seed=15):
        w, l, n = 2, 4, 64
        a_s = steering_from_sin(0.3, l, LAM / 2, LAM)
        a_t = np.exp(1j * np.array([0.2, 1.1]))
        a_st = np.kron(a_t, a_s)
        y = np.outer(a_st, beat_matrix([40], n)[0])
        rng = RNG(seed)
        y = y + noise * (rng.normal(size=(w * l, n)) + 1j * rng.normal(size=(w * l, n)))
        return y, a_st

    def test_inf_mode_equals_explicit_matched_filter(self):
        y, a_st = self._target_fixture()
        d, _ = stap_range_spectrum(y, a_st[:, None], "inf")
        n = y.shape[1]
        f = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        want = (a_st.conj() @ y @ f).T / np.vdot(a_st, a_st).real
        np.testing.assert_allclose(d[0], want, rtol=1e-9)

    @pytest.mark.parametrize("mode", ["zero", "em", "inf"])
    def test_single_target_argmax(self, mode):
        y, a_st = self._target_fixture()
        _, bins = stap_range_spectrum(y, a_st[:, None], mode)
        assert bins[0] == 40

    def test_adaptive_beats_matched_under_clutter(self):
        # Strong static clutter at bin 20, weak moving target at bin 40.
        w, l, n = 2, 4, 64
        a_s = steering_from_sin(0.3, l, LAM / 2, LAM)
        a_t = np.exp(1j * np.array([0.0, 2.1]))
        a_st = np.kron(a_t, a_s)
        target = 1e-3 * np.outer(a_st, beat_matrix([40], n)[0])
        rng = RNG(16)
        clutter = np.zeros((w * l, n), dtype=complex)
        for sin_c in (-0.6, -0.1, 0.45):
            spat = steering_from_sin(sin_c, l, LAM / 2, LAM)
            amp = 10.0 * (rng.normal() + 1j * rng.normal())
            clutter += np.outer(np.kron(np.ones(w), spat), amp * beat_matrix([20], n)[0])
        y = target + clutter + 1e-7 * (rng.normal(size=(w * l, n))
                                       + 1j * rng.normal(size=(w * l, n)))
        _, bin_mf = stap_range_spectrum(y, a_st[:, None], "inf")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, bin_zero = stap_range_spectrum(y, a_st[:, None], "zero")
        assert bin_mf[0] == 20     # matched filter rides the clutter
        assert bin_zero[0] == 40   # whitened spectrum recovers the target

    def test_em_converges_monotonically_to_matched_filter(self):
        rng = RNG(17)
        w, l, n = 2, 2, 4096
        a_st = np.kron(np.exp(1j * np.array([0.1, 0.9])),
                       steering_from_sin(0.2, l, LAM / 2, LAM))
        y = 0.05 * np.outer(a_st, beat_matrix([1000], n)[0])
        y = y + (rng.normal(size=(w * l, n)) + 1j * rng.normal(size=(w * l, n)))
        d_inf, _ = stap_range_spectrum(y, a_st[:, None], "inf")
        eps0 = epsilon_m(interference_cov(y))
        scale = np.max(np.abs(d_inf))
        devs = []
        for mult in (1e2, 1e4, 1e6):
            d, _ = stap_range_spectrum(y, a_st[:, None], "em", epsilon=mult * eps0)
            devs.append(np.max(np.abs(d - d_inf)) / scale)
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-6

    def test_argmax_invariant_under_scaling(self):
        y, a_st = self._target_fixture()
        _, b1 = stap_range_spectrum(y, a_st[:, None], "em")
        _, b2 = stap_range_spectrum(7.3 * y, a_st[:, None], "em")
        assert b1[0] == b2[0]

    def test_rank_deficient_warns(self):
        y, a_st = self._target_fixture(noise=0.0)
        with pytest.warns(RuntimeWarning, match="pseudo-inverse"):
            stap_range_spectrum(y, a_st[:, None], "zero")


class TestSthpSpectrum:
    def test_two_pulse_zero_forcing_weights(self):
        a_t = np.array([1.0, -1.0], dtype=complex)
        w_t = estimator._zero_forcing_weights(a_t)
        np.testing.assert_allclose(w_t, [0.5, -0.5])
        assert np.vdot(np.ones(2), w_t) == pytest.approx(0.0)
        assert w_t @ a_t == pytest.approx(1.0)

    @given(indices=st.sets(st.integers(1, 200), min_size=2, max_size=8),
           log_speed=st.floats(-6.0, 2.0), sign=st.sampled_from([-1, 1]))
    @example(indices={1, 200}, log_speed=-5.0, sign=1)   # 1.4e-9 from the threshold
    @settings(max_examples=200, deadline=None)
    def test_zero_forcing_weights_equal_pinv_row(self, indices, log_speed, sign):
        # W = 2-8 occasions on random schedules, at speeds from far below the
        # collinearity threshold to tens of m/s; the pinv row is the reference.
        radio = make_radio(num_pri=256)
        sched = build_schedule(radio, make_array(), "comb",
                               chirp_pri_indices=tuple(sorted(indices)))
        a_t = temporal_steering(sign * 10.0 ** log_speed, sched, radio)
        corr = abs(np.sum(a_t)) / (np.linalg.norm(a_t) * math.sqrt(len(a_t)))
        if corr > 1.0 - 1e-9:
            return                        # rejected by sthp_range_spectrum
        got = estimator._zero_forcing_weights(a_t)
        assert abs(got @ a_t - 1.0) <= 1e-11
        assert abs(np.sum(got)) <= 1e-11
        want = oracles.zero_forcing_weights_pinv(a_t)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_static_clutter_annihilated(self):
        rng = RNG(18)
        w, l, n = 3, 4, 64
        a_t = np.exp(1j * np.array([0.0, 1.3, 2.9]))
        a_s = steering_from_sin(-0.25, l, LAM / 2, LAM)
        clutter_block = rng.normal(size=(l, n)) + 1j * rng.normal(size=(l, n))
        clutter = np.tile(clutter_block, (w, 1)) * 1e6
        target = np.outer(np.kron(a_t, a_s), beat_matrix([30], n)[0])
        d_clean, bin_clean = sthp_range_spectrum(target, a_t, a_s[:, None], "inf")
        d_dirty, bin_dirty = sthp_range_spectrum(target + clutter, a_t, a_s[:, None], "inf")
        assert bin_clean[0] == bin_dirty[0] == 30
        assert np.max(np.abs(d_dirty - d_clean)) < 1e-10 * np.max(np.abs(d_clean))

    def test_weak_target_strong_clutter_beats_stap_em(self):
        # Small-cross-section fixture: zero-forcing recovers the range bin
        # where trace-loaded STAP still rides the clutter.
        rng = RNG(19)
        w, l, n = 3, 4, 64
        a_t = np.exp(1j * np.array([0.0, 1.3, 2.9]))
        a_s = steering_from_sin(0.35, l, LAM / 2, LAM)
        target = 1e-4 * np.outer(np.kron(a_t, a_s), beat_matrix([45], n)[0])
        clutter = np.zeros((w * l, n), dtype=complex)
        for sin_c in (-0.5, 0.05, 0.3, 0.6):
            spat = steering_from_sin(sin_c, l, LAM / 2, LAM)
            amp = 50.0 * (rng.normal() + 1j * rng.normal())
            clutter += np.outer(np.kron(np.ones(w), spat), amp * beat_matrix([12], n)[0])
        noise = 1e-8 * (rng.normal(size=(w * l, n)) + 1j * rng.normal(size=(w * l, n)))
        y = target + clutter + noise
        _, bin_em = stap_range_spectrum(y, np.kron(a_t, a_s)[:, None], "em")
        _, bin_sthp = sthp_range_spectrum(y, a_t, a_s[:, None], "em")
        assert bin_em[0] == 12
        assert bin_sthp[0] == 45

    def test_collinear_velocity_rejected(self):
        y = np.zeros((8, 16), dtype=complex)
        with pytest.raises(ValueError, match="collinear"):
            sthp_range_spectrum(y, np.ones(2, dtype=complex), np.ones((4, 1), dtype=complex),
                                "inf")

    def test_needs_two_occasions(self):
        with pytest.raises(ValueError, match="W >= 2"):
            sthp_range_spectrum(np.zeros((4, 8)), np.ones(1), np.ones((4, 1)), "inf")


def _batched_case(seed, w, l, n, c, rank_deficient):
    """Random space-time data (full rank, or rank < W*L) and C steering columns."""
    rng = RNG(seed)
    dim = w * l
    rank = int(rng.integers(1, dim)) if rank_deficient else dim
    cplx = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    y = cplx(dim, rank) @ cplx(rank, n)
    phases = lambda *shape: np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=shape))
    return y, phases(dim, c), phases(w), phases(l, c)


def _assert_matches_oracle(got, want):
    d, bins = got
    for j, (d_ref, _, bin_ref) in enumerate(want):
        assert np.max(np.abs(d[j] - d_ref)) <= 1e-10 * np.max(np.abs(d_ref))
        assert bins[j] == bin_ref


class TestBatchedAgainstOracles:
    """The batched range stage and steering against the per-candidate forms
    they replaced (tests/oracles.py), column by column."""

    @given(seed=st.integers(0, 2**32 - 1), w=st.integers(2, 3), l=st.integers(2, 5),
           extra=st.integers(0, 24), c=st.integers(1, 6),
           mode=st.sampled_from(["zero", "em", "inf"]), rank_deficient=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_range_spectra_match_per_candidate(self, seed, w, l, extra, c, mode,
                                               rank_deficient):
        y, a_st, a_t, a_s = _batched_case(seed, w, l, 2 * w * l + extra, c, rank_deficient)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _assert_matches_oracle(
                stap_range_spectrum(y, a_st, mode),
                [oracles.stap_range_spectrum(y, a_st[:, j], mode) for j in range(c)])
            _assert_matches_oracle(
                sthp_range_spectrum(y, a_t, a_s, mode),
                [oracles.sthp_range_spectrum(y, a_t, a_s[:, j], mode) for j in range(c)])

    @given(seed=st.integers(0, 2**32 - 1), w=st.integers(2, 4), l=st.integers(2, 64),
           extra=st.integers(0, 24), c=st.integers(1, 8), rank_deficient=st.booleans(),
           scale=st.one_of(st.none(), st.floats(1e-3, 1e3)))
    @settings(max_examples=40, deadline=None)
    def test_loaded_solve_matches_cholesky(self, seed, w, l, extra, c, rank_deficient, scale):
        # eps_mode 'em', or an explicit epsilon of ``scale`` times the em level.
        # LU and Cholesky are both backward stable, so the two spectra differ
        # by O(machine eps x condition number of the loaded covariance).
        y, a_st, a_t, a_s = _batched_case(seed, w, l, 2 * w * l + extra, c, rank_deficient)
        y_s = np.tensordot(estimator._zero_forcing_weights(a_t), y.reshape(w, l, -1), axes=1)
        runs = ((stap_range_spectrum, (y, a_st), y), (sthp_range_spectrum, (y, a_t, a_s), y_s))
        for spectrum, args, y_cov in runs:
            cov = interference_cov(y_cov)
            eps = epsilon_m(cov) * (1.0 if scale is None else scale)
            vals = np.linalg.eigvalsh(cov)
            cond = (vals[-1] + eps) / (max(vals[0], 0.0) + eps)
            d, bins = spectrum(*args, "em", epsilon=None if scale is None else eps)
            with mock.patch.object(estimator, "_loaded_solve", oracles.loaded_solve_cholesky):
                d_ref, bins_ref = spectrum(*args, "em", epsilon=None if scale is None else eps)
            tol = 64 * np.finfo(float).eps * cond * np.max(np.abs(d_ref), axis=1)
            assert np.all(np.max(np.abs(d - d_ref), axis=1) <= tol)
            assert np.array_equal(bins, bins_ref)

    @pytest.mark.parametrize("caller", ["stap_range_spectrum", "sthp_range_spectrum"])
    def test_vector_steering_refused(self, caller):
        # Both spectra take only a (rows, C) steering matrix.
        y, a_st, a_t, a_s = _batched_case(7, 2, 4, 40, 1, False)
        with pytest.raises(ValueError, match=f"^{caller}: .*matrix"):
            if caller == "stap_range_spectrum":
                stap_range_spectrum(y, a_st[:, 0], "inf")
            else:
                sthp_range_spectrum(y, a_t, a_s[:, 0], "inf")

    @given(sx=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12), cols=st.integers(1, 8),
           rows=st.integers(1, 8), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_array_steering_is_stacked_scalar_steering(self, sx, cols, rows, data):
        sy = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(sx), max_size=len(sx)))
        got = steering_ura_from_sin(np.array(sx), np.array(sy),
                                    ura(cols, rows, LAM / 2, 0.6 * LAM), LAM)
        want = np.stack([oracles.steering_ura_from_sin(x, y, cols, rows, LAM / 2,
                                                       0.6 * LAM, LAM)
                         for x, y in zip(sx, sy)], axis=1)
        assert np.array_equal(got, want)
        radio = make_radio()
        sched = build_schedule(radio, make_array(cols=cols, rows=rows), "comb",
                               chirp_pri_indices=(1, 6, 15))
        arr = make_array(cols=cols, rows=rows)
        got_st = space_time_steering(temporal_steering(3.0, sched, radio),
                                     steering_ura_from_sin(np.array(sx), np.array(sy), arr,
                                                           radio.wavelength_m))
        assert got_st.shape == (3, cols * rows, len(sx))
        got_st = got_st.reshape(-1, len(sx))
        want_st = np.stack([np.kron(temporal_steering(3.0, sched, radio),
                                    oracles.steering_ura_from_sin(x, y, cols, rows,
                                                                  arr.rx_spacing_x_m,
                                                                  arr.rx_spacing_y_m,
                                                                  radio.wavelength_m))
                            for x, y in zip(sx, sy)], axis=1)
        assert np.array_equal(got_st, want_st)


class TestRangeStageWarnings:
    def _block_zero_case(self):
        # The last element sees nothing, so its covariance row is exactly
        # zero: rank 3 of 4, and a steering column on that element alone is
        # annihilated by the pseudo-inverse.
        y = RNG(3).normal(size=(4, 16)) + 1j * RNG(4).normal(size=(4, 16))
        y[3] = 0.0
        a = np.zeros((4, 3), dtype=complex)
        a[:, 0] = 1.0
        a[3, 1] = 1.0
        a[:, 2] = np.exp(1j * np.arange(4))
        return y, a

    def test_rank_warning_once_per_whitener(self):
        y, a = self._block_zero_case()
        with pytest.warns(RuntimeWarning) as rec:
            stap_range_spectrum(y, a, "zero")
        assert sum("pseudo-inverse" in str(w.message) for w in rec) == 1

    def test_annihilated_warning_once_naming_columns(self):
        y, a = self._block_zero_case()
        with pytest.warns(RuntimeWarning) as rec:
            d, _ = stap_range_spectrum(y, a, "zero")
        hits = [str(w.message) for w in rec if "annihilated" in str(w.message)]
        assert len(hits) == 1 and "1 of 3" in hits[0]
        # Denominator 1, not 0: the annihilated row stays finite (all zero).
        assert np.all(np.isfinite(d)) and not np.any(d[1])
        assert np.all(np.abs(d[[0, 2]]).max(axis=1) > 0)

    def test_sthp_annihilated_warning_once(self):
        # W = 2, L = 2; element 1 is dead in both occasions.
        y = RNG(5).normal(size=(4, 16)) + 1j * RNG(6).normal(size=(4, 16))
        y[[1, 3]] = 0.0
        a_s = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
        a_t = np.exp(1j * np.array([0.0, 2.0]))
        with pytest.warns(RuntimeWarning) as rec:
            d, _ = sthp_range_spectrum(y, a_t, a_s, "zero")
        messages = [str(w.message) for w in rec]
        assert sum("pseudo-inverse" in m for m in messages) == 1
        assert [m for m in messages if "annihilated" in m] == [
            "sthp_range_spectrum: steering annihilated by the whitener in 1 of 2 "
            "column(s); spectrum unnormalized"]
        assert np.all(np.isfinite(d)) and not np.any(d[1])

    @pytest.mark.parametrize("caller", ["stap_range_spectrum", "sthp_range_spectrum"])
    def test_zero_steering_at_inf_left_unnormalized(self, caller):
        # At eps_mode 'inf' the whitener is the identity, and a zero steering
        # column (a^H a = 0) takes the annihilated columns' rule: one warning
        # and a finite, unnormalized spectrum, not 0 / 0.
        y = RNG(7).normal(size=(4, 16)) + 1j * RNG(8).normal(size=(4, 16))
        a = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            if caller == "stap_range_spectrum":
                d, _ = stap_range_spectrum(y, np.vstack([a, a]), "inf")
            else:
                d, _ = sthp_range_spectrum(y, np.exp(1j * np.array([0.0, 2.0])), a, "inf")
        assert [str(w.message) for w in rec] == [
            f"{caller}: steering annihilated by the whitener in 1 of 2 column(s); "
            "spectrum unnormalized"]
        assert np.all(np.isfinite(d)) and not np.any(d[1]) and np.any(d[0])


class TestFaMap:
    def test_zero_measurements_zero_map(self):
        radio = make_radio(num_pri=16)
        sched = build_schedule(radio, make_array(), "fa", fa_seed=3)
        power = fa_range_doppler_map(np.zeros((16, 16), dtype=complex), sched, radio)
        assert power.shape == (16, radio.num_subcarriers) and np.all(power == 0)

    def test_single_target_peak_on_grid(self):
        radio = make_radio(num_pri=32)
        arr = make_array()
        sched = build_schedule(radio, arr, "fa", fa_seed=5)
        n = radio.num_subcarriers
        r_bin, v_bin = 100, 6
        ramp = (np.exp(-2j * np.pi * sched.fa_subcarrier_indices * r_bin / n)
                * np.exp(2j * np.pi * v_bin * np.arange(32) / 32))
        meas = np.outer(np.ones(16), ramp)
        power = fa_range_doppler_map(meas, sched, radio)
        assert np.unravel_index(np.argmax(power), power.shape) == (v_bin, r_bin)

    def test_requires_fa_schedule(self):
        radio = make_radio(num_pri=16)
        sched = build_schedule(radio, make_array(), "comb", chirp_pri_indices=(1,))
        with pytest.raises(ValueError, match="FA"):
            fa_range_doppler_map(np.zeros((16, 16)), sched, radio)

    @staticmethod
    def _fa_case(m, n, sub):
        radio = make_radio(n=n, num_pri=m)
        sched = build_schedule(radio, make_array(), "fa", fa_seed=0)
        return radio, replace(sched, fa_subcarrier_indices=np.asarray(sub))

    @given(seed=st.integers(0, 2**32 - 1), l=st.integers(1, 8), m=st.integers(2, 40),
           n=st.integers(4, 64), pool=st.sampled_from([None, 1, 3]))
    @example(seed=1, l=3, m=40, n=4, pool=None)   # M > N: ten blocks of G rows
    @example(seed=2, l=1, m=9, n=4, pool=3)       # partial last block, repeats
    @settings(max_examples=60, deadline=None)
    def test_gram_form_matches_per_element_oracle(self, seed, l, m, n, pool):
        rng = RNG(seed)
        # pool: subcarriers drawn from the first `pool` indices (heavy repeats).
        sub = rng.integers(0, n if pool is None else min(pool, n), size=m)
        radio, sched = self._fa_case(m, n, sub)
        r0, v0 = rng.integers(0, n), rng.integers(0, m)
        planted = (np.exp(-2j * np.pi * sub * r0 / n)
                   * np.exp(2j * np.pi * v0 * np.arange(m) / m))
        meas = (3.0 * planted + rng.normal(size=(l, m))
                + 1j * rng.normal(size=(l, m)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            power = fa_range_doppler_map(meas, sched, radio)
        assert power.dtype == float and power.shape == (m, n)
        got = oracles.fa_magnitudes(power)
        want = oracles.fa_magnitudes(oracles.fa_range_doppler_map(meas, sched, radio))
        assert np.all(np.isfinite(got)) and np.all(got >= 0)
        assert np.max(np.abs(got - want)) <= 1e-9 * want.max()
        top = np.sort(want.ravel())[-2:]
        if top[1] - top[0] > 1e-9 * top[1]:   # argmax is defined only without a tie
            assert np.argmax(got) == np.argmax(want)

    @given(seed=st.integers(0, 2**32 - 1), l=st.integers(1, 8), m=st.integers(2, 40),
           n=st.integers(4, 64), pool=st.sampled_from([None, 1, 3]))
    @example(seed=1, l=3, m=40, n=4, pool=None)   # M > N: ten blocks of G rows
    @example(seed=4, l=2, m=37, n=7, pool=None)   # odd N, M > N, partial last block
    @example(seed=5, l=1, m=12, n=9, pool=1)      # one subcarrier: every lag is 0
    @settings(max_examples=60, deadline=None)
    def test_half_grid_equals_full_grid_oracle_exactly(self, seed, l, m, n, pool):
        rng = RNG(seed)
        sub = rng.integers(0, n if pool is None else min(pool, n), size=m)
        radio, sched = self._fa_case(m, n, sub)
        meas = rng.normal(size=(l, m)) + 1j * rng.normal(size=(l, m))
        got = fa_range_doppler_map(meas, sched, radio)
        want = oracles.fa_range_doppler_map_full_grid(meas, sched, radio)
        assert np.array_equal(got, want)

    @given(seed=st.integers(0, 2**32 - 1), l=st.integers(1, 8), m=st.integers(2, 40),
           n=st.integers(4, 64), pool=st.sampled_from([None, 1, 3]))
    @example(seed=1, l=3, m=40, n=4, pool=None)   # M > N: ten blocks of G rows
    @example(seed=4, l=2, m=37, n=7, pool=None)   # odd N, M > N, partial last block
    @example(seed=5, l=1, m=12, n=9, pool=1)      # one subcarrier: every lag is 0
    @example(seed=6, l=4, m=30, n=5, pool=3)      # odd N, M > N, repeats
    @settings(max_examples=60, deadline=None)
    def test_conjugate_gram_equals_half_grid_oracle_exactly(self, seed, l, m, n, pool):
        # The conjugate Gram, one interleaved bincount and the in-place inverse
        # transforms must give the zeroed-grid, two-bincount, fft + hfft map.
        rng = RNG(seed)
        sub = rng.integers(0, n if pool is None else min(pool, n), size=m)
        radio, sched = self._fa_case(m, n, sub)
        meas = rng.normal(size=(l, m)) + 1j * rng.normal(size=(l, m))
        got = fa_range_doppler_map(meas, sched, radio)
        want = oracles.fa_range_doppler_map_half_grid(meas, sched, radio)
        assert np.array_equal(got, want)

    @given(seed=st.integers(0, 2**32 - 1), l=st.integers(1, 4), m=st.integers(2, 160),
           n=st.integers(1, 40), pool=st.sampled_from([None, 1, 3]))
    @example(seed=7, l=2, m=150, n=9, pool=None)   # odd N, M > N
    @example(seed=8, l=3, m=64, n=64, pool=None)   # M = N, a one-row last block of three
    @example(seed=9, l=1, m=129, n=4, pool=3)      # repeats
    @example(seed=10, l=2, m=70, n=1, pool=None)   # N = 1: 8-byte rows over 16-byte rows
    @settings(max_examples=60, deadline=None)
    def test_in_place_transform_equals_out_of_place_oracle(self, seed, l, m, n, pool):
        # The real transform writes over the lag grid a block of rows at a
        # time, in the slices cpus.share cuts: blocks of 1 row, 3 rows and
        # the whole grid, each under a helper that runs its share when
        # queued and one that runs the block after the caller's first, must
        # give the map the whole-grid irfft gave.
        rng = RNG(seed)
        sub = rng.integers(0, n if pool is None else min(pool, n), size=m)
        radio, sched = self._fa_case(m, n, sub)
        meas = rng.normal(size=(l, m)) + 1j * rng.normal(size=(l, m))
        want = oracles.fa_range_doppler_map_out_of_place(meas, sched, radio)
        for rows in (1, 3, m):
            for helper in (AtSubmission, Stepped):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(cpus, "PIECE_VALUES", rows * (n // 2 + 1))
                    mp.setattr(cpus, "helper", lambda: helper)
                    got = fa_range_doppler_map(meas, sched, radio)
                assert np.array_equal(got, want), (rows, helper)

    def test_lag_cells_keyed_on_subcarriers_not_shape(self):
        # Two draws with the same (M, N) in one process: a cache keyed on the
        # shape alone would scatter the second onto the first one's cells.
        m, n = 24, 16
        rng = RNG(11)
        meas = rng.normal(size=(3, m)) + 1j * rng.normal(size=(3, m))
        estimator._lag_cells.cache_clear()
        maps = []
        for draw in (rng.integers(0, n, size=m), rng.permutation(np.arange(m) % n)):
            radio, sched = self._fa_case(m, n, draw)
            got = fa_range_doppler_map(meas, sched, radio)
            assert np.array_equal(
                got, oracles.fa_range_doppler_map_full_grid(meas, sched, radio))
            maps.append(got)
        assert not np.array_equal(*maps)
        assert estimator._lag_cells.cache_info().misses == 2

    def test_exact_nulls_clip_to_zero_without_warning(self):
        # A noiseless on-grid target with distinct subcarriers: every cell but
        # one is an exact null, which the Gram form reaches only to rounding;
        # the pipeline's magnitude rule clips the rounding below zero.
        m = n = 32
        radio, sched = self._fa_case(m, n, RNG(7).permutation(n))
        sub = sched.fa_subcarrier_indices
        ramp = (np.exp(-2j * np.pi * sub * 11 / n)
                * np.exp(2j * np.pi * 5 * np.arange(m) / m))
        meas = np.outer(np.ones(4), ramp)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = oracles.fa_magnitudes(fa_range_doppler_map(meas, sched, radio))
        want = oracles.fa_magnitudes(oracles.fa_range_doppler_map(meas, sched, radio))
        assert np.all(np.isfinite(got)) and np.all(got >= 0)
        assert np.unravel_index(np.argmax(got), got.shape) == (11, 5)
        np.testing.assert_allclose(got**2, want**2, rtol=0, atol=1e-12 * want.max() ** 2)


class TestVaAssemble:
    def test_unity_tx_identity(self):
        arr = make_array()
        mats = [RNG(20).normal(size=(16, 8)) + 0j]
        np.testing.assert_allclose(va_assemble(mats, arr), mats[0])

    @given(rx=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           tx=st.tuples(st.integers(1, 3), st.integers(1, 3)), va=st.booleans(),
           cols=st.integers(1, 6), real=st.booleans(), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_equals_general_scatter_oracle(self, rx, tx, va, cols, real, seed):
        # Every slot count, one included, must equal the general row scatter.
        arr = make_array(cols=rx[0], rows=rx[1], tx=1, va=va)
        arr = replace(arr, tx_cols=tx[0], tx_rows=tx[1])
        rng = RNG(seed)
        shape = (arr.num_rx, cols)
        slots = [rng.normal(size=shape) if real
                 else rng.normal(size=shape) + 1j * rng.normal(size=shape)
                 for _ in range(arr.slots_per_chirp)]
        out = va_assemble(slots, arr)
        want = oracles.va_assemble_scatter(slots, arr)
        assert out.dtype == want.dtype
        assert np.array_equal(out, want)

    def test_steering_stack_matches_big_ura(self):
        arr = make_array(cols=2, rows=2, tx=2, va=True)
        sx, sy = 0.31, -0.22
        a_r = steering_ura_from_sin(sx, sy, ura(2, 2, LAM / 2, LAM / 2), LAM)
        # Transmit factor: small array spaced at Lx*dx = lambda.
        a_tx = steering_ura_from_sin(sx, sy, ura(2, 2, LAM, LAM), LAM)
        slots = [np.outer(a_tx[e] * a_r, np.ones(3)) for e in range(4)]
        out = va_assemble(slots, arr)
        big = steering_ura_from_sin(sx, sy, arr, LAM)
        ratio = out[:, 0] / big
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-12)

    def test_wrong_slot_count(self):
        arr = make_array(cols=2, rows=2, tx=2, va=True)
        with pytest.raises(ValueError, match="slot matrices"):
            va_assemble([np.ones((4, 3))] * 3, arr)
        # (L, N) matrices only: a (W, L, N) stack per slot is not assembled.
        with pytest.raises(ValueError, match="receive array size"):
            va_assemble([np.ones((2, 4, 3))] * 4, arr)

    def test_commutes_with_angle_fft(self):
        # Angle map of the assembled snapshot peaks at the fine VA bin.
        arr = make_array(cols=2, rows=2, tx=2, va=True)
        # On the 4x4 virtual grid (step 0.5) but off the 2x2 coarse grid (step 1).
        sx, sy = 0.5, -0.5
        a_r = steering_ura_from_sin(sx, sy, ura(2, 2, LAM / 2, LAM / 2), LAM)
        a_tx = steering_ura_from_sin(sx, sy, ura(2, 2, LAM, LAM), LAM)
        slots = [np.outer(a_tx[e] * a_r, np.ones(4)) for e in range(4)]
        out = va_assemble(slots, arr)
        avm = angle_velocity_map(out, arr, make_radio(num_pri=4))
        peak = np.unravel_index(np.argmax(avm.values), avm.values.shape)
        assert avm.sin_x(peak[0]) == pytest.approx(0.5)
        assert avm.sin_y(peak[1]) == pytest.approx(-0.5)
        # Doubled aperture doubles the number of angle bins per axis.
        assert avm.values.shape[0] == 2 * arr.rx_cols

    def test_sthp_time_stage_ignores_added_static_component(self):
        # Adding any PRI-constant (occasion-constant) rank-L matrix leaves
        # the combined spatial stage input unchanged.
        rng = RNG(21)
        w, l, n = 3, 4, 32
        a_t = np.exp(1j * np.array([0.3, 1.7, 2.4]))
        gamma = np.linalg.pinv(np.stack([a_t, np.ones(w, dtype=complex)], axis=1))
        w_t = gamma[0]
        y = rng.normal(size=(w * l, n)) + 1j * rng.normal(size=(w * l, n))
        static = np.tile(rng.normal(size=(l, n)) + 1j * rng.normal(size=(l, n)), (w, 1))
        comb = np.tensordot(w_t, y.reshape(w, l, n), axes=1)
        comb2 = np.tensordot(w_t, (y + 1e3 * static).reshape(w, l, n), axes=1)
        assert np.max(np.abs(comb2 - comb)) < 1e-10 * np.max(np.abs(comb))


def test_signed_bin_convention():
    np.testing.assert_array_equal(signed_bin(np.arange(8), 8),
                                  [0, 1, 2, 3, -4, -3, -2, -1])
    np.testing.assert_array_equal(signed_bin(np.arange(5), 5), [0, 1, 2, -2, -1])


def test_maps_music_and_scoring_share_one_velocity_grid(monkeypatch):
    # 70 PRIs of 0.3 ms make 0.020999999999999998 s, not the 21 ms CPI: the
    # maps and MUSIC stepped c / (2 f_c M T_PRI), resolution_report and the
    # scorer c / (2 f_c T_CPI).
    raw = yaml.safe_load(preset_path("desk_small").read_text())
    raw["radio"].update(pri_ms=0.3, symbols_per_pri=18, cpi_ms=21.0)
    scene = validate_scene(config_from_dict(raw)[0])
    radio, arr = scene.radio, scene.array.with_va(False)
    assert radio.num_pri * radio.pri_s != radio.cpi_s
    grid = resolution_report(radio, arr).velocity_res_mps
    y = RNG(3).normal(size=(arr.num_rx, radio.num_pri)) + 0j
    assert angle_velocity_map(y, arr, radio).velocity_res_mps == grid
    fa = build_schedule(radio, arr, "fa", fa_seed=1)
    est = run_fa_pipeline(y, scene, fa, 1)[0]
    assert est.velocity_bin != 0 and est.velocity_mps == est.velocity_bin * grid
    # MUSIC scans coarse + {-1, 0, 1} steps (factor 1); take the last candidate.
    monkeypatch.setattr(estimator, "_music_scan", lambda e_s, cand: cand.shape[1] - 1)
    peak = CoarsePeak(sin_psi_x=0.0, sin_psi_y=0.0, velocity_mps=0.0)
    assert music_refine(y, peak, arr, radio, factor=1)[0] == grid
