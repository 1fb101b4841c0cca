from __future__ import annotations

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_array, make_radio
from mars_jcas.cli import preset_path
from mars_jcas.io import _read, parse_config, to_dict
from mars_jcas.waveform import (
    MarsSchedule,
    build_schedule,
    chirp_time_samples,
    overhead_fraction,
    symbol_time_samples,
)
from oracles import chirp_freq_coeffs, ofdm_time_samples


def brute_cyclic_autocorr(x: np.ndarray) -> np.ndarray:
    """Direct-sum oracle: r[l] = sum_k x[k] conj(x[k-l mod N])."""
    n = x.size
    return np.array([np.sum(x * np.conj(np.roll(x, lag))) for lag in range(n)])


class TestChirp:
    def test_first_sample_is_one(self):
        x = chirp_time_samples(make_radio(n=64))
        assert x[0] == pytest.approx(1.0 + 0j)

    @pytest.mark.parametrize("n", [16, 63, 256, 2048])
    def test_constant_modulus(self, n):
        x = chirp_time_samples(make_radio(n=n))
        assert np.max(np.abs(np.abs(x) - 1.0)) < 1e-12

    @pytest.mark.parametrize("n", [256, 2048])
    def test_ideal_cyclic_autocorrelation(self, n):
        x = chirp_time_samples(make_radio(n=n))
        r = brute_cyclic_autocorr(x)
        assert r[0] == pytest.approx(n)
        assert np.max(np.abs(r[1:])) < 1e-9 * n

    def test_reduced_phase_form(self):
        # With B*T = N the sample phase collapses to pi*k^2/N.
        n = 128
        x = chirp_time_samples(make_radio(n=n))
        k = np.arange(n)
        np.testing.assert_allclose(x, np.exp(1j * np.pi * k**2 / n), atol=1e-10)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            chirp_time_samples(make_radio(n=1))

    @pytest.mark.parametrize("preset", ["desk_small", "table1_car", "table1_uav"])
    def test_preset_chirp_equals_rate_derived_step(self, preset):
        # The radio's own T_sym / N steps the preset chirps bit for bit as the
        # step sqrt(N / mu) / N recovered from the chirp rate did.
        radio = parse_config(preset_path(preset))[0].radio
        np.testing.assert_array_equal(chirp_time_samples(radio),
                                      oracles.chirp_time_samples(radio))


class TestFreqCoeffs:
    def test_round_trip(self):
        x = chirp_time_samples(make_radio(n=512))
        coeffs = chirp_freq_coeffs(x)
        back = ofdm_time_samples(coeffs)
        assert np.max(np.abs(back - x)) < 1e-10

    def test_energy_preserved(self):
        n = 256
        x = chirp_time_samples(make_radio(n=n))
        coeffs = chirp_freq_coeffs(x)
        assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(n)

    def test_flat_spectrum_against_brute_dft(self):
        n = 256
        x = chirp_time_samples(make_radio(n=n))
        # Brute-force DFT oracle, no FFT on this side.
        k = np.arange(n)
        oracle = np.array([np.sum(x * np.exp(-2j * np.pi * f * k / n)) for f in range(n)])
        oracle /= np.sqrt(n)
        np.testing.assert_allclose(chirp_freq_coeffs(x), oracle, atol=1e-9)
        # Even-N chirps have a perfectly flat magnitude spectrum.
        np.testing.assert_allclose(np.abs(oracle), 1.0, atol=1e-9)


class TestBuildSchedule:
    def test_table1_car_comb(self):
        radio = make_radio(n=2048, num_pri=500)
        sched = build_schedule(radio, make_array(cols=8, rows=8), "comb",
                               chirp_pri_indices=(1, 3, 6, 10))
        assert sched.num_chirp_occasions == 4
        assert sched.chirp_pri_indices == (1, 3, 6, 10)
        assert sched.num_tone_pris == 496
        assert sched.tone_subcarrier_index == 1024
        assert sched.duty_ratio == pytest.approx(1.0 / 15.0)
        p = sched.per_symbol_power_w
        assert p[1] == pytest.approx(10.0 * radio.avg_tx_power_w)
        assert p[0] == pytest.approx(radio.avg_tx_power_w * (500 - 40) / (500 - 4))
        assert p[0] / radio.avg_tx_power_w == pytest.approx(0.9274, abs=5e-4)

    def test_power_allocation_infeasible(self):
        with pytest.raises(ValueError, match="10\\*W"):
            build_schedule(make_radio(num_pri=30), make_array(), "comb",
                           chirp_pri_indices=(1, 3, 6))

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError, match="0"):
            build_schedule(make_radio(), make_array(), "comb", chirp_pri_indices=(0, 5))

    def test_non_integer_index_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            build_schedule(make_radio(), make_array(), "comb", chirp_pri_indices=(1.5, 6))
        sched = build_schedule(make_radio(), make_array(), "comb", chirp_pri_indices=(1.0, 6))
        assert sched.chirp_pri_indices == (1, 6)

    def test_fa_with_va_rejected(self):
        with pytest.raises(ValueError, match="virtual aperture"):
            build_schedule(make_radio(), make_array(tx=2, va=True), "fa", fa_seed=1)

    def test_lshape_single_occasion(self):
        sched = build_schedule(make_radio(), make_array(), "lshape", chirp_pri_indices=(1,))
        assert sched.num_chirp_occasions == 1
        with pytest.raises(ValueError, match="exactly one"):
            build_schedule(make_radio(), make_array(), "lshape", chirp_pri_indices=(1, 2))

    def test_va_slot_expansion(self):
        sched = build_schedule(make_radio(), make_array(tx=2, va=True), "comb",
                               chirp_pri_indices=(1, 6, 15))
        assert sched.slots_per_chirp == 4
        assert list(sched.chirp_slot_pris()) == [1, 2, 3, 4, 6, 7, 8, 9, 15, 16, 17, 18]
        # Slot order is x-fastest over the transmit elements.
        assert sched.va_slots[0] == ((1, 0, 0), (2, 1, 0), (3, 0, 1), (4, 1, 1))

    def test_va_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            build_schedule(make_radio(), make_array(tx=2, va=True), "comb",
                           chirp_pri_indices=(1, 3, 6))

    @given(m=st.integers(30, 200), w=st.integers(1, 2), va=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_average_power_exact(self, m, w, va):
        radio = make_radio(num_pri=m, power_w=0.125)
        arr = make_array(tx=2, va=va)
        indices = tuple(1 + 5 * i for i in range(w))
        sched = build_schedule(radio, arr, "comb", chirp_pri_indices=indices)
        mean = float(np.mean(sched.per_symbol_power_w))
        assert abs(mean - radio.avg_tx_power_w) <= 1e-12 * radio.avg_tx_power_w

    def test_fa_uniform_power_and_seeded(self):
        radio = make_radio(num_pri=100)
        s1 = build_schedule(radio, make_array(), "fa", fa_seed=9)
        s2 = build_schedule(radio, make_array(), "fa", fa_seed=9)
        s3 = build_schedule(radio, make_array(), "fa", fa_seed=10)
        np.testing.assert_array_equal(s1.fa_subcarrier_indices, s2.fa_subcarrier_indices)
        assert not np.array_equal(s1.fa_subcarrier_indices, s3.fa_subcarrier_indices)
        assert np.all(s1.per_symbol_power_w == radio.avg_tx_power_w)


class TestOverhead:
    def test_conventional_full_occupancy(self):
        radio = make_radio(n=1024, num_pri=64, spp=1, pri=1.0 / 60e3)
        sched = build_schedule(radio, make_array(), "conventional_chirp")
        assert overhead_fraction(sched, radio) == pytest.approx(1.0)

    def test_lshape_64_by_1024_fraction(self):
        radio = make_radio(n=1024, num_pri=64, spp=1, pri=1.0 / 60e3)
        sched = build_schedule(radio, make_array(), "lshape", chirp_pri_indices=(1,))
        frac = overhead_fraction(sched, radio)
        assert frac == pytest.approx((64 + 1024 - 1) / 65536)
        assert abs(frac - 0.0166) < 0.001

    def test_table1_comb_under_0p4_percent(self):
        radio = make_radio(n=2048, num_pri=500, spp=15)
        sched = build_schedule(radio, make_array(cols=8, rows=8), "comb",
                               chirp_pri_indices=(1, 3, 6, 10))
        assert overhead_fraction(sched, radio) < 0.004

    def test_va_multiplies_chirp_elements(self):
        radio = make_radio(n=2048, num_pri=500, spp=15)
        off = build_schedule(radio, make_array(cols=8, rows=8, tx=2, va=False), "comb",
                             chirp_pri_indices=(1, 6, 16, 30))
        on = build_schedule(radio, make_array(cols=8, rows=8, tx=2, va=True), "comb",
                            chirp_pri_indices=(1, 6, 16, 30))
        assert on.num_chirp_symbols == 4 * off.num_chirp_symbols
        ratio = overhead_fraction(on, radio) / overhead_fraction(off, radio)
        assert 2.5 <= ratio <= 4.5

    def test_guard_band_counted(self):
        radio = make_radio(n=1024, num_pri=64, spp=1, pri=1.0 / 60e3)
        plain = build_schedule(radio, make_array(), "lshape", chirp_pri_indices=(1,))
        guarded = build_schedule(radio, make_array(), "lshape", chirp_pri_indices=(1,),
                                 guard_subcarriers=2)
        extra = overhead_fraction(guarded, radio) - overhead_fraction(plain, radio)
        assert extra == pytest.approx(2 * 63 / 65536)


class TestScheduleSerialization:
    @pytest.mark.parametrize("structure", ["comb", "lshape", "fa", "conventional_chirp"])
    def test_round_trip(self, structure):
        radio = make_radio(num_pri=64)
        kw = {"fa_seed": 5} if structure == "fa" else {"chirp_pri_indices": (1,)}
        sched = build_schedule(radio, make_array(tx=2, va=structure == "comb"),
                               structure, **kw)
        text = yaml.safe_dump(to_dict(sched))
        back = _read(MarsSchedule, yaml.safe_load(text), "schedule")
        assert back.chirp_pri_indices == sched.chirp_pri_indices
        assert back.va_slots == sched.va_slots
        assert back.structure == sched.structure
        np.testing.assert_allclose(back.per_symbol_power_w, sched.per_symbol_power_w)
        if structure == "fa":
            np.testing.assert_array_equal(back.fa_subcarrier_indices,
                                          sched.fa_subcarrier_indices)

    def test_every_symbol_constant_modulus(self):
        radio = make_radio(num_pri=32)
        for structure, kw in [("comb", {"chirp_pri_indices": (1, 2)}), ("fa", {"fa_seed": 3})]:
            sched = build_schedule(radio, make_array(), structure, **kw)
            for pri in (0, 1, 5):
                samples = symbol_time_samples(sched, radio, pri)
                np.testing.assert_allclose(np.abs(samples), 1.0, atol=1e-12)
