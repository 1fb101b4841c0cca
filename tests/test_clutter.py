from __future__ import annotations

import math
import os
import signal
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.constants import c as C0

import oracles
from conftest import (DESK_MC, WAVELENGTH, assert_no_child, make_array, make_radio,
                      make_scene)
from mars_jcas import clutter, cpus
from mars_jcas.cli import preset_path
from mars_jcas.clutter import (
    ClutterMap,
    GtriParams,
    build_clutter_map,
    gtri_reflectivity,
    terrain_params,
    terrain_preset,
)
from mars_jcas.harness import monte_carlo, record_rows
from mars_jcas.io import parse_config
from mars_jcas.scene import (
    ArrayGeometry,
    ClutterConfig,
    received_power,
    steering_ura_from_sin,
    validate_scene,
)


def assert_same_map(got, want):
    assert np.array_equal(got.chirp_tables, want.chirp_tables)
    assert np.array_equal(got.tone_vec, want.tone_vec)
    assert got.patch_count == want.patch_count


def assert_near_map(got, want, rel):
    """Tables and tone vector within ``rel`` of their largest magnitude,
    with the same zero entries and patch count."""
    assert got.chirp_tables.shape == want.chirp_tables.shape
    assert got.patch_count == want.patch_count
    for a, b in ((got.chirp_tables, want.chirp_tables), (got.tone_vec, want.tone_vec)):
        assert np.abs(a - b).max() <= rel * np.abs(b).max()
        assert np.array_equal(a == 0, b == 0)


class TestGtri:
    def test_identity_collapse(self):
        params = GtriParams(a=1.0, b=1.0, c=0.0, d=0.0, sigma_h_m=0.0)
        assert gtri_reflectivity(0.3, params, 0.06) == pytest.approx(0.3)

    def test_zero_grazing_zero_reflectivity(self):
        params = GtriParams(a=2.0, b=1.5, c=0.0, d=1.0, sigma_h_m=0.0)
        assert gtri_reflectivity(0.0, params, 0.06) == 0.0

    def test_grass_preset_one_line_oracle(self):
        p = terrain_preset("grass_5ghz")
        lam = C0 / 5e9
        got = gtri_reflectivity(0.05, p, lam)
        want = p.a * (0.05 + p.c) ** p.b * math.exp(-p.d / (1 + 0.1 * p.sigma_h_m / lam))
        assert got == pytest.approx(want, rel=1e-12)

    def test_negative_base_non_integer_exponent(self):
        params = GtriParams(a=1.0, b=0.5, c=-0.2, d=0.0, sigma_h_m=0.0)
        with pytest.raises(ValueError, match=r"\(delta \+ C\) must be >= 0"):
            gtri_reflectivity(0.1, params, 0.06)

    def test_negative_grazing_rejected(self):
        params = GtriParams(a=1.0, b=1.0, c=0.0, d=0.0, sigma_h_m=0.0)
        with pytest.raises(ValueError):
            gtri_reflectivity(-0.1, params, 0.06)

    def test_unknown_terrain(self):
        with pytest.raises(ValueError, match="unknown terrain"):
            terrain_preset("lava_5ghz")


class TestPhasors:
    """The float32-angle phasors the build takes for each patch's random
    phase and each pair's tone carrier, against float64 ``np.exp``. The
    bound is the one the receiver noise's float32 angle keeps
    (test_noise.py): rounding the angle moves a phasor by at most about
    3e-7."""

    @staticmethod
    def patch_phases():
        # As the build draws them, with both ends of [0, 2 pi).
        phase = np.random.default_rng(49).uniform(0.0, 2.0 * np.pi, size=10**6)
        phase[:2] = 0.0, np.nextafter(2.0 * np.pi, 0.0)
        return phase

    def test_patch_phasors_within_1e_6_of_float64(self):
        phase = self.patch_phases()
        assert np.abs(clutter._phasors(phase) - np.exp(1j * phase)).max() <= 1e-6

    # From the lowest station height the property test draws to past its
    # 2.52 km standoff, at make_radio's and every preset's 5 GHz carrier:
    # up to about 8.7e4 cycles.
    RANGES_M = (1.0, 2600.0)

    def test_carrier_phasors_within_1e_6_of_float64(self):
        r = np.linspace(*self.RANGES_M, 10**6)
        fc = make_radio().carrier_freq_hz
        want = np.exp(2j * np.pi * fc * (2.0 * r / C0))
        got = clutter._phasors(2.0 * np.pi * clutter._carrier_cycles(r, fc))
        assert np.abs(got - want).max() <= 1e-6

    def test_carrier_cycles_reduced_exactly(self):
        r = np.random.default_rng(50).uniform(*self.RANGES_M, size=2000)
        r[:2] = self.RANGES_M
        fc = make_radio().carrier_freq_hz
        cycles = clutter._carrier_cycles(r, fc)
        assert np.all(np.abs(cycles) <= 0.5)
        for ri, got in zip(r.tolist(), cycles.tolist()):
            exact = 2 * Fraction(fc) * Fraction(ri) / Fraction(C0)
            # got is 2 f_c r / c less an integer, so the difference is one.
            off = Fraction(got) - exact
            assert abs(off - round(off)) <= Fraction(1, 10**9)

    # The steering steps stay float64, written from float64 cos and sin in
    # place of complex exp. Bit-equality with exp is a host's result (not
    # asserted); the powers stay within rounding of the exp form up to
    # n = 16, a 16 x 16 virtual URA's longest chain.
    @given(angles=st.lists(st.floats(-2.0 * np.pi, 2.0 * np.pi), min_size=1, max_size=64),
           n=st.integers(1, 16))
    @example(angles=[0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, -2.0 * np.pi], n=16)
    @settings(max_examples=100, deadline=None)
    def test_phase_powers_within_1e_13_of_exp_step(self, angles, n):
        phase = np.array(angles)
        got = clutter._phase_powers(phase, n)
        assert got.shape == (n, phase.size)
        assert np.abs(got - oracles.phase_powers_exp(phase, n)).max() <= 1e-13

    def test_phasors_do_not_depend_on_slicing(self):
        phase = self.patch_phases()
        whole = clutter._phasors(phase)
        for size in (7, 16384):
            parts = [clutter._phasors(phase[lo:lo + size]) for lo in range(0, phase.size, size)]
            assert np.array_equal(np.concatenate(parts), whole)
        order = np.random.default_rng(51).permutation(phase.size)
        assert np.array_equal(clutter._phasors(phase[order]), whole[order])


class TestClutterMap:
    def test_default_grid_is_two_million_patches(self, desk_clutter):
        assert desk_clutter.patch_count == 2_000_000
        assert desk_clutter.num_tx_slots == 4

    # The pair build rests on it: the patch at column i and its mirror at
    # nx - 1 - i lie at exactly opposite x.
    @given(area=st.floats(0.51, 5000.0), cell=st.floats(0.01, 50.0))
    @example(area=4000.0, cell=1.0)
    @example(area=0.9, cell=0.3)
    @settings(max_examples=200, deadline=None)
    def test_patch_grid_x_mirrors_exactly(self, area, cell):
        assume(area / cell <= 2e5)
        xs, _ = clutter.patch_grid(ClutterConfig(area_x_m=area, area_y_m=1.0, cell_m=cell))
        assert xs.size == round(area / cell)
        assert np.array_equal(xs[::-1], -xs)

    def test_station_height_required(self):
        scene = make_scene(clutter_enabled=True)
        scene = replace(scene, clutter=replace(scene.clutter, station_height_m=0.0))
        with pytest.raises(ValueError, match="height"):
            build_clutter_map(scene)

    def test_tiny_grid_matches_brute_force(self):
        scene = make_scene(clutter_enabled=True)
        scene = replace(scene, clutter=replace(scene.clutter, area_x_m=20.0, area_y_m=10.0,
                                               station_height_m=5.0))
        cmap = build_clutter_map(scene)
        params = terrain_params(scene)
        lam = scene.radio.wavelength_m
        arr = scene.array

        # Per-patch python loop, no aggregation machinery.
        from mars_jcas.seeding import rng_for
        rng = rng_for(scene.seed, "clutter")
        xs = np.arange(20) - 9.5
        ys = np.arange(10) + 0.5
        n_bins = scene.radio.num_subcarriers
        tables = np.zeros((n_bins, arr.num_rx), dtype=complex)
        tone = np.zeros(arr.num_rx, dtype=complex)
        h = 5.0
        # The library's float32 phasors for the random phases and the carrier.
        phasors = clutter._phasors(rng.uniform(0, 2 * np.pi, size=200))
        idx = 0
        for x in xs:
            for y in ys:
                r = math.sqrt(x * x + y * y + h * h)
                graz = math.asin(h / r)
                sigma0 = params.a * (graz + params.c) ** params.b * math.exp(
                    -params.d / (1 + 0.1 * params.sigma_h_m / lam))
                amp = math.sqrt(received_power("radar", 1.0, 1.0, 1.0, lam, r,
                                               rcs_m2=max(sigma0, 1e-300)))
                coeff = amp * phasors[idx]
                idx += 1
                steer = steering_ura_from_sin(x / r, -h / r, arr, lam)
                b = round(r / cmap.range_res_m)
                tables[b] += coeff * steer
                tone += coeff * steer * clutter._phasors(
                    2 * np.pi * clutter._carrier_cycles(r, scene.radio.carrier_freq_hz))
        # The grid walks x-major in the implementation; phases must line up.
        np.testing.assert_allclose(cmap.chirp_tables[0], tables, rtol=1e-9, atol=1e-25)
        np.testing.assert_allclose(cmap.tone_vec, tone, rtol=1e-9, atol=1e-25)

    def test_area_standoff_shifts_first_populated_bin(self):
        scene = make_scene(clutter_enabled=True, seed=4)
        near = replace(scene, clutter=ClutterConfig(enabled=True, area_x_m=40.0,
                                                    area_y_m=20.0, station_height_m=10.0))
        far = replace(scene, clutter=ClutterConfig(enabled=True, area_x_m=40.0,
                                                   area_y_m=20.0, station_height_m=10.0,
                                                   area_standoff_m=200.0))
        m_near = build_clutter_map(near)
        m_far = build_clutter_map(far)
        p_near = np.sum(np.abs(m_near.chirp_tables[0]) ** 2, axis=1)
        p_far = np.sum(np.abs(m_far.chirp_tables[0]) ** 2, axis=1)
        first = lambda p: int(np.nonzero(p)[0][0])
        assert first(p_near) * m_near.range_res_m < 30.0
        assert first(p_far) * m_far.range_res_m >= 200.0

    def test_power_in_annulus_positive_and_bounded(self, desk_clutter):
        power = np.sum(np.abs(desk_clutter.chirp_tables[0]) ** 2, axis=1)
        # Ring energy exists across the populated ranges and none beyond the area.
        assert power[2:300].sum() > 0
        max_bin = int(math.hypot(1000, 1000) / desk_clutter.range_res_m) + 1
        assert power[max_bin + 2:].sum() == 0

    def test_reference_slot_matches_unit_tx_phase(self):
        # Slot 0 is the reference transmit element: identical to a no-VA build.
        scene = make_scene(arr=make_array(tx=2), clutter_enabled=True, seed=7151)
        scene = replace(scene, clutter=ClutterConfig(enabled=True, station_height_m=10.0,
                                                     area_x_m=60.0, area_y_m=30.0))
        no_va = build_clutter_map(scene)
        va = build_clutter_map(replace(scene, array=scene.array.with_va(True)))
        np.testing.assert_allclose(va.chirp_tables[0], no_va.chirp_tables[0], rtol=1e-12)
        assert not np.allclose(va.chirp_tables[1], no_va.chirp_tables[0])

    @given(rx=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           tx=st.tuples(st.integers(1, 3), st.integers(1, 3)), va=st.booleans(),
           spacing=st.tuples(st.floats(0.3, 1.0), st.floats(0.3, 1.0)),
           n=st.integers(8, 128), grid=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           standoff=st.sampled_from([0.0, 40.0, 2400.0, 2460.0]),
           height=st.floats(1.0, 50.0), chunk=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1))
    @example(rx=(4, 2), tx=(3, 2), va=True, spacing=(0.5, 0.7), n=64, grid=(12, 12),
             standoff=2460.0, height=10.0, chunk=7, seed=5)
    @example(rx=(2, 3), tx=(2, 1), va=False, spacing=(0.4, 0.9), n=16, grid=(9, 5),
             standoff=40.0, height=3.0, chunk=60, seed=6)
    # An odd nx, whose centre column pairs with itself; one column; one pair
    # of columns; and a grid whose patches all lie past the last bin.
    @example(rx=(3, 2), tx=(2, 2), va=True, spacing=(0.5, 0.5), n=32, grid=(7, 4),
             standoff=0.0, height=20.0, chunk=3, seed=8)
    @example(rx=(2, 2), tx=(2, 1), va=True, spacing=(0.5, 0.5), n=32, grid=(1, 6),
             standoff=40.0, height=10.0, chunk=2, seed=9)
    @example(rx=(2, 2), tx=(1, 2), va=True, spacing=(0.5, 0.5), n=32, grid=(2, 6),
             standoff=40.0, height=10.0, chunk=2, seed=10)
    @example(rx=(2, 2), tx=(2, 2), va=True, spacing=(0.5, 0.5), n=64, grid=(6, 3),
             standoff=2520.0, height=10.0, chunk=5, seed=11)
    # The phases are drawn from one generator in pieces of CHUNK_PATCHES,
    # and the bin keys made CHUNK_PATCHES // ny columns at a time: 300 x 250
    # patches at chunks of 1024 take 73 whole pieces and a part one, and
    # the 150 half-grid columns 37 blocks of 4 and one of 2.
    @example(rx=(2, 2), tx=(2, 2), va=True, spacing=(0.5, 0.5), n=128, grid=(300, 250),
             standoff=0.0, height=10.0, chunk=1024, seed=51)
    @settings(max_examples=60, deadline=None)
    def test_virtual_array_pass_matches_slot_element_loop(self, rx, tx, va, spacing, n, grid,
                                                          standoff, height, chunk, seed):
        # Standoffs near 2.5 km put far patches past the last range bin
        # (c / (2 * 60 kHz)); chunks of 1..60 mirror pairs split every grid
        # of more than one chunk, mostly not into equal parts.
        cell = 5.0
        scene = make_scene(radio=make_radio(n=n), clutter_enabled=True, seed=seed)
        arr = ArrayGeometry(rx_cols=rx[0], rx_rows=rx[1],
                            rx_spacing_x_m=spacing[0] * WAVELENGTH,
                            rx_spacing_y_m=spacing[1] * WAVELENGTH,
                            tx_cols=tx[0], tx_rows=tx[1], va_enabled=va)
        scene = replace(scene, array=arr, clutter=ClutterConfig(
            enabled=True, area_x_m=grid[0] * cell, area_y_m=grid[1] * cell, cell_m=cell,
            station_height_m=height, area_standoff_m=standoff))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clutter, "CHUNK_PATCHES", chunk)
            got = build_clutter_map(scene)
            # Bit for bit the paired build that held every per-pair array at
            # once, and at rounding level the one column per patch it
            # replaced.
            assert_same_map(got, oracles.build_clutter_map_pairs(scene))
            assert_near_map(got, oracles.build_clutter_map_full_grid(scene), 1e-13)
        want = oracles.build_clutter_map(scene)
        assert got.chirp_tables.shape == want.chirp_tables.shape
        assert got.patch_count == want.patch_count
        for a, b in ((got.chirp_tables, want.chirp_tables), (got.tone_vec, want.tone_vec)):
            scale = np.abs(b).max()
            assert np.abs(a - b).max() <= 1e-12 * scale
            assert np.array_equal(a == 0, b == 0)

    @pytest.mark.parametrize("preset,va", [("desk_small", True), ("table1_car", False)])
    def test_preset_map_equals_full_grid_build(self, preset, va):
        scene = validate_scene(parse_config(preset_path(preset))[0])
        scene = replace(scene, array=scene.array.with_va(va))
        got = build_clutter_map(scene)
        assert_same_map(got, oracles.build_clutter_map_pairs(scene))
        assert_near_map(got, oracles.build_clutter_map_full_grid(scene), 1e-13)

    # The float32-angle phasors against the float64 complex exponentials the
    # build took before: the tables and tone vector move by at most 1e-6 of
    # their largest entry (about 1.5e-7 read), and the desk_mc drops score
    # the same records on either map.
    @pytest.mark.parametrize("preset,va", [("desk_small", True), ("table1_car", False)])
    def test_preset_map_within_1e_6_of_float64_phasors(self, preset, va):
        scene = validate_scene(parse_config(preset_path(preset))[0])
        scene = replace(scene, array=scene.array.with_va(va))
        assert_near_map(build_clutter_map(scene),
                        oracles.build_clutter_map_pairs_float64(scene), 1e-6)

    def test_desk_mc_records_equal_on_float64_phasor_map(self, desk, desk_clutter):
        scene, plan = desk
        float64 = oracles.build_clutter_map_pairs_float64(
            replace(scene, array=scene.array.with_va(True)))
        assert not np.array_equal(float64.chirp_tables, desk_clutter.chirp_tables)
        plan = replace(plan, pipelines=DESK_MC, num_drops=20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got_curves, got = monte_carlo(plan, scene, desk_clutter)
            want_curves, want = monte_carlo(plan, scene, float64)
        # records.csv's rows and the curves; an estimate's amplitude, which
        # neither holds, moves in its last digits.
        assert len(got.records) == 20 * len(DESK_MC)
        assert record_rows(got.records) == record_rows(want.records)
        assert got_curves == want_curves

    # Below 2**16 subcarriers the sort keys are uint16 (the key
    # num_subcarriers marks a patch past the last bin); from 2**16 on they
    # are intp. The patches' bins run from about 65 525 to 65 545.
    @pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1])
    def test_sort_key_width_boundary(self, n):
        scene = make_scene(radio=make_radio(n=n), arr=make_array(cols=2, rows=1, tx=2, va=True),
                           clutter_enabled=True, seed=n)
        res = scene.radio.range_res_m
        scene = replace(scene, clutter=ClutterConfig(
            enabled=True, area_x_m=3 * res, area_y_m=20 * res, cell_m=res,
            station_height_m=1.0, area_standoff_m=(2**16 - 11) * res))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clutter, "CHUNK_PATCHES", 7)
            got = build_clutter_map(scene)
            assert_same_map(got, oracles.build_clutter_map_pairs(scene))
        bins = np.flatnonzero(np.abs(got.chirp_tables[0]).sum(axis=1))
        assert bins.min() < 2**16 - 1 and bins.max() == min(n, 2**16 + 10) - 1

    # The chunks' products are added in chunk order, whichever process made
    # them, so every table entry sums the same terms in the same order at
    # any CPU count; 3 CPUs fork two children beside the calling process.
    def test_same_desk_map_at_any_cpu_count(self, desk):
        scene, _ = desk
        scene = replace(scene, array=scene.array.with_va(True))
        maps = []
        for count in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cpus, "count", lambda: count)
                maps.append(build_clutter_map(scene))
        assert_same_map(maps[0], maps[1])
        assert_same_map(maps[0], maps[2])
        assert_no_child()

    def test_same_small_map_at_any_cpu_count(self, tmp_path):
        # Chunks of 4 pairs: most bins straddle many chunks, so an entry's
        # terms come from chunks that different processes computed.
        chunk = 4
        scene = make_scene(arr=make_array(tx=2, va=True), clutter_enabled=True, seed=19)
        scene = replace(scene, clutter=ClutterConfig(enabled=True, area_x_m=60.0,
                                                     area_y_m=40.0, cell_m=1.0,
                                                     station_height_m=10.0))
        xs, ys = clutter.patch_grid(scene.clutter)
        r = np.sqrt(np.add.outer(xs[30:] ** 2, ys * ys) + 100.0)
        bins = np.rint(r / scene.radio.range_res_m).astype(int)
        assert np.bincount(bins.ravel()).max() > 10 * chunk
        reflectivity = clutter.gtri_reflectivity
        maps, outside = [], []

        def logged(*args):
            # Once a chunk: the pid of the process that computes it.
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return reflectivity(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clutter, "CHUNK_PATCHES", chunk)
            mp.setattr(clutter, "gtri_reflectivity", logged)
            for count in (1, 3):
                mp.setattr(cpus, "count", lambda: count)
                log = tmp_path / f"pids{count}"
                maps.append(build_clutter_map(scene))
                pids = log.read_text().split()
                outside.append((len(pids), sum(pid != str(os.getpid()) for pid in pids),
                                len(set(pids))))
            assert_same_map(maps[0], oracles.build_clutter_map_pairs(scene))
        assert_same_map(*maps)
        # One CPU computes every chunk in the calling process; three hand
        # two of every three chunks to two children. The 60 columns make
        # 30 pairs.
        chunks = math.ceil(maps[0].patch_count / 2 / chunk)
        assert outside == [(chunks, 0, 1), (chunks, chunks - math.ceil(chunks / 3), 3)]
        assert_no_child()

    def test_chunk_error_surfaces_at_any_cpu_count(self):
        # gtri_reflectivity rejects a negative A inside every chunk, so the
        # calling process's first chunk raises while the children compute.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clutter, "CHUNK_PATCHES", 8)
            for count in (1, 2, 3):
                mp.setattr(cpus, "count", lambda: count)
                with pytest.raises(ValueError, match="A must be >= 0"):
                    build_clutter_map(small_scene(gtri_a=-1.0))
                assert_no_child()

    @pytest.mark.parametrize("count", [2, 3])
    def test_child_error_surfaces_in_the_caller(self, count):
        # Only the children's chunks raise: the build raises the child's
        # exception, its type and message, when it reaches that chunk.
        parent, reflectivity = os.getpid(), clutter.gtri_reflectivity

        def child_fails(*args):
            if os.getpid() != parent:
                raise KeyError(f"chunk failed in a child {os.getpid()}")
            return reflectivity(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clutter, "CHUNK_PATCHES", 8)
            mp.setattr(clutter, "gtri_reflectivity", child_fails)
            mp.setattr(cpus, "count", lambda: count)
            with pytest.raises(KeyError, match="chunk failed in a child") as exc:
                build_clutter_map(small_scene())
        assert int(str(exc.value).strip("'").split()[-1]) != parent
        assert_no_child()

    @pytest.mark.parametrize("count", [2, 3])
    def test_child_killed_by_a_signal_is_an_error(self, count):
        # Each child's first chunk kills its process: the build raises once
        # it reaches the first child's chunk, naming its wait status.
        parent, reflectivity = os.getpid(), clutter.gtri_reflectivity

        def child_killed(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return reflectivity(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clutter, "CHUNK_PATCHES", 8)
            mp.setattr(clutter, "gtri_reflectivity", child_killed)
            mp.setattr(cpus, "count", lambda: count)
            with pytest.raises(RuntimeError, match=f"wait status {signal.SIGKILL}$"):
                build_clutter_map(small_scene())
        assert_no_child()

    def test_desk_build_peak_below_18_bytes_per_patch(self, desk):
        # Only the 32-bit pair order over the half grid (2 bytes a patch)
        # and the float32 phases (4) are held for the whole grid, plus one
        # chunk's operands (about 5 MB, 2.6 bytes a patch): the 16-bit sort
        # keys are made a block of columns at a time and freed before the
        # phases are drawn, in pieces. On one CPU the peak read 9.1 bytes a
        # patch (13.2 with float64 phases and whole-grid keys); the bound of
        # 11 leaves about 4 MB above it. An intp order alone would add 2
        # bytes a patch, float64 phases 4.
        scene, _ = desk
        scene = replace(scene, array=scene.array.with_va(True))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cpus, "count", lambda: 1)
            tracemalloc.start()
            try:
                cmap = build_clutter_map(scene)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert cmap.patch_count == 2_000_000
        assert peak < 11 * cmap.patch_count


    def test_desk_build_peak_independent_of_cpu_set(self, desk):
        # The calling process holds one chunk's operands at any CPU count:
        # the other chunks' operands are held in forked children. A 64-CPU
        # set, with or without sched_getaffinity, runs the build on
        # cpus.MAX processes, within the one-CPU bound above. The peak read
        # 8.8 bytes a patch at two CPUs (11.4 with a second build thread).
        scene, _ = desk
        scene = replace(scene, array=scene.array.with_va(True))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "cpu_count", lambda: 64)
            mp.delattr(os, "sched_getaffinity", raising=False)
            assert cpus.count() == cpus.MAX == 2
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
            assert cpus.count() == 2
            tracemalloc.start()
            try:
                cmap = build_clutter_map(scene)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert cmap.patch_count == 2_000_000
        assert peak < 11 * cmap.patch_count


def small_scene(**overrides):
    """A scene with clutter over a 40 m x 20 m grid: 800 patches, 400 pairs."""
    scene = make_scene(clutter_enabled=True)
    return replace(scene, clutter=replace(scene.clutter, area_x_m=40.0, area_y_m=20.0,
                                          station_height_m=5.0, **overrides))


class TestDerivedSpectra:
    @staticmethod
    def _map(rng, slots, bins, l):
        shape = (slots, bins, l)
        return ClutterMap(chirp_tables=rng.normal(size=shape) + 1j * rng.normal(size=shape),
                          tone_vec=np.zeros(l, dtype=complex), range_res_m=1.0, patch_count=0)

    @given(seed=st.integers(0, 2**32 - 1), slots=st.integers(1, 4), l=st.integers(1, 8),
           n=st.integers(4, 64))
    @settings(max_examples=40, deadline=None)
    def test_cached_spectra_equal_per_call_ffts(self, seed, slots, l, n):
        cmap = self._map(np.random.default_rng(seed), slots, n, l)
        fa = cmap.fa_spectrum
        assert np.array_equal(fa, np.fft.fft(cmap.chirp_tables[0], n=n, axis=0))
        assert cmap.fa_spectrum is fa
        chirp = cmap.chirp_spectra
        assert chirp.flags.c_contiguous
        for s, table in enumerate(cmap.chirp_tables):
            assert np.array_equal(chirp[s], n * np.fft.ifft(table, axis=0).T)
        assert cmap.chirp_spectra is chirp

    @given(seed=st.integers(0, 2**32 - 1), slots=st.integers(1, 4), l=st.integers(1, 8),
           n=st.integers(4, 64), m=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_tone_and_fa_products_equal_per_call_products(self, seed, slots, l, n, m):
        # The tone outer product and the FA spectrum's rows equal those made
        # per call from the map's tables, bit for bit.
        rng = np.random.default_rng(seed)
        cmap = replace(self._map(rng, slots, n, l), tone_vec=rng.normal(size=l) + 1j)
        amps = rng.uniform(0.01, 10.0, size=m)
        assert np.array_equal(cmap.tone_clutter(amps), np.outer(cmap.tone_vec, amps) * n)
        sub = rng.integers(0, n, size=m)
        want = np.fft.fft(cmap.chirp_tables[0], n=n, axis=0)[sub].T * amps
        assert np.array_equal(cmap.fa_clutter(sub, amps), want)

    def test_held_arrays_are_read_only(self):
        # Every later cube reads them: a stray write must fail, not change them.
        cmap = self._map(np.random.default_rng(2), 2, 8, 3)
        for held in (cmap.chirp_spectra, cmap.fa_spectrum):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                held *= 2.0

    def test_replaced_map_starts_without_spectra(self):
        cmap = self._map(np.random.default_rng(1), 2, 8, 3)
        held = cmap.fa_spectrum
        assert replace(cmap).fa_spectrum is not held

