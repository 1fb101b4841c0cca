from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import c as C0

import oracles
from conftest import WAVELENGTH, make_array, make_radio, make_scene, on_grid_target
from mars_jcas import pipeline
from mars_jcas.channel import IfCube, synthesize_fa_measurements, synthesize_if_cube
from mars_jcas.clutter import build_clutter_map
from mars_jcas.estimator import CoarsePeak, expand_nn, signed_bin, stap_range_spectrum
from mars_jcas.pipeline import PipelineSpec, front_end, run_fa_pipeline, run_pipeline
from mars_jcas.scene import ArrayGeometry, Target
from mars_jcas.waveform import build_schedule


def clean_scene(targets, *, arr=None, **kw):
    return make_scene(radio=make_radio(noise=1e-60), arr=arr, targets=targets,
                      si_attenuation_db=300.0, **kw)


def schedule_of(scene):
    return build_schedule(scene.radio, scene.array, "comb",
                          chirp_pri_indices=scene.waveform.chirp_pri_indices)


class TestMainPipeline:
    @pytest.mark.parametrize("suppressor,eps", [("sthp", "inf"), ("sthp", "em"),
                                                ("stap", "zero"), ("stap", "em"),
                                                ("mf", "inf")])
    def test_on_grid_target_exact_bins(self, suppressor, eps):
        scene = clean_scene([])
        t = on_grid_target(scene, range_bin=60, vel_bin=10, x_bin=1, y_bin=-1)
        scene = replace(scene, targets=(t,))
        cube = synthesize_if_cube(scene, schedule_of(scene))
        pipe = PipelineSpec(structure="comb", suppressor=suppressor, eps_mode=eps)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = run_pipeline(front_end(cube, scene), scene, pipe, 1)[0]
        assert est.range_bin == 60
        assert est.velocity_bin == 10
        assert est.angle_x_bin == 1
        assert est.angle_y_bin == -1
        assert est.method == ("mf" if suppressor == "mf" else suppressor)
        assert est.refinement == "fft"

    def test_two_targets_resolved(self):
        scene = clean_scene([])
        t1 = on_grid_target(scene, range_bin=40, vel_bin=8, x_bin=1, y_bin=0)
        t2 = on_grid_target(scene, range_bin=85, vel_bin=-12, x_bin=-1, y_bin=1,
                            rcs=60.0)
        scene = replace(scene, targets=(t1, t2))
        cube = synthesize_if_cube(scene, schedule_of(scene))
        ests = run_pipeline(front_end(cube, scene), scene, PipelineSpec(suppressor="sthp",
                                                      eps_mode="inf"), 2)
        got = {(e.range_bin, e.velocity_bin, e.angle_x_bin, e.angle_y_bin)
               for e in ests}
        assert got == {(40, 8, 1, 0), (85, -12, -1, 1)}

    def test_music_refinement_tagged_and_tighter(self):
        # MUSIC needs a noise subspace: keep the thermal floor.
        scene = make_scene(radio=make_radio(), si_attenuation_db=300.0)
        res_x = scene.wavelength_m / (4 * scene.array.rx_spacing_x_m)
        t = Target(range_m=60 * scene.range_res_m,
                   radial_velocity_mps=10.3 * scene.velocity_res_mps,
                   psi_x_rad=math.asin(0.5 * res_x + 0.37 * res_x),
                   psi_y_rad=0.0, rcs_m2=100.0)
        scene = replace(scene, targets=(t,))
        cube = synthesize_if_cube(scene, schedule_of(scene))
        est = run_pipeline(front_end(cube, scene), scene, PipelineSpec(suppressor="sthp", eps_mode="inf",
                                                     refinement="music"), 1)[0]
        assert est.refinement == "music"
        assert abs(est.sin_psi_x - t.sin_psi_x) < 0.1 * res_x
        assert abs(est.velocity_mps - t.radial_velocity_mps) < 0.15 * scene.velocity_res_mps

    def test_va_pipeline_refines_angle_on_virtual_grid(self):
        arr = make_array(tx=2, va=True)
        scene = clean_scene([], arr=arr)
        res_x = scene.wavelength_m / (4 * scene.array.rx_spacing_x_m)
        # Half a coarse bin off-grid: exactly a virtual-array bin.
        t = Target(range_m=60 * scene.range_res_m,
                   radial_velocity_mps=10 * scene.velocity_res_mps,
                   psi_x_rad=math.asin(0.5 * res_x), psi_y_rad=0.0, rcs_m2=100.0)
        scene = replace(scene, targets=(t,))
        cube = synthesize_if_cube(scene, schedule_of(scene))
        est = run_pipeline(front_end(cube, scene), scene, PipelineSpec(suppressor="sthp", eps_mode="inf",
                                                     va=True), 1)[0]
        assert est.range_bin == 60
        assert abs(est.sin_psi_x - 0.5 * res_x) < 1e-9
        assert est.velocity_bin == 10

    def test_sthp_needs_two_occasions(self):
        scene = clean_scene([])
        t = on_grid_target(scene)
        scene = replace(scene, targets=(t,))
        sched = build_schedule(scene.radio, scene.array, "lshape", chirp_pri_indices=(1,))
        cube = synthesize_if_cube(scene, sched)
        with pytest.raises(ValueError, match="W >= 2"):
            run_pipeline(front_end(cube, scene), scene, PipelineSpec(suppressor="sthp"), 1)

    def test_fa_cube_rejected(self):
        scene = clean_scene([on_grid_target(make_scene())])
        cube = synthesize_if_cube(scene, schedule_of(scene))
        with pytest.raises(ValueError, match="measurements"):
            run_pipeline(front_end(cube, scene), scene, PipelineSpec(structure="fa"), 1)

    def test_expand_then_fft_close_to_nonuniform_dft(self):
        # Documented interpolation bound: the expanded-FFT Doppler peak
        # stays within one bin of the direct nonuniform DFT of the
        # compressed columns, and the peak ratio stays near unity.
        scene = clean_scene([])
        t = on_grid_target(scene, vel_bin=9)
        scene = replace(scene, targets=(t,))
        sched = schedule_of(scene)
        cube = synthesize_if_cube(scene, sched)
        y = cube.tone_branch_compressed
        m = sched.num_pri
        expanded = expand_nn(y, sched)
        spec_fft = np.abs(np.fft.fft(expanded[0]))
        pris = sched.tone_pri_indices()
        spec_nudft = np.abs(np.array(
            [np.sum(y[0] * np.exp(-2j * np.pi * f * pris / m)) for f in range(m)]))
        assert abs(int(np.argmax(spec_fft)) - int(np.argmax(spec_nudft))) <= 1
        ratio = spec_fft.max() / spec_nudft.max()
        assert 0.8 < ratio < 1.2


class TestFrontEnd:
    @given(va=st.booleans(), tx=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           rx=st.tuples(st.integers(1, 4), st.integers(1, 4)), w=st.integers(1, 4),
           n=st.integers(4, 32), velocity=st.one_of(st.just(0.0), st.floats(-60.0, 60.0)),
           seed=st.integers(0, 1000))
    @example(va=True, tx=(3, 3), rx=(4, 4), w=4, n=32, velocity=0.0, seed=0)
    @example(va=True, tx=(2, 1), rx=(1, 3), w=2, n=4, velocity=-23.7, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_range_stage_input_matches_per_target_assembly(self, va, tx, rx, w, n,
                                                           velocity, seed):
        # What the range stage receives (the front end's snapshot times the
        # per-row slot phase at the coarse peak's Doppler) must equal the
        # per-target assembly bit for bit. The peak is fed in to set the
        # Doppler, zero included; the snapshot is caught on its way in.
        arr = ArrayGeometry(rx_cols=rx[0], rx_rows=rx[1], rx_spacing_x_m=WAVELENGTH / 2,
                            rx_spacing_y_m=0.7 * WAVELENGTH, tx_cols=tx[0], tx_rows=tx[1],
                            va_enabled=va)
        slots = arr.slots_per_chirp
        scene = make_scene(radio=make_radio(n=n), arr=arr,
                           indices=tuple(1 + k * slots for k in range(w)))
        sched = schedule_of(scene)
        rng = np.random.default_rng(seed)
        l = rx[0] * rx[1]

        def noise(cols):
            return rng.normal(size=(l, cols)) + 1j * rng.normal(size=(l, cols))

        cube = IfCube(chirp_branch=noise(sched.num_chirp_symbols * n)
                      .reshape(l, -1, n).transpose(1, 0, 2).copy(),
                      tone_branch_compressed=noise(sched.num_tone_pris),
                      schedule=sched, sample_rate_hz=1.0)
        peak = CoarsePeak(bin_x=0, bin_y=0, bin_v=0, sin_psi_x=0.0, sin_psi_y=0.0,
                          velocity_mps=velocity, magnitude=1.0)
        seen = []

        def spy(y_st, *args, **kwargs):
            seen.append(y_st)
            return stap_range_spectrum(y_st, *args, **kwargs)

        front = front_end(cube, scene)
        y_st = front.y_st.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "stte_peaks", lambda *args: [peak])
            mp.setattr(pipeline, "stap_range_spectrum", spy)
            run_pipeline(front, scene, PipelineSpec(suppressor="mf", va=va), 1)
        fd = 2.0 * velocity * scene.radio.carrier_freq_hz / C0
        want, geom = oracles.compensated_space_time(cube, scene, fd)
        assert len(seen) == 1
        assert np.array_equal(seen[0].view(float), want.view(float))
        assert front.geom == geom
        # Also equal to the row-phase product on one-slot cubes, where the
        # phase is 1 and skipped; pipelines share the snapshot, left as it was.
        rotated = y_st * np.exp(-2j * np.pi * fd * front.row_slot * scene.radio.pri_s)[:, None]
        assert np.array_equal(seen[0].view(float), rotated.view(float))
        assert np.array_equal(front.y_st.view(float), y_st.view(float))
        # One slot needs no assembly: the snapshot is a view of the
        # symbol-major cube for any W. With VA the slot scatter copies it.
        assert np.shares_memory(front.y_st, cube.chirp_branch) == (slots == 1)


class TestFaPipeline:
    def test_single_target_recovery_without_clutter(self):
        scene = clean_scene([])
        t = on_grid_target(scene, range_bin=70, vel_bin=9, x_bin=1, y_bin=0)
        scene = replace(scene, targets=(t,))
        sched = build_schedule(scene.radio, scene.array, "fa", fa_seed=11)
        meas = synthesize_fa_measurements(scene, sched)
        est = run_fa_pipeline(meas, scene, sched, 1)[0]
        assert est.range_bin == 70
        assert est.velocity_bin == 9
        assert est.angle_x_bin == 1
        assert est.angle_y_bin == 0
        assert est.method == "mf"

    def test_zero_velocity_guard_applies(self):
        scene = clean_scene([])
        t = on_grid_target(scene, range_bin=50, vel_bin=0)
        scene = replace(scene, targets=(t,))
        sched = build_schedule(scene.radio, scene.array, "fa", fa_seed=11)
        meas = synthesize_fa_measurements(scene, sched)
        est = run_fa_pipeline(meas, scene, sched, 1)[0]
        # The static target is guard-masked; the peak lands elsewhere.
        assert abs(signed_bin(est.velocity_bin, sched.num_pri)) > 1

    @staticmethod
    def _fa_case(l, m, n, sub):
        scene = replace(clean_scene([]), radio=make_radio(n=n, num_pri=m),
                        array=make_array(cols=l, rows=1), num_pri=m)
        sched = build_schedule(scene.radio, scene.array, "fa", fa_seed=0)
        return scene, replace(sched, fa_subcarrier_indices=np.asarray(sub))

    @staticmethod
    def _outcome(run, *args):
        try:
            return run(*args)
        except ValueError as exc:
            return str(exc)

    @given(seed=st.integers(0, 2**32 - 1), l=st.integers(1, 8), m=st.integers(2, 40),
           n=st.integers(4, 64), pool=st.sampled_from([None, 1, 3]),
           k=st.integers(1, 3), guard=st.integers(0, 2))
    @example(seed=1, l=3, m=40, n=5, pool=None, k=3, guard=1)   # odd N, M > N
    @example(seed=2, l=2, m=3, n=4, pool=1, k=3, guard=1)       # K past the free cells
    @settings(max_examples=60, deadline=None)
    def test_peaks_equal_transposed_copy_oracle(self, seed, l, m, n, pool, k, guard):
        rng = np.random.default_rng(seed)
        sub = rng.integers(0, n if pool is None else min(pool, n), size=m)
        scene, sched = self._fa_case(l, m, n, sub)
        meas = rng.normal(size=(l, m)) + 1j * rng.normal(size=(l, m))
        got = self._outcome(run_fa_pipeline, meas, scene, sched, k, guard)
        want = self._outcome(oracles.run_fa_pipeline, meas, scene, sched, k, guard)
        assert got == want
        if isinstance(got, list):
            # The map is masked in place: each amplitude is still the unmasked
            # map's value at the peak, read before the peak's exclusion.
            famap = pipeline.fa_range_doppler_map(meas, sched, scene.radio, 1.0).values
            assert [e.amplitude for e in got] == [e.amplitude for e in want] == [
                famap[e.range_bin, e.velocity_bin] for e in got]

    def test_all_zero_map_ties_resolve_like_oracle(self):
        # Every cell ties at 0: the first free cell in (range, velocity) order wins.
        l, m, n = 4, 8, 6
        scene, sched = self._fa_case(l, m, n, np.arange(m) % n)
        meas = np.zeros((l, m), dtype=complex)
        got = run_fa_pipeline(meas, scene, sched, 2)
        assert got == oracles.run_fa_pipeline(meas, scene, sched, 2)
        assert [(e.range_bin, e.velocity_bin) for e in got] == [(0, 2), (0, -4)]
        # Guard 1 leaves 5 velocity bins x 6 ranges = 30 free cells.
        for run in (run_fa_pipeline, oracles.run_fa_pipeline):
            with pytest.raises(ValueError, match="map exhausted"):
                run(meas, scene, sched, 31)


class TestArrayHoldingEquality:
    """Dataclasses holding arrays compare by identity: ``==`` answers a bool
    instead of raising on the arrays' elementwise truth value."""

    @staticmethod
    def pair(name):
        """Two equal-valued instances that share every non-array field."""
        scene = make_scene(targets=[Target(300.0, 18.0, 0.1, 0.0, 50.0)])
        fa = build_schedule(scene.radio, scene.array, "fa", fa_seed=1)
        if name == "MarsSchedule":
            return fa, build_schedule(scene.radio, scene.array, "fa", fa_seed=1)
        if name == "ClutterMap":
            return [build_clutter_map(replace(scene, clutter=replace(
                scene.clutter, enabled=True, area_x_m=60.0, area_y_m=30.0))) for _ in "ab"]
        if name == "FaMap":
            meas = synthesize_fa_measurements(scene, fa, seed=1)
            return [pipeline.fa_range_doppler_map(meas, fa, scene.radio, scene.range_res_m)
                    for _ in "ab"]
        sched = schedule_of(scene)
        if name == "IfCube":
            return [synthesize_if_cube(scene, sched, seed=1) for _ in "ab"]
        cube = synthesize_if_cube(scene, sched, seed=1)
        fronts = [front_end(cube, scene) for _ in "ab"]
        return fronts if name == "FrontEnd" else [f.avmap for f in fronts]

    @pytest.mark.parametrize("name", ["MarsSchedule", "ClutterMap", "IfCube", "FaMap",
                                      "AngleVelocityMap", "FrontEnd"])
    def test_eq_returns_bool(self, name):
        a, b = self.pair(name)
        assert type(a).__name__ == name
        assert (a == b) is False and (a != b) is True
        assert (a == a) is True
