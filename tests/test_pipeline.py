from __future__ import annotations

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import c as C0

import oracles
from conftest import WAVELENGTH, make_array, make_radio, make_scene, on_grid_target
from mars_jcas import pipeline
from mars_jcas.channel import (
    DropDraws,
    IfCube,
    synthesize_fa_measurements,
    synthesize_if_cube,
)
from mars_jcas.cli import preset_path
from mars_jcas.clutter import build_clutter_map
from mars_jcas.estimator import (
    CoarsePeak,
    expand_nn,
    signed_bin,
    temporal_steering,
)
from mars_jcas.pipeline import PipelineSpec, front_end, run_fa_pipeline, run_pipeline
from mars_jcas.harness import schedule_for
from mars_jcas.io import parse_config
from mars_jcas.scene import ArrayGeometry, Target, resolution_report, validate_scene
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
        res_x = scene.radio.wavelength_m / (4 * scene.array.rx_spacing_x_m)
        t = Target(range_m=60 * scene.radio.range_res_m,
                   radial_velocity_mps=10.3 * scene.radio.velocity_res_mps,
                   psi_x_rad=math.asin(0.5 * res_x + 0.37 * res_x),
                   psi_y_rad=0.0, rcs_m2=100.0)
        scene = replace(scene, targets=(t,))
        cube = synthesize_if_cube(scene, schedule_of(scene))
        est = run_pipeline(front_end(cube, scene), scene, PipelineSpec(suppressor="sthp", eps_mode="inf",
                                                     refinement="music"), 1)[0]
        assert abs(est.sin_psi_x - t.sin_psi_x) < 0.1 * res_x
        dv = scene.radio.velocity_res_mps
        assert abs(est.velocity_mps - t.radial_velocity_mps) < 0.15 * dv

    def test_va_pipeline_refines_angle_on_virtual_grid(self):
        arr = make_array(tx=2, va=True)
        scene = clean_scene([], arr=arr)
        res_x = scene.radio.wavelength_m / (4 * scene.array.rx_spacing_x_m)
        # Half a coarse bin off-grid: exactly a virtual-array bin.
        t = Target(range_m=60 * scene.radio.range_res_m,
                   radial_velocity_mps=10 * scene.radio.velocity_res_mps,
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
            run_pipeline(front_end(cube, scene), scene,
                         PipelineSpec(structure="fa", suppressor="mf"), 1)

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
    @staticmethod
    def _oracle_range_stage(cube, scene, pipe, front, peak):
        """The per-target path: the snapshot rotated by each row's slot
        phase, then the batched spectra before the shared whitening core.
        Returns (spectra, bins, peak magnitudes, candidates)."""
        fd = 2.0 * peak.velocity_mps * scene.radio.carrier_freq_hz / C0
        y_st, geom = oracles.compensated_space_time(cube, scene, fd)
        assert front.geom == geom
        cand = pipeline._angle_candidates(peak.sin_psi_x, peak.sin_psi_y, pipe, scene, geom)
        sched, radio = cube.schedule, scene.radio
        if pipe.suppressor == "sthp":
            a_s = np.stack([oracles.steering_ura_from_sin(x, y, geom.va_cols, geom.va_rows,
                                                          geom.rx_spacing_x_m,
                                                          geom.rx_spacing_y_m, WAVELENGTH)
                            for x, y in zip(*cand)], axis=1)
            d, bins = oracles.sthp_range_spectrum_batched(
                y_st, temporal_steering(peak.velocity_mps, sched, radio), a_s, pipe.eps_mode)
        else:
            a_st = oracles.space_time_steering(peak.velocity_mps, *cand, geom, sched, radio)
            d, bins = oracles.stap_range_spectrum_batched(y_st, a_st, pipe.eps_mode)
        return d, bins, np.abs(d[np.arange(bins.size), bins]), cand

    @given(va=st.booleans(), tx=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           rx=st.tuples(st.integers(1, 4), st.integers(1, 4)), w=st.integers(1, 4),
           n=st.integers(4, 32), velocity=st.one_of(st.just(0.0), st.floats(-60.0, 60.0)),
           suppressor=st.sampled_from(["stap", "sthp", "mf"]),
           eps=st.sampled_from(["inf", "em", "zero"]), seed=st.integers(0, 1000))
    @example(va=True, tx=(3, 3), rx=(4, 4), w=4, n=32, velocity=0.0, suppressor="stap",
             eps="em", seed=0)
    @example(va=True, tx=(2, 1), rx=(1, 3), w=2, n=4, velocity=-23.7, suppressor="sthp",
             eps="zero", seed=1)
    @example(va=True, tx=(2, 2), rx=(2, 2), w=3, n=32, velocity=17.3, suppressor="sthp",
             eps="em", seed=2)
    @settings(max_examples=80, deadline=None)
    def test_range_stage_output_matches_per_target_oracle(self, va, tx, rx, w, n, velocity,
                                                          suppressor, eps, seed):
        # Each target's range stage reads the front end's snapshot itself and
        # puts the VA slot Doppler in the steering. Its spectrum, range bin
        # and chosen candidate must match the per-target rotated snapshot run
        # through the batched spectra it replaced. Two peaks are fed in to set
        # the Doppler and angles; the snapshot is caught on its way in.
        w = max(w, 2) if suppressor == "sthp" else w
        eps = "inf" if suppressor == "mf" else eps
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
        # The second peak sits off the coarse grid, between candidate bins.
        peaks = [CoarsePeak(sin_psi_x=sx, sin_psi_y=sy, velocity_mps=v)
                 for sx, sy, v in ((0.0, 0.0, velocity),
                                   (0.3 / rx[0], -0.1 / rx[1], velocity + 7.9))]
        pipe = PipelineSpec(suppressor=suppressor, eps_mode=eps, va=va)
        front = front_end(cube, scene)
        y_st = front.y_st.copy()
        seen = []

        def spy(original):
            def call(y, *args, **kwargs):
                seen.append((y, args))
                return original(y, *args, **kwargs)
            return call

        debug = {}
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mp.setattr(pipeline, "stte_peaks", lambda *args: peaks)
            for name in ("stap_range_spectrum", "sthp_range_spectrum"):
                mp.setattr(pipeline, name, spy(getattr(pipeline, name)))
            # Near zero velocity a_T is the static-clutter signature itself:
            # STHP's zero-forcing nulls such a peak, which gets no estimate.
            kept = [p for p in peaks if suppressor != "sthp" or
                    abs(np.mean(temporal_steering(p.velocity_mps, sched, scene.radio)))
                    <= 1.0 - 1e-9]
            ests = run_pipeline(front, scene, pipe, 2, debug=debug)
            want = [self._oracle_range_stage(cube, scene, pipe, front, p) for p in kept]
        assert len(seen) == len(ests) == len(kept) and all(y is front.y_st for y, _ in seen)
        if suppressor != "sthp":
            # STAP's steering, from the row-ordered spatial steering, is bit for
            # bit the geometry's space-time steering gathered into the rows.
            for (_, args), p, (*_, cand) in zip(seen, kept, want):
                assert np.array_equal(args[0], oracles.stap_row_steering(
                    p.velocity_mps, *cand, front, scene))
        for est, got_d, (d, bins, mags, cand) in zip(ests, debug.get("spectra", []), want):
            top = np.sort(mags)[::-1]
            if top.size > 1 and top[0] - top[1] <= 1e-9 * top[0]:
                continue                     # a near tie may pick either candidate
            k = int(np.argmax(mags))
            assert est.range_bin == bins[k]
            assert (est.psi_x_rad, est.psi_y_rad) == (math.asin(cand[0][k]),
                                                      math.asin(cand[1][k]))
            assert np.max(np.abs(got_d - d[k])) <= 1e-10 * np.max(np.abs(d[k]))
        # Pipelines share the snapshot, left as it was: a view of the
        # symbol-major cube for any W and slot count.
        assert np.array_equal(front.y_st.view(float), y_st.view(float))
        assert np.shares_memory(front.y_st, cube.chirp_branch)


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

    def test_zero_velocity_guard_applies(self):
        scene = clean_scene([])
        t = on_grid_target(scene, range_bin=50, vel_bin=0)
        scene = replace(scene, targets=(t,))
        sched = build_schedule(scene.radio, scene.array, "fa", fa_seed=11)
        meas = synthesize_fa_measurements(scene, sched)
        est = run_fa_pipeline(meas, scene, sched, 1)[0]
        # The static target is guard-masked; the peak lands elsewhere.
        assert abs(signed_bin(est.velocity_bin, sched.num_pri)) > 1

    @given(m=st.integers(2, 1024), cols=st.integers(1, 16), rows=st.integers(1, 16),
           dx=st.floats(0.05, 4.0), dy=st.floats(0.05, 4.0), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_estimate_rounds_fa_signed_bins_back_exactly(self, m, cols, rows, dx, dy, data):
        # The FA chain hands the one estimate constructor its signed bins as
        # values on the no-VA grid; rounding them back gives those bins.
        scene = replace(clean_scene([]), radio=make_radio(num_pri=m),
                        array=ArrayGeometry(rx_cols=cols, rx_rows=rows,
                                            rx_spacing_x_m=dx * WAVELENGTH,
                                            rx_spacing_y_m=dy * WAVELENGTH))
        res = resolution_report(scene.radio, scene.array)
        v, x, y = (data.draw(st.integers(-(size // 2), (size - 1) // 2))
                   for size in (m, cols, rows))
        r = data.draw(st.integers(0, scene.radio.num_subcarriers - 1))
        est = pipeline._estimate(v * res.velocity_res_mps, float(x) * res.sin_angle_res_x,
                                 float(y) * res.sin_angle_res_y, r, 1.0, scene)
        assert (est.velocity_bin, est.angle_x_bin, est.angle_y_bin, est.range_bin) == (v, x, y, r)
        assert est.range_m == r * scene.radio.range_res_m

    @staticmethod
    def _fa_case(l, m, n, sub):
        scene = replace(clean_scene([]), radio=make_radio(n=n, num_pri=m),
                        array=make_array(cols=l, rows=1))
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
    @example(seed=1065078493, l=1, m=4, n=4, pool=None, k=1, guard=0)  # equal powers
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
            values = oracles.fa_magnitudes(pipeline.fa_range_doppler_map(meas, sched,
                                                                         scene.radio))
            assert [e.amplitude for e in got] == [e.amplitude for e in want] == [
                values[e.range_bin, e.velocity_bin] for e in got]
            # The range grid is the replaced radio's, c / 2 N df, not the base scene's.
            assert all(e.range_m == e.range_bin * scene.radio.range_res_m for e in got)

    # Powers that tie exactly (0.0 and -0.0 too), sit an ulp apart, or round
    # below zero, where the amplitude clips to 0.0.
    UP = float(np.nextafter(4.0, 5.0))
    POWERS = (0.0, -0.0, -2.0**-60, 1.0, float(np.nextafter(1.0, 2.0)), 4.0, UP)

    def _search(self, power, k, guard):
        """run_fa_pipeline's outcome on an injected (M, N) power grid: its
        (range bin, signed velocity bin, amplitude) peaks, or its error."""
        m, n = power.shape
        scene, sched = self._fa_case(2, m, n, np.arange(m) % n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "fa_range_doppler_map", lambda *args: power.copy())
            got = self._outcome(run_fa_pipeline, np.ones((2, m), dtype=complex), scene,
                                sched, k, guard)
        if isinstance(got, str):
            return got
        assert all(math.copysign(1.0, e.amplitude) == 1.0 for e in got)
        return [(e.range_bin, e.velocity_bin, e.amplitude) for e in got]

    @given(cells=st.lists(st.sampled_from(POWERS), min_size=1, max_size=64),
           m=st.integers(2, 8), n=st.integers(1, 8), k=st.integers(1, 8),
           guard=st.integers(0, 3))
    @example(cells=[0.0, 4.0, UP], m=3, n=1, k=1, guard=0)          # an ulp apart
    @example(cells=[0.0, 0.0, 4.0, 4.0, 0.0, 0.0], m=3, n=2, k=1, guard=0)  # a tie in a row
    @example(cells=[0.0, -0.0], m=2, n=1, k=1, guard=-1)           # 0.0 ties -0.0
    @example(cells=POWERS, m=3, n=4, k=5, guard=0)   # each peak masks whole rows
    @settings(max_examples=100, deadline=None)
    def test_power_search_equals_memory_order_scan_oracle(self, cells, m, n, k, guard):
        # The search takes the first of equal powers in the grid's
        # (velocity, range) memory order, as the oracle's column-major search
        # of a transposed copy does, and each amplitude is sqrt(max(p, 0))
        # of the peak's power.
        power = np.resize(np.array(cells), (m, n))
        want = self._outcome(oracles.fa_peak_search, power.T, k, guard)
        if not isinstance(want, str):
            want = [(r, signed_bin(v, m), a) for r, v, a in want]
        assert self._search(power, k, guard) == want

    def test_all_zero_map_ties_resolve_like_oracle(self):
        # Every cell ties at 0: the first free cell in (velocity, range)
        # memory order wins.
        l, m, n = 4, 8, 6
        scene, sched = self._fa_case(l, m, n, np.arange(m) % n)
        meas = np.zeros((l, m), dtype=complex)
        got = run_fa_pipeline(meas, scene, sched, 2)
        power = pipeline.fa_range_doppler_map(meas, sched, scene.radio)
        assert [(e.range_bin, e.velocity_bin, e.amplitude) for e in got] == [
            (r, signed_bin(v, m), a) for r, v, a in oracles.fa_peak_search(power.T, 2)]
        assert [(e.range_bin, e.velocity_bin) for e in got] == [(0, 2), (2, 2)]
        # Guard 1 leaves 5 velocity bins x 6 ranges = 30 free cells; the
        # greedy search extracts 9 of them before the map runs out.
        for run, args in ((run_fa_pipeline, (meas, scene, sched, 31)),
                          (oracles.fa_peak_search, (power.T, 31))):
            with pytest.raises(ValueError, match=re.escape(
                    "run_fa_pipeline: only 9 extractable maxima, requested 31")):
                run(*args)

    @pytest.mark.parametrize("far", [0, 5])
    def test_range_edges_do_not_wrap(self, far):
        # Range is not periodic: a peak at range bin 0 or N - 1 leaves the
        # other end's column free, so both ends' peaks at one velocity return.
        power = np.zeros((8, 6))
        power[3, far] = 9.0
        power[3, 5 - far] = 4.0
        assert self._search(power, 2, 1) == [(far, 3, 3.0), (5 - far, 3, 2.0)]

    def test_table1_car_pipeline_peak_below_13_mib(self):
        # The real transform writes over the lag grid: one (M, N) float map
        # fewer than the 18.0 MiB the whole-grid irfft peaked at.
        scene_cfg, plan = parse_config(preset_path("table1_car"))
        scene = validate_scene(scene_cfg)
        fa = schedule_for(scene, PipelineSpec(structure="fa", suppressor="mf"), plan.seed)
        meas = synthesize_fa_measurements(scene, fa, draws=DropDraws(1))
        run_fa_pipeline(meas, scene, fa, 1)    # the lag cells are cached from here on
        tracemalloc.start()
        try:
            run_fa_pipeline(meas, scene, fa, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * 2**20


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
        sched = schedule_of(scene)
        if name == "IfCube":
            return [synthesize_if_cube(scene, sched, draws=DropDraws(1)) for _ in "ab"]
        cube = synthesize_if_cube(scene, sched, draws=DropDraws(1))
        fronts = [front_end(cube, scene) for _ in "ab"]
        return fronts if name == "FrontEnd" else [f.avmap for f in fronts]

    @pytest.mark.parametrize("name", ["MarsSchedule", "ClutterMap", "IfCube",
                                      "AngleVelocityMap", "FrontEnd"])
    def test_eq_returns_bool(self, name):
        a, b = self.pair(name)
        assert type(a).__name__ == name
        assert (a == b) is False and (a != b) is True
        assert (a == a) is True
