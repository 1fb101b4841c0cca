from __future__ import annotations

import itertools
import math
import pickle
import re
import signal
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    BAD_DESK_WAVEFORMS,
    DESK_MC,
    compiled,
    desk_raw,
    drop_at,
    drop_records,
    make_array,
    make_radio,
    make_scene,
    on_grid_target,
)
from mars_jcas import channel, cpus, estimator, harness, pipeline, seeding
from mars_jcas.channel import DropDraws, synthesize_fa_measurements, synthesize_if_cube
from mars_jcas.cli import preset_path
from mars_jcas.clutter import build_clutter_for, build_clutter_map
from mars_jcas.estimator import (
    AngleVelocityMap,
    TargetEstimate,
    signed_bin,
    stte_peaks,
)
from mars_jcas.harness import (
    CustomRanges,
    DropError,
    ExperimentPlan,
    TargetRecord,
    draw_targets,
    drop_estimates,
    monte_carlo,
    plan_groups,
    rmse_normalized,
    run_drop,
    schedule_for,
    score_estimates,
    wilson_interval,
)
from mars_jcas.io import config_from_dict, parse_config
from mars_jcas.pipeline import PipelineSpec, run_fa_pipeline
from mars_jcas.scene import ClutterConfig, Target, validate_scene
from mars_jcas.seeding import derive_seed

def threads_running_pieces(pieces=8):
    """The threads that ran each of ``pieces`` shared pieces, each long
    enough for a helper thread to claim some."""
    ran = []

    def piece():
        time.sleep(0.002)
        ran.append(threading.get_ident())

    cpus.share(lambda rows: piece, pieces, cpus.PIECE_VALUES)
    assert len(ran) == pieces
    return set(ran)


def draw_threads_after_a_drop():
    """In a pool worker, after one drop: whether its chirp draws run on the
    calling thread, the names of its helper threads, and whether every
    shared piece runs on the calling thread."""
    harness._timed_drop((0, 0))
    return (cpus.helper() is None,
            [t.name for t in threading.enumerate() if t.name.startswith("mars-jcas-helper")],
            threads_running_pieces() == {threading.get_ident()})


def quiet_plan(**kw):
    defaults = dict(scenario="custom", num_drops=4, target_count=1, seed=5,
                    pipelines=(PipelineSpec(structure="comb", suppressor="sthp",
                                            eps_mode="inf"),),
                    custom=CustomRanges(range_m=(100.0, 450.0), speed_mps=(7.0, 50.0)))
    defaults.update(kw)
    return ExperimentPlan(**defaults)


def va_clutter_mismatch(**plan_kw):
    """A scene, its no-VA clutter map and a plan with one VA pipeline: the
    map has one transmit slot table and the VA schedule needs four, so
    every drop run alone fails inside synthesis, and monte_carlo refuses
    the map before any drop."""
    scene = make_scene(arr=make_array(tx=2), radio=make_radio(power_w=10.0))
    scene = replace(scene, clutter=ClutterConfig(enabled=True, station_height_m=10.0,
                                                 area_x_m=60.0, area_y_m=30.0))
    plan = quiet_plan(pipelines=(PipelineSpec(structure="comb", suppressor="sthp",
                                              va=True),), **plan_kw)
    return scene, build_clutter_map(scene), plan


def mismatched_drop(scene, cmap, plan, drop_index):
    """run_drop of a run given a map that compile_run refuses: the drop
    meets the synthesizers' own check."""
    run = replace(compiled(scene, plan), clutter=cmap)
    value, at, groups = run.points[0]
    return run_drop(at, run, drop_index, groups, value)


def estimate_like(t: Target, scene, **overrides) -> TargetEstimate:
    fields = dict(
        velocity_mps=t.radial_velocity_mps, psi_x_rad=t.psi_x_rad,
        psi_y_rad=t.psi_y_rad, range_m=t.range_m, amplitude=1.0,
        velocity_bin=0, angle_x_bin=0, angle_y_bin=0, range_bin=0,
    )
    fields.update(overrides)
    return TargetEstimate(**fields)


class TestScoring:
    def test_exact_estimate_hits(self):
        scene = make_scene()
        t = on_grid_target(scene)
        rec = score_estimates([t], [estimate_like(t, scene)], scene, "p", 0, None)[0]
        assert rec.hit
        assert rec.offsets_bins == (0, 0, 0, 0)
        assert rec.errors_norm == (0.0, 0.0, 0.0, 0.0)

    def test_two_bin_range_offset_misses(self):
        scene = make_scene()
        t = on_grid_target(scene, range_bin=60)
        est = estimate_like(t, scene, range_m=62 * scene.radio.range_res_m)
        rec = score_estimates([t], [est], scene, "p", 0, None)[0]
        assert not rec.hit
        assert rec.offsets_bins[0] == 2

    def test_one_bin_offsets_still_hit(self):
        scene = make_scene()
        t = on_grid_target(scene, range_bin=60, vel_bin=10)
        est = estimate_like(t, scene,
                            range_m=61 * scene.radio.range_res_m,
                            velocity_mps=9 * scene.radio.velocity_res_mps)
        rec = score_estimates([t], [est], scene, "p", 0, None)[0]
        assert rec.hit
        assert rec.offsets_bins[:2] == (1, -1)

    def test_velocity_wraps_modulo_grid(self):
        scene = make_scene()
        m = scene.radio.num_pri
        t = on_grid_target(scene, vel_bin=m // 2 - 1)
        est = estimate_like(t, scene,
                            velocity_mps=-(m // 2) * scene.radio.velocity_res_mps)
        rec = score_estimates([t], [est], scene, "p", 0, None)[0]
        assert rec.offsets_bins[1] == 1  # wrapped distance, not m-1

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_twice_wrapped_oracle(self, data):
        # Offsets computed once per pair give the same records, types
        # included (records.csv prints them), as the form that wrapped twice.
        scene = make_scene()
        vmax = (scene.radio.num_pri // 2 + 2) * scene.radio.velocity_res_mps
        point = st.tuples(st.floats(1.0, 400.0), st.floats(-vmax, vmax),
                          st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
        truths = [Target(r, v, math.asin(x), math.asin(y), 1.0)
                  for r, v, x, y in data.draw(st.lists(point, min_size=1, max_size=4))]
        ests = [estimate_like(truths[0], scene, range_m=r, velocity_mps=v,
                              psi_x_rad=math.asin(x), psi_y_rad=math.asin(y))
                for r, v, x, y in data.draw(st.lists(point, max_size=4))]
        got = score_estimates(truths, ests, scene, "p", 3, 0.5)
        want = oracles.score_estimates(truths, ests, scene, "p", 3, 0.5)
        assert got == want
        for g, w in zip(got, want):
            assert list(map(type, g.offsets_bins)) == list(map(type, w.offsets_bins))
            assert list(map(type, g.errors_norm)) == list(map(type, w.errors_norm))

    def test_unmatched_truths_are_misses(self):
        scene = make_scene()
        t1 = on_grid_target(scene, range_bin=50)
        t2 = on_grid_target(scene, range_bin=90, x_bin=0)
        recs = score_estimates([t1, t2], [estimate_like(t1, scene)], scene, "p", 0, None)
        assert [r.hit for r in recs] == [True, False]
        assert recs[1].estimate is None

    def test_greedy_assignment_prefers_nearest(self):
        scene = make_scene()
        t1 = on_grid_target(scene, range_bin=50)
        t2 = on_grid_target(scene, range_bin=53, x_bin=0)
        e1 = estimate_like(t1, scene)
        e2 = estimate_like(t2, scene)
        recs = score_estimates([t1, t2], [e2, e1], scene, "p", 0, None)
        assert all(r.hit for r in recs)


class TestMetrics:
    def _records(self, errors, hits):
        return [TargetRecord("p", i, None, Target(100, 10, 0, 0, 1), None,
                             (0, 0, 0, 0), e, h)
                for i, (e, h) in enumerate(zip(errors, hits))]

    def test_rmse_zero_for_exact(self):
        recs = self._records([(0.0, 0.0, 0.0, 0.0)] * 3, [True] * 3)
        rmse = rmse_normalized(recs)
        assert all(v == 0.0 for v in rmse.values())

    def test_rmse_uniform_offsets_near_one_over_sqrt12(self):
        rng = np.random.default_rng(0)
        errs = rng.uniform(-0.5, 0.5, size=(4000, 4))
        recs = self._records([tuple(e) for e in errs], [True] * 4000)
        rmse = rmse_normalized(recs)
        for v in rmse.values():
            assert v == pytest.approx(1 / math.sqrt(12), abs=0.01)

    def test_rmse_absent_when_no_hits(self):
        recs = self._records([(0.3, 0.3, 0.3, 0.3)] * 2, [False, False])
        assert rmse_normalized(recs) is None

    def test_rmse_ignores_added_misses(self):
        hits = self._records([(0.2, 0.1, -0.3, 0.05)] * 5, [True] * 5)
        with_misses = hits + self._records([(9.0, 9.0, 9.0, 9.0)] * 3, [False] * 3)
        assert rmse_normalized(hits) == rmse_normalized(with_misses)

    def test_wilson_interval(self):
        lo, hi = wilson_interval(95, 100)
        assert 0.88 < lo < 0.95 < hi <= 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestDrawTargets:
    def test_deterministic_per_drop(self):
        scene = make_scene()
        plan = quiet_plan()
        a = draw_targets(plan, scene, 3)
        b = draw_targets(plan, scene, 3)
        c = draw_targets(plan, scene, 4)
        assert a == b
        assert a != c

    def test_car_scenario_bounds(self):
        scene = make_scene(clutter_enabled=True)
        plan = quiet_plan(scenario="car", target_count=6,
                          range_bounds_m=(100.0, 1000.0))
        for t in draw_targets(plan, scene, 0):
            assert 100.0 <= t.range_m <= 1000.0
            assert 5.0 / 3.6 <= abs(t.radial_velocity_mps) <= 300.0 / 3.6
            assert t.rcs_m2 == 100.0
            assert t.sin_psi_x**2 + t.sin_psi_y**2 <= 1.0

    def test_uav_scenario_heights(self):
        scene = make_scene(clutter_enabled=True)
        plan = quiet_plan(scenario="uav", target_count=8)
        for t in draw_targets(plan, scene, 1):
            assert t.rcs_m2 == 0.02
            height = t.range_m * t.sin_psi_y + scene.clutter.station_height_m
            assert -1e-6 <= height <= 100.0 + 1e-6

    def test_fixed_range_override(self):
        scene = make_scene()
        plan = quiet_plan(target_count=3)
        for t in draw_targets(plan, scene, 0, fixed_range_m=321.0):
            assert t.range_m == 321.0


class TestRunDrop:
    def test_clean_single_target_hits_with_zero_offsets(self):
        scene = make_scene(radio=make_radio(power_w=10.0))
        plan = quiet_plan()
        recs = drop_records(scene, plan, 0)
        assert len(recs) == 1
        assert recs[0].hit

    def test_same_seed_identical_report(self):
        scene = make_scene(radio=make_radio(power_w=10.0))
        plan = quiet_plan()
        a = drop_records(scene, plan, 2)
        b = drop_records(scene, plan, 2)
        assert a == b

    def test_k5_yields_five_records(self):
        scene = make_scene(radio=make_radio(power_w=10.0))
        plan = quiet_plan(target_count=5)
        recs = drop_records(scene, plan, 0)
        assert len(recs) == 5

    def test_pipeline_error_carries_drop_seed(self):
        scene, cmap, plan = va_clutter_mismatch()
        with pytest.raises(DropError) as err:
            mismatched_drop(scene, cmap, plan, 7)
        assert err.value.drop_index == 7
        assert err.value.drop_seed > 0
        assert "seed" in str(err.value)

    def test_va_pipeline_on_non_va_clutter_map_is_drop_error(self):
        scene, cmap, plan = va_clutter_mismatch()
        with pytest.raises(DropError, match="tx slot") as err:
            mismatched_drop(scene, cmap, plan, 3)
        assert err.value.drop_index == 3
        assert err.value.drop_seed == derive_seed(plan.seed, "drop", 3, "None")
        assert f"seed {err.value.drop_seed}" in str(err.value)

    def test_plan_groups_keep_plan_order(self):
        scene = make_scene(indices=(1,))   # W = 1
        stap = PipelineSpec(structure="comb", suppressor="stap", eps_mode="zero")
        fa = PipelineSpec(structure="fa", suppressor="mf")
        lshape = PipelineSpec(structure="lshape", suppressor="stap", eps_mode="zero")
        stap_em = replace(stap, eps_mode="em")
        groups = plan_groups(scene, quiet_plan(pipelines=(stap, fa, stap_em, lshape)))
        assert [pipes for pipes, _ in groups] == [(stap, stap_em), (fa,), (lshape,)]
        assert [s.structure for _, s in groups] == ["comb", "fa", "lshape"]
        # The STHP check names the STHP pipeline, not its group's first one.
        sthp = PipelineSpec(structure="comb", suppressor="sthp")
        with pytest.raises(ValueError, match=re.escape(f"pipelines[1] {sthp.tag}: sthp needs")):
            plan_groups(scene, quiet_plan(pipelines=(stap, sthp)))

    def test_va_overlap_raises_before_any_cube(self, monkeypatch):
        # Every group's schedule is built before the first cube: a plan whose
        # VA schedule overlaps is a ValueError naming its pipeline, not a
        # DropError after the groups before it have run.
        scene = make_scene(arr=make_array(tx=2), indices=(1, 3, 15))  # VA slots overlap
        plan = quiet_plan(pipelines=(PipelineSpec(structure="comb", suppressor="sthp"),
                                     PipelineSpec(structure="comb", suppressor="sthp", va=True)))

        def no_cube(*args, **kwargs):
            raise AssertionError("a cube was synthesised")

        monkeypatch.setattr(harness, "synthesize_if_cube", no_cube)
        with pytest.raises(ValueError, match="overlaps") as err:
            compiled(scene, plan)
        assert not isinstance(err.value, DropError)
        assert f"pipelines[1] {plan.pipelines[1].tag}:" in str(err.value)

    def test_front_end_runs_once_per_cube(self, desk, monkeypatch):
        # Per-cube work must not scale with the pipelines sharing the cube or
        # with the targets: count calls where the pipeline module makes them.
        scene, plan = desk
        names = ("expand_nn", "angle_velocity_map", "reshape_space_time", "va_assemble")
        calls = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
        sthp = PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf")
        counts = []
        for pipes, k in (((sthp,), 1), ((sthp, replace(sthp, refinement="music")), 2)):
            calls.update(dict.fromkeys(names, 0))
            recs = drop_records(scene, replace(plan, pipelines=pipes, target_count=k), 0)
            assert len(recs) == len(pipes) * k
            counts.append(dict(calls))
        one, two = counts
        assert two["expand_nn"] == two["angle_velocity_map"] == two["reshape_space_time"] == 1
        assert two == one

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="W >= 2"):
            quiet_plan(pipelines=(PipelineSpec(structure="lshape", suppressor="sthp"),))
        with pytest.raises(ValueError, match="sorted"):
            quiet_plan(sweep_values=(3.0, 1.0))
        with pytest.raises(ValueError, match="sorted"):
            quiet_plan(sweep_values=(1.0, 3.0, 3.0))
        with pytest.raises(ValueError, match="scenario"):
            quiet_plan(scenario="boat")

    @pytest.mark.parametrize("kw,key", [
        (dict(suppressor="mf", eps_mode="em"), "eps_mode"),
        (dict(structure="fa", suppressor="sthp"), "suppressor"),
        (dict(structure="fa", suppressor="mf", refinement="music"), "refinement"),
        (dict(structure="fa", suppressor="mf", va=True), "va"),
        (dict(suppressor="music"), "suppressor"),
        (dict(music_factor=0), "music_factor"),
    ], ids=lambda v: "" if isinstance(v, dict) else v)
    def test_plan_validation_checks_fixed_values(self, kw, key):
        # Built in Python, not parsed: the spec holds the same line as the parser.
        with pytest.raises(ValueError, match="^" + re.escape(f"{key}: ")):
            PipelineSpec(**kw)


class TestPlanRules:
    """A spec or plan that exists is one the drop path runs as given: the
    constructors hold the rules the explicit checks held before."""

    # Every value each key may take, one bad value per choice key, and each
    # bound on both sides.
    GRID = {"structure": ("comb", "lshape", "fa", "bogus"),
            "suppressor": ("stap", "sthp", "mf", "bogus"),
            "eps_mode": ("zero", "em", "inf", "bogus"),
            "refinement": ("fft", "music", "musik"),
            "music_factor": (0, 1), "stte_guard": (-1, 0), "va": (False, True)}
    # Specs that used to run as loaded STAP under the mf tag, as STAP, and
    # with FFT refinement, with the key each is now rejected on.
    PROBES = ((dict(suppressor="mf", eps_mode="em"), "eps_mode"),
              (dict(suppressor="bogus"), "suppressor"), (dict(refinement="musik"), "refinement"))

    def test_spec_raises_iff_oracle_reports_a_conflict(self):
        defaults = {f.name: f.default for f in fields(PipelineSpec)}
        grid = [dict(zip(self.GRID, values)) for values in itertools.product(*self.GRID.values())]
        grid += [{**defaults, **probe} for probe, _ in self.PROBES]
        raised = 0
        for kw in grid:
            want = oracles.pipeline_conflict(SimpleNamespace(**kw))
            if want is None:
                PipelineSpec(**kw)
                continue
            with pytest.raises(ValueError) as err:
                PipelineSpec(**kw)
            assert str(err.value) == f"{want[0]}: {want[1]}", kw
            raised += 1
        assert 0 < raised < len(grid)
        for probe, key in self.PROBES:
            with pytest.raises(ValueError, match=f"^{key}: "):
                replace(PipelineSpec(), **probe)

    def test_plan_raises_iff_oracle_does(self):
        spec = PipelineSpec()
        fa1 = PipelineSpec(structure="fa", suppressor="mf", stte_guard=1)
        options = {
            "scenario": ("custom", "boat"), "num_drops": (0, -1), "target_count": (1, 0),
            "sweep_axis": ("tx_power", "speed"),
            "sweep_values": ((), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (0.0, 1.0)),
            "workers": (1, 0),
            "custom": (CustomRanges(), CustomRanges(rcs_m2=0.0),
                       CustomRanges(sin_psi_x=(0.8, 0.9), sin_psi_y=(0.8, 0.9)),
                       CustomRanges(speed_mps=(50.0, 7.0)), CustomRanges(speed_mps=(0.0, -0.0))),
            "range_bounds_m": ((100.0, 1000.0), (900.0, 200.0)),
            "azimuth_max_rad": (1.0, -0.1),
            "pipelines": ((spec,), (), (spec, fa1, replace(fa1, stte_guard=3))),
        }
        base = {f.name: getattr(ExperimentPlan(), f.name) for f in fields(ExperimentPlan)}
        for values in itertools.product(*options.values()):
            kw = {**base, **dict(zip(options, values))}
            try:
                oracles.validate_plan(SimpleNamespace(**kw))
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    ExperimentPlan(**kw)
                assert str(err.value) == str(exc)
                with pytest.raises(ValueError):
                    replace(ExperimentPlan(), **dict(zip(options, values)))
            else:
                ExperimentPlan(**kw)

    @staticmethod
    def _most_targets(structure, cols, rows, n, m, guard):
        """(scene, plan, schedule, the largest target_count plan_groups
        accepts) for one pipeline of ``structure`` on a cols x rows array."""
        scene = make_scene(radio=make_radio(n=n, num_pri=m), arr=make_array(cols=cols, rows=rows),
                           indices=(1,))
        plan = ExperimentPlan(pipelines=(PipelineSpec(structure=structure, suppressor="mf",
                                                      stte_guard=guard),))
        [(_, schedule)] = plan_groups(scene, plan)
        most = 1
        while True:
            try:
                plan_groups(scene, plan, ("experiment.target_count", most + 1))
            except ValueError as exc:
                assert f"experiment.target_count {most + 1} exceeds" in str(exc)
                return scene, plan, schedule, most
            most += 1

    @given(structure=st.sampled_from(["comb", "fa"]), cols=st.integers(1, 3),
           rows=st.integers(1, 3), n=st.integers(2, 12), m=st.integers(3, 16),
           guard=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_accepted_target_count_is_returned(self, structure, cols, rows, n, m,
                                                     guard, seed):
        # The greedy peak search returns the largest target_count
        # plan_groups accepts on any map, ties included: each peak claims at
        # most a 3 x 3 (x 3) neighbourhood of the unmasked cells. A comb
        # schedule of W = 1 chirp occasion needs 10W < M.
        assume(guard < m // 2 and (structure == "fa" or m > 10))
        scene, plan, schedule, most = self._most_targets(structure, cols, rows, n, m, guard)
        rng = np.random.default_rng(seed)
        if structure == "fa":
            power = rng.integers(0, 3, size=(m, n)).astype(float)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, "fa_range_doppler_map", lambda *args: power.copy())
                got = run_fa_pipeline(np.ones((cols * rows, m), dtype=complex), scene,
                                      schedule, most, guard)
            # The peaks are the injected map's, ties in its memory order.
            want = oracles.fa_peak_search(power.T, most, guard)
            assert [(e.range_bin, e.velocity_bin, e.amplitude) for e in got] == [
                (r, signed_bin(v, m), a) for r, v, a in want]
        else:
            values = rng.integers(0, 3, size=(cols, rows, m)).astype(float)
            got = stte_peaks(AngleVelocityMap(values, 1.0, 1.0, 1.0), most, guard)
        assert len(got) == most

    @given(cols=st.integers(1, 3), rows=st.integers(1, 3), m=st.integers(11, 16),
           guard=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stte_peaks_equal_retired_loop_on_tie_heavy_maps(self, cols, rows, m, guard,
                                                            seed):
        # Values 0-2 tie everywhere: the shared greedy search picks STTE's
        # peaks, ties included, as its own loop did, at every accepted K.
        assume(guard < m // 2)
        *_, most = self._most_targets("comb", cols, rows, 4, m, guard)
        values = np.random.default_rng(seed).integers(0, 3, size=(cols, rows, m)).astype(float)
        avmap = AngleVelocityMap(values, 0.5, 0.25, 1.875)
        for k in range(1, most + 1):
            assert stte_peaks(avmap, k, guard) == oracles.stte_peaks(avmap, k, guard)

    def test_music_target_count_bounded_by_elements(self, desk):
        # MUSIC needs K + 1 <= the rank of its num_rx x num_rx spatial and
        # M x M temporal covariances.
        scene, plan = desk
        music = PipelineSpec(refinement="music")
        plan_groups(scene, replace(plan, pipelines=(music,)), ("experiment.target_count", 15))
        with pytest.raises(ValueError, match=re.escape(
                "pipelines[1] comb-sthp-inf-music: experiment.target_count 16 needs "
                "K + 1 <= min(num_rx, M) = 16 for MUSIC")):
            plan_groups(scene, replace(plan, pipelines=(PipelineSpec(), music)),
                        ("experiment.target_count", 16))
        # A 6 x 5 array over M = 16 PRIs: the temporal covariance binds,
        # and 16 targets fit the map's ceil(30 * 15 / 27) = 17 peaks.
        scene = make_scene(radio=make_radio(num_pri=16, power_w=10.0),
                           arr=make_array(cols=6, rows=5), indices=(1,))
        music = PipelineSpec(suppressor="mf", refinement="music", stte_guard=0)
        plan = quiet_plan(pipelines=(music,), num_drops=1)
        plan_groups(scene, plan, ("experiment.target_count", 15))
        run = compiled(scene, replace(plan, target_count=15))
        value, at, groups = run.points[0]
        assert len(run_drop(at, run, 0, groups, value)) == 15
        with pytest.raises(ValueError, match=re.escape("needs K + 1 <= min(num_rx, M) = 16")):
            plan_groups(scene, plan, ("experiment.target_count", 16))
        # The count the rule refuses, in a run built by hand, fails its drop.
        run = replace(run, plan=replace(run.plan, target_count=16))
        with pytest.raises(DropError, match=re.escape("covariance rank 16 < K+1 = 17")):
            run_drop(at, run, 0, groups, value)


class TestMonteCarlo:
    def test_zero_drops_no_crash(self):
        scene = make_scene()
        plan = quiet_plan(num_drops=0)
        rows, report = monte_carlo(plan, scene)
        assert rows == []
        assert report.records == []

    def test_curves_structure(self):
        scene = make_scene(radio=make_radio(power_w=10.0))
        plan = quiet_plan(num_drops=3)
        rows, report = monte_carlo(plan, scene)
        metrics = {r["metric"] for r in rows}
        assert "hit_rate" in metrics
        hit_row = next(r for r in rows if r["metric"] == "hit_rate")
        assert hit_row["n"] == 3
        assert 0.0 <= hit_row["ci_low"] <= hit_row["value"] <= hit_row["ci_high"] <= 1.0

    def test_power_sweep_monotone_within_tolerance(self):
        # Hit rate grows with transmit power; two-drop slack per step.
        scene = make_scene()
        plan = quiet_plan(num_drops=24, sweep_axis="tx_power",
                          sweep_values=(1e-11, 1e-6, 1.0))
        rows, _ = monte_carlo(plan, scene)
        rates = [r["value"] for r in rows if r["metric"] == "hit_rate"]
        assert len(rates) == 3
        slack = 2 / 24
        assert rates[1] >= rates[0] - slack
        assert rates[2] >= rates[1] - slack
        assert rates[2] >= 0.9

    def test_range_sweep_fixes_target_range(self):
        scene = make_scene(radio=make_radio(power_w=10.0))
        plan = quiet_plan(num_drops=2, sweep_axis="range", sweep_values=(150.0, 400.0))
        rows, report = monte_carlo(plan, scene)
        by_value = {}
        for rec in report.records:
            by_value.setdefault(rec.sweep_value, set()).add(rec.truth.range_m)
        assert by_value[150.0] == {150.0}
        assert by_value[400.0] == {400.0}

    def test_per_drop_bookkeeping(self):
        scene = make_scene(radio=make_radio(power_w=10.0))
        plan = quiet_plan(num_drops=3)
        _, report = monte_carlo(plan, scene)
        assert set(report.drop_runtimes_s) == {("None", i) for i in range(3)}
        assert all(v > 0 for v in report.drop_runtimes_s.values())

    def test_nonpositive_sweep_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            quiet_plan(sweep_values=(0.0, 1.0))

    def test_multi_target_with_clutter(self, desk, desk_clutter):
        # Three targets per drop on the coarse desk grid: collisions in the
        # angle-velocity map cost hits (the multi-target interference
        # effect), but every truth gets a record and the path stays stable.
        scene, plan = desk
        plan = replace(plan, num_drops=12, target_count=3,
                       pipelines=(PipelineSpec(structure="comb", suppressor="sthp",
                                               eps_mode="inf", va=True),))
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows, report = monte_carlo(plan, scene, desk_clutter)
        assert len(report.records) == 36
        per_drop = {}
        for r in report.records:
            per_drop[r.drop_index] = per_drop.get(r.drop_index, 0) + 1
        assert set(per_drop.values()) == {3}
        assert sum(r.hit for r in report.records) / len(report.records) >= 0.4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_drop_applies_a_rule_or_builds_a_schedule(self, monkeypatch, workers):
        # Two tx_power points and two groups: the run is compiled once, and
        # every drop, in this process or a forked worker, reads its groups.
        scene = make_scene(radio=make_radio(power_w=10.0))
        plan = quiet_plan(num_drops=2, sweep_values=(1e-3, 10.0), workers=workers, pipelines=(
            PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf"),
            PipelineSpec(structure="fa", suppressor="mf")))
        compile_run, compiled_runs = harness.compile_run, []

        def refused(name):
            def call(*args, **kwargs):
                raise AssertionError(f"a drop called {name}")
            return call

        def compile_once(*args, **kwargs):
            compiled_runs.append(compile_run(*args, **kwargs))
            for name in ("plan_groups", "schedule_for", "build_schedule"):
                monkeypatch.setattr(harness, name, refused(name))
            return compiled_runs[-1]

        monkeypatch.setattr(harness, "compile_run", compile_once)
        _, report = monte_carlo(plan, scene)
        assert len(compiled_runs) == 1 and len(report.records) == 2 * 2 * 2
        [[(_, power_low), _], [(_, power_high), _]] = [groups for _, _, groups
                                                       in compiled_runs[0].points]
        assert (power_low.avg_power_w, power_high.avg_power_w) == (1e-3, 10.0)

    def test_workers_match_serial(self):
        scene = make_scene(radio=make_radio(power_w=10.0))
        plan = quiet_plan(num_drops=4)
        rows_serial, rep_serial = monte_carlo(plan, scene)
        rows_par, rep_par = monte_carlo(replace(plan, workers=2), scene)
        assert rep_serial.records == rep_par.records
        assert [(r["metric"], r["value"]) for r in rows_serial] == \
            [(r["metric"], r["value"]) for r in rows_par]
        # One pool serves every sweep point, in the serial drop order.
        plan = quiet_plan(num_drops=3, sweep_values=(1e-3, 10.0))
        rows_serial, rep_serial = monte_carlo(plan, scene)
        rows_par, rep_par = monte_carlo(replace(plan, workers=2), scene)
        assert {r.sweep_value for r in rep_par.records} == {1e-3, 10.0}
        assert rep_serial.records == rep_par.records
        assert list(rep_serial.drop_runtimes_s) == list(rep_par.drop_runtimes_s)
        assert rows_serial == rows_par

    def test_pool_starts_no_more_workers_than_tasks(self, monkeypatch):
        # A pool starts all its processes at once, so 3 tasks at --workers 8
        # get 3 and a 1-task run gets no pool. The recorder runs each task in
        # this process: no process starts.
        pools = []

        class Recorder:
            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)
                (self.run,) = initargs

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(task, self.run) for task in tasks]

        scene = make_scene(radio=make_radio(power_w=10.0))
        plan = quiet_plan(num_drops=3)
        _, serial = monte_carlo(plan, scene)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", Recorder)
        _, pooled = monte_carlo(replace(plan, workers=8), scene)
        assert pools == [3] and pooled.records == serial.records
        _, one = monte_carlo(replace(plan, workers=8, num_drops=1), scene)
        assert pools == [3] and one.records == [r for r in serial.records if r.drop_index == 0]

    def test_va_plan_on_one_slot_map_fails_before_any_drop(self, monkeypatch):
        # The map must hold the slot tables of the plan's VA schedule: a
        # ValueError before any drop, not a DropError at drop 0.
        scene, cmap, plan = va_clutter_mismatch(num_drops=2)
        monkeypatch.setattr(harness, "_timed_drop", lambda *args: pytest.fail("a drop ran"))
        with pytest.raises(ValueError) as err:
            monte_carlo(plan, scene, cmap)
        assert not isinstance(err.value, DropError)
        assert str(err.value) == "clutter map has 1 tx slot tables, schedule needs 4"

    def test_worker_drop_error_keeps_drop_seed(self):
        # The drop seed depends on the sweep point, so the error names it too,
        # and every replay field survives the trip back from a worker. A NaN
        # tone term fits the scene, so the map passes the pre-check and every
        # cube of every drop is refused.
        scene, cmap, plan = va_clutter_mismatch(num_drops=2, workers=2,
                                                sweep_values=(5.0, 10.0))
        plan = replace(plan, pipelines=(PipelineSpec(structure="comb", suppressor="sthp"),))
        cmap = replace(cmap, tone_vec=np.full_like(cmap.tone_vec, np.nan))
        with pytest.raises(DropError) as err:
            monte_carlo(plan, scene, cmap)
        assert err.value.drop_index == 0
        assert err.value.sweep_value == 5.0
        assert err.value.drop_seed == derive_seed(plan.seed, "drop", 0, "5.0")
        assert "non-finite" in str(err.value) and "sweep value 5.0" in str(err.value)
        again = pickle.loads(pickle.dumps(err.value))
        fields = ("drop_index", "drop_seed", "pipeline", "sweep_value", "args")
        assert [getattr(again, k) for k in fields] == [getattr(err.value, k) for k in fields]

    @pytest.mark.parametrize("waveform,message", BAD_DESK_WAVEFORMS)
    def test_bad_schedule_fails_before_clutter_map(self, monkeypatch, waveform, message):
        scene_cfg, plan = config_from_dict(desk_raw(**waveform))
        scene = validate_scene(scene_cfg)

        def no_map(*args, **kwargs):
            raise AssertionError("a clutter map was built")

        monkeypatch.setattr(harness, "build_clutter_for", no_map)
        with pytest.raises(ValueError, match=message) as err:
            monte_carlo(replace(plan, num_drops=1), scene)
        assert f"pipelines[0] {plan.pipelines[0].tag}:" in str(err.value)

    def test_clutter_map_of_another_scene_fails_before_any_drop(self, desk_clutter,
                                                                 monkeypatch):
        # A desk_small map on a table1_car scene: refused by name before any
        # drop, not at drop 0 by a broadcast of (16, 512) into (64, 2048).
        scene_cfg, plan = parse_config(preset_path("table1_car"))
        car = validate_scene(scene_cfg)
        plan = replace(plan, num_drops=2, workers=1)
        message = (f"clutter map has 512 range bins, 16 elements and range_res_m "
                   f"{desk_clutter.range_res_m}; the scene has 2048 subcarriers, 64 elements "
                   f"and range_res_m {car.radio.range_res_m}")
        fa = PipelineSpec(structure="fa", suppressor="mf")
        with monkeypatch.context() as mp:
            mp.setattr(harness, "_timed_drop", lambda *args: pytest.fail("a drop ran"))
            for pipes in (plan.pipelines, (fa,)):
                with pytest.raises(ValueError) as err:
                    monte_carlo(replace(plan, pipelines=pipes), car, desk_clutter)
                assert str(err.value) == message
        # A run given the map by hand meets the synthesizers' own check.
        for pipes in ((PipelineSpec(),), (fa,)):
            with pytest.raises(DropError) as err:
                mismatched_drop(car, desk_clutter, replace(plan, pipelines=pipes), 0)
            assert str(err.value.cause) == message

    def test_drop_invariants_built_once_per_run(self, desk, desk_clutter, monkeypatch):
        # 3 drops x 2 sweep points: the FA lag cells and each clutter
        # spectrum are built once, not once per drop, the chirp spectra of
        # every slot in one transform.
        scene, plan = desk
        cmap = replace(desk_clutter)   # same tables, no spectra held yet
        plan = replace(plan, num_drops=3, sweep_values=(0.5, 1.0), workers=1, pipelines=(
            PipelineSpec(structure="fa", suppressor="mf", eps_mode="inf"),
            PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf")))
        transforms = {"fft": 0, "ifft": 0}
        for name in transforms:
            def counted(a, *args, _name=name, _fft=getattr(np.fft, name), **kwargs):
                transforms[_name] += np.shares_memory(a, cmap.chirp_tables)
                return _fft(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        estimator._lag_cells.cache_clear()
        records = monte_carlo(plan, scene, cmap)[1].records
        assert len(records) == 2 * 3 * 2
        assert estimator._lag_cells.cache_info().misses == 1
        assert transforms == {"fft": 1, "ifft": 1}

    def test_fa_pipeline_reads_its_stte_guard(self):
        # Targets two velocity bins from zero, SI out of the way: guard 1
        # finds them, guard 3 masks bins -3..3 and must land elsewhere.
        scene = make_scene(radio=make_radio(power_w=10.0), si_attenuation_db=300.0)
        dv = scene.radio.velocity_res_mps
        assert 3.5 / dv > 1.5 and 4.5 / dv < 2.5
        custom = CustomRanges(range_m=(100.0, 450.0), speed_mps=(3.5, 4.5))

        def fa_records(guard):
            pipe = PipelineSpec(structure="fa", suppressor="mf", stte_guard=guard)
            plan = quiet_plan(num_drops=3, custom=custom, pipelines=(pipe,))
            return monte_carlo(plan, scene)[1].records

        near, far = fa_records(1), fa_records(3)
        assert all(r.hit and abs(r.estimate.velocity_bin) == 2 for r in near)
        assert all(abs(r.estimate.velocity_bin) > 3 for r in far)

    # Left out of the clean-scene check: lshape-stap-em-fft-va misses one
    # drop in 100 on every occasion set (drop 19, 305 range bins off with
    # velocity and angles right), since training snapshots that hold the
    # target null it (ROADMAP "Negative results"); eps_mode zero is left out
    # for the same reason.
    CLEAN_PIPELINES = (
        PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf"),
        PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf", va=True),
        PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf", refinement="music"),
        PipelineSpec(structure="comb", suppressor="stap", eps_mode="em"),
        PipelineSpec(structure="comb", suppressor="mf", eps_mode="inf", va=True),
        PipelineSpec(structure="lshape", suppressor="stap", eps_mode="inf"),
        PipelineSpec(structure="fa", suppressor="mf", eps_mode="inf"),
    )

    # [2, 20, 41] puts STHP's blind speeds at +-40 m/s, 2 v_max / gcd(18, 39)
    # with v_max = 60 m/s, inside the drawn window; 40 m/s is 21.33 STTE bins
    # and 213.33 MUSIC steps, so neither velocity grid lands on it exactly.
    # The transmit grids (tx_cols, tx_rows) past desk_small's 2 x 2 are
    # asymmetric, so a VA chain that swaps the slot grid's axes misplaces
    # its virtual rows.
    @pytest.mark.parametrize("occasions, tx", [
        ([1, 6, 15], (2, 2)), ([1, 9, 30], (2, 2)), ([2, 20, 41], (2, 2)),
        ([1, 7, 15], (2, 1)), ([2, 20, 41], (1, 3)), ([1, 7, 15], (3, 2)),
    ], ids=[f"occasions{i}" for i in range(6)])
    def test_clean_scene_every_target_is_hit(self, occasions, tx):
        # desk_small without clutter, SI or uplink and with a strong echo:
        # every chain finds its one target within a bin on every axis. The
        # speed window stays two velocity bins (1.875 m/s each) clear of the
        # +-1-bin zero-velocity guard.
        raw = desk_raw(chirp_pri_indices=occasions)
        raw["array"].update(tx_cols=tx[0], tx_rows=tx[1])
        raw["radio"].pop("uplink_power_dbm")
        raw["radio"].update(si_attenuation_db=300.0, uplink_power_w=0.0, avg_tx_power_dbm=40.0)
        raw["clutter"]["enabled"] = False
        raw["experiment"]["custom"]["speed_mps"] = [3.75, 58.0]
        scene_cfg, plan = config_from_dict(raw)
        plan = replace(plan, num_drops=60, pipelines=self.CLEAN_PIPELINES)
        _, report = monte_carlo(plan, validate_scene(scene_cfg))
        assert len(report.records) == 60 * len(self.CLEAN_PIPELINES)
        assert [(r.pipeline, r.drop_index, r.offsets_bins)
                for r in report.records if not r.hit] == []
        # A hit allows one bin either way; in this scene most estimates land
        # on the truth's own bin, on every axis.
        for pipe in self.CLEAN_PIPELINES:
            offsets = [r.offsets_bins for r in report.records if r.pipeline == pipe.tag]
            assert np.median(offsets, axis=0).tolist() == [0, 0, 0, 0], pipe.tag
        # The virtual aperture only sharpens the angle: on each angle axis a
        # VA chain's RMS error is at most the no-VA comb STHP chain's on the
        # same drops. Slot rows assembled with the grid's axes swapped land
        # at the wrong virtual positions, which this catches on the
        # asymmetric grids though every target is still hit.
        rmse = {pipe.tag: rmse_normalized([r for r in report.records if r.pipeline == pipe.tag])
                for pipe in self.CLEAN_PIPELINES}
        plain = rmse[self.CLEAN_PIPELINES[0].tag]
        for pipe in self.CLEAN_PIPELINES:
            if pipe.va:
                for axis in ("sin_psi_x", "sin_psi_y"):
                    assert rmse[pipe.tag][axis] <= plain[axis] + 1e-12, (pipe.tag, axis)


class TestDropDraws:
    """A drop's cubes share one DropDraws: every cube and FA measurement must
    equal the one its own fresh draws give, and no chirp noise block is drawn
    twice or held longer than a later cube of the drop needs it."""

    @given(order=st.permutations(range(len(DESK_MC))), size=st.integers(1, len(DESK_MC)),
           k=st.integers(1, 3), drop_index=st.integers(0, 50),
           sweep_value=st.sampled_from((0.1, 1.0)))
    @settings(max_examples=25, deadline=None)
    def test_cubes_equal_fresh_draws_and_blocks_drawn_once(self, desk, desk_clutter, order,
                                                            size, k, drop_index, sweep_value):
        scene, plan = desk
        plan = replace(plan, pipelines=tuple(DESK_MC[i] for i in order[:size]),
                       target_count=k, sweep_values=(sweep_value,))
        run = compiled(scene, plan, desk_clutter)
        scene, groups, _ = drop_at(run, drop_index)
        drop_seed = derive_seed(plan.seed, "drop", drop_index, str(sweep_value))
        counts, chirp_rngs = {"uniforms": 0}, {}

        class CountedRng:
            def __init__(self, rng):
                self.rng = rng

            def random(self, *, out):
                counts["uniforms"] += out.size
                return self.rng.random(out=out)

        def rng_for(seed, *labels):
            rng = seeding.rng_for(seed, *labels)
            if labels[0] == "noise-chirp":
                chirp_rngs[labels[1:]] = chirp_rngs.get(labels[1:], 0) + 1
                return CountedRng(rng)
            counts[labels[0]] = counts.get(labels[0], 0) + 1
            return rng

        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mp.setattr(channel, "rng_for", rng_for)
            yielded = [(pipe, data) for pipe, data, _, _ in
                       drop_estimates(scene, run, drop_index, groups, sweep_value)]
        assert sorted(pipe.tag for pipe, _ in yielded) == sorted(p.tag for p in plan.pipelines)

        chirp_symbols, block_size = [0], 2 * scene.array.num_rx * scene.radio.num_subcarriers
        for pipe, data in yielded:
            schedule = schedule_for(scene, pipe, plan.seed)
            fresh = oracles.FreshDraws(drop_seed)
            if pipe.structure == "fa":
                want = synthesize_fa_measurements(scene, schedule, desk_clutter, draws=fresh)
                assert np.array_equal(data.view(float), want.view(float))
                continue
            va_scene = replace(scene, array=scene.array.with_va(pipe.va))
            want = synthesize_if_cube(va_scene, schedule, desk_clutter, draws=fresh)
            assert np.array_equal(data.chirp_branch.view(float), want.chirp_branch.view(float))
            assert np.array_equal(data.tone_branch_compressed.view(float),
                                  want.tone_branch_compressed.view(float))
            chirp_symbols.append(schedule.num_chirp_symbols)
        # One generator per shared label and drop (one per target for the
        # phases), and one per chirp noise block k read; each block is drawn
        # once, 2 x L x N uniforms.
        assert chirp_rngs == {(j,): 1 for j in range(max(chirp_symbols))}
        for label, want in (("si", 1), ("uplink-direction", 1), ("target-phase", k)):
            assert counts.get(label, 0) == want, label
        assert counts["uniforms"] == block_size * max(chirp_symbols)

    @staticmethod
    def held_blocks(monkeypatch, run):
        """Chirp noise blocks the DropDraws of drop 0 at ``run``'s first
        sweep point holds after each block it hands out, and once the drop
        is done."""
        held, made = [], []

        class Watched(DropDraws):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

            def chirp_noise(self, *args):
                blocks = super().chirp_noise(*args)

                def watched():
                    for block in blocks:
                        held.append(self.held_chirp_blocks)
                        yield block
                return watched()

        monkeypatch.setattr(harness, "DropDraws", Watched)
        drop, groups, value = drop_at(run, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            list(drop_estimates(drop, run, 0, groups, value))
        assert len(made) == 1
        return held, made[0].held_chirp_blocks

    def test_one_cube_group_holds_no_block(self, monkeypatch):
        # The car_fa benchmark plan: FA plus one comb cube without VA.
        scene_cfg, plan = parse_config(preset_path("table1_car"))
        scene = validate_scene(scene_cfg)
        scene = replace(scene, clutter=replace(scene.clutter, enabled=False))
        plan = replace(plan, pipelines=(DESK_MC[2], DESK_MC[3]))
        held, after = self.held_blocks(monkeypatch, compiled(scene, plan))
        assert len(held) == len(plan.pipelines[1:]) * 4     # 4 comb occasions, 1 slot
        assert max(held) == after == 0

    def test_blocks_held_only_for_later_cubes(self, desk, desk_clutter, monkeypatch):
        # desk_mc order: comb-VA reads 12 blocks, then lshape-VA 4 and comb 3,
        # so at most 4 are held, 3 while lshape-VA reads, none at the end.
        scene, plan = desk
        plan = replace(plan, pipelines=DESK_MC)
        held, after = self.held_blocks(monkeypatch, compiled(scene, plan, desk_clutter))
        assert held == [1, 2, 3, 4] + [4] * 8 + [4, 4, 4, 3] + [3, 3, 0]
        assert after == 0

    def test_blocks_reread_after_release_are_drawn_again(self):
        # A DropDraws without a plan lets every block go; a second cube on it
        # draws blocks 0.. again, equal to the first cube's.
        t = Target(300.0, 18.0, 0.1, 0.0, 50.0)
        scene = make_scene(targets=[t])
        sched = schedule_for(scene, PipelineSpec(), 0)
        draws = DropDraws(42)
        first = synthesize_if_cube(scene, sched, draws=draws)
        again = synthesize_if_cube(scene, sched, draws=draws)
        assert draws.held_chirp_blocks == 0
        assert np.array_equal(first.chirp_branch.view(float), again.chirp_branch.view(float))
        want = synthesize_if_cube(scene, sched, draws=DropDraws(42))
        assert np.array_equal(want.chirp_branch.view(float), again.chirp_branch.view(float))
        # Blocks kept for a later cube serve only cubes of the same noise scale.
        draws = DropDraws(42, [sched.num_chirp_symbols] * 2)
        synthesize_if_cube(scene, sched, draws=draws)
        assert draws.held_chirp_blocks == sched.num_chirp_symbols
        louder = replace(scene, radio=replace(scene.radio, noise_density_w_per_hz=1e-17))
        got = synthesize_if_cube(louder, sched, draws=draws)
        want = synthesize_if_cube(louder, sched, draws=DropDraws(42))
        assert np.array_equal(want.chirp_branch.view(float), got.chirp_branch.view(float))


class AtSubmission:
    """A helper thread that runs each draw when it is queued."""

    @staticmethod
    def submit(fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestDrawThread:
    """The chirp noise is drawn on a second CPU ahead of the cube that reads
    it: records, cubes and FA measurements must not depend on the CPU
    count, and no draw may outlive its drop."""

    @staticmethod
    def car(clutter_enabled=False):
        # The car_fa benchmark plan: FA, then one comb cube without VA.
        scene_cfg, plan = parse_config(preset_path("table1_car"))
        scene = validate_scene(scene_cfg)
        scene = replace(scene, clutter=replace(scene.clutter, enabled=clutter_enabled))
        return scene, replace(plan, pipelines=(DESK_MC[2], DESK_MC[3]))

    @staticmethod
    def drop_outputs(scene, plan, clutter_map, count, drops=2):
        """(records, cube and FA arrays) of ``drops`` drops at each sweep
        point, with the draws and pieces run as on ``count`` CPUs."""
        records, arrays = [], []
        run = compiled(scene, plan, clutter_map)
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mp.setattr(cpus, "count", lambda: count)
            for k, (value, at, groups) in enumerate(run.points):
                for i in range(drops):
                    records += run_drop(at, run, i, groups, value)
                    drop, _, _ = drop_at(run, i, k)
                    for pipe, data, _, _ in drop_estimates(drop, run, i, groups, value):
                        arrays += ([data] if pipe.structure == "fa" else
                                   [data.chirp_branch, data.tone_branch_compressed])
        return records, arrays

    @pytest.mark.parametrize("preset", ["desk_small", "table1_car"])
    def test_same_drops_at_any_cpu_count(self, desk, desk_clutter, preset):
        # desk_mc: the VA comb cube reads 12 chirp blocks, 4 of them kept for
        # the lshape cube and 3 for the comb cube without VA.
        if preset == "desk_small":
            (scene, plan), clutter_map = desk, desk_clutter
            plan = replace(plan, pipelines=DESK_MC, sweep_values=(0.1, 1.0))
        else:
            (scene, plan), clutter_map = self.car(), None
        one, two = (self.drop_outputs(scene, plan, clutter_map, count) for count in (1, 2))
        assert one[0] == two[0] and len(one[1]) == len(two[1])
        for a, b in zip(one[1], two[1]):
            assert np.array_equal(a.view(float), b.view(float))

    @pytest.mark.parametrize("helper,shape", [
        (1, (3, 8)), (2, (3, 8)),
        # Blocks on each side of cpus.PIECE_VALUES: only draws of at least
        # that many values reach the helper thread.
        (2, (1, cpus.PIECE_VALUES - 1)), (1, (1, cpus.PIECE_VALUES)),
        (2, (1, cpus.PIECE_VALUES)),
        # A helper held busy, so the calling thread draws every block, and
        # one that runs each draw when it is queued.
        ("busy", (1, cpus.PIECE_VALUES)), ("at-submission", (1, cpus.PIECE_VALUES))],
        ids=["1", "2", "2-below-piece", "1-piece", "2-piece", "busy-piece",
             "at-submission-piece"])
    @pytest.mark.parametrize("reads,counts,louder", [
        ([3, 12], [3, 12], False), ([12, 4, 3], [12, 4, 3], False),
        ([4, 4], [4, 4], True),
        # The first cube reads more blocks than its plan says, and the
        # second reads them again.
        ([1, 4], [4, 8], False)])
    def test_chirp_blocks_equal_unshared_draws(self, monkeypatch, helper, shape, reads, counts,
                                                louder):
        # Each cube's blocks are what fresh noise-chirp generators give:
        # kept blocks, blocks drawn ahead, and after a key change, whichever
        # thread draws them and in whatever order.
        monkeypatch.setattr(cpus, "count", lambda: 1 if helper == 1 else 2)
        if helper == "at-submission":
            monkeypatch.setattr(cpus, "helper", lambda: AtSubmission)
        drawn_on, noise_parts = set(), channel._noise_parts

        def watched_noise_parts(*args):
            drawn_on.add(threading.get_ident())
            return noise_parts(*args)

        monkeypatch.setattr(channel, "_noise_parts", watched_noise_parts)
        release = threading.Event()
        if helper == "busy":
            cpus.helper().submit(release.wait, 10.0)
        try:
            key = (0.5, shape)
            draws = DropDraws(11, reads, key)
            if helper == 2:
                # The helper has drawn the first cube's queued blocks.
                cpus.helper().submit(lambda: None).result()
            for j, count in enumerate(counts):
                scale = 2.0 if louder and j else key[0]
                got = [block.copy() for block in draws.chirp_noise(scale, key[1], count)]
                want = list(oracles.FreshDraws(11).chirp_noise(scale, key[1], count))
                assert len(got) == count
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
            draws.settle()
        finally:
            release.set()
        if helper == 2 and math.prod(shape) >= cpus.PIECE_VALUES:
            assert len(drawn_on - {threading.get_ident()}) == 1
        else:
            assert drawn_on == {threading.get_ident()}

    def test_one_cpu_starts_no_thread(self, desk, monkeypatch):
        monkeypatch.setattr(cpus, "_HELPER", None)
        monkeypatch.setattr(cpus, "count", lambda: 1)
        scene, plan = desk
        scene = replace(scene, clutter=replace(scene.clutter, enabled=False))
        threads = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            drop_records(scene, replace(plan, pipelines=DESK_MC), 0)
        assert threads_running_pieces() == {threading.get_ident()}
        assert cpus._HELPER is None and threading.active_count() == threads
        monkeypatch.setattr(cpus, "count", lambda: 2)
        DropDraws(1, [1], (1.0, (1, cpus.PIECE_VALUES))).settle()
        assert cpus._HELPER is not None
        cpus._HELPER.shutdown()

    def test_desk_drop_asks_nothing_of_the_helper(self, desk, desk_clutter, monkeypatch):
        # At two CPUs a desk_small drop's chirp blocks and shared pieces are
        # all below cpus.PIECE_VALUES: the drop never asks for the helper,
        # starts no helper thread and draws every block on the calling thread.
        def helper_threads():
            return [t for t in threading.enumerate() if t.name.startswith("mars-jcas-helper")]

        scene, plan = desk
        plan = replace(plan, pipelines=DESK_MC)
        helper, asked, drawn_on, noise_parts = cpus.helper, [], set(), channel._noise_parts

        def watched_noise_parts(*args):
            drawn_on.add(threading.get_ident())
            return noise_parts(*args)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            monkeypatch.setattr(cpus, "count", lambda: 1)
            want = drop_records(scene, plan, 0, desk_clutter)
            monkeypatch.setattr(cpus, "_HELPER", None)
            monkeypatch.setattr(cpus, "count", lambda: 2)
            monkeypatch.setattr(cpus, "helper", lambda: asked.append(1) or helper())
            monkeypatch.setattr(channel, "_noise_parts", watched_noise_parts)
            threads = helper_threads()
            got = drop_records(scene, plan, 0, desk_clutter)
        assert got == want and asked == [] and drawn_on == {threading.get_ident()}
        assert cpus._HELPER is None and helper_threads() == threads

    @pytest.mark.parametrize("stop", ["cube_raises", "closed_early"])
    def test_no_draw_outlives_its_drop(self, monkeypatch, stop):
        monkeypatch.setattr(cpus, "count", lambda: 2)
        draws_made = {"started": 0, "running": 0}
        noise_parts = channel._noise_parts

        def slow_noise_parts(rng, scale, out):
            draws_made["started"] += 1
            draws_made["running"] += 1
            try:
                time.sleep(0.01)
                return noise_parts(rng, scale, out)
            finally:
                draws_made["running"] -= 1

        monkeypatch.setattr(channel, "_noise_parts", slow_noise_parts)
        run = compiled(*self.car())
        drop, groups, value = drop_at(run, 0)
        if stop == "cube_raises":
            # The cube asks for its first block, with more drawn ahead.
            def failing_cube(scene, schedule, clutter_map, *, draws):
                next(draws.chirp_noise(*channel.chirp_noise_key(scene),
                                       schedule.num_chirp_symbols))
                raise RuntimeError("cube failed")

            monkeypatch.setattr(harness, "synthesize_if_cube", failing_cube)
            with pytest.raises(DropError, match="cube failed"):
                list(drop_estimates(drop, run, 0, groups, value))
        else:
            # FA runs first; the cube's blocks are drawn meanwhile.
            estimates = drop_estimates(drop, run, 0, groups, value)
            assert next(estimates)[0].structure == "fa"
            estimates.close()
        started = draws_made["started"]
        assert started >= 1 and draws_made["running"] == 0
        time.sleep(0.05)
        assert draws_made == {"started": started, "running": 0}

    def test_forked_workers_after_the_draw_thread(self, desk, monkeypatch):
        # A serial drop starts this process's draw thread; the --workers pool
        # forks after it, and its workers draw on their calling threads.
        monkeypatch.setattr(cpus, "count", lambda: 2)
        scene, plan = desk
        scene = replace(scene, clutter=replace(scene.clutter, enabled=False))
        plan = replace(plan, pipelines=DESK_MC, num_drops=4)

        def timed_out(signum, frame):
            raise TimeoutError("monte_carlo with forked workers hung")

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                serial = monte_carlo(plan, scene)[1].records
                assert cpus._HELPER is not None
                pooled = monte_carlo(replace(plan, workers=2), scene)[1].records
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert pooled == serial and len(serial) == 4 * len(DESK_MC)

    def test_settle_starts_no_queued_draw(self, monkeypatch):
        # One slow chirp draw in flight on the helper and two queued behind
        # it: settle unqueues both before it waits, so neither starts.
        monkeypatch.setattr(cpus, "count", lambda: 2)
        started, noise_parts = [], channel._noise_parts
        first = threading.Event()

        def slow_noise_parts(rng, scale, out):
            started.append(threading.get_ident())
            first.set()
            time.sleep(0.1)
            return noise_parts(rng, scale, out)

        monkeypatch.setattr(channel, "_noise_parts", slow_noise_parts)
        draws = DropDraws(3, [channel.AHEAD + 1], (1.0, (1, cpus.PIECE_VALUES)))
        assert first.wait(10)
        draws.settle()
        cpus.helper().submit(lambda: None).result(timeout=10)
        assert started == [started[0]] and started[0] != threading.get_ident()

    def test_pool_workers_start_no_draw_thread(self, desk, monkeypatch):
        # With --workers the pool keeps the CPUs busy: a worker's drop draws
        # its chirp noise, and runs every shared piece, on the calling
        # thread, as at one CPU.
        monkeypatch.setattr(cpus, "count", lambda: 2)
        scene, plan = desk
        scene = replace(scene, clutter=replace(scene.clutter, enabled=False))
        plan = replace(plan, pipelines=DESK_MC)
        with ProcessPoolExecutor(1, initializer=harness._pool_init,
                                 initargs=(compiled(scene, plan),)) as pool:
            inline, threads, calling = pool.submit(draw_threads_after_a_drop).result(timeout=60)
        assert inline and threads == [] and calling


class TestDropMemory:
    """Peak memory of the drop phase alone. perfbench's peak RSS covers the
    whole process, imports and set-up included, so it cannot single out
    what one drop allocates."""

    @pytest.mark.parametrize("preset,pipes,branch_mib,branches", [
        # car_fa (FA + comb, no VA): below three 8 MiB chirp branches.
        ("table1_car", (DESK_MC[2], DESK_MC[3]), 8, 3),
        # A VA drop keeps the chirp branch in place: below two 32 MiB branches.
        ("table1_uav", (DESK_MC[0],), 32, 2),
    ], ids=["table1_car", "table1_uav"])
    def test_warm_drop_peak_below_chirp_branches(self, preset, pipes, branch_mib, branches):
        scene_cfg, plan = parse_config(preset_path(preset))
        scene = validate_scene(scene_cfg)
        plan = replace(plan, pipelines=pipes)
        run = compiled(scene, plan, build_clutter_for(scene, pipes))
        sweep_value, at, groups = run.points[0]
        sched = schedule_for(scene, pipes[-1], plan.seed)
        branch = scene.array.num_rx * sched.num_chirp_symbols * scene.radio.num_subcarriers * 16
        assert branch == branch_mib * 2**20
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # The first drop builds what every later drop shares: the map's
            # spectra and the FA lag cells.
            run_drop(at, run, 0, groups, sweep_value)
            tracemalloc.start()
            try:
                run_drop(at, run, 1, groups, sweep_value)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < branches * branch
