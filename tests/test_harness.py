from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_array, make_radio, make_scene, on_grid_target
from mars_jcas import estimator, pipeline
from mars_jcas.clutter import build_clutter_map
from mars_jcas.estimator import TargetEstimate
from mars_jcas.harness import (
    CustomRanges,
    DropError,
    ExperimentPlan,
    TargetRecord,
    draw_targets,
    hit_rate,
    monte_carlo,
    rmse_normalized,
    run_drop,
    score_estimates,
    wilson_interval,
)
from mars_jcas.pipeline import PipelineSpec
from mars_jcas.scene import ClutterConfig, Target
from mars_jcas.seeding import derive_seed


def quiet_plan(**kw):
    defaults = dict(scenario="custom", num_drops=4, target_count=1, seed=5,
                    pipelines=(PipelineSpec(structure="comb", suppressor="sthp",
                                            eps_mode="inf"),),
                    custom=CustomRanges(range_m=(100.0, 450.0), speed_mps=(7.0, 50.0)))
    defaults.update(kw)
    return ExperimentPlan(**defaults).validate()


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
        est = estimate_like(t, scene, range_m=62 * scene.range_res_m)
        rec = score_estimates([t], [est], scene, "p", 0, None)[0]
        assert not rec.hit
        assert rec.offsets_bins[0] == 2

    def test_one_bin_offsets_still_hit(self):
        scene = make_scene()
        t = on_grid_target(scene, range_bin=60, vel_bin=10)
        est = estimate_like(t, scene,
                            range_m=61 * scene.range_res_m,
                            velocity_mps=9 * scene.velocity_res_mps)
        rec = score_estimates([t], [est], scene, "p", 0, None)[0]
        assert rec.hit
        assert rec.offsets_bins[:2] == (1, -1)

    def test_velocity_wraps_modulo_grid(self):
        scene = make_scene()
        m = scene.num_pri
        t = on_grid_target(scene, vel_bin=m // 2 - 1)
        est = estimate_like(t, scene,
                            velocity_mps=-(m // 2) * scene.velocity_res_mps)
        rec = score_estimates([t], [est], scene, "p", 0, None)[0]
        assert rec.offsets_bins[1] == 1  # wrapped distance, not m-1

    def test_infinite_tolerance_always_hits(self):
        scene = make_scene()
        t = on_grid_target(scene)
        est = estimate_like(t, scene, range_m=300.0, velocity_mps=-40.0)
        rec = score_estimates([t], [est], scene, "p", 0, None,
                              tolerance_bins=math.inf)[0]
        assert rec.hit

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

    def test_hit_rate(self):
        recs = self._records([(0, 0, 0, 0)] * 4, [True, True, False, True])
        assert hit_rate(recs) == pytest.approx(0.75)
        with pytest.raises(ValueError):
            hit_rate([])

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
        recs = run_drop(scene, plan, 0)
        assert len(recs) == 1
        assert recs[0].hit

    def test_same_seed_identical_report(self):
        scene = make_scene(radio=make_radio(power_w=10.0))
        plan = quiet_plan()
        a = run_drop(scene, plan, 2)
        b = run_drop(scene, plan, 2)
        assert a == b

    def test_k5_yields_five_records(self):
        scene = make_scene(radio=make_radio(power_w=10.0))
        plan = quiet_plan(target_count=5)
        recs = run_drop(scene, plan, 0)
        assert len(recs) == 5

    def test_pipeline_error_carries_drop_seed(self):
        scene = make_scene(indices=(1,))  # W = 1
        plan = quiet_plan(pipelines=(PipelineSpec(structure="comb",
                                                  suppressor="sthp"),))
        with pytest.raises(DropError) as err:
            run_drop(scene, plan, 7)
        assert err.value.drop_index == 7
        assert err.value.drop_seed > 0
        assert "seed" in str(err.value)

    def test_va_pipeline_on_non_va_clutter_map_is_drop_error(self):
        # A no-VA map has one transmit slot table; the VA schedule needs four.
        scene = make_scene(arr=make_array(tx=2), radio=make_radio(power_w=10.0))
        scene = replace(scene, clutter=ClutterConfig(enabled=True, station_height_m=10.0,
                                                     area_x_m=60.0, area_y_m=30.0))
        cmap = build_clutter_map(scene)
        plan = quiet_plan(pipelines=(PipelineSpec(structure="comb", suppressor="sthp",
                                                  va=True),))
        with pytest.raises(DropError, match="tx slot") as err:
            run_drop(scene, plan, 3, cmap)
        assert err.value.drop_index == 3
        assert err.value.drop_seed == derive_seed(plan.seed, "drop", 3, "None")
        assert f"seed {err.value.drop_seed}" in str(err.value)

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
            recs = run_drop(scene, replace(plan, pipelines=pipes, target_count=k), 0)
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
        with pytest.raises(ValueError, match="scenario"):
            quiet_plan(scenario="boat")

    @pytest.mark.parametrize("pipe,key", [
        (PipelineSpec(suppressor="mf", eps_mode="em"), "eps_mode"),
        (PipelineSpec(structure="fa", suppressor="sthp"), "suppressor"),
        (PipelineSpec(structure="fa", suppressor="mf", refinement="music"), "refinement"),
        (PipelineSpec(structure="fa", suppressor="mf", va=True), "va"),
        (PipelineSpec(suppressor="music"), "suppressor"),
        (PipelineSpec(music_factor=0), "music_factor"),
    ], ids=lambda v: "" if isinstance(v, PipelineSpec) else v)
    def test_plan_validation_checks_fixed_values(self, pipe, key):
        # Built in Python, not parsed: validate() must hold the same line as the parser.
        ok = PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf")
        with pytest.raises(ValueError, match=re.escape(f"pipelines[1].{key}: ")):
            ExperimentPlan(pipelines=(ok, pipe)).validate()


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
        assert set(report.drop_seeds) == {("None", i) for i in range(3)}
        assert set(report.drop_runtimes_s) == set(report.drop_seeds)
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
        assert hit_rate(report.records) >= 0.4

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
        assert rep_serial.drop_seeds == rep_par.drop_seeds
        assert list(rep_serial.drop_runtimes_s) == list(rep_par.drop_runtimes_s)
        assert rows_serial == rows_par

    def test_worker_drop_error_keeps_drop_seed(self):
        scene = make_scene(indices=(1,))  # W = 1: STHP fails on every drop
        plan = quiet_plan(num_drops=2, workers=2)
        with pytest.raises(DropError) as err:
            monte_carlo(plan, scene)
        assert err.value.drop_index == 0
        assert err.value.drop_seed == derive_seed(plan.seed, "drop", 0, "None")
        assert "W >= 2" in str(err.value)

    def test_drop_invariants_built_once_per_run(self, desk, desk_clutter, monkeypatch):
        # 3 drops x 2 sweep points: the FA lag cells and each clutter
        # spectrum are built once, not once per drop.
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
        assert transforms == {"fft": 1, "ifft": cmap.num_tx_slots}

    def test_fa_pipeline_reads_its_stte_guard(self):
        # Targets two velocity bins from zero, SI out of the way: guard 1
        # finds them, guard 3 masks bins -3..3 and must land elsewhere.
        scene = make_scene(radio=make_radio(power_w=10.0), si_attenuation_db=300.0)
        assert 3.5 / scene.velocity_res_mps > 1.5 and 4.5 / scene.velocity_res_mps < 2.5
        custom = CustomRanges(range_m=(100.0, 450.0), speed_mps=(3.5, 4.5))

        def fa_records(guard):
            pipe = PipelineSpec(structure="fa", suppressor="mf", stte_guard=guard)
            plan = quiet_plan(num_drops=3, custom=custom, pipelines=(pipe,))
            return monte_carlo(plan, scene)[1].records

        near, far = fa_records(1), fa_records(3)
        assert all(r.hit and abs(r.estimate.velocity_bin) == 2 for r in near)
        assert all(abs(r.estimate.velocity_bin) > 3 for r in far)
