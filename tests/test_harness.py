from __future__ import annotations

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_array, make_radio, make_scene, on_grid_target
from mars_jcas import channel, estimator, harness, pipeline, seeding
from mars_jcas.channel import DropDraws, synthesize_fa_measurements, synthesize_if_cube
from mars_jcas.cli import preset_path
from mars_jcas.clutter import build_clutter_map
from mars_jcas.estimator import TargetEstimate
from mars_jcas.harness import (
    CustomRanges,
    DropError,
    ExperimentPlan,
    TargetRecord,
    draw_targets,
    drop_estimates,
    hit_rate,
    monte_carlo,
    rmse_normalized,
    run_drop,
    schedule_for,
    score_estimates,
    wilson_interval,
)
from mars_jcas.io import parse_config
from mars_jcas.pipeline import PipelineSpec
from mars_jcas.scene import ClutterConfig, Target, validate_scene
from mars_jcas.seeding import derive_seed

# The five pipelines the desk_mc acceptance run compares.
DESK_MC = (
    PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf", va=True),
    PipelineSpec(structure="lshape", suppressor="stap", eps_mode="zero", va=True),
    PipelineSpec(structure="fa", suppressor="mf", eps_mode="inf"),
    PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf"),
    PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf", refinement="music"),
)


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

    def test_schedule_error_raised_in_its_groups_turn(self):
        # Schedules are built before any cube; a group whose schedule fails
        # still fails only after the groups before it have run.
        scene = make_scene(arr=make_array(tx=2), indices=(1, 3, 15))  # VA slots overlap
        plan = quiet_plan(pipelines=(PipelineSpec(structure="comb", suppressor="sthp"),
                                     PipelineSpec(structure="comb", suppressor="sthp", va=True)))
        scene = replace(scene, targets=draw_targets(plan, scene, 0))
        done = []
        with pytest.raises(DropError, match="overlaps") as err:
            for pipe, *_ in drop_estimates(scene, plan, 0):
                done.append(pipe.tag)
        assert done == [plan.pipelines[0].tag]
        assert err.value.pipeline == plan.pipelines[1].tag

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


class TestDropDraws:
    """A drop's cubes share one DropDraws: every cube and FA measurement must
    equal the one its own fresh draws give, and no chirp noise block is drawn
    twice or held longer than a later cube of the drop needs it."""

    @staticmethod
    def drop_scene(scene, plan, drop_index, sweep_value):
        # The scene run_drop hands to drop_estimates.
        scene = replace(scene, radio=replace(scene.radio, avg_tx_power_w=sweep_value))
        return replace(scene, targets=draw_targets(plan, scene, drop_index))

    @given(order=st.permutations(range(len(DESK_MC))), size=st.integers(1, len(DESK_MC)),
           k=st.integers(1, 3), drop_index=st.integers(0, 50),
           sweep_value=st.sampled_from((0.1, 1.0)))
    @settings(max_examples=25, deadline=None)
    def test_cubes_equal_fresh_draws_and_blocks_drawn_once(self, desk, desk_clutter, order,
                                                            size, k, drop_index, sweep_value):
        scene, plan = desk
        plan = replace(plan, pipelines=tuple(DESK_MC[i] for i in order[:size]),
                       target_count=k, sweep_values=(sweep_value,))
        scene = self.drop_scene(scene, plan, drop_index, sweep_value)
        drop_seed = derive_seed(plan.seed, "drop", drop_index, str(sweep_value))
        counts = {"normal": 0}

        class CountedRng:
            def __init__(self, rng):
                self.rng = rng

            def normal(self, *args, **kwargs):
                counts["normal"] += 1
                return self.rng.normal(*args, **kwargs)

        def rng_for(seed, *labels):
            counts[labels[0]] = counts.get(labels[0], 0) + 1
            rng = seeding.rng_for(seed, *labels)
            return CountedRng(rng) if labels == ("noise-chirp",) else rng

        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mp.setattr(channel, "rng_for", rng_for)
            yielded = [(pipe, data) for pipe, data, _, _ in
                       drop_estimates(scene, plan, drop_index, desk_clutter, sweep_value)]
        assert sorted(pipe.tag for pipe, _ in yielded) == sorted(p.tag for p in plan.pipelines)

        chirp_symbols = [0]
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
        # phases); each chirp noise block is one pair of normal calls.
        for label, want in (("noise-chirp", max(chirp_symbols) > 0), ("si", 1),
                            ("uplink-direction", 1), ("target-phase", k)):
            assert counts.get(label, 0) == want, label
        assert counts["normal"] == 2 * max(chirp_symbols)

    @staticmethod
    def held_blocks(monkeypatch, scene, plan, clutter, sweep_value=None):
        """Chirp noise blocks the drop's DropDraws holds after each block it
        hands out, and once the drop is done."""
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            list(drop_estimates(scene, plan, 0, clutter, sweep_value))
        assert len(made) == 1
        return held, made[0].held_chirp_blocks

    def test_one_cube_group_holds_no_block(self, monkeypatch):
        # The car_fa benchmark plan: FA plus one comb cube without VA.
        scene_cfg, plan = parse_config(preset_path("table1_car"))
        scene = validate_scene(scene_cfg)
        scene = replace(scene, clutter=replace(scene.clutter, enabled=False))
        plan = replace(plan, pipelines=(DESK_MC[2], DESK_MC[3]))
        scene = self.drop_scene(scene, plan, 0, plan.sweep_values[0])
        held, after = self.held_blocks(monkeypatch, scene, plan, None, plan.sweep_values[0])
        assert len(held) == len(plan.pipelines[1:]) * 4     # 4 comb occasions, 1 slot
        assert max(held) == after == 0

    def test_blocks_held_only_for_later_cubes(self, desk, desk_clutter, monkeypatch):
        # desk_mc order: comb-VA reads 12 blocks, then lshape-VA 4 and comb 3,
        # so at most 4 are held, 3 while lshape-VA reads, none at the end.
        scene, plan = desk
        plan = replace(plan, pipelines=DESK_MC)
        scene = self.drop_scene(scene, plan, 0, scene.radio.avg_tx_power_w)
        held, after = self.held_blocks(monkeypatch, scene, plan, desk_clutter)
        assert held == [1, 2, 3, 4] + [4] * 8 + [4, 4, 4, 3] + [3, 3, 0]
        assert after == 0

    def test_draws_reread_after_release_replay_the_stream(self):
        # A DropDraws without a plan lets every block go; a second cube on it
        # must still read blocks 0.. of the stream, not the blocks after them.
        t = Target(300.0, 18.0, 0.1, 0.0, 50.0)
        scene = make_scene(targets=[t])
        sched = schedule_for(scene, PipelineSpec(), 0)
        draws = DropDraws(42)
        first = synthesize_if_cube(scene, sched, draws=draws)
        again = synthesize_if_cube(scene, sched, draws=draws)
        assert draws.held_chirp_blocks == 0
        assert np.array_equal(first.chirp_branch.view(float), again.chirp_branch.view(float))
        want = synthesize_if_cube(scene, sched, seed=42)
        assert np.array_equal(want.chirp_branch.view(float), again.chirp_branch.view(float))
        # Blocks kept for a later cube serve only cubes of the same noise scale.
        draws = DropDraws(42, [sched.num_chirp_symbols] * 2)
        synthesize_if_cube(scene, sched, draws=draws)
        assert draws.held_chirp_blocks == sched.num_chirp_symbols
        louder = replace(scene, radio=replace(scene.radio, noise_density_w_per_hz=1e-17))
        got = synthesize_if_cube(louder, sched, draws=draws)
        want = synthesize_if_cube(louder, sched, seed=42)
        assert np.array_equal(want.chirp_branch.view(float), got.chirp_branch.view(float))
        with pytest.raises(ValueError, match="disagrees"):
            synthesize_if_cube(scene, sched, seed=41, draws=draws)
