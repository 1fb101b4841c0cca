"""Monte-Carlo experiment runner: draws random scenes, runs the selected
pipelines on shared drops, scores hits and normalized errors, and
aggregates hit-rate / RMSE curves with confidence intervals.

Scoring convention: all bins live on the no-VA resolution grid of the
scene; velocity and sin-angle distances wrap (the FFT grids are periodic
and endfire/aliased values are physically indistinguishable), range does
not. A target is hit when every dimension lands within one bin of the
truth bin.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .channel import DropDraws, synthesize_fa_measurements, synthesize_if_cube
from .clutter import ClutterMap, build_clutter_for
from .estimator import TargetEstimate
from .pipeline import PipelineSpec, front_end, run_fa_pipeline, run_pipeline
from .scene import (
    ResolutionReport,
    Target,
    ValidatedScene,
    resolution_report,
)
from .seeding import derive_seed, rng_for
from .waveform import MarsSchedule, build_schedule

KMH = 1.0 / 3.6

_SCENARIOS = {
    # speed bounds m/s, rcs m^2, target height bounds m (None -> sin-space draw)
    "car": ((5.0 * KMH, 300.0 * KMH), 100.0, (0.0, 0.0)),
    "uav": ((5.0 * KMH, 80.0 * KMH), 0.02, (0.0, 100.0)),
}


@dataclass(frozen=True)
class CustomRanges:
    """Draw bounds for the ``custom`` scenario (angles in sin space)."""

    range_m: tuple = (100.0, 500.0)
    speed_mps: tuple = (7.0, 50.0)
    sin_psi_x: tuple = (-0.5, 0.5)
    sin_psi_y: tuple = (-0.5, 0.5)
    rcs_m2: float = 100.0


@dataclass(frozen=True)
class ExperimentPlan:
    scenario: str = "custom"          # car | uav | custom
    num_drops: int = 100
    sweep_axis: str = "tx_power"      # range | tx_power
    sweep_values: tuple = ()          # empty: one point at the scene's own values
    pipelines: tuple = (PipelineSpec(),)
    target_count: int = 1
    seed: int = 0
    range_bounds_m: tuple = (100.0, 1000.0)
    azimuth_max_rad: float = math.radians(60.0)
    custom: CustomRanges = field(default_factory=CustomRanges)
    workers: int = 1

    def validate(self) -> "ExperimentPlan":
        if self.scenario not in ("car", "uav", "custom"):
            raise ValueError(f"scenario must be car, uav or custom, got {self.scenario!r}")
        if self.num_drops < 0:
            raise ValueError("num_drops must be >= 0")
        if self.target_count < 1:
            raise ValueError("target_count must be >= 1")
        if self.sweep_axis not in ("range", "tx_power"):
            raise ValueError("sweep_axis must be 'range' or 'tx_power'")
        if list(self.sweep_values) != sorted(self.sweep_values):
            raise ValueError("sweep_values must be sorted")
        if any(v <= 0 for v in self.sweep_values):
            raise ValueError("sweep_values must be positive (watts or meters)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        first = {}
        for i, p in enumerate(self.pipelines):
            conflict = p.conflict()
            if conflict:
                raise ValueError(f"pipelines[{i}].{conflict[0]}: {conflict[1]}")
            # The tag keys curves.csv rows and simulate's file names.
            j = first.setdefault(p.tag, i)
            if j != i:
                raise ValueError(f"pipelines[{i}] repeats the tag {p.tag!r} of pipelines[{j}] "
                                 "(stte_guard and music_factor are not part of it)")
        return self


class DropError(RuntimeError):
    """A pipeline failure, tagged with everything needed to replay the drop."""

    def __init__(self, drop_index, drop_seed, pipeline, cause):
        self.drop_index = drop_index
        self.drop_seed = drop_seed
        self.pipeline = pipeline
        self.cause = cause
        super().__init__(f"drop {drop_index} (seed {drop_seed}, pipeline {pipeline}): {cause}")

    def __reduce__(self):
        # Pool workers send it back pickled; rebuild it from the replay fields.
        return DropError, (self.drop_index, self.drop_seed, self.pipeline, self.cause)


@dataclass(frozen=True)
class TargetRecord:
    """One scored truth/estimate pair."""

    pipeline: str
    drop_index: int
    sweep_value: Optional[float]
    truth: Target
    estimate: Optional[TargetEstimate]
    offsets_bins: tuple          # (range, velocity, sin_x, sin_y), est - truth
    errors_norm: tuple           # same order, (est - truth) / resolution unit
    hit: bool


@dataclass
class TrialReport:
    """Scored records plus per-drop bookkeeping for one experiment run."""

    records: list = field(default_factory=list)
    drop_seeds: dict = field(default_factory=dict)
    drop_runtimes_s: dict = field(default_factory=dict)
    runtime_s: float = 0.0


def wilson_interval(hits: int, total: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial rate."""
    if total == 0:
        return (0.0, 1.0)
    p = hits / total
    den = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / den
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / den
    return (max(0.0, center - half), min(1.0, center + half))


def _wrap(delta: float, period: float) -> float:
    return delta - period * round(delta / period)


def draw_targets(plan: ExperimentPlan, scene: ValidatedScene, drop_index: int,
                 fixed_range_m: Optional[float] = None) -> tuple:
    """Seeded target draw for one drop; identical across pipelines and
    power-sweep points so comparisons are paired."""
    rng = rng_for(plan.seed, "targets", drop_index)
    out = []
    for _ in range(plan.target_count):
        if plan.scenario == "custom":
            c = plan.custom
            rng_m = fixed_range_m if fixed_range_m is not None else rng.uniform(*c.range_m)
            speed = rng.uniform(*c.speed_mps) * rng.choice((-1.0, 1.0))
            while True:
                sx = rng.uniform(*c.sin_psi_x)
                sy = rng.uniform(*c.sin_psi_y)
                if sx * sx + sy * sy <= 1.0:
                    break
            out.append(Target(range_m=rng_m, radial_velocity_mps=speed,
                              psi_x_rad=math.asin(sx), psi_y_rad=math.asin(sy),
                              rcs_m2=c.rcs_m2))
            continue
        speed_bounds, rcs, height_bounds = _SCENARIOS[plan.scenario]
        rng_m = fixed_range_m if fixed_range_m is not None else rng.uniform(*plan.range_bounds_m)
        speed = rng.uniform(*speed_bounds) * rng.choice((-1.0, 1.0))
        azimuth = rng.uniform(-plan.azimuth_max_rad, plan.azimuth_max_rad)
        height = rng.uniform(*height_bounds)
        z = height - scene.clutter.station_height_m
        ground = math.sqrt(max(rng_m**2 - z**2, 1e-6))
        sx = math.sin(azimuth) * ground / rng_m
        sy = z / rng_m
        out.append(Target(range_m=rng_m, radial_velocity_mps=speed,
                          psi_x_rad=math.asin(sx), psi_y_rad=math.asin(sy),
                          rcs_m2=rcs))
    return tuple(out)


def _truth_bins(t: Target, res: ResolutionReport) -> tuple:
    return (
        round(t.range_m / res.range_res_m),
        round(t.radial_velocity_mps / res.velocity_res_mps),
        round(t.sin_psi_x / res.sin_angle_res_x),
        round(t.sin_psi_y / res.sin_angle_res_y),
    )


def _est_bins(e: TargetEstimate, res: ResolutionReport) -> tuple:
    return (
        round(e.range_m / res.range_res_m),
        round(e.velocity_mps / res.velocity_res_mps),
        round(e.sin_psi_x / res.sin_angle_res_x),
        round(e.sin_psi_y / res.sin_angle_res_y),
    )


def score_estimates(truths: Sequence[Target], estimates: Sequence[TargetEstimate],
                    scene: ValidatedScene, pipeline_tag: str, drop_index: int,
                    sweep_value: Optional[float], tolerance_bins: float = 1) -> list:
    """Greedy nearest truth-to-estimate assignment in summed bin distance,
    then per-dimension hit scoring on the no-VA grid (within
    ``tolerance_bins`` of the truth bin, default the +-1 neighbour rule)."""
    res = resolution_report(scene.radio, scene.array.with_va(False))
    m = scene.num_pri
    nx = scene.array.rx_cols
    ny = scene.array.rx_rows
    periods = (None, m, nx, ny)
    vel_period = m * res.velocity_res_mps
    sinx_period = nx * res.sin_angle_res_x
    siny_period = ny * res.sin_angle_res_y

    pairs = []
    for i, t in enumerate(truths):
        tb = _truth_bins(t, res)
        for j, e in enumerate(estimates):
            eb = _est_bins(e, res)
            dist = 0.0
            for d, (per, db) in enumerate(zip(periods, np.subtract(eb, tb))):
                dist += abs(db) if per is None else abs(_wrap(db, per))
            pairs.append((dist, i, j))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    used_t, used_e, match = set(), set(), {}
    for dist, i, j in pairs:
        if i in used_t or j in used_e:
            continue
        used_t.add(i)
        used_e.add(j)
        match[i] = j

    records = []
    for i, t in enumerate(truths):
        e = estimates[match[i]] if i in match else None
        if e is None:
            records.append(TargetRecord(pipeline_tag, drop_index, sweep_value, t, None,
                                        (0, 0, 0, 0), (0.0, 0.0, 0.0, 0.0), False))
            continue
        tb, eb = _truth_bins(t, res), _est_bins(e, res)
        offs = (
            eb[0] - tb[0],
            int(_wrap(eb[1] - tb[1], m)),
            int(_wrap(eb[2] - tb[2], nx)),
            int(_wrap(eb[3] - tb[3], ny)),
        )
        errs = (
            (e.range_m - t.range_m) / res.range_res_m,
            _wrap(e.velocity_mps - t.radial_velocity_mps, vel_period) / res.velocity_res_mps,
            _wrap(e.sin_psi_x - t.sin_psi_x, sinx_period) / res.sin_angle_res_x,
            _wrap(e.sin_psi_y - t.sin_psi_y, siny_period) / res.sin_angle_res_y,
        )
        hit = all(abs(o) <= tolerance_bins for o in offs)
        records.append(TargetRecord(pipeline_tag, drop_index, sweep_value, t, e, offs, errs, hit))
    return records


def schedule_for(scene: ValidatedScene, pipe: PipelineSpec,
                 plan_seed: int) -> MarsSchedule:
    """Schedule for one pipeline's structure/VA choice over this scene."""
    arr = scene.array.with_va(pipe.va)
    w = scene.waveform
    if pipe.structure == "fa":
        return build_schedule(scene.radio, arr, "fa",
                              guard_subcarriers=w.guard_subcarriers,
                              fa_seed=derive_seed(plan_seed, "fa"))
    indices = w.chirp_pri_indices if pipe.structure == "comb" else (w.chirp_pri_indices[0],)
    return build_schedule(scene.radio, arr, pipe.structure,
                          chirp_pri_indices=indices,
                          tone_subcarrier_index=w.tone_subcarrier_index,
                          guard_subcarriers=w.guard_subcarriers)


def drop_estimates(scene: ValidatedScene, plan: ExperimentPlan, drop_index: int,
                   clutter: Optional[ClutterMap] = None,
                   sweep_value: Optional[float] = None, debug: bool = False):
    """Run every pipeline of the plan on one drop of ``scene`` (targets
    set), yielding (pipe, cube or FA measurements, estimates, debug dict).

    Pipelines sharing (structure, va) share one synthesized cube and its
    :func:`~mars_jcas.pipeline.front_end`, built once, so suppressor and
    refinement comparisons are paired sample-for-sample. All cubes and FA
    measurements of the drop share one :class:`~mars_jcas.channel.DropDraws`,
    so structures are compared on the same noise, SI and uplink draws.
    Failures are raised as DropError, tagged with the drop seed.
    """
    drop_seed = derive_seed(plan.seed, "drop", drop_index, str(sweep_value))
    groups = {}
    for pipe in plan.pipelines:
        groups.setdefault((pipe.structure, pipe.va), []).append(pipe)
    schedules = {}
    for key, pipes in groups.items():
        try:
            schedules[key] = schedule_for(scene, pipes[0], plan.seed)
        except Exception as exc:
            schedules[key] = exc   # raised in its group's turn, after the groups before it
    draws = DropDraws(drop_seed, [s.num_chirp_symbols for (structure, _), s in schedules.items()
                                  if structure != "fa" and isinstance(s, MarsSchedule)])
    for (structure, va), pipes in groups.items():
        pipe = pipes[0]
        try:
            schedule = schedules[structure, va]
            if isinstance(schedule, Exception):
                raise schedule
            if structure == "fa":
                data = synthesize_fa_measurements(scene, schedule, clutter, draws=draws)
            else:
                va_scene = replace(scene, array=scene.array.with_va(va))
                data = synthesize_if_cube(va_scene, schedule, clutter, draws=draws)
                front = front_end(data, va_scene)
            for pipe in pipes:
                info = {} if debug else None
                if structure == "fa":
                    ests = run_fa_pipeline(data, scene, schedule, len(scene.targets),
                                           guard=pipe.stte_guard)
                else:
                    ests = run_pipeline(front, va_scene, pipe, len(scene.targets), debug=info)
                yield pipe, data, ests, info
        except Exception as exc:
            raise DropError(drop_index, drop_seed, pipe.tag, exc) from exc


def run_drop(scene: ValidatedScene, plan: ExperimentPlan, drop_index: int,
             clutter: Optional[ClutterMap] = None,
             sweep_value: Optional[float] = None) -> list:
    """Draw the drop's targets at this sweep point, run every pipeline on
    them (:func:`drop_estimates`) and score the estimates."""
    if plan.sweep_axis == "tx_power" and sweep_value is not None:
        scene = replace(scene, radio=replace(scene.radio, avg_tx_power_w=float(sweep_value)))
    fixed_range = sweep_value if plan.sweep_axis == "range" else None
    scene = replace(scene, targets=draw_targets(plan, scene, drop_index, fixed_range))
    records = []
    for pipe, _, ests, _ in drop_estimates(scene, plan, drop_index, clutter, sweep_value):
        records += score_estimates(scene.targets, ests, scene, pipe.tag,
                                   drop_index, sweep_value)
    return records


def hit_rate(records: Sequence[TargetRecord]) -> float:
    if not records:
        raise ValueError("hit_rate: no records")
    return sum(r.hit for r in records) / len(records)


def rmse_normalized(records: Sequence[TargetRecord],
                    resolution: ResolutionReport = None) -> Optional[dict]:
    """Per-dimension RMSE of (estimate - truth)/resolution over hits only;
    None when there are no hits. Records already carry normalized errors
    (the resolution argument documents the contract)."""
    errs = np.array([r.errors_norm for r in records if r.hit], dtype=float)
    if errs.size == 0:
        return None
    rms = np.sqrt(np.mean(errs**2, axis=0))
    return {"range": float(rms[0]), "velocity": float(rms[1]),
            "sin_psi_x": float(rms[2]), "sin_psi_y": float(rms[3])}


_POOL_STATE: dict = {}


def _pool_init(scene, plan, clutter):
    # Ships the heavy read-only inputs to each worker once, not per drop.
    _POOL_STATE["args"] = (scene, plan, clutter)


def _timed_drop(task, args=None):
    """One drop and its wall time; ``args`` is (scene, plan, clutter), or
    in a pool worker what :func:`_pool_init` stored."""
    drop_index, sweep_value = task
    scene, plan, clutter = args or _POOL_STATE["args"]
    started = time.perf_counter()
    records = run_drop(scene, plan, drop_index, clutter, sweep_value)
    return records, time.perf_counter() - started


def monte_carlo(plan: ExperimentPlan, scene: ValidatedScene,
                clutter: Optional[ClutterMap] = None) -> tuple:
    """Run the full sweep; returns (curve_rows, TrialReport).

    Curve rows: one dict per (sweep value, pipeline, metric) with value and
    Wilson interval bounds (rates only).
    """
    plan = plan.validate()
    if clutter is None and scene.clutter.enabled:
        clutter = build_clutter_for(scene, plan.pipelines)
    sweep = list(plan.sweep_values) if plan.sweep_values else [None]

    report = TrialReport()
    started = time.perf_counter()
    tasks = [(i, value) for value in sweep for i in range(plan.num_drops)]
    if plan.workers > 1 and tasks:
        with ProcessPoolExecutor(max_workers=plan.workers, initializer=_pool_init,
                                 initargs=(scene, plan, clutter)) as pool:
            results = list(pool.map(_timed_drop, tasks))
    else:
        results = [_timed_drop(task, (scene, plan, clutter)) for task in tasks]
    for (i, value), (recs, seconds) in zip(tasks, results):
        report.records.extend(recs)
        report.drop_seeds[(str(value), i)] = derive_seed(plan.seed, "drop", i, str(value))
        report.drop_runtimes_s[(str(value), i)] = seconds
    report.runtime_s = time.perf_counter() - started

    rows = []
    for value in sweep:
        for pipe in plan.pipelines:
            recs = [r for r in report.records
                    if r.pipeline == pipe.tag and r.sweep_value == value]
            if not recs:
                continue
            hits = sum(r.hit for r in recs)
            lo, hi = wilson_interval(hits, len(recs))
            rows.append({"sweep_axis": plan.sweep_axis, "sweep_value": value,
                         "pipeline": pipe.tag, "metric": "hit_rate",
                         "value": hits / len(recs), "ci_low": lo, "ci_high": hi,
                         "n": len(recs)})
            rmse = rmse_normalized(recs)
            if rmse:
                for dim, val in rmse.items():
                    rows.append({"sweep_axis": plan.sweep_axis, "sweep_value": value,
                                 "pipeline": pipe.tag, "metric": f"rmse_{dim}",
                                 "value": val, "ci_low": None, "ci_high": None,
                                 "n": hits})
    return rows, report
