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

from . import cpus
from .channel import (
    DropDraws,
    check_if_range,
    chirp_noise_key,
    synthesize_fa_measurements,
    synthesize_if_cube,
)
from .clutter import ClutterMap, build_clutter_for
from .estimator import TargetEstimate
from .pipeline import PipelineSpec, front_end, run_fa_pipeline, run_pipeline
from .scene import Target, ValidatedScene, resolution_report
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

    range_m: tuple[float, float] = (100.0, 500.0)
    speed_mps: tuple[float, float] = (7.0, 50.0)
    sin_psi_x: tuple[float, float] = (-0.5, 0.5)
    sin_psi_y: tuple[float, float] = (-0.5, 0.5)
    rcs_m2: float = 100.0


class TargetCountError(ValueError):
    """A target count the plan or a pipeline cannot score."""


@dataclass(frozen=True)
class ExperimentPlan:
    scenario: str = "custom"          # car | uav | custom
    num_drops: int = 100
    sweep_axis: str = "tx_power"      # range | tx_power
    sweep_values: tuple[float, ...] = ()  # empty: one point at the scene's own values
    pipelines: tuple[PipelineSpec, ...] = (PipelineSpec(),)
    target_count: int = 1
    seed: int = 0
    range_bounds_m: tuple[float, float] = (100.0, 1000.0)
    azimuth_max_rad: float = math.radians(60.0)
    custom: CustomRanges = field(default_factory=CustomRanges)
    workers: int = 1

    def __post_init__(self):
        # Each pipeline spec checks itself; these are the plan-level rules.
        if self.scenario not in ("car", "uav", "custom"):
            raise ValueError(f"scenario must be car, uav or custom, got {self.scenario!r}")
        if self.num_drops < 0:
            raise ValueError("num_drops must be >= 0")
        if self.target_count < 1:
            raise TargetCountError("target_count must be >= 1")
        if self.sweep_axis not in ("range", "tx_power"):
            raise ValueError("sweep_axis must be 'range' or 'tx_power'")
        if list(self.sweep_values) != sorted(set(self.sweep_values)):
            raise ValueError("sweep_values must be sorted, each value once")
        if any(v <= 0 for v in self.sweep_values):
            raise ValueError("sweep_values must be positive (watts or meters)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        c = self.custom
        bounds = {"range_bounds_m": self.range_bounds_m,
                  **{f"custom.{k}": v for k, v in vars(c).items() if k != "rcs_m2"}}
        for key, (low, high) in bounds.items():
            # high - low < 0, or -0.0 as numpy's uniform refuses for [0.0, -0.0]
            if math.copysign(1.0, high - low) < 0:
                raise ValueError(f"{key}: [low, high] needs low <= high, got {[low, high]}")
        if self.azimuth_max_rad < 0:
            raise ValueError(f"azimuth_max_rad: must be >= 0, got {self.azimuth_max_rad}")
        if c.rcs_m2 <= 0:
            raise ValueError(f"custom.rcs_m2: must be > 0, got {c.rcs_m2}")
        # draw_targets redraws until a direction falls in the unit disk: a
        # thousandth of the box (on a 64 x 64 grid of cell centres) must lie in it.
        u = (np.arange(64) + 0.5) / 64
        x, y = np.meshgrid(*[low + (high - low) * u for low, high in (c.sin_psi_x, c.sin_psi_y)])
        if not np.mean(np.hypot(x, y) <= 1.0) >= 1e-3:
            raise ValueError(f"custom.sin_psi_x, custom.sin_psi_y: the box {list(c.sin_psi_x)} "
                             f"x {list(c.sin_psi_y)} has less than a thousandth of its area "
                             "inside the unit disk")
        if not self.pipelines:
            raise ValueError("pipelines: must list at least one pipeline")
        first = {}
        for i, p in enumerate(self.pipelines):
            # The tag keys curves.csv rows and simulate's file names.
            j = first.setdefault(p.tag, i)
            if j != i:
                raise ValueError(f"pipelines[{i}] repeats the tag {p.tag!r} of pipelines[{j}] "
                                 "(stte_guard and music_factor are not part of it)")


class DropError(RuntimeError):
    """A pipeline failure, tagged with everything needed to replay the drop."""

    def __init__(self, drop_index, drop_seed, pipeline, cause, sweep_value):
        self.drop_index = drop_index
        self.drop_seed = drop_seed
        self.pipeline = pipeline
        self.cause = cause
        self.sweep_value = sweep_value
        super().__init__(f"drop {drop_index} (sweep value {sweep_value}, seed {drop_seed}, "
                         f"pipeline {pipeline}): {cause}")

    def __reduce__(self):
        # Pool workers send it back pickled; rebuild it from the replay fields.
        return DropError, (self.drop_index, self.drop_seed, self.pipeline, self.cause,
                           self.sweep_value)


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


# The columns of a run's records.csv and curves.csv, in file order.
RECORD_COLUMNS = ["pipeline", "drop", "sweep_value", "truth_range_m", "truth_velocity_mps",
                  "truth_psi_x_rad", "truth_psi_y_rad", "est_range_m", "est_velocity_mps",
                  "est_psi_x_rad", "est_psi_y_rad", "off_range", "off_velocity", "off_sin_x",
                  "off_sin_y", "hit"]
CURVE_COLUMNS = ["sweep_axis", "sweep_value", "pipeline", "metric", "value", "ci_low",
                 "ci_high", "n"]


def record_rows(records: Sequence[TargetRecord]) -> list:
    """One records.csv row per record, in :data:`RECORD_COLUMNS` order; an
    unmatched truth has empty estimate cells."""
    rows = []
    for r in records:
        t, e = r.truth, r.estimate
        est = (None,) * 4 if e is None else (e.range_m, e.velocity_mps, e.psi_x_rad, e.psi_y_rad)
        rows.append((r.pipeline, r.drop_index, r.sweep_value, t.range_m, t.radial_velocity_mps,
                     t.psi_x_rad, t.psi_y_rad, *est, *r.offsets_bins, r.hit))
    return rows


@dataclass
class TrialReport:
    """Scored records plus per-drop bookkeeping for one experiment run."""

    records: list = field(default_factory=list)
    drop_runtimes_s: dict = field(default_factory=dict)


def wilson_interval(hits: int, total: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial rate."""
    if total == 0:
        return (0.0, 1.0)
    p = hits / total
    den = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / den
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / den
    return (max(0.0, center - half), min(1.0, center + half))


def _wrapped(deltas, periods) -> tuple:
    """Differences, each wrapped to the nearest alias where ``periods``
    gives its grid a period (None: not periodic)."""
    return tuple(d if p is None else d - p * round(d / p) for d, p in zip(deltas, periods))


def draw_targets(plan: ExperimentPlan, scene: ValidatedScene, drop_index: int,
                 fixed_range_m: Optional[float] = None) -> tuple:
    """Seeded target draw for one drop; identical across pipelines and
    power-sweep points so comparisons are paired."""
    rng = rng_for(plan.seed, "targets", drop_index)
    c = plan.custom
    speeds, rcs, heights = ((c.speed_mps, c.rcs_m2, None) if plan.scenario == "custom"
                            else _SCENARIOS[plan.scenario])
    bounds = c.range_m if heights is None else plan.range_bounds_m
    out = []
    for _ in range(plan.target_count):
        rng_m = fixed_range_m if fixed_range_m is not None else rng.uniform(*bounds)
        speed = rng.uniform(*speeds) * rng.choice((-1.0, 1.0))
        if heights is None:
            while True:
                sx, sy = rng.uniform(*c.sin_psi_x), rng.uniform(*c.sin_psi_y)
                if sx * sx + sy * sy <= 1.0:
                    break
        else:
            azimuth = rng.uniform(-plan.azimuth_max_rad, plan.azimuth_max_rad)
            z = rng.uniform(*heights) - scene.clutter.station_height_m
            ground = math.sqrt(max(rng_m**2 - z**2, 1e-6))
            sx, sy = math.sin(azimuth) * ground / rng_m, z / rng_m
        out.append(Target(range_m=rng_m, radial_velocity_mps=speed,
                          psi_x_rad=math.asin(sx), psi_y_rad=math.asin(sy), rcs_m2=rcs))
    return tuple(out)


def score_estimates(truths: Sequence[Target], estimates: Sequence[TargetEstimate],
                    scene: ValidatedScene, pipeline_tag: str, drop_index: int,
                    sweep_value: Optional[float]) -> list:
    """Greedy nearest truth-to-estimate assignment in summed bin distance,
    then per-dimension hit scoring on the no-VA grid (within one bin of the
    truth bin)."""
    res = resolution_report(scene.radio, scene.array.with_va(False))
    units = (res.range_res_m, res.velocity_res_mps, res.sin_angle_res_x, res.sin_angle_res_y)
    periods = (None, scene.radio.num_pri, scene.array.rx_cols, scene.array.rx_rows)
    truth_vals = [(t.range_m, t.radial_velocity_mps, t.sin_psi_x, t.sin_psi_y) for t in truths]
    est_vals = [(e.range_m, e.velocity_mps, e.sin_psi_x, e.sin_psi_y) for e in estimates]
    truth_bins = [tuple(round(v / u) for v, u in zip(vals, units)) for vals in truth_vals]
    est_bins = [tuple(round(v / u) for v, u in zip(vals, units)) for vals in est_vals]
    # Wrapped est - truth bin offsets of every pair; their summed magnitude
    # is the matching distance.
    offsets = {(i, j): _wrapped([b - a for a, b in zip(tb, eb)], periods)
               for i, tb in enumerate(truth_bins) for j, eb in enumerate(est_bins)}
    pairs = sorted((sum(map(abs, offs)), i, j) for (i, j), offs in offsets.items())
    match = {}
    for dist, i, j in pairs:
        if i not in match and j not in match.values():
            match[i] = j

    value_periods = [None if p is None else p * u for p, u in zip(periods, units)]
    records = []
    for i, t in enumerate(truths):
        if i not in match:
            records.append(TargetRecord(pipeline_tag, drop_index, sweep_value, t, None,
                                        (0, 0, 0, 0), (0.0, 0.0, 0.0, 0.0), False))
            continue
        j = match[i]
        deltas = _wrapped([b - a for a, b in zip(truth_vals[i], est_vals[j])], value_periods)
        errs = tuple(d / u for d, u in zip(deltas, units))
        hit = all(abs(o) <= 1 for o in offsets[i, j])
        records.append(TargetRecord(pipeline_tag, drop_index, sweep_value, t, estimates[j],
                                    offsets[i, j], errs, hit))
    return records


def fa_schedule_seed(plan_seed: int) -> int:
    """Seed of the FA hopping pattern of every FA schedule of a run whose
    master seed is ``plan_seed``."""
    return derive_seed(plan_seed, "fa")


def schedule_for(scene: ValidatedScene, pipe: PipelineSpec,
                 plan_seed: int) -> MarsSchedule:
    """Schedule for one pipeline's structure/VA choice over this scene."""
    arr = scene.array.with_va(pipe.va)
    w = scene.waveform
    if pipe.structure == "fa":
        return build_schedule(scene.radio, arr, "fa",
                              guard_subcarriers=w.guard_subcarriers,
                              fa_seed=fa_schedule_seed(plan_seed))
    indices = w.chirp_pri_indices if pipe.structure == "comb" else w.chirp_pri_indices[:1]
    return build_schedule(scene.radio, arr, pipe.structure,
                          chirp_pri_indices=indices,
                          tone_subcarrier_index=w.tone_subcarrier_index,
                          guard_subcarriers=w.guard_subcarriers)


def _drawn_ranges(plan: ExperimentPlan) -> list:
    """(key, range) of each bound on the ranges the plan draws into a
    drop, nearest first: a range sweep's values or, when the ranges are
    drawn, the draw's bounds (a config's own targets: :func:`compile_run`)."""
    if plan.sweep_axis == "range" and plan.sweep_values:
        return [(f"sweep_values[{k}]", v) for k, v in enumerate(plan.sweep_values)]
    if plan.scenario == "custom":
        return [("custom.range_m", r) for r in plan.custom.range_m]
    return [("range_bounds_m", r) for r in plan.range_bounds_m]


def plan_groups(scene: ValidatedScene, plan: ExperimentPlan,
                count: Optional[tuple[str, int]] = None) -> list:
    """The plan's pipelines grouped by (structure, va), in plan order, as
    (pipelines, schedule) pairs; each group shares one schedule and cube.

    Raises ValueError naming the pipeline at fault when a group's schedule
    cannot be built (its first pipeline), an STHP pipeline's schedule has
    fewer than two chirp occasions, or a pipeline's ``stte_guard`` masks
    every velocity bin of its map (num_pri bins, FA included); or naming
    the key of a drawn range (:func:`_drawn_ranges`) nearer than one
    wavelength, for car and uav nearer than the farthest height from the
    station (:func:`draw_targets` takes asin(z / r)), or, with an IF cube
    among the groups, whose round trip outlasts the symbol
    (:func:`~mars_jcas.channel.check_if_range`). With ``count``, the (name,
    k) of the target count a command scores, it then raises
    TargetCountError naming the first pipeline that cannot return k
    targets on every drop: more peaks than its map always holds, or (MUSIC)
    a signal subspace of K, which needs K + 1 <= min(num_rx, M).
    """
    members = {}
    for i, pipe in enumerate(plan.pipelines):
        members.setdefault((pipe.structure, pipe.va), []).append((i, pipe))
    groups = []
    for group in members.values():
        i, first = group[0]
        try:
            schedule = schedule_for(scene, first, plan.seed)
        except ValueError as exc:
            raise ValueError(f"pipelines[{i}] {first.tag}: {exc}") from exc
        for i, pipe in group:
            if pipe.suppressor == "sthp" and schedule.num_chirp_occasions < 2:
                raise ValueError(f"pipelines[{i}] {pipe.tag}: sthp needs W >= 2 chirp "
                                 f"occasions, the schedule has {schedule.num_chirp_occasions}")
            if pipe.stte_guard >= schedule.num_pri // 2:
                raise ValueError(f"pipelines[{i}] {pipe.tag}: stte_guard {pipe.stte_guard} masks "
                                 f"every velocity bin of M = {schedule.num_pri}; it must be "
                                 f"< {schedule.num_pri // 2}")
        groups.append((tuple(pipe for _, pipe in group), schedule))
    ranges = _drawn_ranges(plan)
    if any(schedule.structure != "fa" for _, schedule in groups):
        for key, r in ranges:
            check_if_range(key, r, scene.radio.derived_symbol_duration_s)
    key, nearest = ranges[0]
    heights = _SCENARIOS[plan.scenario][2] if plan.scenario != "custom" else ()
    floor = max([scene.radio.wavelength_m]
                + [abs(z - scene.clutter.station_height_m) for z in heights])
    if nearest < floor:
        raise ValueError(f"{key}: {nearest} m is nearer than {floor} m, one wavelength or, "
                         f"for car and uav, the farthest target height from the station")
    if count is None:
        return groups
    what, k = count
    schedules = dict(zip(members, (schedule for _, schedule in groups)))
    for i, pipe in enumerate(plan.pipelines):
        schedule = schedules[pipe.structure, pipe.va]
        name, cells, claim = (("FA", scene.radio.num_subcarriers, 9) if pipe.structure == "fa"
                              else ("STTE", scene.array.num_rx, 27))
        # The guard masks 2g + 1 velocity bins (g < M/2). Each peak the greedy
        # search takes claims at most its 3 x 3 (x 3) neighbourhood, so it
        # always finds ceil(F / claim) peaks among the F unmasked cells.
        cells *= schedule.num_pri - 2 * pipe.stte_guard - 1
        most = -(-cells // claim)
        if k > most:
            raise TargetCountError(f"pipelines[{i}] {pipe.tag}: {what} {k} exceeds the {most} "
                                   f"peaks its {name} map of {cells} unmasked cells always holds")
        rank = min(scene.array.num_rx, schedule.num_pri)
        if pipe.refinement == "music" and k + 1 > rank:
            raise TargetCountError(f"pipelines[{i}] {pipe.tag}: {what} {k} needs K + 1 <= "
                                   f"min(num_rx, M) = {rank} for MUSIC")
    return groups


@dataclass(frozen=True, eq=False)
class Run:
    """A command's run (:func:`compile_run`): per sweep point, (sweep value,
    scene at its transmit power, pipeline groups with schedules built on
    that scene), and the map every drop reads, or None."""

    plan: ExperimentPlan
    points: tuple
    clutter: Optional[ClutterMap]


def compile_run(scene: ValidatedScene, plan: ExperimentPlan,
                clutter: Optional[ClutterMap] = None, *, own_targets: bool = False) -> Run:
    """The run scoring ``plan``'s target count at its sweep points or, with
    ``own_targets``, the scene's own targets at its own values, each rule
    applied once: :func:`plan_groups` at the first point (no rule reads the
    power), :func:`~mars_jcas.channel.check_if_range` on own targets an IF
    cube holds, and ``clutter``'s fit (:meth:`~mars_jcas.clutter.ClutterMap.check_fits`),
    or for a scene with clutter :func:`~mars_jcas.clutter.build_clutter_for`'s map."""
    values, count = (((None,), ("len(targets)", len(scene.targets))) if own_targets else
                     (plan.sweep_values or (None,), ("experiment.target_count",
                                                     plan.target_count)))
    scenes = [replace(scene, radio=replace(scene.radio, avg_tx_power_w=float(value)))
              if plan.sweep_axis == "tx_power" and value is not None else scene
              for value in values]
    groups = plan_groups(scenes[0], plan, count)
    if own_targets and any(schedule.structure != "fa" for _, schedule in groups):
        for j, t in enumerate(scene.targets):
            check_if_range(f"targets[{j}].range_m", t.range_m,
                           scene.radio.derived_symbol_duration_s)
    # Points on the first point's scene (a range sweep, or none) share its groups.
    points = tuple((value, at, groups if at is scenes[0] else
                    [(pipes, schedule_for(at, pipes[0], plan.seed)) for pipes, _ in groups])
                   for value, at in zip(values, scenes))
    if clutter is not None:
        clutter.check_fits(scene, max(schedule.slots_per_chirp for _, schedule in groups))
    elif scene.clutter.enabled:
        clutter = build_clutter_for(scene, plan.pipelines)
    return Run(plan, points, clutter)


def drop_estimates(scene: ValidatedScene, run: Run, drop_index: int, groups: Sequence,
                   sweep_value: Optional[float] = None, debug: bool = False):
    """Run ``groups``, the run's pipeline groups at this sweep point, on one
    drop of ``scene`` (targets set), yielding (pipe, cube or FA
    measurements, estimates, debug dict). Pipelines sharing (structure, va)
    share one cube and its :func:`~mars_jcas.pipeline.front_end`, and every
    cube and FA measurement of the drop one
    :class:`~mars_jcas.channel.DropDraws`, so comparisons are paired sample
    for sample. Failures are raised as DropError, tagged with the drop seed
    and sweep value."""
    drop_seed = derive_seed(run.plan.seed, "drop", drop_index, str(sweep_value))
    draws = DropDraws(drop_seed, [s.num_chirp_symbols for _, s in groups if s.structure != "fa"],
                      chirp_noise_key(scene))
    try:
        for pipes, schedule in groups:
            pipe = pipes[0]
            try:
                if schedule.structure == "fa":
                    data = synthesize_fa_measurements(scene, schedule, run.clutter, draws=draws)
                else:
                    data = synthesize_if_cube(scene, schedule, run.clutter, draws=draws)
                    front = front_end(data, scene)
                for pipe in pipes:
                    info = {} if debug else None
                    if schedule.structure == "fa":
                        ests = run_fa_pipeline(data, scene, schedule, len(scene.targets),
                                               guard=pipe.stte_guard)
                    else:
                        ests = run_pipeline(front, scene, pipe, len(scene.targets), debug=info)
                    yield pipe, data, ests, info
            except Exception as exc:
                raise DropError(drop_index, drop_seed, pipe.tag, exc, sweep_value) from exc
    finally:
        # No draw outlives the drop, when a cube raises or the caller stops early.
        draws.settle()


def drop_scene(scene: ValidatedScene, plan: ExperimentPlan, drop_index: int,
               sweep_value: Optional[float]) -> ValidatedScene:
    """``scene``, a run's scene at this sweep point (:attr:`Run.points`),
    with the drop's targets drawn."""
    fixed_range = sweep_value if plan.sweep_axis == "range" else None
    return replace(scene, targets=draw_targets(plan, scene, drop_index, fixed_range))


def run_drop(scene: ValidatedScene, run: Run, drop_index: int, groups: Sequence,
             sweep_value: Optional[float] = None) -> list:
    """Run one drop at a sweep point of ``run`` (:attr:`Run.points`: its
    ``scene`` and ``groups``) and score the estimates."""
    scene = drop_scene(scene, run.plan, drop_index, sweep_value)
    records = []
    for pipe, _, ests, _ in drop_estimates(scene, run, drop_index, groups, sweep_value):
        records += score_estimates(scene.targets, ests, scene, pipe.tag,
                                   drop_index, sweep_value)
    return records


def rmse_normalized(records: Sequence[TargetRecord]) -> Optional[dict]:
    """Per-dimension RMSE of (estimate - truth)/resolution over hits only;
    None when there are no hits. Records already carry normalized errors."""
    errs = np.array([r.errors_norm for r in records if r.hit], dtype=float)
    if errs.size == 0:
        return None
    rms = np.sqrt(np.mean(errs**2, axis=0))
    return {"range": float(rms[0]), "velocity": float(rms[1]),
            "sin_psi_x": float(rms[2]), "sin_psi_y": float(rms[3])}


_POOL_STATE: dict = {}


def _pool_init(run):
    # The workers keep the CPUs busy, so none starts a helper thread.
    _POOL_STATE["run"] = run
    cpus.work_on_calling_thread()


def _timed_drop(task, run=None):
    """One drop, (drop index, index in ``run.points``), and its wall time;
    in a pool worker ``run`` is what :func:`_pool_init` stored."""
    drop_index, point = task
    run = run or _POOL_STATE["run"]
    sweep_value, scene, groups = run.points[point]
    started = time.perf_counter()
    records = run_drop(scene, run, drop_index, groups, sweep_value)
    return records, time.perf_counter() - started


def monte_carlo(plan: ExperimentPlan, scene: ValidatedScene,
                clutter: Optional[ClutterMap] = None) -> tuple:
    """Run every drop of the plan at every sweep point of the run
    :func:`compile_run` makes before any drop; returns (curve_rows,
    TrialReport). Curve rows: one dict per (sweep value, pipeline, metric)
    with value and Wilson interval bounds (rates only)."""
    run = compile_run(scene, plan, clutter)
    sweep = [value for value, _, _ in run.points]

    report = TrialReport()
    tasks = [(i, k) for k in range(len(sweep)) for i in range(plan.num_drops)]
    # A pool starts all its processes at once, so it gets no more than there are tasks.
    workers = min(plan.workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=(run,)) as pool:
            results = list(pool.map(_timed_drop, tasks))
    else:
        results = [_timed_drop(task, run) for task in tasks]
    for (i, k), (recs, seconds) in zip(tasks, results):
        report.records.extend(recs)
        report.drop_runtimes_s[(str(sweep[k]), i)] = seconds

    rows = []
    for value in sweep:
        for pipe in plan.pipelines:
            recs = [r for r in report.records
                    if r.pipeline == pipe.tag and r.sweep_value == value]
            if not recs:
                continue
            hits = sum(r.hit for r in recs)
            point = (plan.sweep_axis, value, pipe.tag)
            rows.append(dict(zip(CURVE_COLUMNS, (*point, "hit_rate", hits / len(recs),
                                                 *wilson_interval(hits, len(recs)),
                                                 len(recs)))))
            for dim, val in (rmse_normalized(recs) or {}).items():
                rows.append(dict(zip(CURVE_COLUMNS,
                                     (*point, f"rmse_{dim}", val, None, None, hits))))
    return rows, report
