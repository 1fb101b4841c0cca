"""Composable detection pipelines over synthesized receiver data.

The front end runs once per cube: it expands the compressed tone branch,
forms the angle-velocity map and views the chirp branch, in its own row
order, as the space-time snapshot. Each pipeline then extracts coarse peaks
(STTE), optionally refines with MUSIC and runs the range stage (STAP, STHP,
or the matched filter, which is STAP at eps = inf) on that same snapshot,
with each row's URA position and VA slot Doppler in the steering. With VA
and FFT refinement the spatial steering is picked from the virtual array's
finer FFT-native angle bins within one coarse bin, scored by the range-stage
peak itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import IfCube
from .estimator import (
    AngleVelocityMap,
    TargetEstimate,
    angle_velocity_map,
    at_blind_speed,
    expand_nn,
    fa_angle_snapshot,
    fa_range_doppler_map,
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
from .scene import ArrayGeometry, ValidatedScene, resolution_report, steering_ura_from_sin
from .waveform import MarsSchedule


# Values each pipeline key may take: what the drop path actually runs.
_CHOICES = {"structure": ("comb", "lshape", "fa"), "suppressor": ("stap", "sthp", "mf"),
            "eps_mode": ("zero", "em", "inf"), "refinement": ("fft", "music")}
# Values a structure or suppressor fixes: FA is its own matched filter, MF is STAP at eps = inf.
_FIXED = {("structure", "fa"): {"suppressor": "mf", "eps_mode": "inf",
                                "refinement": "fft", "va": False},
          ("suppressor", "mf"): {"eps_mode": "inf"}}


@dataclass(frozen=True)
class PipelineSpec:
    """One point in the structure x suppressor x eps x refinement x VA grid.
    Building one the drop path would not run as given raises
    ValueError("<key>: <reason>")."""

    structure: str = "comb"     # comb | lshape | fa
    suppressor: str = "sthp"    # stap | sthp | mf
    eps_mode: str = "inf"       # zero | em | inf
    refinement: str = "fft"     # fft | music
    va: bool = False
    music_factor: int = 10
    stte_guard: int = 1

    @property
    def tag(self) -> str:
        parts = [self.structure, self.suppressor, self.eps_mode, self.refinement]
        if self.va:
            parts.append("va")
        return "-".join(parts)

    def __post_init__(self):
        v = vars(self)
        for key, allowed in _CHOICES.items():
            if v[key] not in allowed:
                raise ValueError(f"{key}: {v[key]!r} is not one of {', '.join(allowed)}")
        for key, low in (("music_factor", 1), ("stte_guard", 0)):
            if v[key] < low:
                raise ValueError(f"{key}: must be >= {low}, got {v[key]}")
        for (key, value), fixed in _FIXED.items():
            for other, want in fixed.items():
                if v[key] == value and v[other] != want:
                    raise ValueError(f"{other}: {key} {value} needs {want!r}, got {v[other]!r}")
        if self.structure == "lshape" and self.suppressor == "sthp":
            raise ValueError("suppressor: lshape has one chirp occasion (W = 1); "
                             "sthp needs W >= 2")


@dataclass(frozen=True, eq=False)
class FrontEnd:
    """What :func:`front_end` builds once per cube."""

    schedule: MarsSchedule
    y_e2: np.ndarray          # (L, M) expanded tone branch
    avmap: AngleVelocityMap
    y_st: np.ndarray          # (W*L', N) view of the chirp branch; never written
    virtual_row: np.ndarray   # (L',) virtual-URA row of each (slot, element) row
    geom: ArrayGeometry       # geometry whose aperture the steering follows


def front_end(cube: IfCube, scene: ValidatedScene) -> FrontEnd:
    """Per-cube work for every pipeline on ``cube``: the angle-velocity map and
    a view of the chirp branch over all occasions. The range stage puts each
    row's URA position and slot Doppler into the steering; every occasion has
    the same per-row phase, so static clutter stays occasion-invariant."""
    y_e2 = expand_nn(cube.tone_branch_compressed, cube.schedule)
    avm = angle_velocity_map(y_e2, scene.array.with_va(False), scene.radio)
    n, l = scene.radio.num_subcarriers, cube.num_elements
    w, slots = cube.schedule.num_chirp_occasions, cube.schedule.slots_per_chirp
    # Each occasion's rows run (slot, element). Assembling the row indices
    # gives the cube row at each URA row; argsort inverts that.
    geom = scene.array.with_va(slots > 1)
    cube_row = va_assemble(list(np.arange(slots * l).reshape(slots, l, 1)), geom)
    return FrontEnd(schedule=cube.schedule, y_e2=y_e2, avmap=avm,
                    y_st=reshape_space_time(cube.chirp_branch.reshape(w, slots * l, n), n),
                    virtual_row=np.argsort(cube_row.ravel()), geom=geom)


def _angle_candidates(peak_sin_x: float, peak_sin_y: float, pipe: PipelineSpec,
                      scene: ValidatedScene, geom) -> tuple:
    """Spatial hypotheses for the range stage as (sin_x, sin_y) arrays: the coarse
    (or refined) angle alone, or the virtual array's FFT bins within +-1 coarse bin."""
    if pipe.refinement == "music" or not pipe.va:
        return np.array([peak_sin_x]), np.array([peak_sin_y])
    res = resolution_report(scene.radio, geom)
    res_x, res_y = res.sin_angle_res_x, res.sin_angle_res_y
    eta_x = max(1, scene.array.tx_cols)
    eta_y = max(1, scene.array.tx_rows)
    kx = int(round(peak_sin_x / res_x))
    ky = int(round(peak_sin_y / res_y))
    sx, sy = np.meshgrid((kx + np.arange(-eta_x, eta_x + 1)) * res_x,
                         (ky + np.arange(-eta_y, eta_y + 1)) * res_y, indexing="ij")
    inside = (sx * sx + sy * sy <= 1.0).ravel()
    if not inside.any():
        return np.array([peak_sin_x]), np.array([peak_sin_y])
    return sx.ravel()[inside], sy.ravel()[inside]


def _range_stage(front: FrontEnd, scene: ValidatedScene, pipe: PipelineSpec,
                 velocity_mps: float, sin_x, sin_y):
    """Score all angle candidates in one suppressor call; returns (d, bin, peak_mag,
    sin_x, sin_y) of the one with the largest range peak (first on ties), or None
    for STHP at a blind speed, which its zero-forcing nulls. The steering
    follows the snapshot rows: URA rows permuted (no quadratic form changes) times
    each row's VA slot Doppler D. STAP on D Y with steering a is STAP on Y with
    D^H a (D diagonal, unitary), and STHP's temporal stage commutes with D."""
    radio, geom = scene.radio, front.geom
    rows = front.virtual_row
    row_slot = np.arange(rows.size) // scene.array.num_rx
    slot_phase = np.exp(2j * np.pi * radio.doppler_hz(velocity_mps) * row_slot
                        * radio.pri_s)[:, None]
    a_t = temporal_steering(velocity_mps, front.schedule, radio)
    if pipe.suppressor == "sthp" and at_blind_speed(a_t):
        return None
    a_s = steering_ura_from_sin(sin_x, sin_y, geom, radio.wavelength_m)[rows]
    if pipe.suppressor == "sthp":
        d, bins = sthp_range_spectrum(front.y_st, a_t, a_s * slot_phase, pipe.eps_mode)
    else:
        a_st = (space_time_steering(a_t, a_s) * slot_phase).reshape(-1, sin_x.size)
        d, bins = stap_range_spectrum(front.y_st, a_st, pipe.eps_mode)
    peak_mag = np.abs(d[np.arange(bins.size), bins])
    k = int(np.argmax(peak_mag))
    return d[k], int(bins[k]), float(peak_mag[k]), float(sin_x[k]), float(sin_y[k])


def run_pipeline(front: FrontEnd, scene: ValidatedScene, pipe: PipelineSpec,
                 num_targets: int, debug: dict = None) -> list:
    """Detection chain on one cube's :func:`front_end`; returns one
    TargetEstimate per extracted peak the range stage scores (:func:`_range_stage`),
    strongest first. ``debug``, when given, collects the angle-velocity map and
    each estimate's range spectrum."""
    if pipe.structure == "fa":
        raise ValueError("FA pipelines take measurements, not IF cubes; "
                         "use run_fa_pipeline")
    radio, avm = scene.radio, front.avmap
    if debug is not None:
        debug["avmap"] = avm
    peaks = stte_peaks(avm, num_targets, pipe.stte_guard)

    estimates = []
    for peak in peaks:
        vel = peak.velocity_mps
        sin_x, sin_y = peak.sin_psi_x, peak.sin_psi_y
        if pipe.refinement == "music":
            vel, psi_x, psi_y = music_refine(front.y_e2, peak, scene.array.with_va(False),
                                             radio, num_sources=num_targets,
                                             factor=pipe.music_factor)
            sin_x, sin_y = math.sin(psi_x), math.sin(psi_y)
        cand_x, cand_y = _angle_candidates(sin_x, sin_y, pipe, scene, front.geom)
        stage = _range_stage(front, scene, pipe, vel, cand_x, cand_y)
        if stage is None:
            continue
        d, rng_bin, peak_mag, win_x, win_y = stage
        if debug is not None:
            debug.setdefault("spectra", []).append(d)
        estimates.append(_estimate(vel, win_x, win_y, rng_bin, peak_mag, scene))
    return estimates


def run_fa_pipeline(fa_meas: np.ndarray, scene: ValidatedScene, schedule: MarsSchedule,
                    num_targets: int, guard: int = 1) -> list:
    """FA baseline: nonuniform matched filter over (range, velocity), then a
    spatial FFT of the correlation snapshot at each peak for the angles.
    The same zero-velocity guard as STTE keeps the static ridge out."""
    radio = scene.radio
    power = fa_range_doppler_map(fa_meas, schedule, radio)
    # The map never leaves this function, so its power grid is masked in
    # place. Search it in its (velocity, range) memory order; the first
    # maximum in (range, velocity) order is the first range column holding
    # the maximum, then the first velocity within that column. The search
    # is on the magnitudes, where two powers an ulp apart may tie, but takes
    # them only at the column maxima and in the chosen column: the
    # magnitude never decreases with the power, so a column's largest
    # magnitude is the magnitude of its largest power.
    m, n_rng = power.shape
    power[np.abs(signed_bin(np.arange(m), m)) <= guard] = -np.inf

    arr = scene.array
    res = resolution_report(radio, arr.with_va(False))
    estimates = []
    for _ in range(num_targets):
        r_bin = int(np.argmax(_magnitudes(power.max(axis=0))))
        column = _magnitudes(power[:, r_bin])
        v_bin = int(np.argmax(column))
        if not np.isfinite(column[v_bin]):
            raise ValueError("run_fa_pipeline: map exhausted before K peaks")
        snap = fa_angle_snapshot(fa_meas, schedule, radio, r_bin, v_bin)
        spat = np.abs(np.fft.fft2(snap.reshape(arr.rx_rows, arr.rx_cols)))
        by, bx = np.unravel_index(int(np.argmax(spat)), spat.shape)
        estimates.append(_estimate(
            int(signed_bin(v_bin, m)) * res.velocity_res_mps,
            float(signed_bin(bx, arr.rx_cols)) * res.sin_angle_res_x,
            float(signed_bin(by, arr.rx_rows)) * res.sin_angle_res_y,
            r_bin, float(column[v_bin]), scene))     # amplitude before the exclusion below
        for dr in (-1, 0, 1):
            for dv in (-1, 0, 1):
                rr = r_bin + dr
                if 0 <= rr < n_rng:
                    power[(v_bin + dv) % m, rr] = -np.inf
    return estimates


def _estimate(velocity_mps: float, sin_x: float, sin_y: float, range_bin: int,
              amplitude: float, scene: ValidatedScene) -> TargetEstimate:
    """The one way a chain finishes an estimate: each angle from its clamped
    sine, the range from its bin, and velocity and angle bins rounded on the
    radio's no-VA grid, where the FA chain's signed bins round back exactly."""
    res = resolution_report(scene.radio, scene.array.with_va(False))
    return TargetEstimate(
        velocity_mps=velocity_mps, psi_x_rad=math.asin(max(-1.0, min(1.0, sin_x))),
        psi_y_rad=math.asin(max(-1.0, min(1.0, sin_y))), range_m=range_bin * res.range_res_m,
        amplitude=amplitude, velocity_bin=round(velocity_mps / res.velocity_res_mps),
        angle_x_bin=round(sin_x / res.sin_angle_res_x),
        angle_y_bin=round(sin_y / res.sin_angle_res_y), range_bin=range_bin)


def _magnitudes(power: np.ndarray) -> np.ndarray:
    """Magnitudes of FA map powers, sqrt(max(p, 0)), with a masked cell's
    -inf kept: the one magnitude rule of :func:`fa_range_doppler_map`'s grid."""
    return np.where(power == -np.inf, -np.inf, np.sqrt(np.maximum(power, 0.0)))
