"""Composable detection pipelines over synthesized receiver data.

The front end runs once per cube: it expands the compressed tone branch,
forms the angle-velocity map and assembles the chirp branch into the VA
space-time snapshot. Each pipeline then extracts coarse peaks (STTE),
optionally refines with MUSIC, rotates each VA slot's rows back by the
target's coarse Doppler and runs the range stage (STAP, STHP, or the
matched filter, which is STAP at eps = inf). With VA and FFT refinement the
spatial steering is picked from the virtual array's finer FFT-native angle
bins within one coarse bin, scored by the range-stage peak itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from .channel import IfCube
from .estimator import (
    AngleVelocityMap,
    TargetEstimate,
    angle_velocity_map,
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
from .scene import ArrayGeometry, ValidatedScene, steering_ura_from_sin
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
    """One point in the structure x suppressor x eps x refinement x VA grid."""

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

    def conflict(self) -> tuple | None:
        """(key, reason) for the first value the drop path would not run as
        given, else None; config parsing and plan validation both use it."""
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed:
                return key, f"{getattr(self, key)!r} is not one of {', '.join(allowed)}"
        for key, low in (("music_factor", 1), ("stte_guard", 0)):
            if getattr(self, key) < low:
                return key, f"must be >= {low}, got {getattr(self, key)}"
        for (key, value), fixed in _FIXED.items():
            for other, want in fixed.items():
                if getattr(self, key) == value and getattr(self, other) != want:
                    return other, f"{key} {value} needs {want!r}, got {getattr(self, other)!r}"
        if self.structure == "lshape" and self.suppressor == "sthp":
            return "suppressor", "lshape has one chirp occasion (W = 1); sthp needs W >= 2"
        return None


@dataclass(frozen=True, eq=False)
class FrontEnd:
    """What :func:`front_end` builds once per cube."""

    schedule: MarsSchedule
    y_e2: np.ndarray          # (L, M) expanded tone branch
    avmap: AngleVelocityMap
    y_st: np.ndarray          # (W*L', N) VA-assembled chirp snapshot, uncompensated
    row_slot: np.ndarray      # (W*L',) VA slot each snapshot row came from
    geom: ArrayGeometry       # receive geometry of the snapshot rows


def front_end(cube: IfCube, scene: ValidatedScene) -> FrontEnd:
    """Per-cube work for every pipeline on ``cube``: the angle-velocity map
    and the chirp branch assembled over all occasions. :func:`run_pipeline`
    rotates each VA slot's rows back by the target's Doppler; every occasion
    gets the same per-slot phase, so static clutter stays occasion-invariant."""
    y_e2 = expand_nn(cube.tone_branch_compressed, cube.schedule)
    avm = angle_velocity_map(y_e2, scene.array.with_va(False), scene.radio)
    n, l = scene.radio.num_subcarriers, cube.num_elements
    w, slots = cube.schedule.num_chirp_occasions, cube.schedule.slots_per_chirp
    arr = scene.array.with_va(slots > 1)
    # Symbols are (occasion, slot)-major: assemble each slot's (W, L, N) view.
    # One slot needs no assembly, so the snapshot is a view of the cube.
    by_slot = cube.chirp_branch.reshape(w, slots, l, n)
    chirp, geom = va_assemble([by_slot[:, e] for e in range(slots)], arr)
    row_slot, _ = va_assemble([np.full((w, l, 1), e) for e in range(slots)], arr)
    return FrontEnd(schedule=cube.schedule, y_e2=y_e2, avmap=avm,
                    y_st=reshape_space_time(chirp, n), row_slot=row_slot.ravel(), geom=geom)


def _angle_candidates(peak_sin_x: float, peak_sin_y: float, pipe: PipelineSpec,
                      scene: ValidatedScene, geom) -> tuple:
    """Spatial hypotheses for the range stage as (sin_x, sin_y) arrays: the coarse
    (or refined) angle alone, or the virtual array's FFT bins within +-1 coarse bin."""
    if pipe.refinement == "music" or not pipe.va:
        return np.array([peak_sin_x]), np.array([peak_sin_y])
    lam = scene.wavelength_m
    res_x = lam / (geom.rx_cols * geom.rx_spacing_x_m)
    res_y = lam / (geom.rx_rows * geom.rx_spacing_y_m)
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


def _range_stage(y_st, schedule: MarsSchedule, scene: ValidatedScene, geom,
                 pipe: PipelineSpec, velocity_mps: float, sin_x, sin_y):
    """Score all angle candidates in one suppressor call; returns (d, range_m, bin,
    peak_mag, sin_x, sin_y) of the one with the largest range peak (first on ties)."""
    radio = scene.radio
    dr = scene.range_res_m
    if pipe.suppressor == "sthp":
        a_t = temporal_steering(velocity_mps, schedule, radio)
        a_s = steering_ura_from_sin(sin_x, sin_y, geom.rx_cols, geom.rx_rows,
                                    geom.rx_spacing_x_m, geom.rx_spacing_y_m,
                                    scene.wavelength_m)
        d, rng_m, bins = sthp_range_spectrum(y_st, a_t, a_s, pipe.eps_mode,
                                             range_res_m=dr, velocity_mps=velocity_mps)
    else:
        a_st = space_time_steering(velocity_mps, sin_x, sin_y, geom, schedule, radio)
        d, rng_m, bins = stap_range_spectrum(y_st, a_st, pipe.eps_mode, range_res_m=dr)
    peak_mag = np.abs(d[np.arange(bins.size), bins])
    k = int(np.argmax(peak_mag))
    return (d[k], float(rng_m[k]), int(bins[k]), float(peak_mag[k]),
            float(sin_x[k]), float(sin_y[k]))


def run_pipeline(front: FrontEnd, scene: ValidatedScene, pipe: PipelineSpec,
                 num_targets: int, debug: dict = None) -> list:
    """Detection chain on one cube's :func:`front_end`; returns one
    TargetEstimate per extracted peak, strongest first. ``debug``, when given,
    collects the angle-velocity map and each target's range spectrum."""
    if pipe.structure == "fa":
        raise ValueError("FA pipelines take measurements, not IF cubes; "
                         "use run_fa_pipeline")
    radio = scene.radio
    if debug is not None:
        debug["avmap"] = front.avmap
    peaks = stte_peaks(front.avmap, num_targets, pipe.stte_guard)

    dv = scene.velocity_res_mps
    estimates = []
    for peak in peaks:
        vel = peak.velocity_mps
        sin_x, sin_y = peak.sin_psi_x, peak.sin_psi_y
        if pipe.refinement == "music":
            vel, psi_x, psi_y = music_refine(front.y_e2, peak, scene.array.with_va(False),
                                             radio, num_sources=num_targets,
                                             factor=pipe.music_factor)
            sin_x, sin_y = math.sin(psi_x), math.sin(psi_y)
        y_st = front.y_st
        if front.schedule.slots_per_chirp > 1:
            # One slot gives every row the phase 1: no product, no copy.
            fd = 2.0 * vel * radio.carrier_freq_hz / SPEED_OF_LIGHT
            y_st = y_st * np.exp(-2j * np.pi * fd * front.row_slot * radio.pri_s)[:, None]

        cand_x, cand_y = _angle_candidates(sin_x, sin_y, pipe, scene, front.geom)
        d, rng_m, rng_bin, peak_mag, win_x, win_y = _range_stage(
            y_st, front.schedule, scene, front.geom, pipe, vel, cand_x, cand_y)
        if debug is not None:
            debug.setdefault("spectra", []).append(d)

        estimates.append(TargetEstimate(
            velocity_mps=vel,
            psi_x_rad=math.asin(max(-1.0, min(1.0, win_x))),
            psi_y_rad=math.asin(max(-1.0, min(1.0, win_y))),
            range_m=rng_m,
            amplitude=peak_mag,
            velocity_bin=int(round(vel / dv)),
            angle_x_bin=int(round(win_x / front.avmap.sin_res_x)),
            angle_y_bin=int(round(win_y / front.avmap.sin_res_y)),
            range_bin=rng_bin,
            refinement=pipe.refinement,
            method=pipe.suppressor,
            eps_mode=pipe.eps_mode,
        ))
    return estimates


def run_fa_pipeline(fa_meas: np.ndarray, scene: ValidatedScene, schedule: MarsSchedule,
                    num_targets: int, guard: int = 1) -> list:
    """FA baseline: nonuniform matched filter over (range, velocity), then a
    spatial FFT of the correlation snapshot at each peak for the angles.
    The same zero-velocity guard as STTE keeps the static ridge out."""
    radio = scene.radio
    famap = fa_range_doppler_map(fa_meas, schedule, radio, scene.range_res_m)
    # The map never leaves this function, so it is masked in place. Search
    # it in its (velocity, range) memory order; the first maximum in (range,
    # velocity) order is the first range column holding the maximum, then
    # the first velocity within that column.
    values = famap.values.T
    m, n_rng = values.shape
    values[np.abs(signed_bin(np.arange(m), m)) <= guard] = -np.inf

    arr = scene.array
    estimates = []
    for _ in range(num_targets):
        r_bin = int(np.argmax(values.max(axis=0)))
        v_bin = int(np.argmax(values[:, r_bin]))
        if not np.isfinite(values[v_bin, r_bin]):
            raise ValueError("run_fa_pipeline: map exhausted before K peaks")
        snap = fa_angle_snapshot(fa_meas, schedule, radio, r_bin, v_bin)
        spat = np.abs(np.fft.fft2(snap.reshape(arr.rx_rows, arr.rx_cols)))
        by, bx = np.unravel_index(int(np.argmax(spat)), spat.shape)
        lam = scene.wavelength_m
        res_x = lam / (arr.rx_cols * arr.rx_spacing_x_m)
        res_y = lam / (arr.rx_rows * arr.rx_spacing_y_m)
        sin_x = float(signed_bin(bx, arr.rx_cols)) * res_x
        sin_y = float(signed_bin(by, arr.rx_rows)) * res_y
        vel = famap.velocity(v_bin)
        estimates.append(TargetEstimate(
            velocity_mps=vel,
            psi_x_rad=math.asin(max(-1.0, min(1.0, sin_x))),
            psi_y_rad=math.asin(max(-1.0, min(1.0, sin_y))),
            range_m=float(r_bin) * scene.range_res_m,
            amplitude=float(values[v_bin, r_bin]),     # before the exclusion below
            velocity_bin=int(signed_bin(v_bin, m)),
            angle_x_bin=int(signed_bin(bx, arr.rx_cols)),
            angle_y_bin=int(signed_bin(by, arr.rx_rows)),
            range_bin=r_bin,
            refinement="fft",
            method="mf",
            eps_mode="inf",
        ))
        for dr in (-1, 0, 1):
            for dv in (-1, 0, 1):
                rr = r_bin + dr
                if 0 <= rr < n_rng:
                    values[(v_bin + dv) % m, rr] = -np.inf
    return estimates
