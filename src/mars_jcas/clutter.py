"""Ground clutter: grazing-angle area reflectivity and the aggregated
per-(range-bin, element) scattering tables used by the channel simulator.

The patch grid is swept once at unit transmit power; synthesis scales the
tables linearly for any power setting. All patches are static (zero
Doppler), which is what makes the aggregation exact at range-bin
resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources

import numpy as np
import yaml
from scipy.constants import c as SPEED_OF_LIGHT

from .scene import ValidatedScene
from .seeding import rng_for


@dataclass(frozen=True)
class GtriParams:
    """Constants of the four-parameter grazing-angle reflectivity model."""

    a: float
    b: float
    c: float
    d: float
    sigma_h_m: float


@lru_cache(maxsize=1)
def _terrain_table() -> dict:
    text = resources.files("mars_jcas.presets").joinpath("gtri_terrain.yaml").read_text()
    return yaml.safe_load(text)


def terrain_preset(name: str) -> GtriParams:
    table = _terrain_table()
    if name not in table:
        raise KeyError(f"unknown terrain preset {name!r}; available: {sorted(table)}")
    row = table[name]
    return GtriParams(a=row["a"], b=row["b"], c=row["c"], d=row["d"],
                      sigma_h_m=row["sigma_h_m"])


def gtri_reflectivity(grazing_rad, params: GtriParams, wavelength_m: float):
    """Dimensionless area reflectivity sigma0 = A*(delta+C)^B *
    exp(-D / (1 + 0.1*sigma_h/lambda)). Accepts scalar or array grazing."""
    delta = np.asarray(grazing_rad, dtype=float)
    if np.any(delta < 0):
        raise ValueError("gtri_reflectivity: grazing angle must be >= 0")
    if params.a < 0:
        raise ValueError("gtri_reflectivity: A must be >= 0")
    base = delta + params.c
    if np.any(base < 0) and params.b != int(params.b):
        raise ValueError("gtri_reflectivity: (delta + C) < 0 with non-integer B")
    rough = math.exp(-params.d / (1.0 + 0.1 * params.sigma_h_m / wavelength_m))
    out = params.a * base**params.b * rough
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ClutterMap:
    """Aggregated clutter response at unit transmit power and unit gains.

    ``chirp_tables[s, r, l]`` is the summed complex coefficient of all
    patches falling in range bin ``r`` seen by receive element ``l`` when
    transmit slot ``s`` is active (slot 0 is the reference element; without
    VA there is exactly one slot). ``tone_vec[l]`` is the per-PRI constant
    the zero-Doppler field contributes to the tone branch, tone-frequency
    carrier phase included.
    """

    chirp_tables: np.ndarray   # (num_tx_slots, num_range_bins, L)
    tone_vec: np.ndarray       # (L,)
    range_res_m: float
    terrain: str
    params: GtriParams
    patch_count: int
    area_x_m: float
    area_y_m: float
    cell_m: float
    station_height_m: float
    seed: int

    @property
    def num_range_bins(self) -> int:
        return self.chirp_tables.shape[1]

    @property
    def num_elements(self) -> int:
        return self.chirp_tables.shape[2]

    @property
    def num_tx_slots(self) -> int:
        return self.chirp_tables.shape[0]


def _resolve_params(scene: ValidatedScene) -> GtriParams:
    base = terrain_preset(scene.clutter.terrain)
    cl = scene.clutter
    return GtriParams(
        a=base.a if cl.gtri_a is None else cl.gtri_a,
        b=base.b if cl.gtri_b is None else cl.gtri_b,
        c=base.c if cl.gtri_c is None else cl.gtri_c,
        d=base.d if cl.gtri_d is None else cl.gtri_d,
        sigma_h_m=base.sigma_h_m if cl.surface_rms_height_m is None else cl.surface_rms_height_m,
    )


def patch_grid(clutter_cfg) -> tuple:
    """Patch center coordinates: x spans the area symmetrically, y extends
    forward of the station (boresight) starting at the configured standoff,
    station at the origin at height h."""
    cell = clutter_cfg.cell_m
    nx = int(round(clutter_cfg.area_x_m / cell))
    ny = int(round(clutter_cfg.area_y_m / cell))
    x = (np.arange(nx) - (nx - 1) / 2.0) * cell
    y = clutter_cfg.area_standoff_m + (np.arange(ny) + 0.5) * cell
    return x, y


def build_clutter_map(scene: ValidatedScene) -> ClutterMap:
    """Sweep the patch grid once and accumulate the aggregated tables.

    Per patch: flat-earth grazing angle, reflectivity, RCS = sigma0 * cell
    area, radar-equation amplitude at unit power, one seeded uniform phase,
    then scatter-add of amplitude x steering into the patch's range bin.
    """
    cl = scene.clutter
    if cl.station_height_m <= 0:
        raise ValueError("build_clutter_map: station height must be > 0")
    params = _resolve_params(scene)
    radio, arr = scene.radio, scene.array
    lam = scene.wavelength_m
    n_bins = radio.num_subcarriers
    dr = scene.range_res_m
    seed = scene.seed

    xs, ys = patch_grid(cl)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    x = gx.ravel()
    y = gy.ravel()
    h = cl.station_height_m
    r = np.sqrt(x * x + y * y + h * h)
    grazing = np.arcsin(h / r)
    sigma0 = gtri_reflectivity(grazing, params, lam)
    rcs = sigma0 * cl.cell_m**2
    # Radar-equation amplitude at unit transmit power.
    amp = np.sqrt(radio.gain_tx * radio.gain_rx * lam**2 * rcs
                  / ((4.0 * np.pi) ** 3 * r**4))
    rng = rng_for(seed, "clutter")
    phase = rng.uniform(0.0, 2.0 * np.pi, size=r.size)
    coeff = amp * np.exp(1j * phase)

    bins = np.rint(r / dr).astype(int)
    keep = bins < n_bins
    if not np.all(keep):
        x, y, r, coeff, bins = x[keep], y[keep], r[keep], coeff[keep], bins[keep]

    sin_x = x / r
    sin_y = -h / r  # patches sit below the array plane
    wavenum = 2.0 * np.pi / lam

    # Receive element coordinates, x index fastest (Kronecker order).
    ex = (np.arange(arr.rx_cols) * arr.rx_spacing_x_m)[np.tile(np.arange(arr.rx_cols), arr.rx_rows)]
    ey = (np.arange(arr.rx_rows) * arr.rx_spacing_y_m)[np.repeat(np.arange(arr.rx_rows), arr.rx_cols)]

    # Transmit slot positions (reference element first, x fastest).
    if arr.va_enabled:
        tx_pos = [(a * arr.rx_cols * arr.rx_spacing_x_m, b * arr.rx_rows * arr.rx_spacing_y_m)
                  for b in range(arr.tx_rows) for a in range(arr.tx_cols)]
    else:
        tx_pos = [(0.0, 0.0)]

    n_el = arr.num_rx
    tables = np.zeros((len(tx_pos), n_bins, n_el), dtype=complex)
    tone = np.zeros(n_el, dtype=complex)
    tau = 2.0 * r / SPEED_OF_LIGHT
    tone_carrier = np.exp(2j * np.pi * radio.carrier_freq_hz * tau)
    for s, (txx, txy) in enumerate(tx_pos):
        for l in range(n_el):
            w = coeff * np.exp(1j * wavenum * (sin_x * (ex[l] + txx) + sin_y * (ey[l] + txy)))
            tables[s, :, l] = (np.bincount(bins, weights=w.real, minlength=n_bins)
                               + 1j * np.bincount(bins, weights=w.imag, minlength=n_bins))
            if s == 0:
                tone[l] = np.sum(w * tone_carrier)

    return ClutterMap(
        chirp_tables=tables, tone_vec=tone, range_res_m=dr, terrain=cl.terrain,
        params=params, patch_count=int(r.size), area_x_m=cl.area_x_m,
        area_y_m=cl.area_y_m, cell_m=cl.cell_m, station_height_m=h, seed=seed,
    )


def build_clutter_for(scene: ValidatedScene, pipelines) -> ClutterMap:
    """The map ``pipelines`` share: with VA slot tables if any of them uses VA."""
    needs_va = any(p.va for p in pipelines)
    return build_clutter_map(replace(scene, array=scene.array.with_va(needs_va)))
