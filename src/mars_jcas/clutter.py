"""Ground clutter: grazing-angle area reflectivity and the aggregated
per-(range-bin, element) scattering tables used by the channel simulator.

The patch grid is swept once at unit transmit power; synthesis scales the
tables linearly for any power setting. All patches are static (zero
Doppler), which is what makes the aggregation exact at range-bin
resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True, eq=False)
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
    # Derived spectra, built on first use and held with the map.
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def chirp_spectra(self, n: int) -> np.ndarray:
        """(slots, L, N) chirp-branch clutter per transmit slot: the bins'
        beat tones over the N samples collapse to ``N * ifft`` of the table."""
        key = ("chirp", n)
        if key not in self._spectra:
            self._spectra[key] = np.stack([n * np.fft.ifft(table, axis=0).T
                                           for table in self.chirp_tables])
        return self._spectra[key]

    def fa_spectrum(self, n: int) -> np.ndarray:
        """(N, L) FA clutter per subcarrier: bin delays land exactly on DFT
        phases, so it is slot 0's table zero-padded to N bins and FFT'd."""
        if self.num_range_bins > n:
            raise ValueError(f"clutter map has {self.num_range_bins} range bins, "
                             f"more than the {n} subcarriers")
        key = ("fa", n)
        if key not in self._spectra:
            self._spectra[key] = np.fft.fft(self.chirp_tables[0], n=n, axis=0)
        return self._spectra[key]

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


# Patches per chunk of the virtual-array pass: a chunk's phase powers are
# (va_cols + va_rows) x CHUNK_PATCHES complex values.
CHUNK_PATCHES = 16384


def _patches(scene: ValidatedScene, params: GtriParams) -> tuple:
    """x, range, unit-power coefficient and range bin of every patch that
    falls inside the table, sorted by bin (stable: a bin keeps grid order).

    Per patch: flat-earth grazing angle, reflectivity, RCS = sigma0 * cell
    area, radar-equation amplitude at unit power, one seeded uniform phase
    (drawn for every patch of the grid, in grid order).
    """
    cl, radio = scene.clutter, scene.radio
    lam = scene.wavelength_m
    xs, ys = patch_grid(cl)
    x, y = (g.ravel() for g in np.meshgrid(xs, ys, indexing="ij"))
    h = cl.station_height_m
    r = np.sqrt(x * x + y * y + h * h)
    phase = rng_for(scene.seed, "clutter").uniform(0.0, 2.0 * np.pi, size=r.size)
    bins = np.rint(r / scene.range_res_m).astype(int)
    kept = np.flatnonzero(bins < radio.num_subcarriers)
    kept = kept[np.argsort(bins[kept], kind="stable")]
    x, r, phase, bins = x[kept], r[kept], phase[kept], bins[kept]

    grazing = np.arcsin(h / r)
    sigma0 = gtri_reflectivity(grazing, params, lam)
    rcs = sigma0 * cl.cell_m**2
    # Radar-equation amplitude at unit transmit power.
    amp = np.sqrt(radio.gain_tx * radio.gain_rx * lam**2 * rcs
                  / ((4.0 * np.pi) ** 3 * r**4))
    return x, r, amp * np.exp(1j * phase), bins


def _phase_powers(phase, n: int) -> np.ndarray:
    """``exp(1j * k * phase)`` for k = 0..n-1, one row per k."""
    powers = np.empty((n, phase.size), dtype=complex)
    powers[0] = 1.0
    step = np.exp(1j * phase)
    for k in range(1, n):
        np.multiply(powers[k - 1], step, out=powers[k])
    return powers


def build_clutter_map(scene: ValidatedScene) -> ClutterMap:
    """Sweep the patch grid once and accumulate the aggregated tables.

    Every slot table is a slice of one table on the uniform virtual URA
    (``va_rows x va_cols`` at the receive spacing; slot 0 is its first
    ``rx_rows x rx_cols`` corner). A patch's steering there is the outer
    product of its per-axis phase powers, so with the patches sorted by
    range bin, a bin's entry is one (rows x patches) @ (patches x cols)
    product over the bin's patches, scaled by their coefficients.
    """
    cl = scene.clutter
    if cl.station_height_m <= 0:
        raise ValueError("build_clutter_map: station height must be > 0")
    params = _resolve_params(scene)
    radio, arr = scene.radio, scene.array
    n_bins = radio.num_subcarriers
    h = cl.station_height_m
    x, r, coeff, bins = _patches(scene, params)

    wavenum = 2.0 * np.pi / scene.wavelength_m
    cols, rows = arr.va_cols, arr.va_rows
    virtual = np.zeros((n_bins, rows, cols), dtype=complex)
    tone = np.zeros((arr.rx_rows, arr.rx_cols), dtype=complex)
    for lo in range(0, r.size, CHUNK_PATCHES):
        part = slice(lo, lo + CHUNK_PATCHES)
        px = _phase_powers(wavenum * arr.rx_spacing_x_m * x[part] / r[part], cols)
        # Patches sit below the array plane: sin_y = -h / r.
        py = _phase_powers(-wavenum * arr.rx_spacing_y_m * h / r[part], rows) * coeff[part]
        tau = 2.0 * r[part] / SPEED_OF_LIGHT
        tone_carrier = np.exp(2j * np.pi * radio.carrier_freq_hz * tau)
        tone += (py[:arr.rx_rows] * tone_carrier) @ px[:arr.rx_cols].T
        b = bins[part]
        starts = np.flatnonzero(np.diff(b, prepend=-1))
        for s, e in zip(starts, np.append(starts[1:], b.size)):
            virtual[b[s]] += py[:, s:e] @ px[:, s:e].T

    slot_rows, slot_cols = rows // arr.rx_rows, cols // arr.rx_cols
    tables = (virtual.reshape(n_bins, slot_rows, arr.rx_rows, slot_cols, arr.rx_cols)
              .transpose(1, 3, 0, 2, 4).reshape(slot_rows * slot_cols, n_bins, arr.num_rx))
    return ClutterMap(
        chirp_tables=tables, tone_vec=tone.ravel(),
        range_res_m=scene.range_res_m, terrain=cl.terrain, params=params,
        patch_count=int(r.size), area_x_m=cl.area_x_m, area_y_m=cl.area_y_m,
        cell_m=cl.cell_m, station_height_m=h, seed=scene.seed,
    )


def build_clutter_for(scene: ValidatedScene, pipelines) -> ClutterMap:
    """The map ``pipelines`` share: with VA slot tables if any of them uses VA."""
    needs_va = any(p.va for p in pipelines)
    return build_clutter_map(replace(scene, array=scene.array.with_va(needs_va)))
