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
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np
import yaml

from . import cpus
from .scene import SPEED_OF_LIGHT, ValidatedScene
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
        raise ValueError(f"unknown terrain preset {name!r}; available: {sorted(table)}")
    return GtriParams(**table[name])


def gtri_reflectivity(grazing_rad, params: GtriParams, wavelength_m: float):
    """Dimensionless area reflectivity sigma0 = A*(delta+C)^B *
    exp(-D / (1 + 0.1*sigma_h/lambda)). Accepts scalar or array grazing."""
    delta = np.asarray(grazing_rad, dtype=float)
    if np.any(delta < 0):
        raise ValueError("gtri_reflectivity: grazing angle must be >= 0")
    if params.a < 0:
        raise ValueError("gtri_reflectivity: A must be >= 0")
    if params.d < 0 or params.sigma_h_m < 0:
        raise ValueError("gtri_reflectivity: D and sigma_h must be >= 0")
    base = delta + params.c
    if np.any(base < 0):
        raise ValueError("gtri_reflectivity: (delta + C) must be >= 0")
    rough = math.exp(-params.d / (1.0 + 0.1 * params.sigma_h_m / wavelength_m))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
    carrier phase included. The map holds these unit-power arrays and their
    spectra only: each branch multiplies in its symbols' amplitudes.
    """

    chirp_tables: np.ndarray   # (num_tx_slots, num_range_bins, L)
    tone_vec: np.ndarray       # (L,)
    range_res_m: float
    patch_count: int           # patches inside the last range bin, both of a mirror pair

    @cached_property
    def chirp_spectra(self) -> np.ndarray:
        """(slots, L, N) chirp-branch clutter per transmit slot, C-contiguous
        and read-only: the bins' beat tones over the N samples collapse to
        ``N * ifft`` of the table. A chirp symbol's clutter is its slot's
        spectrum times the symbol's amplitude, the last term the cube
        multiplies into the symbol's block."""
        slots, bins, elements = self.chirp_tables.shape
        spectra = np.empty((slots, elements, bins), dtype=complex)
        # The transform writes each slot's bins down the columns of its
        # (L, N) block, so there is no transposed copy to make.
        np.fft.ifft(self.chirp_tables, axis=1, out=spectra.transpose(0, 2, 1))
        spectra *= bins
        spectra.flags.writeable = False
        return spectra

    @cached_property
    def fa_spectrum(self) -> np.ndarray:
        """(N, L) FA clutter per subcarrier, read-only: bin delays land
        exactly on DFT phases, so it is slot 0's table FFT'd over its bins."""
        spectrum = np.fft.fft(self.chirp_tables[0], axis=0)
        spectrum.flags.writeable = False
        return spectrum

    def tone_clutter(self, amplitudes: np.ndarray) -> np.ndarray:
        """(L, T) tone-branch clutter of T tone symbols of the given
        amplitudes, each summed over its N samples."""
        return np.outer(self.tone_vec, amplitudes) * self.num_range_bins

    def fa_clutter(self, subcarriers: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
        """(L, M) FA clutter of M symbols on the given subcarriers at the
        given amplitudes."""
        return self.fa_spectrum[subcarriers].T * amplitudes

    def check_fits(self, scene: ValidatedScene, slots: int = 1) -> None:
        """Raise ``ValueError``, naming both sides, unless the map was built
        for ``scene``'s receive elements and range resolution, with one range
        bin per subcarrier (as :func:`build_clutter_map` makes it), and holds
        at least ``slots`` transmit slot tables (a schedule's
        ``slots_per_chirp``)."""
        n, dr = scene.radio.num_subcarriers, scene.radio.range_res_m
        if (self.num_range_bins != n or self.num_elements != scene.array.num_rx
                or self.range_res_m != dr):
            raise ValueError(f"clutter map has {self.num_range_bins} range bins, "
                             f"{self.num_elements} elements and range_res_m {self.range_res_m}; "
                             f"the scene has {n} subcarriers, {scene.array.num_rx} elements and "
                             f"range_res_m {dr}")
        if self.num_tx_slots < slots:
            raise ValueError(f"clutter map has {self.num_tx_slots} tx slot tables, "
                             f"schedule needs {slots}")

    @property
    def num_range_bins(self) -> int:
        return self.chirp_tables.shape[1]

    @property
    def num_elements(self) -> int:
        return self.chirp_tables.shape[2]

    @property
    def num_tx_slots(self) -> int:
        return self.chirp_tables.shape[0]


def terrain_params(scene: ValidatedScene) -> GtriParams:
    """The scene's terrain preset with its ``gtri_*`` and surface height
    overrides applied."""
    cl = scene.clutter
    overrides = {"a": cl.gtri_a, "b": cl.gtri_b, "c": cl.gtri_c, "d": cl.gtri_d,
                 "sigma_h_m": cl.surface_rms_height_m}
    return replace(terrain_preset(cl.terrain),
                   **{k: v for k, v in overrides.items() if v is not None})


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


# Mirror pairs per chunk of the virtual-array pass: a chunk's pair columns
# and y phase powers are (va_cols + va_rows) x CHUNK_PATCHES complex values.
CHUNK_PATCHES = 16384


def _phasors(angle, dtype=np.float32) -> np.ndarray:
    """``exp(1j * angle)`` as the ``cos`` and ``sin`` of ``angle`` rounded
    to ``dtype``. In float32 numpy runs them in SIMD, an order of magnitude
    faster than its complex ``exp``, within about 3e-7 of float64 for
    angles in [-2 pi, 2 pi]; elementwise, so a value does not depend on how
    the input was sliced."""
    theta = np.asarray(angle, dtype=dtype)
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _carrier_cycles(r, carrier_freq_hz: float) -> np.ndarray:
    """Carrier cycles ``2 f_c r / c`` over the round trip to range ``r``,
    less their nearest integer (float64, in [-1/2, 1/2]): the tone
    carrier's phase, reduced before :func:`_phasors` rounds it."""
    cycles = 2.0 * carrier_freq_hz * r / SPEED_OF_LIGHT
    return cycles - np.rint(cycles)


def _phase_powers(phase, n: int) -> np.ndarray:
    """``exp(1j * k * phase)`` for k = 0..n-1, one row per k. The step stays
    float64, from float64 ``cos`` and ``sin``: it sets the array geometry,
    and its error compounds over the powers."""
    powers = np.empty((n, phase.size), dtype=complex)
    powers[0] = 1.0
    step = _phasors(phase, float)
    for k in range(1, n):
        np.multiply(powers[k - 1], step, out=powers[k])
    return powers


def build_clutter_map(scene: ValidatedScene) -> ClutterMap:
    """Sweep the patch grid once and accumulate the aggregated tables.

    Every slot table is a slice of one table on the uniform virtual URA
    (``va_rows x va_cols`` at the receive spacing; slot 0 is its first
    ``rx_rows x rx_cols`` corner). A patch's steering there is the outer
    product of its per-axis phase powers ``py`` and ``px``.

    The grid's x coordinates are exact negatives under mirroring, so the
    patches at (x, y) and (-x, y) share range, bin, reflectivity, amplitude,
    ``py`` and tone carrier; the twin's ``px`` is ``conj(px)``. The build
    sweeps the x >= 0 half of the grid, each patch p paired with its twin q
    (the centre column of an odd nx with itself, its twin's coefficient 0),
    and folds a pair into one column ``u = c_p px + c_q conj(px)``. With the
    pairs sorted by range bin, a bin's entry is one (rows x pairs) @
    (pairs x cols) product of ``py`` and ``u`` over the bin's pairs.

    Per pair: flat-earth grazing angle, reflectivity, RCS = sigma0 * cell
    area, radar-equation amplitude at unit power, and each patch's seeded
    uniform phase (drawn for every patch of the grid, in grid order, so the
    realization is the full grid's). The patch phasors and each pair's
    tone carrier exp(j 2 pi f_c 2r / c) carry no geometry in their float64
    angle, so they come from float32 angles (:func:`_phasors`, the carrier's
    cycles reduced first by :func:`_carrier_cycles`); the steering steps
    that ``px`` and ``py`` raise to powers stay float64, from float64
    ``cos`` and ``sin``. Only the pair order (stable by range bin, pairs
    past the last bin at its end), the bins' edges in that order and the
    float32 phases are held for the whole grid, and no float64 array of
    the grid's size is made.

    The rest is computed a chunk of pairs at a time, each chunk a pure
    function of its start giving its tone term and one product per range
    bin it meets. :func:`~mars_jcas.cpus.spread` shares the chunks with
    ``cpus.count() - 1`` forked children (the calling process takes every
    count-th chunk) and hands back every chunk's terms in chunk order, so
    every entry sums the same terms in the same order at any CPU count.
    """
    cl = scene.clutter
    if cl.station_height_m <= 0:
        raise ValueError("build_clutter_map: station height must be > 0")
    params = terrain_params(scene)
    radio, arr = scene.radio, scene.array
    lam = radio.wavelength_m
    n_bins = radio.num_subcarriers
    h = cl.station_height_m
    xs, ys = patch_grid(cl)
    nx, ny = xs.size, ys.size
    # Column nx // 2 + i is the mirror of column (nx - 1) // 2 - i.
    half = xs[nx // 2:]
    # Sort keys of 16 bits or fewer take numpy's radix sort; key n_bins
    # marks a pair past the last bin. They are made a block of columns at a
    # time, so no float64 temporary exceeds about CHUNK_PATCHES values.
    keys = np.empty(half.size * ny, dtype=np.uint16 if n_bins < 2**16 else np.intp)
    block = max(CHUNK_PATCHES // ny, 1)
    for lo in range(0, half.size, block):
        x = half[lo:lo + block, None]
        bins = np.rint(np.sqrt((x * x + ys * ys) + h * h) / radio.range_res_m)
        keys[lo * ny:(lo + block) * ny] = np.minimum(bins, n_bins, out=bins).ravel()
    # Pairs of bin b sit at edges[b]:edges[b + 1] of the sorted order.
    edges = np.zeros(n_bins + 2, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=n_bins + 1), out=edges[1:])
    order = np.argsort(keys, kind="stable")
    del keys
    # Hold the pair order in 32 bits while every grid index fits; the intp
    # sort result is freed before the phase draw.
    order = order.astype(np.int32 if nx * ny < 2**31 else np.intp)
    kept = int(edges[n_bins])
    # Held as the float32 _phasors rounds them to; PCG64 spends one output
    # a double, so the pieces of CHUNK_PATCHES are one draw.
    rng = rng_for(scene.seed, "clutter")
    phase = np.empty(nx * ny, dtype=np.float32)
    for lo in range(0, phase.size, CHUNK_PATCHES):
        piece = phase[lo:lo + CHUNK_PATCHES]
        piece[:] = rng.uniform(0.0, 2.0 * np.pi, size=piece.size)

    wavenum = 2.0 * np.pi / lam
    cols, rows = arr.va_cols, arr.va_rows

    def chunk(lo):
        hi = min(lo + CHUNK_PATCHES, kept)
        idx = order[lo:hi]
        ix, iy = np.divmod(idx, ny)
        x, y = half[ix], ys[iy]
        r = np.sqrt(x * x + y * y + h * h)
        sigma0 = gtri_reflectivity(np.arcsin(h / r), params, lam)
        # Radar-equation amplitude at unit transmit power.
        amp = np.sqrt(radio.gain_tx * radio.gain_rx * lam**2 * (sigma0 * cl.cell_m**2)
                      / ((4.0 * np.pi) ** 3 * r**4))
        # Grid indices of the patch and of its twin.
        c_p = amp * _phasors(phase[idx + nx // 2 * ny])
        c_q = amp * _phasors(phase[((nx - 1) // 2 - ix) * ny + iy])
        if nx % 2:
            c_q[ix == 0] = 0.0
        # Free what the rest of the chunk skips.
        del ix, iy, y, sigma0, amp
        px = _phase_powers(wavenum * arr.rx_spacing_x_m * x / r, cols)
        u = px * c_p
        px = np.conjugate(px, out=px)
        px *= c_q
        u += px
        del c_p, c_q, px
        # Patches sit below the array plane: sin_y = -h / r.
        py = _phase_powers(-wavenum * arr.rx_spacing_y_m * h / r, rows)
        # Bin b's pairs in this chunk: cuts[b]:cuts[b + 1].
        cuts = np.clip(edges[:n_bins + 1], lo, hi) - lo
        products = [(b, py[:, cuts[b]:cuts[b + 1]] @ u[:, cuts[b]:cuts[b + 1]].T)
                    for b in np.flatnonzero(np.diff(cuts))]
        # With the bin products taken, the tone carrier scales py in place.
        py[:arr.rx_rows] *= _phasors(2.0 * np.pi * _carrier_cycles(r, radio.carrier_freq_hz))
        return py[:arr.rx_rows] @ u[:arr.rx_cols].T, products

    virtual = np.zeros((n_bins, rows, cols), dtype=complex)
    tone = np.zeros((arr.rx_rows, arr.rx_cols), dtype=complex)

    def add(terms):
        tone_term, products = terms
        tone[...] += tone_term
        for b, product in products:
            virtual[b] += product

    cpus.spread(chunk, range(0, kept, CHUNK_PATCHES), add)

    slot_rows, slot_cols = arr.slot_rows, arr.slot_cols
    tables = (virtual.reshape(n_bins, slot_rows, arr.rx_rows, slot_cols, arr.rx_cols)
              .transpose(1, 3, 0, 2, 4).reshape(slot_rows * slot_cols, n_bins, arr.num_rx))
    # Both patches of every kept pair, one of a centre column's.
    centre = int(np.count_nonzero(order[:kept] < ny)) if nx % 2 else 0
    return ClutterMap(chirp_tables=tables, tone_vec=tone.ravel(),
                      range_res_m=radio.range_res_m, patch_count=2 * kept - centre)


def build_clutter_for(scene: ValidatedScene, pipelines) -> ClutterMap:
    """The map ``pipelines`` share: with VA slot tables if any of them uses VA."""
    needs_va = any(p.va for p in pipelines)
    return build_clutter_map(replace(scene, array=scene.array.with_va(needs_va)))
