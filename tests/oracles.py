"""Reference implementations kept for the batched estimator paths.

These are the per-candidate forms the library used before range-stage
scoring and MUSIC candidate building were batched: one explicit
``matrix_rank`` + ``pinv`` (or ``inv``) per steering vector, one
``np.kron`` per URA steering vector and a Python list of MUSIC candidates.
Tests compare the library against them column by column. The FA
correlator map and FA clutter term are kept in their direct forms too: one
ramp multiply and FFT per element, and a ramp-table matmul; so are the
full-grid Gram form of the FA map with its per-call lag cells, the
half-grid form with a zeroed grid, two ``bincount`` passes and numpy's
``hfft``, the FA peak search on a transposed copy of the map, the clutter
map, built by a transmit-slot x receive-element loop, the general VA row
scatter (one slot included), the per-target chirp-branch assembly that the
pipeline front end replaced (on the element-major (L, W*N) chirp layout,
with its occasion interleave), and the chirp branch synthesized one symbol
at a time with complex noise and a final concatenation into that layout.
``complex_noise`` draws the real and imaginary parts by two ``normal``
calls, and MUSIC's forward-backward average is kept with its dense
exchange-matrix products. ``FreshDraws`` makes every random draw of a cube
afresh, as each cube did before a drop's cubes shared one ``DropDraws``.
The last section holds forms that only tests use: the sample-level tone
branch, the spherical angle conversions, the inverse space-time reshape
and OFDM synthesis.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from mars_jcas.channel import _rx_steering, _target_coeff, _tx_slot_phase
from mars_jcas.clutter import ClutterMap, _resolve_params, gtri_reflectivity, patch_grid
from mars_jcas.estimator import (
    FaMap,
    TargetEstimate,
    _music_scan,
    _noise_projector,
    epsilon_m,
    fa_angle_snapshot,
    signed_bin,
    va_assemble,
)
from mars_jcas.scene import steering_from_sin
from mars_jcas.scene import steering_ura_from_sin as library_ura_steering
from mars_jcas.seeding import rng_for


def steering_ura_from_sin(sin_psi_x, sin_psi_y, cols, rows, dx, dy, wavelength_m):
    """Scalar URA steering: y-axis ULA factor Kronecker-left of the x factor."""
    ax = steering_from_sin(sin_psi_x, cols, dx, wavelength_m)
    ay = steering_from_sin(sin_psi_y, rows, dy, wavelength_m)
    return np.kron(ay, ax)


def complex_noise(rng, scale, shape):
    """Complex Gaussian noise of power ``scale**2``: one ``normal`` call for
    the real parts, then one for the imaginary parts."""
    return (rng.normal(scale=scale / math.sqrt(2.0), size=shape)
            + 1j * rng.normal(scale=scale / math.sqrt(2.0), size=shape))


def forward_backward_dense(r):
    """Forward-backward average 0.5 (R + J conj(R) J) with the exchange
    matrix J applied by two dense matmuls."""
    j = np.eye(r.shape[0])[::-1]
    return 0.5 * (r + j @ r.conj() @ j)


def _loaded_inverse(s_i, eps_mode, epsilon):
    dim = s_i.shape[0]
    if epsilon is not None:
        eps = float(epsilon)
    elif eps_mode == "em":
        eps = epsilon_m(s_i)
    elif eps_mode == "zero":
        eps = 0.0
    else:
        raise ValueError(f"unknown eps_mode {eps_mode!r}")
    if eps == 0.0:
        rank = np.linalg.matrix_rank(s_i, hermitian=True)
        if rank < dim:
            warnings.warn(f"interference covariance rank {rank} < {dim}; "
                          "using pseudo-inverse", RuntimeWarning, stacklevel=3)
        return np.linalg.pinv(s_i, hermitian=True)
    return np.linalg.inv(s_i + eps * np.eye(dim))


def stap_range_spectrum(y_st, a_st, eps_mode="em", *, range_res_m=1.0,
                        epsilon: Optional[float] = None):
    """One steering vector: (d, range_m, range_bin)."""
    if eps_mode == "inf":
        num = np.fft.fft(a_st.conj() @ y_st)
        den = float(np.vdot(a_st, a_st).real)
    else:
        q = _loaded_inverse(y_st @ y_st.conj().T / y_st.shape[1], eps_mode, epsilon)
        wa = q @ a_st
        num = np.fft.fft(wa.conj() @ y_st)
        den = float(np.vdot(a_st, wa).real)
        if abs(den) < np.finfo(float).tiny:
            den = 1.0
    d = num / den
    bin_ = int(np.argmax(np.abs(d)))
    return d, bin_ * range_res_m, bin_


def sthp_range_spectrum(y_st, a_t, a_s, eps_mode="em", *, range_res_m=1.0,
                        epsilon: Optional[float] = None):
    """One spatial steering vector: (d, range_m, range_bin)."""
    w_dim, l_dim = a_t.shape[0], a_s.shape[0]
    gamma = np.linalg.pinv(np.stack([a_t, np.ones(w_dim, dtype=complex)], axis=1))
    y_s = np.tensordot(gamma[0], y_st.reshape(w_dim, l_dim, -1), axes=1)
    if eps_mode == "inf":
        w_s = a_s.conj() / math.sqrt(float(np.vdot(a_s, a_s).real))
    else:
        q = _loaded_inverse(y_s @ y_s.conj().T / y_s.shape[1], eps_mode, epsilon)
        qa = q @ a_s
        den = float(np.vdot(a_s, qa).real)
        if abs(den) < np.finfo(float).tiny:
            den = 1.0
        w_s = qa.conj() / math.sqrt(abs(den))
    d = np.fft.fft(w_s @ y_s)
    bin_ = int(np.argmax(np.abs(d)))
    return d, bin_ * range_res_m, bin_


def music_refine(y_e2, coarse, arr, radio, num_sources=1, factor=10):
    """MUSIC refinement with the spatial candidates built one point at a time
    and the dense forward-backward average."""
    l, m = y_e2.shape
    lam = SPEED_OF_LIGHT / radio.carrier_freq_hz
    e_s = _noise_projector(forward_backward_dense(y_e2 @ y_e2.conj().T / m), num_sources)
    steps = np.linspace(-1.0, 1.0, 2 * factor + 1)
    res_x = lam / (arr.rx_cols * arr.rx_spacing_x_m)
    res_y = lam / (arr.rx_rows * arr.rx_spacing_y_m)
    sx = np.clip(coarse.sin_psi_x + steps * res_x, -1.0, 1.0)
    sy = np.clip(coarse.sin_psi_y + steps * res_y, -1.0, 1.0)
    gx, gy = np.meshgrid(sx, sy, indexing="ij")
    cand = np.stack([
        steering_ura_from_sin(x, y, arr.rx_cols, arr.rx_rows,
                              arr.rx_spacing_x_m, arr.rx_spacing_y_m, lam)
        for x, y in zip(gx.ravel(), gy.ravel())
    ], axis=1)
    best = _music_scan(e_s, cand)
    e_st = _noise_projector(forward_backward_dense(y_e2.T @ y_e2.conj() / l), num_sources)
    vel_res = SPEED_OF_LIGHT / (2.0 * m * radio.pri_s * radio.carrier_freq_hz)
    vels = coarse.velocity_mps + steps * vel_res
    t_m = np.arange(m) * radio.pri_s
    cand_t = np.exp(2j * np.pi * (2.0 * vels[None, :] * radio.carrier_freq_hz
                                  / SPEED_OF_LIGHT) * t_m[:, None])
    vel = float(vels[_music_scan(e_st, cand_t)])
    return vel, math.asin(float(gx.ravel()[best])), math.asin(float(gy.ravel()[best]))


def fa_range_doppler_map(fa_meas, schedule, radio, range_res_m):
    """Per-element correlator map: an (M, N) ramp multiply and a length-M
    FFT for each element, powers summed over elements."""
    sub = schedule.fa_subcarrier_indices
    m = fa_meas.shape[1]
    n = radio.num_subcarriers
    ramps = np.exp(2j * np.pi * np.outer(sub, np.arange(n)) / n)    # (M, N)
    power = np.zeros((m, n))
    for row in fa_meas:
        z = np.fft.fft(row[:, None] * ramps, axis=0)                # (M_vel, N)
        power += np.abs(z) ** 2
    vel_res = SPEED_OF_LIGHT / (2.0 * m * radio.pri_s * radio.carrier_freq_hz)
    return FaMap(values=np.sqrt(power.T), range_res_m=range_res_m,
                 velocity_res_mps=vel_res)


def fa_range_doppler_map_full_grid(fa_meas, schedule, radio, range_res_m):
    """Gram form on the full (M, N) lag grid: every pair's lag cell rebuilt
    on each call and scattered, then the non-negative subcarrier lags
    transformed."""
    sub = schedule.fa_subcarrier_indices
    m = fa_meas.shape[1]
    n = radio.num_subcarriers
    rows = np.arange(m)
    lags = np.zeros(m * n, dtype=complex)
    for start in range(0, m, n):
        block = slice(start, start + n)
        gram = fa_meas[:, block].T @ fa_meas.conj()
        idx = (((rows[block, None] - rows[None, :]) % m) * n
               + (sub[None, :] - sub[block, None]) % n).ravel()
        lags.real += np.bincount(idx, weights=gram.real.ravel(), minlength=m * n)
        lags.imag += np.bincount(idx, weights=gram.imag.ravel(), minlength=m * n)
    half = np.fft.fft(lags.reshape(m, n)[:, :n // 2 + 1], axis=0)
    power = np.fft.hfft(half, n=n, axis=1)
    vel_res = SPEED_OF_LIGHT / (2.0 * m * radio.pri_s * radio.carrier_freq_hz)
    return FaMap(values=np.sqrt(np.maximum(power.T, 0.0)), range_res_m=range_res_m,
                 velocity_res_mps=vel_res)


def fa_range_doppler_map_half_grid(fa_meas, schedule, radio, range_res_m):
    """Gram form on the (M, N//2 + 1) half lag grid: a zeroed complex grid,
    one ``bincount`` each for the real and imaginary parts of G's kept
    pairs, a forward Doppler FFT and numpy's ``hfft``."""
    sub = schedule.fa_subcarrier_indices
    m = fa_meas.shape[1]
    n = radio.num_subcarriers
    half = n // 2 + 1
    rows = np.arange(m)
    lags = np.zeros(m * half, dtype=complex)
    conj = fa_meas.conj()
    for start in range(0, m, n):
        block = slice(start, start + n)
        lag = (sub[None, :] - sub[block, None]) % n
        keep = np.flatnonzero(lag <= n // 2)
        idx = (((rows[block, None] - rows[None, :]) % m) * half + lag).ravel()[keep]
        gram = (fa_meas[:, block].T @ conj).ravel()[keep]
        lags.real += np.bincount(idx, weights=gram.real, minlength=m * half)
        lags.imag += np.bincount(idx, weights=gram.imag, minlength=m * half)
    power = np.fft.hfft(np.fft.fft(lags.reshape(m, half), axis=0), n=n, axis=1).T
    np.sqrt(np.maximum(power, 0.0, out=power), out=power)
    vel_res = SPEED_OF_LIGHT / (2.0 * m * radio.pri_s * radio.carrier_freq_hz)
    return FaMap(values=power, range_res_m=range_res_m, velocity_res_mps=vel_res)


def run_fa_pipeline(fa_meas, scene, schedule, num_targets, guard=1):
    """FA pipeline on the full-grid map, searching a C-order (range, velocity)
    copy of it by flat argmax."""
    radio = scene.radio
    famap = fa_range_doppler_map_full_grid(fa_meas, schedule, radio, scene.range_res_m)
    values = famap.values.copy()
    n_rng, m = values.shape
    values[:, np.abs(signed_bin(np.arange(m), m)) <= guard] = -np.inf
    arr = scene.array
    estimates = []
    for _ in range(num_targets):
        r_bin, v_bin = np.unravel_index(int(np.argmax(values)), values.shape)
        if not np.isfinite(values[r_bin, v_bin]):
            raise ValueError("run_fa_pipeline: map exhausted before K peaks")
        snap = fa_angle_snapshot(fa_meas, schedule, radio, int(r_bin), int(v_bin))
        spat = np.abs(np.fft.fft2(snap.reshape(arr.rx_rows, arr.rx_cols)))
        by, bx = np.unravel_index(int(np.argmax(spat)), spat.shape)
        lam = scene.wavelength_m
        sin_x = float(signed_bin(bx, arr.rx_cols)) * lam / (arr.rx_cols * arr.rx_spacing_x_m)
        sin_y = float(signed_bin(by, arr.rx_rows)) * lam / (arr.rx_rows * arr.rx_spacing_y_m)
        estimates.append(TargetEstimate(
            velocity_mps=famap.velocity(int(v_bin)),
            psi_x_rad=math.asin(max(-1.0, min(1.0, sin_x))),
            psi_y_rad=math.asin(max(-1.0, min(1.0, sin_y))),
            range_m=float(r_bin) * scene.range_res_m,
            amplitude=float(famap.values[r_bin, v_bin]),
            velocity_bin=int(signed_bin(v_bin, m)),
            angle_x_bin=int(signed_bin(bx, arr.rx_cols)),
            angle_y_bin=int(signed_bin(by, arr.rx_rows)),
            range_bin=int(r_bin), refinement="fft", method="mf", eps_mode="inf",
        ))
        for dr in (-1, 0, 1):
            for dv in (-1, 0, 1):
                if 0 <= r_bin + dr < n_rng:
                    values[r_bin + dr, (v_bin + dv) % m] = -np.inf
    return estimates


def fa_clutter_term(clutter, schedule, n):
    """FA clutter measurements (L x M) by an explicit (bins x M) ramp table."""
    bins = np.arange(clutter.num_range_bins)
    ramps = np.exp(-2j * np.pi * np.outer(bins, schedule.fa_subcarrier_indices) / n)
    return (clutter.chirp_tables[0].T @ ramps) * np.sqrt(schedule.per_symbol_power_w)


def build_clutter_map(scene):
    """Clutter tables by a transmit-slot x receive-element loop: one complex
    exp over every patch and two ``bincount`` scatters per (slot, element)."""
    cl = scene.clutter
    params = _resolve_params(scene)
    radio, arr = scene.radio, scene.array
    lam = scene.wavelength_m
    n_bins = radio.num_subcarriers
    dr = scene.range_res_m

    xs, ys = patch_grid(cl)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    x = gx.ravel()
    y = gy.ravel()
    h = cl.station_height_m
    r = np.sqrt(x * x + y * y + h * h)
    grazing = np.arcsin(h / r)
    sigma0 = gtri_reflectivity(grazing, params, lam)
    rcs = sigma0 * cl.cell_m**2
    amp = np.sqrt(radio.gain_tx * radio.gain_rx * lam**2 * rcs
                  / ((4.0 * np.pi) ** 3 * r**4))
    rng = rng_for(scene.seed, "clutter")
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
        area_y_m=cl.area_y_m, cell_m=cl.cell_m, station_height_m=h, seed=scene.seed,
    )


def va_assemble_scatter(per_slot, arr):
    """Virtual-array assembly by the general row scatter for any slot count,
    one slot included."""
    eta_x = arr.tx_cols if arr.va_enabled else 1
    eta_y = arr.tx_rows if arr.va_enabled else 1
    lx, ly = arr.rx_cols, arr.rx_rows
    slots = np.arange(eta_x * eta_y)
    rx = np.arange(lx * ly)
    target = (((slots // eta_x)[:, None] * ly + (rx // lx)[None, :]) * (eta_x * lx)
              + (slots % eta_x)[:, None] * lx + (rx % lx)[None, :])
    out = np.empty((target.size,) + np.shape(per_slot[0])[1:], dtype=np.result_type(*per_slot))
    for rows, block in zip(target, per_slot):
        out[rows] = block
    return out


def interleave_space_time(chirp_branch, n):
    """Element-major (L, W*N) chirp branch to the (W*L, N) snapshot: the W
    symbols' (L, N) blocks stacked vertically."""
    l, cols = chirp_branch.shape
    w = cols // n
    return chirp_branch.reshape(l, w, n).transpose(1, 0, 2).reshape(w * l, n)


def compensated_space_time(cube, scene, doppler_hz):
    """Chirp-branch space-time snapshot assembled per target: per occasion,
    each VA slot e > 0 rotated by exp(-j 2 pi f_d e PRI), one ``va_assemble``
    of (L, N) blocks per occasion, then the occasions concatenated
    element-major and interleaved. Returns (y_st, virtual receive geometry)."""
    schedule = cube.schedule
    slots = schedule.slots_per_chirp
    arr = scene.array.with_va(slots > 1)
    occasions = []
    for w in range(schedule.num_chirp_occasions):
        mats = []
        for e in range(slots):
            block = cube.chirp_symbol(w * slots + e)
            if slots > 1 and e:
                block = block * np.exp(-2j * np.pi * doppler_hz * e * scene.radio.pri_s)
            mats.append(block)
        assembled, geom = va_assemble(mats, arr)
        occasions.append(assembled)
    chirp = np.concatenate(occasions, axis=1)
    return interleave_space_time(chirp, scene.radio.num_subcarriers), geom


class FreshDraws:
    """``DropDraws`` without sharing: each call draws from a fresh
    ``rng_for(seed, label)``, and a cube's chirp noise block k holds the
    real and imaginary parts of the k-th :func:`complex_noise` draw of its
    own ``noise-chirp`` generator."""

    def __init__(self, seed):
        self.seed = seed

    def si_phases(self, num_elements):
        return np.exp(1j * rng_for(self.seed, "si").uniform(0.0, 2.0 * np.pi,
                                                           size=num_elements))

    def target_phase(self, t):
        key = (f"{t.range_m:.9e},{t.radial_velocity_mps:.9e},"
               f"{t.psi_x_rad:.9e},{t.psi_y_rad:.9e},{t.rcs_m2:.9e}")
        return float(rng_for(self.seed, "target-phase", key).uniform(0.0, 2.0 * np.pi))

    def uplink_direction(self, scene):
        rng = rng_for(self.seed, "uplink-direction")
        while True:
            sx, sy = rng.uniform(-0.7, 0.7, size=2)
            if sx * sx + sy * sy <= 1.0:
                break
        a = scene.array
        return library_ura_steering(sx, sy, a.rx_cols, a.rx_rows,
                                    a.rx_spacing_x_m, a.rx_spacing_y_m, scene.wavelength_m)

    def chirp_noise(self, scale, shape, count):
        rng = rng_for(self.seed, "noise-chirp")
        blocks = [complex_noise(rng, scale, shape) for _ in range(count)]
        return iter([np.stack([b.real, b.imag]) for b in blocks])


def chirp_branch_per_symbol(scene, schedule, clutter=None, seed=None):
    """Chirp branch built one symbol at a time: a zeroed (L, N) block per
    symbol with every target's beat tone recomputed, the complex noise of
    the cube's own ``noise-chirp`` generator added, and the blocks then
    concatenated element-major into (L, symbols * N)."""
    radio, arr, rec = scene.radio, scene.array, scene.receiver
    n, n_el = radio.num_subcarriers, arr.num_rx
    bw, t_sym = scene.bandwidth_hz, scene.symbol_duration_s
    draws = FreshDraws(scene.seed if seed is None else seed)
    si_phases = draws.si_phases(n_el)
    coeffs = [_target_coeff(scene, t, draws) for t in scene.targets]
    steers = [_rx_steering(scene, t) for t in scene.targets]
    noise_rng = rng_for(draws.seed, "noise-chirp")
    samples = np.arange(n)
    blocks = []
    for occ in schedule.va_slots:
        for slot_e, (pri, tx_a, tx_b) in enumerate(occ):
            p_slot = schedule.per_symbol_power_w[pri]
            block = np.zeros((n_el, n), dtype=complex)
            for t, h, a2d in zip(scene.targets, coeffs, steers):
                tau = t.delay_s()
                fd = t.doppler_hz(radio.carrier_freq_hz)
                beat = np.exp(2j * np.pi * (bw / t_sym) * tau * samples / bw)
                if rec.exact_within_symbol_doppler:
                    beat = beat * np.exp(2j * np.pi * fd * samples / bw)
                amp = (h * math.sqrt(p_slot) * _tx_slot_phase(scene, t, tx_a, tx_b)
                       * np.exp(2j * np.pi * fd * (pri * radio.pri_s - tau)))
                block += np.outer(a2d * amp, beat)
            if clutter is not None:
                block += math.sqrt(p_slot) * clutter.chirp_spectra(n)[slot_e]
            si_amp = math.sqrt(p_slot * 10.0 ** (-radio.si_attenuation_db / 10.0))
            block += si_amp * si_phases[:, None]
            block += complex_noise(noise_rng, math.sqrt(radio.noise_density_w_per_hz * bw),
                                   (n_el, n))
            block -= block.mean(axis=1, keepdims=True)
            if rec.residual_dc_db is not None:
                block += si_amp * si_phases[:, None] * 10.0 ** (-rec.residual_dc_db / 20.0)
            blocks.append(block)
    return np.concatenate(blocks, axis=1) if blocks else np.zeros((n_el, 0), dtype=complex)


def tone_branch_unfused(scene, schedule, clutter=None):
    """Noiseless tone branch at sample level (L x num_tone_pris*N), for
    checking the fused integrate-and-hold against explicit column sums."""
    radio, rec = scene.radio, scene.receiver
    n = radio.num_subcarriers
    n_el = scene.array.num_rx
    tone_pris = schedule.tone_pri_indices()
    out = np.zeros((n_el, tone_pris.size * n), dtype=complex)
    samples = np.arange(n)
    seed = scene.seed
    for col, pri in enumerate(tone_pris):
        p = schedule.per_symbol_power_w[pri]
        t_ref = pri * radio.pri_s
        cell = np.zeros((n_el, n), dtype=complex)
        for t in scene.targets:
            tau = t.delay_s()
            fd = t.doppler_hz(radio.carrier_freq_hz)
            a2d = _rx_steering(scene, t)
            h = _target_coeff(scene, t, FreshDraws(seed))
            phase = np.exp(2j * np.pi * radio.carrier_freq_hz * tau) \
                * np.exp(2j * np.pi * fd * (t_ref - tau))
            within = (np.exp(2j * np.pi * fd * samples / scene.bandwidth_hz)
                      if rec.exact_within_symbol_doppler else np.ones(n))
            cell += np.outer(a2d * (h * math.sqrt(p) * phase), within)
        if clutter is not None:
            cell += math.sqrt(p) * clutter.tone_vec[:, None] * np.ones(n)[None, :]
        out[:, col * n:(col + 1) * n] = cell
    return out


def psi_from_spherical(theta_rad, phi_rad):
    """Convert (azimuth theta, elevation phi) spherical angles to the
    per-axis (psi_x, psi_y) angles used internally."""
    sx = math.cos(phi_rad) * math.sin(theta_rad)
    sy = math.sin(phi_rad) * math.sin(theta_rad)
    return math.asin(sx), math.asin(sy)


def spherical_from_psi(psi_x_rad, psi_y_rad):
    """Inverse of :func:`psi_from_spherical`."""
    sx, sy = math.sin(psi_x_rad), math.sin(psi_y_rad)
    theta = math.asin(min(1.0, math.hypot(sx, sy)))
    phi = math.atan2(sy, sx)
    return theta, phi


def unshape_space_time(y_st: np.ndarray, num_elements: int) -> np.ndarray:
    """Inverse of :func:`mars_jcas.estimator.reshape_space_time` for
    ``num_elements`` rows per chirp occasion: the (W, L, N) symbol stack."""
    n = y_st.shape[1]
    return y_st.reshape(y_st.shape[0] // num_elements, num_elements, n)


def ofdm_time_samples(freq_coeffs: np.ndarray) -> np.ndarray:
    """Per-symbol OFDM synthesis sampled at rate B:
    x[k] = (1/sqrt(N)) * sum_n X[n] exp(j*2*pi*n*k/N)."""
    freq_coeffs = np.asarray(freq_coeffs)
    return np.fft.ifft(freq_coeffs) * math.sqrt(freq_coeffs.size)
