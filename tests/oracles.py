"""Reference implementations kept for the batched estimator paths.

These are the per-candidate forms the library used before range-stage
scoring and MUSIC candidate building were batched: one explicit
``matrix_rank`` + ``pinv`` (or ``inv``) per steering vector, one
``np.kron`` per URA steering vector and a Python list of MUSIC candidates.
Tests compare the library against them column by column. The batched STAP
and STHP range spectra are kept as they were before the two shared one
whitening core, with STHP's temporal weights as a ``pinv`` row. The FA
correlator map and FA clutter term are kept in their direct forms too: one
ramp multiply and FFT per element, and a ramp-table matmul; so are the
full-grid Gram form of the FA map with its per-call lag cells, the
half-grid form with a zeroed grid, two ``bincount`` passes and numpy's
``hfft``, the Gram form with its real transform into a new array rather
than over the lag grid, the FA peak search on a transposed copy of the
map, STTE's peak loop as it was before both chains shared one greedy
search, the clutter map, built by a transmit-slot x receive-element loop
and, for exact
comparison, with every per-patch array held for the whole grid (the
build before it streamed chunks over the patch order), and once more with
the float64 complex exponentials the build took for its patch phasors and
tone carrier before it took them from float32 angles, the steering phase
powers with their step a float64 complex ``exp`` (before the build wrote
it from float64 ``cos`` and ``sin``), the general VA row
scatter (one slot included), the per-target chirp-branch assembly that the
pipeline front end replaced (on the element-major (L, W*N) chirp layout,
with its occasion interleave, and each VA slot's rows rotated back by the
target's Doppler, which the range stage's steering now carries), the
space-time steering built from the geometry, schedule and radio, with
STAP's steering composed from it as the range stage first did (rows
gathered into snapshot order, then each row's slot phase), and the
chirp branch synthesized one symbol at a time with complex noise and a
final concatenation into that layout. Scoring is kept as it was with the
grid wrap written twice: the matching distance from numpy bin differences,
and the matched pair's offsets computed again for its record.
``complex_noise`` states the receiver noise draw whole, by Box–Muller on
the full arrays, and MUSIC is kept as it was before it took each signal
subspace from one SVD of the forward-backward data matrix: the covariance
averaged with its dense exchange-matrix products, and a full ``eigh``. The
loaded range-stage solve is kept as the Cholesky factor and solve it was
before the library dropped scipy.
``FreshDraws`` makes every random draw of a cube afresh, as each cube did
before a drop's cubes shared one ``DropDraws``.
The last section holds forms that only tests use: the sample-level tone
branch and its column compression, the spherical angle conversions, the inverse space-time reshape,
OFDM synthesis and analysis, and the chirp's samples with their time step
derived from the chirp rate, sqrt(N / mu) / N, as the library stepped
them before it took the radio's symbol time. ``pipeline_conflict`` and
``validate_plan`` are the pipeline and plan checks as they were before
``PipelineSpec`` and ``ExperimentPlan`` checked themselves when built:
``(key, reason)`` for a spec, and an explicit call on a plan that raises.
They read plain attributes, so they take specs no constructor accepts.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.linalg import cho_factor, cho_solve

from mars_jcas import clutter as library_clutter
from mars_jcas.channel import _rx_steering, _target_coeff, _tx_slot_phase
from mars_jcas.clutter import (
    ClutterMap,
    _carrier_cycles,
    _phase_powers,
    _phasors,
    gtri_reflectivity,
    patch_grid,
    terrain_params,
)
from mars_jcas.estimator import (
    CoarsePeak,
    TargetEstimate,
    _lag_cells,
    _loaded_solve,
    _music_scan,
    _quadratic_norms,
    epsilon_m,
    fa_angle_snapshot,
    signed_bin,
    temporal_steering,
    va_assemble,
)
from mars_jcas.harness import TargetRecord
from mars_jcas.scene import resolution_report, steering_from_sin
from mars_jcas.scene import steering_ura_from_sin as library_ura_steering
from mars_jcas.seeding import rng_for


def steering_ura_from_sin(sin_psi_x, sin_psi_y, cols, rows, dx, dy, wavelength_m):
    """Scalar URA steering: y-axis ULA factor Kronecker-left of the x factor."""
    ax = steering_from_sin(sin_psi_x, cols, dx, wavelength_m)
    ay = steering_from_sin(sin_psi_y, rows, dy, wavelength_m)
    return np.kron(ay, ax)


def complex_noise(rng, scale, shape):
    """Complex Gaussian noise of power ``scale**2`` by Box–Muller: one
    ``random`` call gives the uniforms u0, then u1, each of ``shape``; the
    radius scale·sqrt(-ln(1 - u0)) is float64 and the angle 2π·u1 is
    rounded to float32, whose cosine is the real part's factor and whose
    sine is the imaginary part's."""
    u0, u1 = rng.random((2,) + tuple(shape))
    radius = scale * np.sqrt(-np.log(1.0 - u0))
    theta = (2.0 * np.pi * u1).astype(np.float32)
    return radius * np.cos(theta) + 1j * (radius * np.sin(theta))


def forward_backward_dense(r):
    """Forward-backward average 0.5 (R + J conj(R) J) with the exchange
    matrix J applied by two dense matmuls."""
    j = np.eye(r.shape[0])[::-1]
    return 0.5 * (r + j @ r.conj() @ j)


def _noise_projector(r, num_sources):
    """Signal-subspace basis E_s from a full ``eigh`` of the covariance ``r``,
    with the rank rule max(dim, 8) eps lambda_max."""
    vals, vecs = np.linalg.eigh(r)
    tol = max(r.shape[0], 8) * np.finfo(float).eps * max(vals[-1], 0.0)
    rank = int(np.sum(vals > tol))
    if rank < num_sources + 1:
        raise ValueError(f"music_refine: covariance rank {rank} < K+1 = {num_sources + 1} "
                         "(degenerate snapshot set)")
    return vecs[:, -num_sources:]


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


def loaded_solve_cholesky(s_i, a, eps_mode, epsilon):
    """The range stage's solve before it dropped scipy: a Cholesky factor and
    solve when loaded, the library's ``eigh`` pseudo-inverse otherwise."""
    if epsilon is not None:
        eps = float(epsilon)
    else:
        eps = epsilon_m(s_i) if eps_mode == "em" else 0.0
    if eps == 0.0:
        return _loaded_solve(s_i, a, eps_mode, epsilon)
    return cho_solve(cho_factor(s_i + eps * np.eye(s_i.shape[0])), a)


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


def zero_forcing_weights_pinv(a_t):
    """STHP temporal weights as the first row of pinv([a_T, 1_W])."""
    return np.linalg.pinv(np.stack([a_t, np.ones(a_t.shape[0], dtype=complex)], axis=1))[0]


def sthp_range_spectrum(y_st, a_t, a_s, eps_mode="em", *, range_res_m=1.0,
                        epsilon: Optional[float] = None):
    """One spatial steering vector: (d, range_m, range_bin)."""
    w_dim, l_dim = a_t.shape[0], a_s.shape[0]
    y_s = np.tensordot(zero_forcing_weights_pinv(a_t), y_st.reshape(w_dim, l_dim, -1), axes=1)
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


def stap_range_spectrum_batched(y_st, a, eps_mode):
    """The batched STAP range stage before STAP and STHP shared one
    whitening core: one covariance and solve for all (W*L, C) columns.
    Returns the (C, N) spectra and their argmax bins."""
    if eps_mode == "inf":
        wa = a
        den = np.einsum("ij,ij->j", a.conj(), a).real
    else:
        wa = _loaded_solve(y_st @ y_st.conj().T / y_st.shape[1], a, eps_mode, None)
        den = _quadratic_norms(a, wa, "stap_range_spectrum")
    d = np.fft.fft(wa.conj().T @ y_st, axis=1) / den[:, None]
    return d, np.argmax(np.abs(d), axis=1)


def sthp_range_spectrum_batched(y_st, a_t, a, eps_mode):
    """The batched STHP range stage before the shared whitening core: pinv
    temporal weights, then (L, C) spatial weights normalised before the
    range FFT. Returns the (C, N) spectra and their argmax bins."""
    w_dim, l_dim = a_t.shape[0], a.shape[0]
    y_s = np.tensordot(zero_forcing_weights_pinv(a_t), y_st.reshape(w_dim, l_dim, -1), axes=1)
    if eps_mode == "inf":
        w_s = a.conj() / np.sqrt(np.einsum("ij,ij->j", a.conj(), a).real)
    else:
        qa = _loaded_solve(y_s @ y_s.conj().T / y_s.shape[1], a, eps_mode, None)
        w_s = qa.conj() / np.sqrt(np.abs(_quadratic_norms(a, qa, "sthp_range_spectrum")))
    d = np.fft.fft(w_s.T @ y_s, axis=1)
    return d, np.argmax(np.abs(d), axis=1)


def music_refine(y_e2, coarse, arr, radio, num_sources=1, factor=10):
    """MUSIC refinement with the spatial candidates built one point at a time
    and the dense forward-backward covariance with its full ``eigh``."""
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
    vel_res = SPEED_OF_LIGHT / (2.0 * radio.cpi_s * radio.carrier_freq_hz)
    vels = coarse.velocity_mps + steps * vel_res
    t_m = np.arange(m) * radio.pri_s
    cand_t = np.exp(2j * np.pi * (2.0 * vels[None, :] * radio.carrier_freq_hz
                                  / SPEED_OF_LIGHT) * t_m[:, None])
    vel = float(vels[_music_scan(e_st, cand_t)])
    return vel, math.asin(float(gx.ravel()[best])), math.asin(float(gy.ravel()[best]))


def fa_range_doppler_map(fa_meas, schedule, radio):
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
    return power


def fa_range_doppler_map_full_grid(fa_meas, schedule, radio):
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
    return power


def fa_range_doppler_map_half_grid(fa_meas, schedule, radio):
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
    power = np.fft.hfft(np.fft.fft(lags.reshape(m, half), axis=0), n=n, axis=1)
    return power


def fa_range_doppler_map_out_of_place(fa_meas, schedule, radio):
    """The library's FA map before its real transform wrote over the lag
    grid: the conjugate Gram scattered block by block onto the cached lag
    cells, the Doppler transform in place, then one ``irfft`` of the whole
    grid into a new (M, N) array."""
    sub = schedule.fa_subcarrier_indices
    m = fa_meas.shape[1]
    n = radio.num_subcarriers
    conj = fa_meas.conj()
    grid = None
    for block, keep, slots in _lag_cells(m, n, np.asarray(sub, dtype=np.intp).tobytes()):
        gram = (conj[:, block].T @ fa_meas).view(float).ravel()[keep]
        part = np.bincount(slots, weights=gram, minlength=2 * m * (n // 2 + 1))
        grid = part if grid is None else np.add(grid, part, out=grid)
    grid = grid.view(complex).reshape(m, -1)
    np.fft.ifft(grid, axis=0, norm="forward", out=grid)
    power = np.fft.irfft(grid, n=n, axis=1, norm="forward")
    return power


def fa_magnitudes(power):
    """(N range, M velocity) magnitudes sqrt(max(p, 0)) of an (M, N) FA
    power grid."""
    return np.sqrt(np.maximum(power, 0.0)).T


def fa_peak_search(power, num_targets, guard=1):
    """Greedy peaks of an (N range, M velocity) copy of an FA power grid, by
    argmax of the copy flattened column by column, so that of equal powers
    the first in (velocity, range) order, the grid's memory order, wins:
    (range bin, velocity bin, magnitude sqrt(max(p, 0))) each, with the
    guard's velocity bins and each peak's 3 x 3 neighbourhood, wrapped in
    velocity and clipped in range, masked to -inf."""
    power = power.copy()
    n_rng, m = power.shape
    power[:, np.abs(signed_bin(np.arange(m), m)) <= guard] = -np.inf
    peaks = []
    for _ in range(num_targets):
        r_bin, v_bin = np.unravel_index(int(np.argmax(power.ravel(order="F"))), power.shape,
                                        order="F")
        if not np.isfinite(power[r_bin, v_bin]):
            raise ValueError(f"run_fa_pipeline: only {len(peaks)} extractable maxima, "
                             f"requested {num_targets}")
        peaks.append((int(r_bin), int(v_bin), float(fa_magnitudes(power[r_bin, v_bin]))))
        for dr in (-1, 0, 1):
            for dv in (-1, 0, 1):
                if 0 <= r_bin + dr < n_rng:
                    power[r_bin + dr, (v_bin + dv) % m] = -np.inf
    return peaks


def stte_peaks(avmap, k, guard=1):
    """STTE's greedy coarse peaks as a loop of their own: flat argmax of a
    copy of the map, the +-guard zero-velocity band and each peak's 3 x 3 x 3
    neighbourhood, wrapped on every axis, masked to -inf."""
    if k < 1:
        raise ValueError("stte_peaks: k must be >= 1")
    values = avmap.values.copy()
    nx, ny, nv = values.shape
    vel_signed = np.abs(signed_bin(np.arange(nv), nv))
    values[:, :, vel_signed <= guard] = -np.inf
    peaks = []
    for _ in range(k):
        bx, by, bv = np.unravel_index(int(np.argmax(values)), values.shape)
        if not np.isfinite(values[bx, by, bv]):
            raise ValueError(f"stte_peaks: only {len(peaks)} extractable maxima, "
                             f"requested {k}")
        peaks.append(CoarsePeak(sin_psi_x=avmap.sin_x(bx), sin_psi_y=avmap.sin_y(by),
                                velocity_mps=avmap.velocity(bv)))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                values[(bx + dx) % nx, (by + dy) % ny,
                       [(bv - 1) % nv, bv, (bv + 1) % nv]] = -np.inf
    return peaks


def run_fa_pipeline(fa_meas, scene, schedule, num_targets, guard=1):
    """FA pipeline on the full-grid map, searching a transposed copy of its
    powers (:func:`fa_peak_search`)."""
    radio = scene.radio
    power = fa_range_doppler_map_full_grid(fa_meas, schedule, radio).T
    m = power.shape[1]
    vel_res = SPEED_OF_LIGHT / (2.0 * radio.cpi_s * radio.carrier_freq_hz)
    arr = scene.array
    estimates = []
    for r_bin, v_bin, amplitude in fa_peak_search(power, num_targets, guard):
        snap = fa_angle_snapshot(fa_meas, schedule, radio, r_bin, v_bin)
        spat = np.abs(np.fft.fft2(snap.reshape(arr.rx_rows, arr.rx_cols)))
        by, bx = np.unravel_index(int(np.argmax(spat)), spat.shape)
        lam = scene.radio.wavelength_m
        sin_x = float(signed_bin(bx, arr.rx_cols)) * lam / (arr.rx_cols * arr.rx_spacing_x_m)
        sin_y = float(signed_bin(by, arr.rx_rows)) * lam / (arr.rx_rows * arr.rx_spacing_y_m)
        estimates.append(TargetEstimate(
            velocity_mps=float(signed_bin(v_bin, m) * vel_res),
            psi_x_rad=math.asin(max(-1.0, min(1.0, sin_x))),
            psi_y_rad=math.asin(max(-1.0, min(1.0, sin_y))),
            range_m=float(r_bin) * scene.radio.range_res_m,
            amplitude=amplitude,
            velocity_bin=int(signed_bin(v_bin, m)),
            angle_x_bin=int(signed_bin(bx, arr.rx_cols)),
            angle_y_bin=int(signed_bin(by, arr.rx_rows)),
            range_bin=r_bin,
        ))
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
    params = terrain_params(scene)
    radio, arr = scene.radio, scene.array
    lam = scene.radio.wavelength_m
    n_bins = radio.num_subcarriers
    dr = scene.radio.range_res_m

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
    coeff = amp * _phasors(phase)

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
    tone_carrier = _phasors(2.0 * np.pi * _carrier_cycles(r, radio.carrier_freq_hz))
    for s, (txx, txy) in enumerate(tx_pos):
        for l in range(n_el):
            w = coeff * np.exp(1j * wavenum * (sin_x * (ex[l] + txx) + sin_y * (ey[l] + txy)))
            tables[s, :, l] = (np.bincount(bins, weights=w.real, minlength=n_bins)
                               + 1j * np.bincount(bins, weights=w.imag, minlength=n_bins))
            if s == 0:
                tone[l] = np.sum(w * tone_carrier)

    return ClutterMap(chirp_tables=tables, tone_vec=tone, range_res_m=dr,
                      patch_count=int(r.size))


def build_clutter_map_full_grid(scene):
    """Clutter tables as the library built them before the streamed pass and
    before mirror pairs (one product column per patch, not per pair):
    meshgrid, range, phase and bins for the whole grid, the kept patches
    sorted by an int64 bin key, then every per-patch quantity at full size
    before the chunked virtual-array accumulation."""
    cl, radio, arr = scene.clutter, scene.radio, scene.array
    params = terrain_params(scene)
    lam = scene.radio.wavelength_m
    n_bins = radio.num_subcarriers
    xs, ys = patch_grid(cl)
    x, y = (g.ravel() for g in np.meshgrid(xs, ys, indexing="ij"))
    h = cl.station_height_m
    r = np.sqrt(x * x + y * y + h * h)
    phase = rng_for(scene.seed, "clutter").uniform(0.0, 2.0 * np.pi, size=r.size)
    bins = np.rint(r / scene.radio.range_res_m).astype(int)
    kept = np.flatnonzero(bins < n_bins)
    kept = kept[np.argsort(bins[kept], kind="stable")]
    x, r, phase, bins = x[kept], r[kept], phase[kept], bins[kept]
    grazing = np.arcsin(h / r)
    sigma0 = gtri_reflectivity(grazing, params, lam)
    rcs = sigma0 * cl.cell_m**2
    amp = np.sqrt(radio.gain_tx * radio.gain_rx * lam**2 * rcs
                  / ((4.0 * np.pi) ** 3 * r**4))
    coeff = amp * _phasors(phase)

    wavenum = 2.0 * np.pi / lam
    cols, rows = arr.va_cols, arr.va_rows
    virtual = np.zeros((n_bins, rows, cols), dtype=complex)
    tone = np.zeros((arr.rx_rows, arr.rx_cols), dtype=complex)
    chunk = library_clutter.CHUNK_PATCHES
    for lo in range(0, r.size, chunk):
        part = slice(lo, lo + chunk)
        px = _phase_powers(wavenum * arr.rx_spacing_x_m * x[part] / r[part], cols)
        py = _phase_powers(-wavenum * arr.rx_spacing_y_m * h / r[part], rows) * coeff[part]
        tone_carrier = _phasors(2.0 * np.pi * _carrier_cycles(r[part], radio.carrier_freq_hz))
        tone += (py[:arr.rx_rows] * tone_carrier) @ px[:arr.rx_cols].T
        b = bins[part]
        starts = np.flatnonzero(np.diff(b, prepend=-1))
        for s, e in zip(starts, np.append(starts[1:], b.size)):
            virtual[b[s]] += py[:, s:e] @ px[:, s:e].T

    slot_rows, slot_cols = rows // arr.rx_rows, cols // arr.rx_cols
    tables = (virtual.reshape(n_bins, slot_rows, arr.rx_rows, slot_cols, arr.rx_cols)
              .transpose(1, 3, 0, 2, 4).reshape(slot_rows * slot_cols, n_bins, arr.num_rx))
    return ClutterMap(chirp_tables=tables, tone_vec=tone.ravel(),
                      range_res_m=scene.radio.range_res_m, patch_count=int(r.size))


def build_clutter_map_pairs(scene):
    """Clutter tables as the library sums them, on one thread and with every
    per-pair array held for the whole grid at once: the x >= 0 half of the
    grid, each patch paired with its mirror at -x (the centre column of an
    odd nx with itself, its twin's coefficient 0), the kept pairs sorted by
    an int64 bin key, then windows of CHUNK_PATCHES pairs adding each bin's
    ``py @ u.T`` over its pairs, ``u = c_p px + c_q conj(px)``. Each
    patch's random phasor and each pair's tone carrier come from the
    library's float32 ``_phasors``, the carrier's cycles reduced first."""
    return _clutter_map_pairs(scene, _phasors, lambda r, f_c: _phasors(
        2.0 * np.pi * _carrier_cycles(r, f_c)))


def build_clutter_map_pairs_float64(scene):
    """The pairs build of :func:`build_clutter_map_pairs` with every phasor
    a float64 complex exponential, as the library made them before it took
    the patch phasors and the tone carrier from float32 angles."""
    return _clutter_map_pairs(scene, lambda phase: np.exp(1j * phase), lambda r, f_c: np.exp(
        2j * np.pi * f_c * (2.0 * r / SPEED_OF_LIGHT)))


def phase_powers_exp(phase, n):
    """``exp(1j * k * phase)`` for k = 0..n-1, one row per k, each power the
    last times the step ``np.exp(1j * phase)``, the library's step before
    it wrote the step from float64 ``cos`` and ``sin``."""
    powers = np.empty((n, phase.size), dtype=complex)
    powers[0] = 1.0
    step = np.exp(1j * phase)
    for k in range(1, n):
        np.multiply(powers[k - 1], step, out=powers[k])
    return powers


def _clutter_map_pairs(scene, patch_phasor, tone_carrier):
    """The pairs build with ``patch_phasor(phase)`` for each patch's random
    phasor and ``tone_carrier(r, carrier_freq_hz)`` for each pair's."""
    cl, radio, arr = scene.clutter, scene.radio, scene.array
    params = terrain_params(scene)
    lam = radio.wavelength_m
    n_bins = radio.num_subcarriers
    xs, ys = patch_grid(cl)
    nx, ny = xs.size, ys.size
    phase = rng_for(scene.seed, "clutter").uniform(0.0, 2.0 * np.pi, size=nx * ny)
    phase = phase.reshape(nx, ny)
    column = np.arange(nx // 2, nx)
    mirror = nx - 1 - column
    x, y = (g.ravel() for g in np.meshgrid(xs[column], ys, indexing="ij"))
    h = cl.station_height_m
    r = np.sqrt(x * x + y * y + h * h)
    bins = np.rint(r / radio.range_res_m).astype(int)
    kept = np.flatnonzero(bins < n_bins)
    kept = kept[np.argsort(bins[kept], kind="stable")]
    x, r, bins = x[kept], r[kept], bins[kept]
    phase_p, phase_q = phase[column].ravel()[kept], phase[mirror].ravel()[kept]
    alone = np.repeat(column == mirror, ny)[kept]
    grazing = np.arcsin(h / r)
    sigma0 = gtri_reflectivity(grazing, params, lam)
    rcs = sigma0 * cl.cell_m**2
    amp = np.sqrt(radio.gain_tx * radio.gain_rx * lam**2 * rcs
                  / ((4.0 * np.pi) ** 3 * r**4))
    c_p = amp * patch_phasor(phase_p)
    c_q = np.where(alone, 0.0, amp * patch_phasor(phase_q))

    wavenum = 2.0 * np.pi / lam
    cols, rows = arr.va_cols, arr.va_rows
    virtual = np.zeros((n_bins, rows, cols), dtype=complex)
    tone = np.zeros((arr.rx_rows, arr.rx_cols), dtype=complex)
    chunk = library_clutter.CHUNK_PATCHES
    for lo in range(0, r.size, chunk):
        part = slice(lo, lo + chunk)
        px = _phase_powers(wavenum * arr.rx_spacing_x_m * x[part] / r[part], cols)
        u = px * c_p[part] + np.conj(px) * c_q[part]
        py = _phase_powers(-wavenum * arr.rx_spacing_y_m * h / r[part], rows)
        carrier = tone_carrier(r[part], radio.carrier_freq_hz)
        tone += (py[:arr.rx_rows] * carrier) @ u[:arr.rx_cols].T
        b = bins[part]
        starts = np.flatnonzero(np.diff(b, prepend=-1))
        for s, e in zip(starts, np.append(starts[1:], b.size)):
            virtual[b[s]] += py[:, s:e] @ u[:, s:e].T

    slot_rows, slot_cols = rows // arr.rx_rows, cols // arr.rx_cols
    tables = (virtual.reshape(n_bins, slot_rows, arr.rx_rows, slot_cols, arr.rx_cols)
              .transpose(1, 3, 0, 2, 4).reshape(slot_rows * slot_cols, n_bins, arr.num_rx))
    return ClutterMap(chirp_tables=tables, tone_vec=tone.ravel(), range_res_m=radio.range_res_m,
                      patch_count=2 * r.size - int(np.count_nonzero(alone)))


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


def space_time_steering(velocity_mps, sin_psi_x, sin_psi_y, arr, schedule, radio):
    """Temporal Doppler factor Kronecker-left of the spatial URA steering on
    ``arr``'s aperture: (W*L,), or one column per sin-angle pair, (W*L, C)."""
    a_2d = library_ura_steering(sin_psi_x, sin_psi_y, arr, radio.wavelength_m)
    a_t = temporal_steering(velocity_mps, schedule, radio)
    return (a_t.reshape(a_t.shape + (1,) * a_2d.ndim) * a_2d).reshape((-1,) + a_2d.shape[1:])


def stap_row_steering(velocity_mps, sin_psi_x, sin_psi_y, front, scene):
    """STAP's steering of a front end's snapshot rows, composed from the
    geometry: the space-time steering on ``front.geom``, its rows gathered
    into snapshot order per occasion, then times each row's VA slot phase."""
    radio, rows = scene.radio, front.virtual_row
    a_st = space_time_steering(velocity_mps, sin_psi_x, sin_psi_y, front.geom,
                               front.schedule, radio)
    row_slot = np.arange(rows.size) // scene.array.num_rx
    slot_phase = np.exp(2j * np.pi * radio.doppler_hz(velocity_mps) * row_slot
                        * radio.pri_s)[:, None]
    gathered = a_st.reshape(-1, rows.size, np.size(sin_psi_x))[:, rows]
    return (gathered * slot_phase).reshape(a_st.shape)


def compensated_space_time(cube, scene, doppler_hz):
    """Chirp-branch space-time snapshot assembled per target: per occasion,
    each VA slot e > 0 rotated by exp(-j 2 pi f_d e PRI), one ``va_assemble``
    of (L, N) blocks per occasion, then the occasions concatenated
    element-major and interleaved. Returns (y_st, the geometry whose aperture
    the rows follow)."""
    schedule = cube.schedule
    slots = schedule.slots_per_chirp
    arr = scene.array.with_va(slots > 1)
    occasions = []
    for w in range(schedule.num_chirp_occasions):
        mats = []
        for e in range(slots):
            block = cube.chirp_branch[w * slots + e]
            if slots > 1 and e:
                block = block * np.exp(-2j * np.pi * doppler_hz * e * scene.radio.pri_s)
            mats.append(block)
        occasions.append(va_assemble(mats, arr))
    chirp = np.concatenate(occasions, axis=1)
    return interleave_space_time(chirp, scene.radio.num_subcarriers), arr


class FreshDraws:
    """``DropDraws`` without sharing or a helper thread: each call draws
    from a fresh ``rng_for(seed, label)``, and a cube's chirp noise block k
    holds the real and imaginary parts of one :func:`complex_noise` draw of
    a fresh ``rng_for(seed, "noise-chirp", k)``."""

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
        return library_ura_steering(sx, sy, scene.array.with_va(False),
                                    scene.radio.wavelength_m)

    def chirp_noise(self, scale, shape, count):
        blocks = [complex_noise(rng_for(self.seed, "noise-chirp", k), scale, shape)
                  for k in range(count)]
        return iter([np.stack([b.real, b.imag]) for b in blocks])


def chirp_branch_per_symbol(scene, schedule, clutter=None, seed=None):
    """Chirp branch built one symbol at a time: a zeroed (L, N) block per
    symbol with every target's beat tone recomputed, the complex noise of
    the symbol's own ``noise-chirp`` generator added, and the blocks then
    concatenated element-major into (L, symbols * N)."""
    radio, arr, rec = scene.radio, scene.array, scene.receiver
    n, n_el = radio.num_subcarriers, arr.num_rx
    bw, t_sym = scene.radio.derived_bandwidth_hz, scene.radio.derived_symbol_duration_s
    draws = FreshDraws(scene.seed if seed is None else seed)
    si_phases = draws.si_phases(n_el)
    coeffs = [_target_coeff(scene, t, draws) for t in scene.targets]
    steers = [_rx_steering(scene, t) for t in scene.targets]
    samples = np.arange(n)
    blocks = []
    for occ in schedule.va_slots:
        for slot_e, (pri, tx_a, tx_b) in enumerate(occ):
            p_slot = schedule.per_symbol_power_w[pri]
            block = np.zeros((n_el, n), dtype=complex)
            for t, h, a2d in zip(scene.targets, coeffs, steers):
                tau = t.delay_s()
                fd = radio.doppler_hz(t.radial_velocity_mps)
                beat = np.exp(2j * np.pi * (bw / t_sym) * tau * samples / bw)
                if rec.exact_within_symbol_doppler:
                    beat = beat * np.exp(2j * np.pi * fd * samples / bw)
                amp = (h * math.sqrt(p_slot) * _tx_slot_phase(scene, t, tx_a, tx_b)
                       * np.exp(2j * np.pi * fd * (pri * radio.pri_s - tau)))
                block += np.outer(a2d * amp, beat)
            if clutter is not None:
                block += math.sqrt(p_slot) * clutter.chirp_spectra[slot_e]
            si_amp = math.sqrt(p_slot * 10.0 ** (-radio.si_attenuation_db / 10.0))
            block += si_amp * si_phases[:, None]
            block += complex_noise(rng_for(draws.seed, "noise-chirp", len(blocks)),
                                   math.sqrt(radio.noise_density_w_per_hz * bw), (n_el, n))
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
            fd = radio.doppler_hz(t.radial_velocity_mps)
            a2d = _rx_steering(scene, t)
            h = _target_coeff(scene, t, FreshDraws(seed))
            phase = np.exp(2j * np.pi * radio.carrier_freq_hz * tau) \
                * np.exp(2j * np.pi * fd * (t_ref - tau))
            within = (np.exp(2j * np.pi * fd * samples / scene.radio.derived_bandwidth_hz)
                      if rec.exact_within_symbol_doppler else np.ones(n))
            cell += np.outer(a2d * (h * math.sqrt(p) * phase), within)
        if clutter is not None:
            cell += math.sqrt(p) * clutter.tone_vec[:, None] * np.ones(n)[None, :]
        out[:, col * n:(col + 1) * n] = cell
    return out


def _wrap(delta, period):
    return delta - period * round(delta / period)


def _bins(range_m, velocity_mps, sin_x, sin_y, res):
    return (round(range_m / res.range_res_m), round(velocity_mps / res.velocity_res_mps),
            round(sin_x / res.sin_angle_res_x), round(sin_y / res.sin_angle_res_y))


def score_estimates(truths, estimates, scene, pipeline_tag, drop_index, sweep_value):
    res = resolution_report(scene.radio, scene.array.with_va(False))
    m, nx, ny = scene.radio.num_pri, scene.array.rx_cols, scene.array.rx_rows
    periods = (None, m, nx, ny)
    truth_bins = [_bins(t.range_m, t.radial_velocity_mps, t.sin_psi_x, t.sin_psi_y, res)
                  for t in truths]
    est_bins = [_bins(e.range_m, e.velocity_mps, e.sin_psi_x, e.sin_psi_y, res)
                for e in estimates]
    pairs = []
    for i, tb in enumerate(truth_bins):
        for j, eb in enumerate(est_bins):
            dist = 0.0
            for per, db in zip(periods, np.subtract(eb, tb)):
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
        if i not in match:
            records.append(TargetRecord(pipeline_tag, drop_index, sweep_value, t, None,
                                        (0, 0, 0, 0), (0.0, 0.0, 0.0, 0.0), False))
            continue
        e = estimates[match[i]]
        tb, eb = truth_bins[i], est_bins[match[i]]
        offs = (eb[0] - tb[0], int(_wrap(eb[1] - tb[1], m)),
                int(_wrap(eb[2] - tb[2], nx)), int(_wrap(eb[3] - tb[3], ny)))
        errs = (
            (e.range_m - t.range_m) / res.range_res_m,
            _wrap(e.velocity_mps - t.radial_velocity_mps, m * res.velocity_res_mps)
            / res.velocity_res_mps,
            _wrap(e.sin_psi_x - t.sin_psi_x, nx * res.sin_angle_res_x) / res.sin_angle_res_x,
            _wrap(e.sin_psi_y - t.sin_psi_y, ny * res.sin_angle_res_y) / res.sin_angle_res_y,
        )
        hit = all(abs(o) <= 1 for o in offs)
        records.append(TargetRecord(pipeline_tag, drop_index, sweep_value, t, e, offs, errs, hit))
    return records


def column_compress(tone_raw, n):
    """Sum every block of ``n`` raw columns into one (the digital equivalent
    of the analog integrate-and-hold)."""
    tone_raw = np.asarray(tone_raw)
    if tone_raw.ndim != 2 or tone_raw.shape[1] % n:
        raise ValueError(f"column_compress: column count {tone_raw.shape} "
                         f"not divisible by N={n}")
    l, cols = tone_raw.shape
    return tone_raw.reshape(l, cols // n, n).sum(axis=2)


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


def chirp_freq_coeffs(samples: np.ndarray) -> np.ndarray:
    """Frequency-domain OFDM data that regenerates ``samples``, the inverse
    of :func:`ofdm_time_samples`: X[n] = (1/sqrt(N)) * sum_k x[k] exp(-j*2*pi*n*k/N)."""
    samples = np.asarray(samples)
    return np.fft.fft(samples) / math.sqrt(samples.size)


def chirp_time_samples(radio) -> np.ndarray:
    """exp(j*pi*mu*(k*T/N)^2), k = 0..N-1, with mu = B / T_sym and the
    symbol time T recovered from the rate as sqrt(N / mu)."""
    n = radio.num_subcarriers
    mu = radio.derived_bandwidth_hz / radio.derived_symbol_duration_s
    k = np.arange(n, dtype=np.float64)
    step = math.sqrt(n / mu) / n
    return np.exp(1j * np.pi * mu * (k * step) ** 2)


# --- plan checks before construction-time validation --------------------------

_CHOICES = {"structure": ("comb", "lshape", "fa"), "suppressor": ("stap", "sthp", "mf"),
            "eps_mode": ("zero", "em", "inf"), "refinement": ("fft", "music")}
_FIXED = {("structure", "fa"): {"suppressor": "mf", "eps_mode": "inf",
                                "refinement": "fft", "va": False},
          ("suppressor", "mf"): {"eps_mode": "inf"}}


def pipeline_conflict(spec) -> Optional[tuple]:
    """(key, reason) for the first value the drop path would not run as
    given, else None."""
    for key, allowed in _CHOICES.items():
        if getattr(spec, key) not in allowed:
            return key, f"{getattr(spec, key)!r} is not one of {', '.join(allowed)}"
    for key, low in (("music_factor", 1), ("stte_guard", 0)):
        if getattr(spec, key) < low:
            return key, f"must be >= {low}, got {getattr(spec, key)}"
    for (key, value), fixed in _FIXED.items():
        for other, want in fixed.items():
            if getattr(spec, key) == value and getattr(spec, other) != want:
                return other, f"{key} {value} needs {want!r}, got {getattr(spec, other)!r}"
    if spec.structure == "lshape" and spec.suppressor == "sthp":
        return "suppressor", "lshape has one chirp occasion (W = 1); sthp needs W >= 2"
    return None


def validate_plan(plan):
    """Raise ValueError for the first rule ``plan`` breaks; return it otherwise."""
    if plan.scenario not in ("car", "uav", "custom"):
        raise ValueError(f"scenario must be car, uav or custom, got {plan.scenario!r}")
    if plan.num_drops < 0:
        raise ValueError("num_drops must be >= 0")
    if plan.target_count < 1:
        raise ValueError("target_count must be >= 1")
    if plan.sweep_axis not in ("range", "tx_power"):
        raise ValueError("sweep_axis must be 'range' or 'tx_power'")
    values = plan.sweep_values
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep_values must be sorted, each value once")
    if any(v <= 0 for v in plan.sweep_values):
        raise ValueError("sweep_values must be positive (watts or meters)")
    if plan.workers < 1:
        raise ValueError("workers must be >= 1")
    c = plan.custom
    for key, (low, high) in (("range_bounds_m", plan.range_bounds_m),
                             ("custom.range_m", c.range_m), ("custom.speed_mps", c.speed_mps),
                             ("custom.sin_psi_x", c.sin_psi_x),
                             ("custom.sin_psi_y", c.sin_psi_y)):
        # [0.0, -0.0] is reversed too: -0.0 sorts below 0.0.
        if low > high or (repr(low), repr(high)) == ("0.0", "-0.0"):
            raise ValueError(f"{key}: [low, high] needs low <= high, got {[low, high]}")
    if plan.azimuth_max_rad < 0:
        raise ValueError(f"azimuth_max_rad: must be >= 0, got {plan.azimuth_max_rad}")
    if c.rcs_m2 <= 0:
        raise ValueError(f"custom.rcs_m2: must be > 0, got {c.rcs_m2}")
    # The share of the box inside the disk, by the midpoint rule over 1024
    # columns of the chord each cuts from the disk (a side of zero length
    # is a line).
    (a, b), (lo, hi) = c.sin_psi_x, c.sin_psi_y
    x = a + (b - a) * (np.arange(1024) + 0.5) / 1024
    half = np.sqrt(1.0 - np.clip(x, -1.0, 1.0) ** 2)
    if hi > lo:
        cut = np.clip(np.minimum(hi, half) - np.maximum(lo, -half), 0.0, None) / (hi - lo)
    else:
        cut = np.abs(lo) <= half
    if np.mean(np.where(np.abs(x) <= 1.0, cut, 0.0)) < 1e-3:
        raise ValueError(f"custom.sin_psi_x, custom.sin_psi_y: the box {list(c.sin_psi_x)} "
                         f"x {list(c.sin_psi_y)} has less than a thousandth of its area "
                         "inside the unit disk")
    if not plan.pipelines:
        raise ValueError("pipelines: must list at least one pipeline")
    first = {}
    for i, p in enumerate(plan.pipelines):
        conflict = pipeline_conflict(p)
        if conflict:
            raise ValueError(f"pipelines[{i}].{conflict[0]}: {conflict[1]}")
        j = first.setdefault(p.tag, i)
        if j != i:
            raise ValueError(f"pipelines[{i}] repeats the tag {p.tag!r} of pipelines[{j}] "
                             "(stte_guard and music_factor are not part of it)")
    return plan
