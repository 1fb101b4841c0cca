"""Reference implementations kept for the batched estimator paths.

These are the per-candidate forms the library used before range-stage
scoring and MUSIC candidate building were batched: one explicit
``matrix_rank`` + ``pinv`` (or ``inv``) per steering vector, one
``np.kron`` per URA steering vector and a Python list of MUSIC candidates.
Tests compare the library against them column by column. The FA
correlator map and FA clutter term are kept in their direct forms too: one
ramp multiply and FFT per element, and a ramp-table matmul.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from mars_jcas.estimator import (
    FaMap,
    _forward_backward,
    _music_scan,
    _noise_projector,
    epsilon_m,
)
from mars_jcas.scene import steering_from_sin


def steering_ura_from_sin(sin_psi_x, sin_psi_y, cols, rows, dx, dy, wavelength_m):
    """Scalar URA steering: y-axis ULA factor Kronecker-left of the x factor."""
    ax = steering_from_sin(sin_psi_x, cols, dx, wavelength_m)
    ay = steering_from_sin(sin_psi_y, rows, dy, wavelength_m)
    return np.kron(ay, ax)


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
    """MUSIC refinement with the spatial candidates built one point at a time."""
    l, m = y_e2.shape
    lam = SPEED_OF_LIGHT / radio.carrier_freq_hz
    e_s = _noise_projector(_forward_backward(y_e2 @ y_e2.conj().T / m), num_sources)
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
    e_st = _noise_projector(_forward_backward(y_e2.T @ y_e2.conj() / l), num_sources)
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


def fa_clutter_term(clutter, schedule, n):
    """FA clutter measurements (L x M) by an explicit (bins x M) ramp table."""
    bins = np.arange(clutter.num_range_bins)
    ramps = np.exp(-2j * np.pi * np.outer(bins, schedule.fa_subcarrier_indices) / n)
    return (clutter.chirp_tables[0].T @ ramps) * np.sqrt(schedule.per_symbol_power_w)
