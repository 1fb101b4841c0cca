"""Detection stack operations: tone-branch compression and expansion, the
angle-velocity map, coarse peak extraction (STTE), MUSIC refinement,
space-time reshaping and steering, adaptive / hierarchical / matched-filter
range spectra, the FA baseline correlator, and virtual-aperture assembly.

Everything treats its inputs as immutable. Results are new arrays, except
that a one-slot :func:`va_assemble` returns its block itself and
:func:`reshape_space_time` a view of a contiguous stack. Grids are
FFT-native and physical values derive from bin x resolution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.linalg import cho_factor, cho_solve

from .scene import ArrayGeometry, RadioParams, steering_ura_from_sin
from .waveform import MarsSchedule


def signed_bin(index, size: int):
    """Map raw FFT bin(s) to the signed convention (negative upper half)."""
    return ((np.asarray(index) + size // 2) % size) - size // 2


@dataclass(frozen=True, eq=False)
class AngleVelocityMap:
    """Magnitudes over (sin psi_x bin, sin psi_y bin, velocity bin) with the
    metadata to map bins back to physical values."""

    values: np.ndarray          # (cols, rows, M) real magnitudes
    sin_res_x: float
    sin_res_y: float
    velocity_res_mps: float

    @property
    def shape(self):
        return self.values.shape

    def sin_x(self, bin_x: int) -> float:
        return float(signed_bin(bin_x, self.values.shape[0]) * self.sin_res_x)

    def sin_y(self, bin_y: int) -> float:
        return float(signed_bin(bin_y, self.values.shape[1]) * self.sin_res_y)

    def velocity(self, bin_v: int) -> float:
        return float(signed_bin(bin_v, self.values.shape[2]) * self.velocity_res_mps)


@dataclass(frozen=True)
class CoarsePeak:
    """One STTE extraction from the angle-velocity map."""

    bin_x: int
    bin_y: int
    bin_v: int
    sin_psi_x: float
    sin_psi_y: float
    velocity_mps: float
    magnitude: float


@dataclass(frozen=True)
class TargetEstimate:
    velocity_mps: float
    psi_x_rad: float
    psi_y_rad: float
    range_m: float
    amplitude: float
    velocity_bin: int
    angle_x_bin: int
    angle_y_bin: int
    range_bin: int
    refinement: str = "fft"   # fft | music
    method: str = "stap"      # stap | sthp | mf
    eps_mode: str = "em"      # zero | em | inf | value

    @property
    def sin_psi_x(self) -> float:
        return math.sin(self.psi_x_rad)

    @property
    def sin_psi_y(self) -> float:
        return math.sin(self.psi_y_rad)


def column_compress(tone_raw: np.ndarray, n: int) -> np.ndarray:
    """Sum every block of ``n`` raw columns into one (the digital equivalent
    of the analog integrate-and-hold)."""
    tone_raw = np.asarray(tone_raw)
    if tone_raw.ndim != 2 or tone_raw.shape[1] % n:
        raise ValueError(f"column_compress: column count {tone_raw.shape} "
                         f"not divisible by N={n}")
    l, cols = tone_raw.shape
    return tone_raw.reshape(l, cols // n, n).sum(axis=2)


def expand_nn_indices(y_s2: np.ndarray, num_pri: int, chirp_pris: Sequence[int]) -> np.ndarray:
    """Nearest-preceding-neighbour expansion of the compressed tone branch
    to all ``num_pri`` columns; chirp PRIs copy the latest earlier tone PRI.

    With g(m) = |{chirp PRIs < m}| the source column is m - g(m) for tone
    PRIs and m - g(m) - 1 for chirp PRIs, which requires every chirp PRI
    index to be >= 1.
    """
    chirp = np.zeros(num_pri, dtype=bool)
    chirp_pris = np.asarray(list(chirp_pris), dtype=int)
    if chirp_pris.size and chirp_pris.min() < 1:
        raise ValueError("expand_nn: chirp PRI index 0 has no preceding neighbour")
    chirp[chirp_pris] = True
    expected = num_pri - int(chirp.sum())
    if y_s2.shape[1] != expected:
        raise ValueError(f"expand_nn: got {y_s2.shape[1]} compressed columns, "
                         f"expected {expected}")
    g = np.concatenate([[0], np.cumsum(chirp)[:-1]])
    src = np.arange(num_pri) - g - chirp.astype(int)
    return y_s2[:, src]


def expand_nn(y_s2: np.ndarray, schedule: MarsSchedule) -> np.ndarray:
    return expand_nn_indices(y_s2, schedule.num_pri, schedule.chirp_slot_pris())


def va_receive_geometry(arr: ArrayGeometry) -> ArrayGeometry:
    """Geometry of the assembled virtual receive array."""
    return ArrayGeometry(rx_cols=arr.va_cols, rx_rows=arr.va_rows,
                         rx_spacing_x_m=arr.rx_spacing_x_m,
                         rx_spacing_y_m=arr.rx_spacing_y_m)


def angle_velocity_map(y_e2: np.ndarray, arr: ArrayGeometry,
                       radio: RadioParams) -> AngleVelocityMap:
    """Space-domain 2D-FFT (equivalent to the Kronecker DFT synthesis
    matrix) plus a PRI-axis FFT. ``arr`` must describe the array the rows
    actually live on (pass :func:`va_receive_geometry` for assembled data).
    """
    rows = arr.rx_rows
    cols = arr.rx_cols
    if y_e2.shape[0] != rows * cols:
        raise ValueError(f"angle_velocity_map: {y_e2.shape[0]} rows not factorable "
                         f"as {cols} x {rows}")
    m = y_e2.shape[1]
    cube = y_e2.reshape(rows, cols, m)
    spectrum = np.fft.fft(np.fft.fft2(cube, axes=(0, 1)), axis=2)
    lam = SPEED_OF_LIGHT / radio.carrier_freq_hz
    return AngleVelocityMap(
        values=np.abs(spectrum).transpose(1, 0, 2),
        sin_res_x=lam / (cols * arr.rx_spacing_x_m),
        sin_res_y=lam / (rows * arr.rx_spacing_y_m),
        velocity_res_mps=SPEED_OF_LIGHT / (2.0 * m * radio.pri_s * radio.carrier_freq_hz),
    )


def stte_peaks(avmap: AngleVelocityMap, k: int, guard: int = 1) -> list:
    """Greedy extraction of the K largest map cells outside the +-guard
    zero-velocity band, each claiming a +-1-bin exclusion neighbourhood."""
    if k < 1:
        raise ValueError("stte_peaks: k must be >= 1")
    values = avmap.values.copy()
    nx, ny, nv = values.shape
    vel_signed = np.abs(signed_bin(np.arange(nv), nv))
    values[:, :, vel_signed <= guard] = -np.inf
    peaks = []
    for _ in range(k):
        flat = int(np.argmax(values))
        bx, by, bv = np.unravel_index(flat, values.shape)
        if not np.isfinite(values[bx, by, bv]):
            raise ValueError(f"stte_peaks: only {len(peaks)} extractable maxima, "
                             f"requested {k}")
        peaks.append(CoarsePeak(
            bin_x=int(bx), bin_y=int(by), bin_v=int(bv),
            sin_psi_x=avmap.sin_x(bx), sin_psi_y=avmap.sin_y(by),
            velocity_mps=avmap.velocity(bv),
            magnitude=float(avmap.values[bx, by, bv]),
        ))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                values[(bx + dx) % nx, (by + dy) % ny,
                       [(bv - 1) % nv, bv, (bv + 1) % nv]] = -np.inf
    return peaks


def _forward_backward(r: np.ndarray) -> np.ndarray:
    # J conj(R) J with the exchange matrix J is conj(R) with both axes reversed.
    return 0.5 * (r + r.conj()[::-1, ::-1])


def _noise_projector(r: np.ndarray, num_sources: int) -> np.ndarray:
    """Signal-subspace basis E_s; the pseudo-spectrum uses I - E_s E_s^H."""
    vals, vecs = np.linalg.eigh(r)
    tol = max(r.shape[0], 8) * np.finfo(float).eps * max(vals[-1], 0.0)
    rank = int(np.sum(vals > tol))
    if rank < num_sources + 1:
        raise ValueError(f"music_refine: covariance rank {rank} < K+1 = {num_sources + 1} "
                         "(degenerate snapshot set)")
    return vecs[:, -num_sources:]


def _music_scan(e_s: np.ndarray, candidates: np.ndarray) -> int:
    """Index of the candidate steering vector with the largest pseudo-spectrum
    1 / (a^H (I - E_s E_s^H) a)."""
    energy = np.sum(np.abs(candidates) ** 2, axis=0)
    proj = np.sum(np.abs(e_s.conj().T @ candidates) ** 2, axis=0)
    denom = np.maximum(energy - proj, np.finfo(float).tiny)
    return int(np.argmax(1.0 / denom))


def music_refine(y_e2: np.ndarray, coarse: CoarsePeak, arr: ArrayGeometry,
                 radio: RadioParams, num_sources: int = 1, factor: int = 10) -> tuple:
    """Super-resolution refinement of one coarse peak.

    Spatial MUSIC over the element dimension (columns as snapshots) scans a
    ``factor``-times-finer (sin psi_x, sin psi_y) grid within +-1 coarse bin;
    temporal MUSIC over the PRI dimension (element rows as snapshots) scans
    velocity the same way. Forward-backward averaging keeps the covariance
    usable with few effective snapshots. Returns (velocity, psi_x, psi_y).
    """
    if factor < 1:
        raise ValueError("music_refine: factor must be >= 1")
    l, m = y_e2.shape
    lam = SPEED_OF_LIGHT / radio.carrier_freq_hz

    r_sp = _forward_backward(y_e2 @ y_e2.conj().T / m)
    e_s = _noise_projector(r_sp, num_sources)
    avm_res_x = lam / (arr.rx_cols * arr.rx_spacing_x_m)
    avm_res_y = lam / (arr.rx_rows * arr.rx_spacing_y_m)
    steps = np.linspace(-1.0, 1.0, 2 * factor + 1)
    sx = np.clip(coarse.sin_psi_x + steps * avm_res_x, -1.0, 1.0)
    sy = np.clip(coarse.sin_psi_y + steps * avm_res_y, -1.0, 1.0)
    gx, gy = np.meshgrid(sx, sy, indexing="ij")
    cand = steering_ura_from_sin(gx.ravel(), gy.ravel(), arr.rx_cols, arr.rx_rows,
                                 arr.rx_spacing_x_m, arr.rx_spacing_y_m, lam)
    best = _music_scan(e_s, cand)
    sin_x = float(gx.ravel()[best])
    sin_y = float(gy.ravel()[best])

    r_t = _forward_backward(y_e2.T @ y_e2.conj() / l)
    e_st = _noise_projector(r_t, num_sources)
    vel_res = SPEED_OF_LIGHT / (2.0 * m * radio.pri_s * radio.carrier_freq_hz)
    vels = coarse.velocity_mps + steps * vel_res
    t_m = np.arange(m) * radio.pri_s
    cand_t = np.exp(2j * np.pi * (2.0 * vels[None, :] * radio.carrier_freq_hz
                                  / SPEED_OF_LIGHT) * t_m[:, None])
    vel = float(vels[_music_scan(e_st, cand_t)])
    return vel, math.asin(sin_x), math.asin(sin_y)


def reshape_space_time(symbols: np.ndarray, n: int) -> np.ndarray:
    """Stack W chirp symbols' (L, N) blocks, given symbol-major as (W, L, N),
    vertically into the (W*L, N) snapshot; a view when the stack is
    contiguous."""
    if np.ndim(symbols) != 3 or symbols.shape[2] != n:
        raise ValueError(f"reshape_space_time: shape {np.shape(symbols)} is not "
                         f"(W, L, N={n}) symbol blocks")
    w, l, _ = symbols.shape
    return symbols.reshape(w * l, n)


def temporal_steering(velocity_mps: float, schedule: MarsSchedule,
                      radio: RadioParams) -> np.ndarray:
    """Per-occasion Doppler phases exp(j*2*pi*(2 v f_c / c) (t_w - t_0)).

    Referenced to the first chirp occasion, so W = 1 gives exactly 1 and the
    space-time steering degenerates to the spatial vector; the dropped
    common phase never affects spectra or argmax decisions.
    """
    indices = np.array(schedule.chirp_pri_indices, dtype=float)
    t_w = (indices - indices[0]) * radio.pri_s
    fd = 2.0 * velocity_mps * radio.carrier_freq_hz / SPEED_OF_LIGHT
    return np.exp(2j * np.pi * fd * t_w)


def space_time_steering(velocity_mps: float, sin_psi_x, sin_psi_y,
                        arr: ArrayGeometry, schedule: MarsSchedule,
                        radio: RadioParams) -> np.ndarray:
    """Temporal Doppler factor Kronecker-left of the spatial URA steering.
    ``arr`` must match the data rows (virtual geometry for assembled data).
    Arrays of C sin-angle pairs give one column per pair, (W*L, C)."""
    lam = SPEED_OF_LIGHT / radio.carrier_freq_hz
    a_2d = steering_ura_from_sin(sin_psi_x, sin_psi_y, arr.rx_cols, arr.rx_rows,
                                 arr.rx_spacing_x_m, arr.rx_spacing_y_m, lam)
    a_t = temporal_steering(velocity_mps, schedule, radio)
    return (a_t.reshape(a_t.shape + (1,) * a_2d.ndim) * a_2d).reshape((-1,) + a_2d.shape[1:])


def interference_cov(y_st: np.ndarray) -> np.ndarray:
    """Sample covariance over range snapshots: Y Y^H / N (Hermitian)."""
    n = y_st.shape[1]
    if n < 1:
        raise ValueError("interference_cov: need at least one snapshot")
    return y_st @ y_st.conj().T / n


def epsilon_m(s_i: np.ndarray) -> float:
    """Diagonal-loading level: trace / dimension."""
    if s_i.shape[0] != s_i.shape[1]:
        raise ValueError("epsilon_m: matrix must be square")
    return float(np.trace(s_i).real) / s_i.shape[0]


def _loaded_solve(s_i: np.ndarray, a: np.ndarray, eps_mode: str,
                  epsilon: Optional[float]) -> np.ndarray:
    """(S + eps I)^-1 A with one factorization for all columns: Cholesky when
    loaded, else the pseudo-inverse from one ``eigh`` that also gives the
    rank (numpy's ``matrix_rank`` and ``pinv`` tolerances)."""
    dim = s_i.shape[0]
    if epsilon is not None:
        eps = float(epsilon)
    elif eps_mode == "em":
        eps = epsilon_m(s_i)
    elif eps_mode == "zero":
        eps = 0.0
    else:
        raise ValueError(f"unknown eps_mode {eps_mode!r}")
    if eps != 0.0:
        return cho_solve(cho_factor(s_i + eps * np.eye(dim)), a)
    vals, vecs = np.linalg.eigh(s_i)
    mags = np.abs(vals)
    rank = int(np.sum(mags > mags.max() * dim * np.finfo(float).eps))
    if rank < dim:
        warnings.warn(f"interference covariance rank {rank} < {dim}; "
                      "using pseudo-inverse", RuntimeWarning, stacklevel=3)
    inv_vals = np.divide(1.0, vals, out=np.zeros_like(vals), where=mags > 1e-15 * mags.max())
    return (vecs * inv_vals) @ (vecs.conj().T @ a)


def _quadratic_norms(a: np.ndarray, wa: np.ndarray, caller: str) -> np.ndarray:
    """Per-column a^H W a; columns the whitener annihilated get 1 (spectrum
    left unnormalized) under one warning that counts them."""
    den = np.einsum("ij,ij->j", a.conj(), wa).real
    dead = np.abs(den) < np.finfo(float).tiny
    if dead.any():
        warnings.warn(f"{caller}: steering annihilated by the whitener in "
                      f"{int(dead.sum())} of {den.size} column(s); spectrum unnormalized",
                      RuntimeWarning, stacklevel=3)
    return np.where(dead, 1.0, den)


def _range_peaks(d: np.ndarray, range_res_m: float, single: bool) -> tuple:
    bins = np.argmax(np.abs(d), axis=1)
    if single:
        return d[0], int(bins[0]) * range_res_m, int(bins[0])
    return d, bins * range_res_m, bins


def stap_range_spectrum(y_st: np.ndarray, a_st: np.ndarray, eps_mode: str = "em",
                        *, range_res_m: float = 1.0,
                        epsilon: Optional[float] = None) -> tuple:
    """Adaptive (or, for eps_mode='inf', matched-filter) range spectrum.

    ``a_st`` is a (W*L,) steering vector or a (W*L, C) matrix of candidates
    sharing one covariance and whitener. Returns (d, range_m, range_bin): the
    N complex distance bins, the argmax converted through ``range_res_m``,
    and the raw argmax bin; (C, N), (C,) and (C,) arrays for a matrix.
    """
    single = a_st.ndim == 1
    a = a_st.reshape(len(a_st), -1)
    if a.shape[0] != y_st.shape[0]:
        raise ValueError("stap_range_spectrum: steering length does not match rows")
    if eps_mode == "inf":
        wa = a
        den = np.einsum("ij,ij->j", a.conj(), a).real
    else:
        wa = _loaded_solve(interference_cov(y_st), a, eps_mode, epsilon)
        den = _quadratic_norms(a, wa, "stap_range_spectrum")
    d = np.fft.fft(wa.conj().T @ y_st, axis=1) / den[:, None]
    return _range_peaks(d, range_res_m, single)


def sthp_range_spectrum(y_st: np.ndarray, a_t: np.ndarray, a_s: np.ndarray,
                        eps_mode: str = "em", *, range_res_m: float = 1.0,
                        epsilon: Optional[float] = None,
                        velocity_mps: Optional[float] = None) -> tuple:
    """Hierarchical processing: temporal zero-forcing of the static-clutter
    signature, then an L-dimension spatial stage.

    The time weights are the first row of pinv([a_T, 1_W]), so w a_T = 1 and
    w 1 = 0 exactly. ``a_s`` is an (L,) vector or an (L, C) matrix of spatial
    candidates sharing the temporal stage and the spatial whitener. Returns
    (d, range_m, range_bin), shaped as in :func:`stap_range_spectrum`.
    """
    single = a_s.ndim == 1
    a = a_s.reshape(len(a_s), -1)
    w_dim = a_t.shape[0]
    l_dim = a.shape[0]
    if w_dim < 2:
        raise ValueError("sthp_range_spectrum: needs W >= 2 chirp occasions")
    if y_st.shape[0] != w_dim * l_dim:
        raise ValueError("sthp_range_spectrum: row count does not match W*L")
    corr = abs(np.vdot(a_t, np.ones(w_dim))) / (np.linalg.norm(a_t) * math.sqrt(w_dim))
    if corr > 1.0 - 1e-9:
        vel = "" if velocity_mps is None else f" (velocity {velocity_mps} m/s)"
        raise ValueError("sthp_range_spectrum: temporal steering is collinear with "
                         f"the static-clutter signature{vel}; zero-forcing undefined")
    w_t = np.linalg.pinv(np.stack([a_t, np.ones(w_dim, dtype=complex)], axis=1))[0]
    y_s = np.tensordot(w_t, y_st.reshape(w_dim, l_dim, -1), axes=1)

    if eps_mode == "inf":
        w_s = a.conj() / np.sqrt(np.einsum("ij,ij->j", a.conj(), a).real)
    else:
        qa = _loaded_solve(y_s @ y_s.conj().T / y_s.shape[1], a, eps_mode, epsilon)
        w_s = qa.conj() / np.sqrt(np.abs(_quadratic_norms(a, qa, "sthp_range_spectrum")))
    d = np.fft.fft(w_s.T @ y_s, axis=1)
    return _range_peaks(d, range_res_m, single)


@dataclass(frozen=True, eq=False)
class FaMap:
    """FA nonuniform matched-filter output on the shared bin grid."""

    values: np.ndarray  # (N range bins, M velocity bins) magnitudes
    range_res_m: float
    velocity_res_mps: float

    def velocity(self, bin_v: int) -> float:
        return float(signed_bin(bin_v, self.values.shape[1]) * self.velocity_res_mps)


@lru_cache(maxsize=8)
def _lag_cells(m: int, n: int, sub_bytes: bytes) -> tuple:
    """Per block of at most N rows of G: the block, the float positions in
    its (B, M) entries of the pairs whose subcarrier lag (n_m' - n_m) mod N
    is at most N/2 (the columns the range transform reads), and their slots
    in the float view of the (M, N//2 + 1) complex lag grid; both
    interleave (re, im). Every drop of a schedule shares them."""
    sub = np.frombuffer(sub_bytes, dtype=np.intp)
    rows = np.arange(m)
    half = n // 2 + 1
    parts = np.arange(2)
    blocks = []
    for start in range(0, m, n):
        block = slice(start, start + n)
        lag = (sub[None, :] - sub[block, None]) % n
        keep = np.flatnonzero(lag <= n // 2)
        cells = (((rows[block, None] - rows[None, :]) % m) * half + lag).ravel()[keep]
        keep = (2 * keep[:, None] + parts).ravel()
        slots = (2 * cells[:, None] + parts).ravel()
        keep.flags.writeable = slots.flags.writeable = False
        blocks.append((block, keep, slots))
    return tuple(blocks)


def fa_range_doppler_map(fa_meas: np.ndarray, schedule: MarsSchedule,
                         radio: RadioParams, range_res_m: float) -> FaMap:
    """Correlate per-symbol subcarrier measurements against delay/Doppler
    hypotheses on the main pipeline's (range bin, velocity bin) grid;
    element powers combine noncoherently.

    The power at velocity bin k and range bin r is
    sum_l |sum_m x_l[m] e^{j2pi n_m r/N} e^{-j2pi k m/M}|^2. Expanding the
    square over the element Gram matrix G[m, m'] = sum_l x_l[m] conj(x_l[m'])
    (the correlogram form) leaves a 2-D DFT of G scattered onto the lag grid
    ((m - m') mod M, (n_m' - n_m) mod N): O(L M^2) plus one M x N FFT,
    half of it real because the grid is Hermitian.
    """
    sub = schedule.fa_subcarrier_indices
    if sub is None:
        raise ValueError("fa_range_doppler_map: schedule carries no FA subcarriers")
    m = fa_meas.shape[1]
    n = radio.num_subcarriers
    conj = fa_meas.conj()
    grid = None
    # Blocks of at most N rows of G keep the working set at O(M N); summing
    # block by block also keeps each cell's rounding what the full grid gave.
    # The grid holds conj(G): conj(x)^T x needs no conjugate copy of a block,
    # and conj(FFT(g)) is exactly the unnormalised inverse FFT of conj(g).
    for block, keep, slots in _lag_cells(m, n, np.asarray(sub, dtype=np.intp).tobytes()):
        gram = (conj[:, block].T @ fa_meas).view(float).ravel()[keep]
        part = np.bincount(slots, weights=gram, minlength=2 * m * (n // 2 + 1))
        grid = part if grid is None else np.add(grid, part, out=grid)
    grid = grid.view(complex).reshape(m, -1)
    # The lag (n_m' - n_m) turns the range scan's inverse DFT into a forward
    # one. The grid is Hermitian (G is), so after the Doppler transform each
    # row is too: transform the non-negative subcarrier lags, then take the
    # real inverse FFT of the conjugate half spectrum (numpy's hfft, without
    # its conjugate copy).
    np.fft.ifft(grid, axis=0, norm="forward", out=grid)
    power = np.fft.irfft(grid, n=n, axis=1, norm="forward").T     # (N, M_vel)
    np.sqrt(np.maximum(power, 0.0, out=power), out=power)
    vel_res = SPEED_OF_LIGHT / (2.0 * m * radio.pri_s * radio.carrier_freq_hz)
    return FaMap(values=power, range_res_m=range_res_m, velocity_res_mps=vel_res)


def fa_angle_snapshot(fa_meas: np.ndarray, schedule: MarsSchedule,
                      radio: RadioParams, range_bin: int, vel_bin: int) -> np.ndarray:
    """Per-element coherent correlation at one (range, velocity) hypothesis,
    ready for a spatial FFT."""
    sub = schedule.fa_subcarrier_indices
    m = fa_meas.shape[1]
    template = (np.exp(-2j * np.pi * sub * range_bin / radio.num_subcarriers)
                * np.exp(2j * np.pi * vel_bin * np.arange(m) / m))
    return fa_meas @ template.conj()


def va_assemble(per_slot: Sequence[np.ndarray], arr: ArrayGeometry) -> tuple:
    """Stack the per-transmit-element chirp matrices (x-fastest slot order)
    into the virtual-array snapshot whose rows follow the URA steering of
    the (tx_cols*rx_cols) x (tx_rows*rx_rows) array. Each slot's rows are
    its second-to-last axis, so (L, N) matrices and (W, L, N) stacks of
    them both assemble.

    Returns (assembled array, virtual receive geometry). With one slot the
    rows are already in URA order and the block itself is returned.
    """
    eta_x = arr.tx_cols if arr.va_enabled else 1
    eta_y = arr.tx_rows if arr.va_enabled else 1
    if len(per_slot) != eta_x * eta_y:
        raise ValueError(f"va_assemble: expected {eta_x * eta_y} slot matrices, "
                         f"got {len(per_slot)}")
    lx, ly = arr.rx_cols, arr.rx_rows
    if any(np.ndim(block) < 2 or np.shape(block)[-2] != lx * ly for block in per_slot):
        raise ValueError("va_assemble: slot matrices do not match the receive array size")
    if len(per_slot) == 1:
        return np.asarray(per_slot[0]), va_receive_geometry(arr)
    # Row (slot = b*eta_x + a, element = ly*Lx + lx) belongs at URA index
    # ((b*Ly + ly) * eta_x + a) * Lx + lx: one strided copy per slot.
    lead, cols = np.shape(per_slot[0])[:-2], np.shape(per_slot[0])[-1]
    out = np.empty(lead + (eta_y, ly, eta_x, lx, cols), dtype=np.result_type(*per_slot))
    for slot, block in enumerate(per_slot):
        out[..., slot // eta_x, :, slot % eta_x, :, :] = np.reshape(block, lead + (ly, lx, cols))
    return out.reshape(lead + (eta_y * ly * eta_x * lx, cols)), va_receive_geometry(arr)
