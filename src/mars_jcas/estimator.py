"""Detection stack operations: tone-branch compression and expansion, the
angle-velocity map, coarse peak extraction (STTE), MUSIC refinement,
space-time reshaping and steering, adaptive / hierarchical / matched-filter
range spectra, the FA baseline correlator, and virtual-aperture assembly.

Everything treats its inputs as immutable. Results are new arrays, except
that :func:`reshape_space_time` returns a view of a contiguous stack. Grids
are FFT-native and physical values derive from bin x resolution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional, Sequence

import numpy as np

from . import cpus
from .scene import ArrayGeometry, RadioParams, resolution_report, steering_ura_from_sin
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

    def sin_x(self, bin_x: int) -> float:
        return float(signed_bin(bin_x, self.values.shape[0]) * self.sin_res_x)

    def sin_y(self, bin_y: int) -> float:
        return float(signed_bin(bin_y, self.values.shape[1]) * self.sin_res_y)

    def velocity(self, bin_v: int) -> float:
        return float(signed_bin(bin_v, self.values.shape[2]) * self.velocity_res_mps)


@dataclass(frozen=True)
class CoarsePeak:
    """One STTE extraction from the angle-velocity map."""

    sin_psi_x: float
    sin_psi_y: float
    velocity_mps: float


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


def expand_nn(y_s2: np.ndarray, schedule: MarsSchedule) -> np.ndarray:
    """Nearest-preceding-neighbour expansion of the compressed tone branch,
    one column per tone PRI of ``schedule``, to all its PRIs: a chirp PRI
    copies the latest earlier tone PRI, so PRI 0 must carry a tone."""
    tone = schedule.tone_pri_indices()
    if not tone.size or tone[0] != 0:
        raise ValueError("expand_nn: PRI 0 carries no tone, so it has no preceding neighbour")
    if y_s2.shape[1] != tone.size:
        raise ValueError(f"expand_nn: got {y_s2.shape[1]} compressed columns, "
                         f"expected {tone.size}")
    return y_s2[:, np.searchsorted(tone, np.arange(schedule.num_pri), side="right") - 1]


def angle_velocity_map(y_e2: np.ndarray, arr: ArrayGeometry,
                       radio: RadioParams) -> AngleVelocityMap:
    """Space-domain 2D-FFT (equivalent to the Kronecker DFT synthesis
    matrix) plus a PRI-axis FFT. ``arr``'s aperture (``va_cols x va_rows``)
    must be the array the rows live on.
    """
    rows = arr.va_rows
    cols = arr.va_cols
    if y_e2.shape[0] != rows * cols:
        raise ValueError(f"angle_velocity_map: {y_e2.shape[0]} rows not factorable "
                         f"as {cols} x {rows}")
    m = y_e2.shape[1]
    cube = y_e2.reshape(rows, cols, m)
    spectrum = np.fft.fft(np.fft.fft2(cube, axes=(0, 1)), axis=2)
    res = resolution_report(radio, arr)
    return AngleVelocityMap(values=np.abs(spectrum).transpose(1, 0, 2),
                            sin_res_x=res.sin_angle_res_x, sin_res_y=res.sin_angle_res_y,
                            velocity_res_mps=radio.velocity_res_mps)


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
            sin_psi_x=avmap.sin_x(bx), sin_psi_y=avmap.sin_y(by),
            velocity_mps=avmap.velocity(bv),
        ))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                values[(bx + dx) % nx, (by + dy) % ny,
                       [(bv - 1) % nv, bv, (bv + 1) % nv]] = -np.inf
    return peaks


def _signal_subspace(y: np.ndarray, num_sources: int) -> np.ndarray:
    """Signal-subspace basis E_s of the snapshots (columns) of ``y``: the leading
    left singular vectors of the forward-backward data matrix B = [Y, J conj(Y)],
    the eigenvectors of B B^H. The pseudo-spectrum uses I - E_s E_s^H."""
    u, s, _ = np.linalg.svd(np.concatenate((y, y.conj()[::-1]), axis=1), full_matrices=False)
    rank = int(np.sum(s ** 2 > max(y.shape[0], 8) * np.finfo(float).eps * s[0] ** 2))
    if rank < num_sources + 1:
        raise ValueError(f"music_refine: covariance rank {rank} < K+1 = {num_sources + 1} "
                         "(degenerate snapshot set)")
    return u[:, :num_sources]


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
    velocity the same way. Each signal subspace comes from one SVD of the
    forward-backward data matrix [Y, J conj(Y)], which doubles the snapshots
    and forms no covariance. Returns (velocity, psi_x, psi_y).
    """
    if factor < 1:
        raise ValueError("music_refine: factor must be >= 1")
    m = y_e2.shape[1]
    res = resolution_report(radio, arr)

    e_s = _signal_subspace(y_e2, num_sources)
    steps = np.linspace(-1.0, 1.0, 2 * factor + 1)
    sx = np.clip(coarse.sin_psi_x + steps * res.sin_angle_res_x, -1.0, 1.0)
    sy = np.clip(coarse.sin_psi_y + steps * res.sin_angle_res_y, -1.0, 1.0)
    gx, gy = np.meshgrid(sx, sy, indexing="ij")
    cand = steering_ura_from_sin(gx.ravel(), gy.ravel(), arr, radio.wavelength_m)
    best = _music_scan(e_s, cand)
    sin_x = float(gx.ravel()[best])
    sin_y = float(gy.ravel()[best])

    e_st = _signal_subspace(y_e2.T, num_sources)
    vels = coarse.velocity_mps + steps * res.velocity_res_mps
    t_m = np.arange(m) * radio.pri_s
    cand_t = np.exp(2j * np.pi * radio.doppler_hz(vels[None, :]) * t_m[:, None])
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
    return np.exp(2j * np.pi * radio.doppler_hz(velocity_mps) * t_w)


def space_time_steering(a_t: np.ndarray, a_s: np.ndarray) -> np.ndarray:
    """Temporal steering (W,) Kronecker-left of the spatial steering (L,) or,
    one column per angle pair, (L, C): the outer product, (W, L[, C])."""
    return a_t.reshape(a_t.shape + (1,) * a_s.ndim) * a_s


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
    """(S + eps I)^-1 A with one factorization for all columns: an LU solve
    when loaded, else the pseudo-inverse from one ``eigh`` that also gives
    the rank (numpy's ``matrix_rank`` and ``pinv`` tolerances)."""
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
        return np.linalg.solve(s_i + eps * np.eye(dim), a)
    vals, vecs = np.linalg.eigh(s_i)
    mags = np.abs(vals)
    rank = int(np.sum(mags > mags.max() * dim * np.finfo(float).eps))
    if rank < dim:
        warnings.warn(f"interference covariance rank {rank} < {dim}; "
                      "using pseudo-inverse", RuntimeWarning, stacklevel=4)
    inv_vals = np.divide(1.0, vals, out=np.zeros_like(vals), where=mags > 1e-15 * mags.max())
    return (vecs * inv_vals) @ (vecs.conj().T @ a)


def _quadratic_norms(a: np.ndarray, wa: np.ndarray, caller: str) -> np.ndarray:
    """Per-column a^H W a; columns the whitener annihilated, or zero ones, get 1
    (spectrum left unnormalized) under one warning that counts them."""
    den = np.einsum("ij,ij->j", a.conj(), wa).real
    dead = np.abs(den) < np.finfo(float).tiny
    if dead.any():
        warnings.warn(f"{caller}: steering annihilated by the whitener in "
                      f"{int(dead.sum())} of {den.size} column(s); spectrum unnormalized",
                      RuntimeWarning, stacklevel=4)
    return np.where(dead, 1.0, den)


def _range_spectra(y: np.ndarray, a: np.ndarray, eps_mode: str, epsilon,
                   caller: str, root_norm: bool) -> tuple:
    """Range FFT of (W a)^H y over a^H W a (sqrt(|a^H W a|) with ``root_norm``)
    for each steering column a, and its peaks. W is the identity at eps_mode
    'inf', else the loaded or pseudo-inverse of y's covariance, by one solve."""
    wa = a if eps_mode == "inf" else _loaded_solve(interference_cov(y), a, eps_mode, epsilon)
    den = _quadratic_norms(a, wa, caller)
    if root_norm:
        den = np.sqrt(np.abs(den))
    d = np.fft.fft(wa.conj().T @ y, axis=1) / den[:, None]
    return d, np.argmax(np.abs(d), axis=1)


def stap_range_spectrum(y_st: np.ndarray, a_st: np.ndarray, eps_mode: str, *,
                        epsilon: Optional[float] = None) -> tuple:
    """Adaptive (or, for eps_mode='inf', matched-filter) range spectrum.

    ``a_st`` is a (W*L, C) matrix of candidates sharing one covariance and
    whitener. Returns (d, bins): the (C, N) complex distance bins and the
    (C,) argmax bins.
    """
    if np.ndim(a_st) != 2 or len(a_st) != y_st.shape[0]:
        raise ValueError("stap_range_spectrum: steering must be a (rows, C) matrix")
    return _range_spectra(y_st, a_st, eps_mode, epsilon, "stap_range_spectrum",
                          root_norm=False)


def _zero_forcing_weights(a_t: np.ndarray) -> np.ndarray:
    """First row of pinv([a_T, 1]) from its 2 x 2 Gram matrix, with numerator and
    determinant as pairwise differences (Lagrange's identity), which stay accurate
    near collinearity: w_k = conj(sum_j (a_k - a_j)) / (sum_{j,l} |a_j - a_l|^2 / 2)."""
    diff = a_t[:, None] - a_t[None, :]
    return diff.sum(axis=1).conj() / (0.5 * np.sum(np.abs(diff) ** 2))


def at_blind_speed(a_t: np.ndarray) -> bool:
    """Whether temporal steering ``a_t`` over W >= 2 occasions is collinear with the
    static-clutter signature (all ones), which STHP's zero-forcing nulls with it."""
    w_dim = len(a_t)
    corr = abs(np.vdot(a_t, np.ones(w_dim))) / (np.linalg.norm(a_t) * math.sqrt(w_dim))
    return w_dim >= 2 and corr > 1.0 - 1e-9


def sthp_range_spectrum(y_st: np.ndarray, a_t: np.ndarray, a_s: np.ndarray,
                        eps_mode: str, *, epsilon: Optional[float] = None) -> tuple:
    """Hierarchical processing: temporal zero-forcing of the static-clutter
    signature, then an L-dimension spatial stage.

    The time weights (:func:`_zero_forcing_weights`) give w a_T = 1 and
    w 1 = 0. ``a_s`` is an (L, C) matrix of spatial candidates sharing the
    temporal stage and the spatial whitener. Returns (d, bins) as
    :func:`stap_range_spectrum` does.
    """
    if np.ndim(a_s) != 2:
        raise ValueError("sthp_range_spectrum: spatial steering must be an (L, C) matrix")
    w_dim, l_dim = len(a_t), len(a_s)
    if w_dim < 2:
        raise ValueError("sthp_range_spectrum: needs W >= 2 chirp occasions")
    if y_st.shape[0] != w_dim * l_dim:
        raise ValueError("sthp_range_spectrum: row count does not match W*L")
    if at_blind_speed(a_t):
        raise ValueError("sthp_range_spectrum: temporal steering is collinear with "
                         "the static-clutter signature; zero-forcing undefined")
    y_s = np.tensordot(_zero_forcing_weights(a_t), y_st.reshape(w_dim, l_dim, -1), axes=1)
    return _range_spectra(y_s, a_s, eps_mode, epsilon, "sthp_range_spectrum",
                          root_norm=True)


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
                         radio: RadioParams) -> np.ndarray:
    """Correlate per-symbol subcarrier measurements against delay/Doppler
    hypotheses on the main pipeline's (range bin, velocity bin) grid;
    element powers combine noncoherently. Returns the (M velocity bins,
    N range bins) float power grid; rounding may leave p < 0.

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
    half = grid.shape[1]
    # The lag (n_m' - n_m) turns the range scan's inverse DFT into a forward
    # one. The grid is Hermitian (G is), so after the Doppler transform each
    # row is too: transform the non-negative subcarrier lags, then take the
    # real inverse FFT of the conjugate half spectrum (numpy's hfft, without
    # its conjugate copy). Both transforms are shared with the helper thread
    # in the slices cpus.share cuts: the Doppler one by columns, the real
    # one by rows. Each column and row is transformed on its own, so no
    # split changes a bit.
    cpus.share(lambda cols: partial(np.fft.ifft, grid[:, cols], axis=0, norm="forward",
                                    out=grid[:, cols]), half, m)
    # The real transform writes over the grid's own buffer, viewed as (M, N)
    # floats, a block of rows at a time from a copy of the block: an output
    # row (8N bytes) is shorter than an input row (16(N//2 + 1) bytes), so a
    # block's output overwrites only rows of its own and earlier blocks.
    # A block is copied when it is claimed, in row order, so every earlier
    # block was copied already.
    power = grid.view(float).ravel()[:m * n].reshape(m, n)
    cpus.share(lambda rows: partial(np.fft.irfft, grid[rows].copy(), n=n, axis=1,
                                    norm="forward", out=power[rows]), m, half)
    return power


def fa_angle_snapshot(fa_meas: np.ndarray, schedule: MarsSchedule,
                      radio: RadioParams, range_bin: int, vel_bin: int) -> np.ndarray:
    """Per-element coherent correlation at one (range, velocity) hypothesis,
    ready for a spatial FFT."""
    sub = schedule.fa_subcarrier_indices
    m = fa_meas.shape[1]
    template = (np.exp(-2j * np.pi * sub * range_bin / radio.num_subcarriers)
                * np.exp(2j * np.pi * vel_bin * np.arange(m) / m))
    return fa_meas @ template.conj()


def va_assemble(per_slot: Sequence[np.ndarray], arr: ArrayGeometry) -> np.ndarray:
    """Stack the per-transmit-element (L, N) chirp matrices (x-fastest slot
    order) into the virtual-array snapshot whose rows follow the steering of
    ``arr``'s (va_cols*va_rows) aperture."""
    eta_x = arr.tx_cols if arr.va_enabled else 1
    eta_y = arr.tx_rows if arr.va_enabled else 1
    if len(per_slot) != eta_x * eta_y:
        raise ValueError(f"va_assemble: expected {eta_x * eta_y} slot matrices, "
                         f"got {len(per_slot)}")
    lx, ly = arr.rx_cols, arr.rx_rows
    if any(np.ndim(block) != 2 or np.shape(block)[0] != lx * ly for block in per_slot):
        raise ValueError("va_assemble: slot matrices do not match the receive array size")
    # Row (slot = b*eta_x + a, element = ly*Lx + lx) belongs at URA index
    # ((b*Ly + ly) * eta_x + a) * Lx + lx.
    out = np.reshape(per_slot, (eta_y, eta_x, ly, lx, -1)).transpose(0, 2, 1, 3, 4)
    return out.reshape(eta_y * ly * eta_x * lx, -1)
