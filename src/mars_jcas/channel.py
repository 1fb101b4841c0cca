"""Post-mixing receiver data synthesis.

Signals are generated directly in the IF domain (the mixing algebra in
closed form) rather than at RF sample rates: the chirp branch as per-symbol
beat tones, the tone branch at the per-PRI integrate-and-hold output. Self
interference enters as DC and is removed by ideal DCOC on the chirp branch
and by the band-pass DC removal on the tone branch; the uplink interferer
reaches only the tone branch, attenuated by the low-pass response at its
subcarrier offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .clutter import ClutterMap
from .scene import (
    RadioParams,
    ReceiverConfig,
    Target,
    ValidatedScene,
    received_power,
    steering_ura_from_sin,
)
from .seeding import rng_for
from .waveform import MarsSchedule


@dataclass(frozen=True, eq=False)
class IfCube:
    """Sampled two-branch receiver data for one CPI.

    ``chirp_branch`` is symbol-major: one contiguous (L, N) block of beat
    samples per chirp symbol, occasion-major with the VA slot order within
    an occasion. ``tone_branch_compressed`` holds one integrated value per
    tone-bearing PRI.
    """

    chirp_branch: np.ndarray           # (num_chirp_symbols, L, N)
    tone_branch_compressed: np.ndarray  # (L, num_tone_pris)
    schedule: MarsSchedule
    sample_rate_hz: float

    @property
    def num_elements(self) -> int:
        return self.chirp_branch.shape[1]

    def chirp_symbol(self, index: int) -> np.ndarray:
        """One chirp symbol's (L, N) sample block."""
        return self.chirp_branch[index]


def butterworth_power_gain(freq_hz, cutoff_hz: float, order: int):
    """|H(f)|^2 = 1 / (1 + (f/f_cut)^(2a)) low-pass power response."""
    return 1.0 / (1.0 + np.abs(np.asarray(freq_hz, dtype=float) / cutoff_hz) ** (2 * order))


class DropDraws:
    """The labelled random draws one drop's cubes and FA measurements share.

    Every cube of a drop reads the same streams of ``rng_for(seed, label)``,
    so each is drawn once here: the ``si`` phases, one ``target-phase`` per
    target, the ``uplink-direction``, and the ``noise-chirp`` blocks, where
    block k holds the real and imaginary parts of the k-th
    :func:`_complex_noise` draw of the stream at one noise scale and block
    shape. ``chirp_reads`` gives the number of chirp blocks each IF cube of
    the drop reads, in the order they are synthesized; a block is kept only
    while a later cube will read it. Without it no block is kept, and a
    block read again is drawn again from a fresh generator.
    """

    def __init__(self, seed: int, chirp_reads: Sequence[int] = ()):
        self.seed = seed
        self._reads = list(chirp_reads)
        self._si = {}
        self._phases = {}
        self._uplink_sin = None
        self._noise_key, self._noise_rng, self._drawn, self._kept = None, None, 0, []
        self._buffer = None

    def si_phases(self, num_elements: int) -> np.ndarray:
        """Unit self-interference phasors, one per receive element."""
        if num_elements not in self._si:
            phases = np.exp(1j * rng_for(self.seed, "si").uniform(0.0, 2.0 * np.pi,
                                                                  size=num_elements))
            phases.flags.writeable = False
            self._si[num_elements] = phases
        return self._si[num_elements]

    def target_phase(self, t: Target) -> float:
        key = (f"{t.range_m:.9e},{t.radial_velocity_mps:.9e},"
               f"{t.psi_x_rad:.9e},{t.psi_y_rad:.9e},{t.rcs_m2:.9e}")
        if key not in self._phases:
            self._phases[key] = float(rng_for(self.seed, "target-phase", key)
                                      .uniform(0.0, 2.0 * np.pi))
        return self._phases[key]

    def uplink_direction(self, scene: ValidatedScene) -> np.ndarray:
        """Receive steering toward the uplink user."""
        if self._uplink_sin is None:
            rng = rng_for(self.seed, "uplink-direction")
            while True:
                sx, sy = rng.uniform(-0.7, 0.7, size=2)
                if sx * sx + sy * sy <= 1.0:
                    break
            self._uplink_sin = (sx, sy)
        a = scene.array
        return steering_ura_from_sin(*self._uplink_sin, a.rx_cols, a.rx_rows,
                                     a.rx_spacing_x_m, a.rx_spacing_y_m, scene.wavelength_m)

    def chirp_noise(self, scale: float, shape: tuple, count: int):
        """The next IF cube's ``count`` chirp noise blocks, in stream order,
        each a (2, *shape) float array of real and imaginary parts. A block
        no later cube reads is drawn into one reused buffer, which the next
        block overwrites. Once the last is handed out, only the blocks a
        later cube reads stay."""
        self._reads = self._reads[1:]
        if self._noise_key != (scale, shape):
            self._noise_key, self._noise_rng, self._drawn, self._kept = (scale, shape), None, 0, []
            self._buffer = np.empty((2,) + tuple(shape))
        keep = max(self._reads, default=0)
        return (self._chirp_block(k, keep, k == count - 1) for k in range(count))

    def _draw_chirp(self, out: np.ndarray) -> np.ndarray:
        self._drawn += 1
        return _noise_parts(self._noise_rng, self._noise_key[0], out)

    def _chirp_block(self, k, keep, last):
        if k < len(self._kept):
            block = self._kept[k]
        else:
            if self._noise_rng is None or self._drawn > k:
                # First use, or block k was drawn and let go: replay the stream.
                self._noise_rng, self._drawn = rng_for(self.seed, "noise-chirp"), 0
            while self._drawn < k:
                self._draw_chirp(self._buffer)
            # A block a later cube reads gets its own array.
            block = self._draw_chirp(np.empty_like(self._buffer) if k < keep else self._buffer)
            if k < keep:
                block.flags.writeable = False
                self._kept.append(block)
        if last:
            del self._kept[keep:]
        return block

    @property
    def held_chirp_blocks(self) -> int:
        """Chirp noise blocks kept for later cubes."""
        return len(self._kept)


def _draws_for(seed: Optional[int], draws: Optional[DropDraws],
               scene: ValidatedScene) -> DropDraws:
    if draws is None:
        return DropDraws(scene.seed if seed is None else seed)
    if seed is not None and seed != draws.seed:
        raise ValueError(f"seed {seed} disagrees with the draws' seed {draws.seed}")
    return draws


def _target_coeff(scene: ValidatedScene, t: Target, draws: DropDraws) -> complex:
    """Round-trip channel coefficient at unit transmit power."""
    p = received_power("radar", 1.0, scene.radio.gain_tx, scene.radio.gain_rx,
                       scene.wavelength_m, t.range_m, t.rcs_m2)
    return math.sqrt(p) * np.exp(1j * draws.target_phase(t))


def _rx_steering(scene: ValidatedScene, t: Target) -> np.ndarray:
    a = scene.array
    return steering_ura_from_sin(t.sin_psi_x, t.sin_psi_y, a.rx_cols, a.rx_rows,
                                 a.rx_spacing_x_m, a.rx_spacing_y_m, scene.wavelength_m)


def _tx_slot_phase(scene: ValidatedScene, t: Target, tx_col: int, tx_row: int) -> complex:
    """Phase picked up from the active transmit element's position."""
    a = scene.array
    if not a.va_enabled:
        return 1.0
    xpos = tx_col * a.rx_cols * a.rx_spacing_x_m
    ypos = tx_row * a.rx_rows * a.rx_spacing_y_m
    k = 2.0 * np.pi / scene.wavelength_m
    return np.exp(1j * k * (t.sin_psi_x * xpos + t.sin_psi_y * ypos))


def _integration_factor(doppler_hz: float, n: int, sample_rate_hz: float, exact: bool) -> complex:
    """Coherent sum over the symbol of the within-symbol Doppler rotation."""
    if not exact or abs(2.0 * np.pi * doppler_hz * n / sample_rate_hz) < np.finfo(float).eps:
        # No rotation over the symbol, or one below rounding: the samples add
        # up to n, where the geometric sum would divide 0 by 0 or overflow.
        return float(n)
    z = np.exp(2j * np.pi * doppler_hz / sample_rate_hz)
    return (z**n - 1.0) / (z - 1.0)


@lru_cache(maxsize=8)
def _uplink_residual_power(radio: RadioParams, rec: ReceiverConfig, guard: int,
                           tone_index: int) -> float:
    """Uplink power surviving the whole tone-branch chain, on the unit-gain
    (pre-integration) amplitude scale, for a schedule's guard width and tone
    subcarrier; cached, as every cube of a run asks for the same few.

    Each data subcarrier sits (k + cfo) subcarrier spacings away from the
    tone; it is attenuated by the low-pass power response there, then by the
    integrate-and-hold transfer |D_N|^2/N^2, which nulls exact multiples of
    the spacing (OFDM orthogonality) and leaves only the fractional-offset
    leakage.
    """
    if radio.uplink_power_w <= 0:
        return 0.0
    p_rx = received_power("comm", radio.uplink_power_w, 1.0, 1.0,
                          radio.wavelength_m, radio.uplink_distance_m)
    df = radio.subcarrier_spacing_hz
    cutoff = rec.butterworth_cutoff_hz
    if cutoff is None:
        cutoff = (1 + guard) * df / 2.0
    n = radio.num_subcarriers
    k = np.arange(n) - tone_index
    mask = np.abs(k) > guard
    offsets = (k[mask] + rec.uplink_cfo_fraction) * df
    gains = butterworth_power_gain(offsets, cutoff, rec.butterworth_order)
    # Boxcar-integration power transfer, normalized to the tone's N^2 gain.
    phase = np.pi * offsets / (n * df)
    num = np.sin(n * phase) ** 2
    den = n**2 * np.sin(phase) ** 2
    integ = np.divide(num, den, out=np.ones_like(num), where=den > 0)
    return float(p_rx / n * np.sum(gains * integ))


def _noise_parts(rng, scale: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (2, *shape) with the real parts, then the imaginary parts,
    of complex Gaussian noise of power ``scale**2``: one ``standard_normal``
    draw scaled in place, bit for bit the values of a ``normal(scale=...)``
    call for each part."""
    rng.standard_normal(out=out)
    out *= scale / math.sqrt(2.0)
    return out


def _complex_noise(rng, scale: float, shape: tuple) -> np.ndarray:
    re, im = _noise_parts(rng, scale, np.empty((2,) + shape))
    return re + 1j * im


def synthesize_if_cube(scene: ValidatedScene, schedule: MarsSchedule,
                       clutter: Optional[ClutterMap] = None,
                       seed: Optional[int] = None, *,
                       draws: Optional[DropDraws] = None) -> IfCube:
    """Generate both receiver branches for one CPI of the given schedule.

    ``draws`` holds the drop's shared draws (:class:`DropDraws`); without it
    the cube makes its own from ``seed`` (default the scene's).

    Raises ``ValueError`` when a target's round-trip delay exceeds the OFDM
    symbol (its beat frequency would alias out of the receive window).
    """
    if schedule.structure == "fa":
        raise ValueError("FA structures produce per-subcarrier measurements; "
                         "use synthesize_fa_measurements")
    draws = _draws_for(seed, draws, scene)
    radio, arr, rec = scene.radio, scene.array, scene.receiver
    n = radio.num_subcarriers
    n_el = arr.num_rx
    bw = scene.bandwidth_hz
    t_sym = scene.symbol_duration_s

    for t in scene.targets:
        if t.delay_s() > t_sym:
            raise ValueError(f"target at {t.range_m} m has delay {t.delay_s():.3e} s "
                             f"> symbol duration {t_sym:.3e} s (beat would alias)")

    si_phases = draws.si_phases(n_el)
    coeffs = [_target_coeff(scene, t, draws) for t in scene.targets]
    steers = [_rx_steering(scene, t) for t in scene.targets]

    # Chirp branch: per-bin clutter beat tones collapse to an inverse DFT.
    flat_slots = [(e, p, a, b) for occ in schedule.va_slots
                  for e, (p, a, b) in enumerate(occ)]
    clutter_base = None
    if clutter is not None:
        if clutter.num_tx_slots < schedule.slots_per_chirp:
            raise ValueError(f"clutter map has {clutter.num_tx_slots} tx slot tables, "
                             f"schedule needs {schedule.slots_per_chirp}")
        clutter_base = clutter.chirp_spectra(n)

    samples = np.arange(n)
    beats = []
    for t in scene.targets:
        beat = np.exp(2j * np.pi * (bw / t_sym) * t.delay_s() * samples / bw)
        if rec.exact_within_symbol_doppler:
            beat = beat * np.exp(2j * np.pi * t.doppler_hz(radio.carrier_freq_hz) * samples / bw)
        beats.append(beat)
    noise = draws.chirp_noise(math.sqrt(radio.noise_density_w_per_hz * bw), (n_el, n),
                              len(flat_slots))
    # Each symbol is built in place in its own contiguous (L, N) block, in
    # the order a zero-filled block would sum its terms: the first product
    # is written, later ones are added through one reused spare. Noise is
    # added to every sample, so dropping the zero fill's 0 + x (which only
    # turns -0.0 into 0.0) changes no bit of the branch.
    chirp = np.empty((len(flat_slots), n_el, n), dtype=complex)
    spare = np.empty((n_el, n), dtype=complex)
    means = np.empty((len(flat_slots), n_el, 1), dtype=complex)
    for block, mean, (slot_e, pri, tx_a, tx_b) in zip(chirp, means, flat_slots):
        p_slot = schedule.per_symbol_power_w[pri]
        t_ref = pri * radio.pri_s
        terms = []
        for t, h, a2d, beat in zip(scene.targets, coeffs, steers, beats):
            tau = t.delay_s()
            fd = t.doppler_hz(radio.carrier_freq_hz)
            amp = (h * math.sqrt(p_slot) * _tx_slot_phase(scene, t, tx_a, tx_b)
                   * np.exp(2j * np.pi * fd * (t_ref - tau)))
            terms.append(((a2d * amp)[:, None], beat))
        if clutter_base is not None:
            terms.append((math.sqrt(p_slot), clutter_base[slot_e]))
        if not terms:
            block.fill(0.0)
        for k, (a, b) in enumerate(terms):
            np.multiply(a, b, out=spare if k else block)
            if k:
                block += spare
        si_amp = math.sqrt(p_slot * 10.0 ** (-radio.si_attenuation_db / 10.0))
        block += si_amp * si_phases[:, None]
        re, im = next(noise)
        block.real += re
        block.imag += im
        # A NaN or inf sample makes its row mean non-finite: the guard below
        # reads the means instead of scanning the branch again.
        block -= np.mean(block, axis=1, keepdims=True, out=mean)
        if rec.residual_dc_db is not None:
            block += si_amp * si_phases[:, None] * 10.0 ** (-rec.residual_dc_db / 20.0)

    # Tone branch, already integrated per PRI (sum over the symbol's N samples).
    tone_pris = schedule.tone_pri_indices()
    m_tone = tone_pris.size
    tone = np.zeros((n_el, m_tone), dtype=complex)
    t_m = tone_pris * radio.pri_s
    p_tone = schedule.per_symbol_power_w[tone_pris]
    sqrt_p = np.sqrt(p_tone)
    for t, h, a2d in zip(scene.targets, coeffs, steers):
        tau = t.delay_s()
        fd = t.doppler_hz(radio.carrier_freq_hz)
        gain = _integration_factor(fd, n, bw, rec.exact_within_symbol_doppler)
        phases = np.exp(2j * np.pi * fd * (t_m - tau)) * sqrt_p
        tone += np.outer(a2d, phases) * (h * gain
                                         * np.exp(2j * np.pi * radio.carrier_freq_hz * tau))
    if clutter is not None and m_tone:
        tone += np.outer(clutter.tone_vec, sqrt_p) * n
    if m_tone:
        si_amp = np.sqrt(p_tone * 10.0 ** (-radio.si_attenuation_db / 10.0))
        tone += np.outer(si_phases, si_amp) * n
        p_up = _uplink_residual_power(radio, rec, schedule.guard_subcarriers,
                                      schedule.tone_subcarrier_index)
        if p_up > 0:
            a_up = draws.uplink_direction(scene)
            symbols = _complex_noise(rng_for(draws.seed, "uplink-symbols"),
                                     math.sqrt(p_up), (m_tone,))
            tone += np.outer(a_up, symbols) * n
        if rec.tone_noise_bandwidth == "symbol":
            eff_bw = 1.0 / t_sym
        else:
            eff_bw = 1.0 / radio.pri_s
        tone += _complex_noise(rng_for(draws.seed, "noise-tone"),
                               n * math.sqrt(radio.noise_density_w_per_hz * eff_bw),
                               (n_el, m_tone))
        if rec.dc_removal:
            tone -= tone.mean(axis=1, keepdims=True)

    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(tone))):
        raise ValueError("synthesize_if_cube produced non-finite samples; "
                         "check powers and geometry")
    return IfCube(chirp_branch=chirp, tone_branch_compressed=tone,
                  schedule=schedule, sample_rate_hz=bw)


def synthesize_fa_measurements(scene: ValidatedScene, schedule: MarsSchedule,
                               clutter: Optional[ClutterMap] = None,
                               seed: Optional[int] = None, *,
                               draws: Optional[DropDraws] = None) -> np.ndarray:
    """Per-PRI single-subcarrier measurements (L x M) for an FA schedule.

    Measurement m is the demodulated coefficient of subcarrier n_m: target
    phase ramps exp(-j*2*pi*n_m*df*tau) * exp(j*2*pi*f_d*t_m), static
    clutter via the aggregated table, plus self-interference, a flat share
    of the uplink, and per-subcarrier thermal noise. ``draws`` and ``seed``
    are as for :func:`synthesize_if_cube`.
    """
    if schedule.structure != "fa":
        raise ValueError("synthesize_fa_measurements requires an FA schedule")
    draws = _draws_for(seed, draws, scene)
    radio, arr = scene.radio, scene.array
    n = radio.num_subcarriers
    n_el = arr.num_rx
    m = schedule.num_pri
    sub = schedule.fa_subcarrier_indices
    t_m = np.arange(m) * radio.pri_s
    out = np.zeros((n_el, m), dtype=complex)

    for t in scene.targets:
        tau = t.delay_s()
        fd = t.doppler_hz(radio.carrier_freq_hz)
        a2d = _rx_steering(scene, t)
        h = _target_coeff(scene, t, draws)
        ramp = np.exp(-2j * np.pi * sub * radio.subcarrier_spacing_hz * tau) \
            * np.exp(2j * np.pi * fd * t_m)
        out += np.outer(a2d, ramp) * (h * np.sqrt(schedule.per_symbol_power_w))

    if clutter is not None:
        out += clutter.fa_spectrum(n)[sub].T * np.sqrt(schedule.per_symbol_power_w)

    si_amp = np.sqrt(schedule.per_symbol_power_w * 10.0 ** (-radio.si_attenuation_db / 10.0))
    out += np.outer(draws.si_phases(n_el), si_amp)

    if radio.uplink_power_w > 0:
        p_rx = received_power("comm", radio.uplink_power_w, 1.0, 1.0,
                              scene.wavelength_m, radio.uplink_distance_m)
        a_up = draws.uplink_direction(scene)
        symbols = _complex_noise(rng_for(draws.seed, "uplink-symbols"),
                                 math.sqrt(p_rx / n), (m,))
        out += np.outer(a_up, symbols)

    noise_scale = math.sqrt(radio.noise_density_w_per_hz * radio.subcarrier_spacing_hz)
    out += _complex_noise(rng_for(draws.seed, "noise-fa"), noise_scale, (n_el, m))
    return out
