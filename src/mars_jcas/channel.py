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
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import cpus
from .scene import (
    SPEED_OF_LIGHT,
    RadioParams,
    ReceiverConfig,
    Target,
    ValidatedScene,
    received_power,
    steering_ura_from_sin,
)
from .seeding import rng_for
from .waveform import MarsSchedule

if TYPE_CHECKING:
    # Annotations only: a cube reads the map's methods, not the module.
    from .clutter import ClutterMap


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


def butterworth_power_gain(freq_hz, cutoff_hz: float, order: int):
    """|H(f)|^2 = 1 / (1 + (f/f_cut)^(2a)) low-pass power response (0 where it overflows)."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.abs(np.asarray(freq_hz, dtype=float) / cutoff_hz) ** (2 * order))


# Chirp noise blocks a drop may have queued on the helper thread at once.
AHEAD = 3


def chirp_noise_key(scene: ValidatedScene) -> tuple:
    """(scale, shape) of the chirp noise blocks of every IF cube of ``scene``:
    noise of power N0*B over one symbol's (num_rx, N) samples."""
    return (math.sqrt(scene.radio.noise_density_w_per_hz * scene.radio.derived_bandwidth_hz),
            (scene.array.num_rx, scene.radio.num_subcarriers))


class DropDraws:
    """The labelled random draws one drop's cubes and FA measurements share.

    Every cube of a drop reads the same draws of ``rng_for(seed, label)``,
    so each is drawn once here: the ``si`` phases, one ``target-phase`` per
    target, the ``uplink-direction``, and the chirp noise blocks, where
    block k holds the real and imaginary parts of one :func:`_complex_noise`
    draw of its own generator ``rng_for(seed, "noise-chirp", k)`` at one
    noise scale and block shape. ``chirp_reads`` gives the number of chirp
    blocks each IF cube of the drop reads, in the order they are
    synthesized; a block is kept only while a later cube will read it.
    Without it no block is kept, and a block read again is drawn again.

    Up to :data:`AHEAD` of the cube's next blocks are queued ahead of the
    cube (:class:`~mars_jcas.cpus.Queued` on a block's values), and the
    cube takes each block it asks for: drawn on the helper thread where the
    helper has started it, else drawn by the cube, as is every block too
    small for ``Queued`` to queue, such as desk_small's. ``chirp_key``, the
    blocks' (scale, shape) (:func:`chirp_noise_key`), queues the first
    cube's blocks when the drop's draws are made. Each block has its own
    generator, so the blocks do not depend on which thread draws them, in
    what order, or on the CPU count. :meth:`settle` drops the queued draws
    and waits for the one in flight.
    """

    def __init__(self, seed: int, chirp_reads: Sequence[int] = (),
                 chirp_key: Optional[tuple] = None):
        self.seed = seed
        self._reads = list(chirp_reads)
        self._si = {}
        self._phases = {}
        self._uplink_sin = None
        self._key, self._kept, self._ahead = chirp_key, {}, {}   # kept blocks, queued draws by k
        if chirp_key is not None and self._reads:
            self._queue(range(self._reads[0]))

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
        return steering_ura_from_sin(*self._uplink_sin, scene.array.with_va(False),
                                     scene.radio.wavelength_m)

    def chirp_noise(self, scale: float, shape: tuple, count: int):
        """The next IF cube's ``count`` chirp noise blocks, in block order,
        each a (2, *shape) float array of real and imaginary parts. Once
        the last is handed out, only the blocks a later cube reads stay."""
        self._reads = self._reads[1:]
        if self._key != (scale, shape):
            self.settle()
            self._key, self._kept = (scale, shape), {}
        return self._blocks(count, max(self._reads, default=0))

    def settle(self) -> None:
        """Drop the queued draws, newest first: the helper runs them in
        order, so each it has not started is unqueued before the wait for
        the one in flight."""
        for queued in reversed(self._ahead.values()):
            queued.drop()
        self._ahead.clear()

    def _draw(self, k: int, key: tuple) -> np.ndarray:
        scale, shape = key
        return _noise_parts(rng_for(self.seed, "noise-chirp", k), scale, np.empty((2,) + shape))

    def _queue(self, blocks: range) -> None:
        """Queue the draws of the first of ``blocks`` not yet kept or
        queued, up to :data:`AHEAD` queued in all."""
        for k in blocks:
            if len(self._ahead) == AHEAD:
                return
            if k not in self._kept and k not in self._ahead:
                self._ahead[k] = cpus.Queued(self._draw, k, self._key,
                                             values=math.prod(self._key[1]))

    def _blocks(self, count: int, keep: int):
        for k in range(count):
            queued = self._ahead.pop(k, None)
            self._queue(range(k + 1, count))
            block = self._kept.get(k)
            if block is None:
                block = self._draw(k, self._key) if queued is None else queued.take()
                if k < keep:
                    block.flags.writeable = False
                    self._kept[k] = block
            if k == count - 1:
                self._kept = {j: kept for j, kept in self._kept.items() if j < keep}
            yield block

    @property
    def held_chirp_blocks(self) -> int:
        """Chirp noise blocks kept for later cubes."""
        return len(self._kept)


def _target_coeff(scene: ValidatedScene, t: Target, draws: DropDraws) -> complex:
    """Round-trip channel coefficient at unit transmit power."""
    p = received_power("radar", 1.0, scene.radio.gain_tx, scene.radio.gain_rx,
                       scene.radio.wavelength_m, t.range_m, t.rcs_m2)
    return math.sqrt(p) * np.exp(1j * draws.target_phase(t))


def _rx_steering(scene: ValidatedScene, t: Target) -> np.ndarray:
    return steering_ura_from_sin(t.sin_psi_x, t.sin_psi_y, scene.array.with_va(False),
                                 scene.radio.wavelength_m)


def _tx_slot_phase(scene: ValidatedScene, t: Target, tx_col: int, tx_row: int) -> complex:
    """Phase picked up from the active transmit element's position: the
    schedule's slot (``tx_col``, ``tx_row``); slot (0, 0), the only one
    without VA, is the reference element."""
    a = scene.array
    xpos = tx_col * a.rx_cols * a.rx_spacing_x_m
    ypos = tx_row * a.rx_rows * a.rx_spacing_y_m
    k = 2.0 * np.pi / scene.radio.wavelength_m
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


# Samples per pass of the noise draw's transform: its two float32
# temporaries (128 KB) stay in cache, and a car block takes 8 passes.
NOISE_PASS = 2**14


def _noise_parts(rng, scale: float, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, a C-contiguous float (2, *shape), with the real parts,
    then the imaginary parts, of complex Gaussian noise of power
    ``scale**2``, by Box–Muller: one ``random`` draw fills ``out`` with
    uniforms u0 (``out[0]``) and u1 (``out[1]``) in [0, 1), and each sample
    is r·(cos θ, sin θ). The radius r = scale·sqrt(-ln(1 - u0)) is float64,
    so |z| is capped at sqrt(53 ln 2)·scale ≈ 6.06·scale (probability 2^-53
    a sample). The angle θ = 2π·u1 is rounded to float32, whose ``sin`` and
    ``cos`` numpy runs in SIMD; that moves a sample by less than 3e-7 of
    |z| from float64 sin and cos of the same uniforms. Every operation is
    elementwise, so a sample does not depend on the pass it falls in."""
    rng.random(out=out)
    radius, angle = out.reshape(2, -1)
    theta = np.empty(min(NOISE_PASS, radius.size), dtype=np.float32)
    trig = np.empty_like(theta)
    for start in range(0, radius.size, NOISE_PASS):
        r, a = radius[start:start + NOISE_PASS], angle[start:start + NOISE_PASS]
        t, f = theta[:r.size], trig[:r.size]
        np.subtract(1.0, r, out=r)
        np.log(r, out=r)
        np.negative(r, out=r)
        np.sqrt(r, out=r)
        r *= scale
        np.multiply(a, 2.0 * np.pi, out=t, casting="same_kind")
        np.sin(t, out=f)
        np.multiply(r, f, out=a)
        np.cos(t, out=f)
        r *= f
    return out


def _complex_noise(rng, scale: float, shape: tuple) -> np.ndarray:
    re, im = _noise_parts(rng, scale, np.empty((2,) + shape))
    return re + 1j * im


def check_if_range(key: str, range_m: float, t_sym: float) -> None:
    """Raise ``ValueError`` naming ``key`` when a target at ``range_m`` has
    a round trip longer than the OFDM symbol ``t_sym``: its beat would alias
    out of an IF cube's receive window."""
    delay = 2.0 * range_m / SPEED_OF_LIGHT
    if delay > t_sym:
        raise ValueError(f"{key}: {range_m} m has delay {delay:.3e} s > symbol duration "
                         f"{t_sym:.3e} s (beat would alias); an IF cube holds ranges up "
                         f"to {SPEED_OF_LIGHT * t_sym / 2.0} m")


def _build_rows(block, spare, mean, terms, si, noise, dc, rows) -> None:
    """Build rows ``rows`` of one chirp symbol in place in ``block``, in
    the order a zero-filled block would sum its terms: the first product
    of ``terms`` (a target's steering column and beat, or the clutter's
    slot spectrum and amplitude, always last) is written, later ones are
    added through the same rows of ``spare``. Then the self interference
    ``si``, the ``noise`` block's real and imaginary parts, minus each
    row's mean (into ``mean``), plus the residual DC ``dc``. Noise is
    added to every sample, so dropping the zero fill's 0 + x (which only
    turns -0.0 into 0.0) changes no bit of the branch. Every operation is
    row by row, so the rows can be built in any split."""
    block, spare, mean = block[rows], spare[rows], mean[rows]
    for k, (a, b) in enumerate(terms):
        np.multiply(a[rows], b, out=spare if k else block)
        if k:
            block += spare
    if not terms:
        block[...] = 0.0
    block += si[rows]
    re, im = noise
    block.real += re[rows]
    block.imag += im[rows]
    # A NaN or inf sample makes its row mean non-finite: the cube's guard
    # reads the means instead of scanning the branch again.
    block -= np.mean(block, axis=1, keepdims=True, out=mean)
    if dc is not None:
        block += dc[rows]


def synthesize_if_cube(scene: ValidatedScene, schedule: MarsSchedule,
                       clutter: Optional[ClutterMap] = None, *,
                       draws: Optional[DropDraws] = None) -> IfCube:
    """Generate both receiver branches for one CPI of the given schedule.

    ``draws`` holds the drop's shared draws (:class:`DropDraws`); without it
    the cube makes its own from the scene's seed. The schedule's VA slots
    say which transmit element fires in each chirp symbol.

    Raises ``ValueError`` when a target's round-trip delay exceeds the OFDM
    symbol (its beat frequency would alias out of the receive window), or
    when ``clutter`` does not fit the scene or the schedule's slots
    (:meth:`~mars_jcas.clutter.ClutterMap.check_fits`).
    """
    if schedule.structure == "fa":
        raise ValueError("FA structures produce per-subcarrier measurements; "
                         "use synthesize_fa_measurements")
    draws = DropDraws(scene.seed) if draws is None else draws
    radio, arr, rec = scene.radio, scene.array, scene.receiver
    n = radio.num_subcarriers
    n_el = arr.num_rx
    bw = radio.derived_bandwidth_hz
    t_sym = radio.derived_symbol_duration_s

    for j, t in enumerate(scene.targets):
        check_if_range(f"target {j}", t.range_m, t_sym)

    si_phases = draws.si_phases(n_el)
    coeffs = [_target_coeff(scene, t, draws) for t in scene.targets]
    steers = [_rx_steering(scene, t) for t in scene.targets]
    taus = [t.delay_s() for t in scene.targets]
    fds = [radio.doppler_hz(t.radial_velocity_mps) for t in scene.targets]

    flat_slots = [(e, p, a, b) for occ in schedule.va_slots
                  for e, (p, a, b) in enumerate(occ)]
    tone_pris = schedule.tone_pri_indices()
    m_tone = tone_pris.size
    p_tone = schedule.per_symbol_power_w[tone_pris]
    sqrt_p = np.sqrt(p_tone)
    if clutter is not None:
        clutter.check_fits(scene, schedule.slots_per_chirp)

    samples = np.arange(n)
    beats = []
    for tau, fd in zip(taus, fds):
        beat = np.exp(2j * np.pi * radio.chirp_rate_hz_per_s * tau * samples / bw)
        if rec.exact_within_symbol_doppler:
            beat = beat * np.exp(2j * np.pi * fd * samples / bw)
        beats.append(beat)
    noise = draws.chirp_noise(*chirp_noise_key(scene), len(flat_slots))
    # Each symbol is built in place in its own contiguous (L, N) block
    # (:func:`_build_rows`), its rows shared with the helper thread.
    chirp = np.empty((len(flat_slots), n_el, n), dtype=complex)
    spare = np.empty((n_el, n), dtype=complex)
    means = np.empty((len(flat_slots), n_el, 1), dtype=complex)
    for block, mean, (e, pri, tx_a, tx_b) in zip(chirp, means, flat_slots):
        p_slot = schedule.per_symbol_power_w[pri]
        t_ref = pri * radio.pri_s
        terms = []
        for t, h, a2d, beat, tau, fd in zip(scene.targets, coeffs, steers, beats, taus, fds):
            amp = (h * math.sqrt(p_slot) * _tx_slot_phase(scene, t, tx_a, tx_b)
                   * np.exp(2j * np.pi * fd * (t_ref - tau)))
            terms.append(((a2d * amp)[:, None], beat))
        if clutter is not None:
            # Per-bin beat tones collapse to the slot's inverse DFT.
            terms.append((clutter.chirp_spectra[e], math.sqrt(p_slot)))
        si_amp = math.sqrt(p_slot * 10.0 ** (-radio.si_attenuation_db / 10.0))
        si = si_amp * si_phases[:, None]
        dc = None if rec.residual_dc_db is None else si * 10.0 ** (-rec.residual_dc_db / 20.0)
        build = partial(_build_rows, block, spare, mean, terms, si, next(noise), dc)
        cpus.share(lambda rows: partial(build, rows), n_el, n)

    # Tone branch, already integrated per PRI (sum over the symbol's N samples).
    tone = np.zeros((n_el, m_tone), dtype=complex)
    t_m = tone_pris * radio.pri_s
    for h, a2d, tau, fd in zip(coeffs, steers, taus, fds):
        gain = _integration_factor(fd, n, bw, rec.exact_within_symbol_doppler)
        phases = np.exp(2j * np.pi * fd * (t_m - tau)) * sqrt_p
        tone += np.outer(a2d, phases) * (h * gain
                                         * np.exp(2j * np.pi * radio.carrier_freq_hz * tau))
    if clutter is not None:
        tone += clutter.tone_clutter(sqrt_p)
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
        eff_bw = 1.0 / t_sym if rec.tone_noise_bandwidth == "symbol" else 1.0 / radio.pri_s
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
                               clutter: Optional[ClutterMap] = None, *,
                               draws: Optional[DropDraws] = None) -> np.ndarray:
    """Per-PRI single-subcarrier measurements (L x M) for an FA schedule.

    Measurement m is the demodulated coefficient of subcarrier n_m: target
    phase ramps exp(-j*2*pi*n_m*df*tau) * exp(j*2*pi*f_d*t_m), static
    clutter via the aggregated table, plus self-interference, a flat share
    of the uplink, and per-subcarrier thermal noise. ``draws`` is as for
    :func:`synthesize_if_cube`; ``clutter`` must fit the scene
    (:meth:`~mars_jcas.clutter.ClutterMap.check_fits`).
    """
    if schedule.structure != "fa":
        raise ValueError("synthesize_fa_measurements requires an FA schedule")
    draws = DropDraws(scene.seed) if draws is None else draws
    radio, arr = scene.radio, scene.array
    n = radio.num_subcarriers
    n_el = arr.num_rx
    m = schedule.num_pri
    sub = schedule.fa_subcarrier_indices
    t_m = np.arange(m) * radio.pri_s
    out = np.zeros((n_el, m), dtype=complex)

    for t in scene.targets:
        tau = t.delay_s()
        fd = radio.doppler_hz(t.radial_velocity_mps)
        a2d = _rx_steering(scene, t)
        h = _target_coeff(scene, t, draws)
        ramp = np.exp(-2j * np.pi * sub * radio.subcarrier_spacing_hz * tau) \
            * np.exp(2j * np.pi * fd * t_m)
        out += np.outer(a2d, ramp) * (h * np.sqrt(schedule.per_symbol_power_w))

    if clutter is not None:
        clutter.check_fits(scene)
        out += clutter.fa_clutter(sub, np.sqrt(schedule.per_symbol_power_w))

    si_amp = np.sqrt(schedule.per_symbol_power_w * 10.0 ** (-radio.si_attenuation_db / 10.0))
    out += np.outer(draws.si_phases(n_el), si_amp)

    if radio.uplink_power_w > 0:
        p_rx = received_power("comm", radio.uplink_power_w, 1.0, 1.0,
                              radio.wavelength_m, radio.uplink_distance_m)
        a_up = draws.uplink_direction(scene)
        symbols = _complex_noise(rng_for(draws.seed, "uplink-symbols"),
                                 math.sqrt(p_rx / n), (m,))
        out += np.outer(a_up, symbols)

    noise_scale = math.sqrt(radio.noise_density_w_per_hz * radio.subcarrier_spacing_hz)
    out += _complex_noise(rng_for(draws.seed, "noise-fa"), noise_scale, (n_el, m))
    return out
