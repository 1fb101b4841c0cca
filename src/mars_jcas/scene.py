"""Scene configuration types, array steering math, resolutions, and link budgets.

All quantities are SI (m, s, Hz, W, radians) once they reach this module;
unit conversion from friendlier config keys (dBm, degrees, wavelengths)
happens in :mod:`mars_jcas.io`. Every type here is immutable after
validation and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

# Speed of light in vacuum, m/s (exact in SI).
SPEED_OF_LIGHT = 299_792_458.0


class SceneValidationError(ValueError):
    """Raised by :func:`validate_scene` with the full list of violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid scene:\n" + "\n".join(f"  - {v}" for v in self.violations))


@dataclass(frozen=True)
class RadioParams:
    """OFDM / sensing radio parameters.

    ``bandwidth_hz`` and ``symbol_duration_s`` may be supplied explicitly by a
    config for cross-checking; they must then equal ``num_subcarriers *
    subcarrier_spacing_hz`` and ``1 / subcarrier_spacing_hz``.
    """

    carrier_freq_hz: float
    subcarrier_spacing_hz: float
    num_subcarriers: int
    pri_s: float
    cpi_s: float
    avg_tx_power_w: float
    noise_density_w_per_hz: float
    symbols_per_pri: int = 1
    si_attenuation_db: float = 50.0
    uplink_power_w: float = 0.0
    uplink_distance_m: float = 100.0
    gain_tx: float = 1.0                       # linear; 0 dBi omnidirectional
    gain_rx: float = 1.0
    bandwidth_hz: Optional[float] = None       # optional explicit cross-check
    symbol_duration_s: Optional[float] = None  # optional explicit cross-check

    def __post_init__(self):
        # Parsing derives the wavelength, and the spacings given in wavelengths.
        if not self.carrier_freq_hz > 0:
            raise ValueError(f"carrier_freq_hz must be > 0, got {self.carrier_freq_hz}")

    @property
    def derived_bandwidth_hz(self) -> float:
        return self.num_subcarriers * self.subcarrier_spacing_hz

    @property
    def derived_symbol_duration_s(self) -> float:
        return 1.0 / self.subcarrier_spacing_hz

    @property
    def chirp_rate_hz_per_s(self) -> float:
        """Rate B / T_sym of the chirp one OFDM symbol carries (B T_sym = N)."""
        return self.derived_bandwidth_hz / self.derived_symbol_duration_s

    @property
    def num_pri(self) -> int:
        return int(round(self.cpi_s / self.pri_s))

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def range_res_m(self) -> float:
        """Range bin size c / (2 N df) of every range grid."""
        return SPEED_OF_LIGHT / (2.0 * self.derived_bandwidth_hz)

    @property
    def velocity_res_mps(self) -> float:
        """Velocity bin size c / (2 f_c T_CPI) of every map and of scoring."""
        return SPEED_OF_LIGHT / (2.0 * self.cpi_s * self.carrier_freq_hz)

    def doppler_hz(self, velocity_mps):
        """Two-way Doppler shift 2 v f_c / c of a radial velocity (or an array)."""
        return 2.0 * velocity_mps * self.carrier_freq_hz / SPEED_OF_LIGHT


@dataclass(frozen=True)
class ArrayGeometry:
    """Receive URA plus the small sensing-dedicated transmit array.

    When ``va_enabled`` the transmit elements are spaced at ``rx_cols *
    rx_spacing_x_m`` / ``rx_rows * rx_spacing_y_m`` so the MIMO virtual
    aperture tiles into a uniform ``(tx_cols*rx_cols) x (tx_rows*rx_rows)``
    rectangular array.
    """

    rx_cols: int
    rx_rows: int
    rx_spacing_x_m: float
    rx_spacing_y_m: float
    tx_cols: int = 1
    tx_rows: int = 1
    va_enabled: bool = False

    @property
    def num_rx(self) -> int:
        return self.rx_cols * self.rx_rows

    @property
    def slot_cols(self) -> int:
        """Columns of the transmit-slot grid: every tx column with VA, else one."""
        return self.tx_cols if self.va_enabled else 1

    @property
    def slot_rows(self) -> int:
        return self.tx_rows if self.va_enabled else 1

    @property
    def slots_per_chirp(self) -> int:
        """Time-division slots one chirp occasion expands into."""
        return self.slot_cols * self.slot_rows

    @property
    def va_cols(self) -> int:
        return self.slot_cols * self.rx_cols

    @property
    def va_rows(self) -> int:
        return self.slot_rows * self.rx_rows

    def with_va(self, enabled: bool) -> "ArrayGeometry":
        if enabled == self.va_enabled:
            return self
        return replace(self, va_enabled=enabled)


@dataclass(frozen=True)
class Target:
    """Point target described in per-axis ULA angles (psi_x, psi_y)."""

    range_m: float
    radial_velocity_mps: float
    psi_x_rad: float
    psi_y_rad: float
    rcs_m2: float

    @property
    def sin_psi_x(self) -> float:
        return math.sin(self.psi_x_rad)

    @property
    def sin_psi_y(self) -> float:
        return math.sin(self.psi_y_rad)

    def delay_s(self) -> float:
        return 2.0 * self.range_m / SPEED_OF_LIGHT


@dataclass(frozen=True)
class ClutterConfig:
    """Ground clutter patch grid and terrain selection."""

    enabled: bool = False
    terrain: str = "grass_5ghz"
    area_x_m: float = 2000.0
    area_y_m: float = 1000.0
    cell_m: float = 1.0
    station_height_m: float = 10.0
    area_standoff_m: float = 0.0  # first patch row this far from the station
    # Optional per-scene overrides of the terrain preset.
    gtri_a: Optional[float] = None
    gtri_b: Optional[float] = None
    gtri_c: Optional[float] = None
    gtri_d: Optional[float] = None
    surface_rms_height_m: Optional[float] = None


@dataclass(frozen=True)
class ReceiverConfig:
    """Post-mixing receive chain knobs (both branches)."""

    butterworth_order: int = 5
    butterworth_cutoff_hz: Optional[float] = None  # default: guard-based, df/2 when guard = 0
    dc_removal: bool = True                        # tone-branch mean-across-PRIs subtraction
    residual_dc_db: Optional[float] = None         # chirp-branch DCOC leakage, None = ideal
    tone_noise_bandwidth: str = "pri"              # "pri" or "symbol"
    exact_within_symbol_doppler: bool = False
    uplink_cfo_fraction: float = 0.05              # uplink offset in subcarrier spacings


@dataclass(frozen=True)
class WaveformConfig:
    """Sensing waveform structure request (resolved by build_schedule)."""

    structure: str = "comb"  # fa | lshape | comb | conventional_chirp
    chirp_pri_indices: tuple[int, ...] = (1, 6)
    tone_subcarrier_index: Optional[int] = None  # default: nearest band center
    guard_subcarriers: int = 0
    duty_ratio: Optional[float] = None           # must equal 1/symbols_per_pri when given


@dataclass(frozen=True)
class SceneConfig:
    """Full experiment description prior to validation."""

    radio: RadioParams
    array: ArrayGeometry
    waveform: WaveformConfig = field(default_factory=WaveformConfig)
    clutter: ClutterConfig = field(default_factory=ClutterConfig)
    receiver: ReceiverConfig = field(default_factory=ReceiverConfig)
    targets: tuple[Target, ...] = ()
    seed: int = 0


@dataclass(frozen=True)
class ValidatedScene(SceneConfig):
    """A :class:`SceneConfig` that passed validation. It holds no derived
    copy: bin sizes, bandwidth, symbol time, wavelength and M are read
    from its radio."""


@dataclass(frozen=True)
class ResolutionReport:
    range_res_m: float
    velocity_res_mps: float
    sin_angle_res_x: float
    sin_angle_res_y: float
    max_unambiguous_speed_mps: float


def steering_from_sin(sin_psi, count: int, spacing_m: float, wavelength_m: float) -> np.ndarray:
    """ULA steering vector by sin(psi); sin arrays add axes after the element axis."""
    n = np.arange(count).reshape((count,) + (1,) * np.ndim(sin_psi))
    return np.exp(2j * np.pi * n * spacing_m * sin_psi / wavelength_m)


def steering_ura_from_sin(sin_psi_x, sin_psi_y, arr: ArrayGeometry, wavelength_m) -> np.ndarray:
    """Steering vector of ``arr``'s aperture, ``va_cols x va_rows`` elements at
    the receive spacing, on sin-angle coordinates: the receive URA without VA,
    the virtual URA with it. The y-axis factor is on the left of the Kronecker
    product (x index runs fastest). Equal-length arrays of C sin-angle pairs
    give one column per pair, (va_cols*va_rows, C)."""
    ax = steering_from_sin(sin_psi_x, arr.va_cols, arr.rx_spacing_x_m, wavelength_m)
    ay = steering_from_sin(sin_psi_y, arr.va_rows, arr.rx_spacing_y_m, wavelength_m)
    return (ay[:, None] * ax[None]).reshape((-1,) + ax.shape[1:])


def received_power(kind: str, p_tx_w: float, gain_tx: float, gain_rx: float,
                   wavelength_m: float, range_m: float,
                   rcs_m2: Optional[float] = None) -> float:
    """Link budget: one-way R^2 law for ``comm``, radar-equation R^4 law
    (with target cross section) for ``radar``."""
    if range_m <= 0:
        raise ValueError("received_power: range must be > 0")
    if kind == "comm":
        return p_tx_w * gain_tx * gain_rx * wavelength_m**2 / ((4.0 * np.pi) ** 2 * range_m**2)
    if kind == "radar":
        if rcs_m2 is None or rcs_m2 <= 0:
            raise ValueError("received_power: radar kind requires rcs_m2 > 0")
        return (p_tx_w * gain_tx * gain_rx * wavelength_m**2 * rcs_m2
                / ((4.0 * np.pi) ** 3 * range_m**4))
    raise ValueError(f"received_power: unknown kind {kind!r}")


def resolution_report(radio: RadioParams, arr: ArrayGeometry) -> ResolutionReport:
    """Range / velocity / sin-angle resolutions and the unambiguous speed.

    The sin-angle resolution uses the virtual aperture length per axis when
    the geometry enables VA, halving the no-VA value for a 2x small array.
    """
    lam = radio.wavelength_m
    return ResolutionReport(
        range_res_m=radio.range_res_m,
        velocity_res_mps=radio.velocity_res_mps,
        sin_angle_res_x=lam / (arr.va_cols * arr.rx_spacing_x_m),
        sin_angle_res_y=lam / (arr.va_rows * arr.rx_spacing_y_m),
        max_unambiguous_speed_mps=SPEED_OF_LIGHT / (4.0 * radio.carrier_freq_hz * radio.pri_s),
    )


_REL_TOL = 1e-9
_STRUCTURES = ("fa", "lshape", "comb", "conventional_chirp")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=0.0)


def validate_scene(config: SceneConfig) -> ValidatedScene:
    """Check every invariant of a scene and return the normalized form.

    Raises :class:`SceneValidationError` carrying the complete list of
    violations rather than stopping at the first one. Chirp occasions are
    not checked here: whether they fit and stay disjoint depends on each
    pipeline's VA choice, so :func:`mars_jcas.waveform.build_schedule`
    owns those rules.
    """
    v: list[str] = []
    r, a, w = config.radio, config.array, config.waveform

    # Echoes and the uplink follow far-field equations: none nearer than this.
    far = f"at least one wavelength ({r.wavelength_m} m)"
    if r.subcarrier_spacing_hz <= 0:
        v.append("radio.subcarrier_spacing_hz must be > 0")
    if r.num_subcarriers < 2:
        v.append("radio.num_subcarriers must be >= 2")
    for name in ("avg_tx_power_w", "noise_density_w_per_hz", "pri_s", "cpi_s"):
        if getattr(r, name) <= 0:
            v.append(f"radio.{name} must be > 0")
    if r.uplink_power_w < 0:
        v.append("radio.uplink_power_w must be >= 0")
    if not r.uplink_distance_m >= r.wavelength_m:
        v.append(f"radio.uplink_distance_m must be {far}")
    if r.si_attenuation_db < 0:
        v.append("radio.si_attenuation_db must be >= 0")
    if r.gain_tx <= 0 or r.gain_rx <= 0:
        v.append("radio antenna gains must be > 0 (linear)")

    # A rule on a derived value runs only when the value it divides by is
    # not zero; that key's own rule has reported it.
    bandwidth = r.derived_bandwidth_hz
    t_sym = r.derived_symbol_duration_s if r.subcarrier_spacing_hz else None
    if r.bandwidth_hz is not None and not _close(r.bandwidth_hz, bandwidth):
        v.append(f"radio.bandwidth_hz={r.bandwidth_hz} inconsistent with "
                 f"num_subcarriers*subcarrier_spacing_hz={bandwidth}")
    if None not in (t_sym, r.symbol_duration_s) and not _close(r.symbol_duration_s, t_sym):
        v.append(f"radio.symbol_duration_s={r.symbol_duration_s} inconsistent with "
                 f"1/subcarrier_spacing_hz={t_sym}")

    # A ratio past the float range is no integer count either.
    ratio = r.cpi_s / r.pri_s if r.pri_s else None
    num_pri = r.num_pri if ratio is not None and math.isfinite(ratio) else 0
    if ratio is not None and (num_pri < 1 or not _close(num_pri * r.pri_s, r.cpi_s)):
        v.append(f"radio.cpi_s={r.cpi_s} is not an integer multiple of pri_s={r.pri_s}")
    if r.symbols_per_pri < 1:
        v.append("radio.symbols_per_pri must be >= 1")
    elif t_sym is not None and not _close(r.symbols_per_pri * t_sym, r.pri_s):
        v.append(f"radio.pri_s={r.pri_s} does not equal symbols_per_pri*symbol_duration "
                 f"({r.symbols_per_pri}*{t_sym})")

    if a.rx_cols < 1 or a.rx_rows < 1:
        v.append("array.rx_cols and array.rx_rows must be >= 1")
    if a.tx_cols < 1 or a.tx_rows < 1:
        v.append("array.tx_cols and array.tx_rows must be >= 1")
    if a.rx_spacing_x_m <= 0 or a.rx_spacing_y_m <= 0:
        v.append("array element spacings must be > 0")

    if w.structure not in _STRUCTURES:
        v.append(f"waveform.structure must be one of {_STRUCTURES}, got {w.structure!r}")
    if w.guard_subcarriers < 0:
        v.append("waveform.guard_subcarriers must be >= 0")
    if w.tone_subcarrier_index is not None and not (0 <= w.tone_subcarrier_index < r.num_subcarriers):
        v.append("waveform.tone_subcarrier_index out of subcarrier range")
    if (w.duty_ratio is not None and r.symbols_per_pri
            and not _close(w.duty_ratio, 1.0 / r.symbols_per_pri)):
        v.append(f"waveform.duty_ratio={w.duty_ratio} incompatible with "
                 f"symbols_per_pri={r.symbols_per_pri} (expected {1.0 / r.symbols_per_pri})")

    for k, t in enumerate(config.targets):
        if not t.range_m >= r.wavelength_m:
            v.append(f"targets[{k}].range_m must be {far}")
        if t.rcs_m2 <= 0:
            v.append(f"targets[{k}].rcs_m2 must be > 0")
        s2 = math.sin(t.psi_x_rad) ** 2 + math.sin(t.psi_y_rad) ** 2
        if s2 > 1.0 + 1e-12:
            v.append(f"targets[{k}]: sin^2(psi_x) + sin^2(psi_y) = {s2:.6f} > 1 "
                     "(direction vector would be complex)")

    cl = config.clutter
    if cl.enabled:
        if cl.station_height_m <= 0:
            v.append("clutter.station_height_m must be > 0 (grazing-angle model)")
        if cl.cell_m <= 0 or cl.area_x_m <= 0 or cl.area_y_m <= 0:
            v.append("clutter area and cell size must be > 0")
        else:
            # The grid has round(area / cell_m) patches a side; round()
            # halves to even, so a ratio of at most 0.5 gives none.
            for key in ("area_x_m", "area_y_m"):
                if getattr(cl, key) / cl.cell_m <= 0.5:
                    v.append(f"clutter.{key}={getattr(cl, key)} holds no patch of "
                             f"cell_m={cl.cell_m}: round({key} / cell_m) is 0")
        if cl.area_standoff_m < 0:
            v.append("clutter.area_standoff_m must be >= 0")

    rec = config.receiver
    if rec.butterworth_order < 1:
        v.append("receiver.butterworth_order must be >= 1")
    if rec.butterworth_cutoff_hz is not None and rec.butterworth_cutoff_hz <= 0:
        v.append("receiver.butterworth_cutoff_hz must be > 0")
    if rec.residual_dc_db is not None and rec.residual_dc_db < 0:
        v.append("receiver.residual_dc_db must be >= 0 (the leak lies below the SI)")
    if rec.tone_noise_bandwidth not in ("pri", "symbol"):
        v.append("receiver.tone_noise_bandwidth must be 'pri' or 'symbol'")

    if v:
        raise SceneValidationError(v)

    return ValidatedScene(
        radio=r, array=a, waveform=w, clutter=cl, receiver=rec,
        targets=tuple(config.targets), seed=config.seed,
    )
