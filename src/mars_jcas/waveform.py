"""MaRS waveform construction: chirp-through-OFDM samples, per-CPI
schedules (FA / L-shape / comb / conventional), VA time-division slots,
power allocation, and time-frequency resource overhead accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scene import ArrayGeometry, RadioParams


@dataclass(frozen=True)
class ChirpSpec:
    """Discrete chirp occupying one OFDM symbol.

    The time-bandwidth product is pinned to the sample count (B*T_sym = N),
    so the pair (chirp_rate, num_samples) fully determines the symbol.
    """

    chirp_rate_hz_per_s: float
    num_samples: int

    @classmethod
    def from_radio(cls, radio: RadioParams) -> "ChirpSpec":
        mu = radio.derived_bandwidth_hz / radio.derived_symbol_duration_s
        return cls(chirp_rate_hz_per_s=mu, num_samples=radio.num_subcarriers)

    @property
    def symbol_duration_s(self) -> float:
        return math.sqrt(self.num_samples / self.chirp_rate_hz_per_s)

    @property
    def bandwidth_hz(self) -> float:
        return self.chirp_rate_hz_per_s * self.symbol_duration_s


def chirp_time_samples(spec: ChirpSpec) -> np.ndarray:
    """Discrete-time chirp x[k] = exp(j*pi*mu*(k*T_sym/N)^2), k = 0..N-1.

    With B*T_sym = N this reduces to exp(j*pi*k^2/N): constant modulus, and
    ideal (zero) periodic autocorrelation for even N.
    """
    if spec.num_samples < 2:
        raise ValueError("chirp_time_samples: num_samples must be >= 2")
    k = np.arange(spec.num_samples, dtype=np.float64)
    step = spec.symbol_duration_s / spec.num_samples
    return np.exp(1j * np.pi * spec.chirp_rate_hz_per_s * (k * step) ** 2)


def chirp_freq_coeffs(samples: np.ndarray) -> np.ndarray:
    """Frequency-domain OFDM data that regenerates ``samples``:
    X[n] = (1/sqrt(N)) * sum_k x[k] exp(-j*2*pi*n*k/N)."""
    samples = np.asarray(samples)
    return np.fft.fft(samples) / math.sqrt(samples.size)


@dataclass(frozen=True, eq=False)
class MarsSchedule:
    """Fully resolved per-PRI sensing plan for one CPI.

    ``chirp_pri_indices`` are chirp *occasion* starts; with VA each occasion
    expands into ``slots_per_chirp`` consecutive PRIs, one transmit element
    per slot (``va_slots``, x-fastest element order). Every other PRI's
    sensing symbol is the single tone (or, for FA, one random subcarrier).
    """

    num_pri: int
    structure: str
    chirp_pri_indices: tuple
    tone_subcarrier_index: int
    symbols_per_pri: int
    guard_subcarriers: int
    slots_per_chirp: int
    va_slots: tuple            # per occasion: tuple of (pri, tx_col, tx_row)
    per_symbol_power_w: np.ndarray
    avg_power_w: float
    fa_subcarrier_indices: Optional[np.ndarray] = None
    fa_seed: Optional[int] = None

    @property
    def duty_ratio(self) -> float:
        """Fraction of each PRI's OFDM symbols carrying sensing content."""
        return 1.0 / self.symbols_per_pri

    @property
    def num_chirp_occasions(self) -> int:
        return len(self.chirp_pri_indices)

    @property
    def num_chirp_symbols(self) -> int:
        return self.num_chirp_occasions * self.slots_per_chirp

    def chirp_slot_pris(self) -> np.ndarray:
        """All PRIs carrying a chirp symbol, occasion-major / slot order."""
        return np.array([pri for occ in self.va_slots for (pri, _, _) in occ], dtype=int)

    def tone_pri_indices(self) -> np.ndarray:
        if self.structure in ("fa", "conventional_chirp"):
            return np.array([], dtype=int)
        mask = np.ones(self.num_pri, dtype=bool)
        mask[self.chirp_slot_pris()] = False
        return np.nonzero(mask)[0]

    @property
    def num_tone_pris(self) -> int:
        return self.tone_pri_indices().size

    def to_dict(self) -> dict:
        d = {
            "num_pri": self.num_pri,
            "structure": self.structure,
            "chirp_pri_indices": [int(i) for i in self.chirp_pri_indices],
            "tone_subcarrier_index": int(self.tone_subcarrier_index),
            "symbols_per_pri": int(self.symbols_per_pri),
            "guard_subcarriers": int(self.guard_subcarriers),
            "slots_per_chirp": int(self.slots_per_chirp),
            "va_slots": [[[int(p), int(a), int(b)] for (p, a, b) in occ] for occ in self.va_slots],
            "per_symbol_power_w": [float(p) for p in self.per_symbol_power_w],
            "avg_power_w": float(self.avg_power_w),
            "fa_seed": self.fa_seed,
        }
        if self.fa_subcarrier_indices is not None:
            d["fa_subcarrier_indices"] = [int(n) for n in self.fa_subcarrier_indices]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MarsSchedule":
        fa = d.get("fa_subcarrier_indices")
        return cls(
            num_pri=int(d["num_pri"]),
            structure=d["structure"],
            chirp_pri_indices=tuple(int(i) for i in d["chirp_pri_indices"]),
            tone_subcarrier_index=int(d["tone_subcarrier_index"]),
            symbols_per_pri=int(d["symbols_per_pri"]),
            guard_subcarriers=int(d["guard_subcarriers"]),
            slots_per_chirp=int(d["slots_per_chirp"]),
            va_slots=tuple(tuple((int(p), int(a), int(b)) for (p, a, b) in occ)
                           for occ in d["va_slots"]),
            per_symbol_power_w=np.array(d["per_symbol_power_w"], dtype=float),
            avg_power_w=float(d["avg_power_w"]),
            fa_subcarrier_indices=None if fa is None else np.array(fa, dtype=int),
            fa_seed=d.get("fa_seed"),
        )


def build_schedule(radio: RadioParams, arr: ArrayGeometry, structure: str, *,
                   chirp_pri_indices=(1,), tone_subcarrier_index: Optional[int] = None,
                   guard_subcarriers: int = 0, fa_seed: Optional[int] = None) -> MarsSchedule:
    """Resolve a waveform structure into a full per-PRI plan.

    Power allocation for lshape/comb: each chirp occasion transmits 10x the
    average symbol power in total (split evenly across its VA slots) and the
    tone symbols get (M - 10W)/(M - W*slots) of the average, which keeps the
    CPI average exactly at ``radio.avg_tx_power_w``. FA and conventional
    schedules transmit the average power in every sensing symbol.
    """
    m_total = radio.num_pri
    p_avg = radio.avg_tx_power_w
    n = radio.num_subcarriers
    tone_idx = n // 2 if tone_subcarrier_index is None else int(tone_subcarrier_index)
    slots = arr.slots_per_chirp

    if structure == "conventional_chirp":
        occasions = tuple(range(m_total))
        va_slots = tuple(((i, 0, 0),) for i in occasions)
        power = np.full(m_total, p_avg)
        return MarsSchedule(m_total, structure, occasions, tone_idx, radio.symbols_per_pri,
                            guard_subcarriers, 1, va_slots, power, p_avg)

    if structure == "fa":
        if arr.va_enabled:
            raise ValueError("FA structure combined with virtual aperture is undefined")
        rng = np.random.default_rng(fa_seed)
        fa_idx = rng.integers(0, n, size=m_total)
        power = np.full(m_total, p_avg)
        return MarsSchedule(m_total, structure, (), tone_idx, radio.symbols_per_pri,
                            guard_subcarriers, 1, (), power, p_avg,
                            fa_subcarrier_indices=fa_idx, fa_seed=fa_seed)

    if structure not in ("lshape", "comb"):
        raise ValueError(f"unknown waveform structure {structure!r}")

    occasions = tuple(int(i) for i in chirp_pri_indices)
    if structure == "lshape" and len(occasions) != 1:
        raise ValueError("lshape requires exactly one chirp occasion")
    if not occasions:
        raise ValueError("comb requires at least one chirp occasion")
    if min(occasions) < 1:
        raise ValueError("chirp occasion index 0 is forbidden (nearest-neighbour "
                         "expansion needs a preceding tone PRI)")
    if any(j <= i for i, j in zip(occasions, occasions[1:])):
        raise ValueError("chirp occasion indices must be strictly increasing")
    w = len(occasions)
    if 10 * w >= m_total:
        raise ValueError(f"power allocation requires 10*W < M (W={w}, M={m_total})")

    va_slots = []
    for i in occasions:
        occ = []
        for b in range(arr.tx_rows if arr.va_enabled else 1):
            for a in range(arr.tx_cols if arr.va_enabled else 1):
                occ.append((i + b * (arr.tx_cols if arr.va_enabled else 1) + a, a, b))
        va_slots.append(tuple(occ))
    flat = [p for occ in va_slots for (p, _, _) in occ]
    if max(flat) >= m_total:
        raise ValueError(f"chirp PRI slots {flat} exceed num_pri={m_total}")
    if len(set(flat)) != len(flat):
        raise ValueError(f"VA expansion of occasions {occasions} overlaps; "
                         "spread the occasion starts by at least the slot count")

    p_chirp_slot = 10.0 * p_avg / slots
    p_tone = p_avg * (m_total - 10.0 * w) / (m_total - w * slots)
    power = np.full(m_total, p_tone)
    power[flat] = p_chirp_slot
    return MarsSchedule(m_total, structure, occasions, tone_idx, radio.symbols_per_pri,
                        guard_subcarriers, slots, tuple(va_slots), power, p_avg)


def symbol_time_samples(schedule: MarsSchedule, radio: RadioParams, pri_index: int) -> np.ndarray:
    """Unit-power time samples of the sensing symbol in one PRI (pure phase
    for chirp, tone, and FA symbols alike)."""
    if not 0 <= pri_index < schedule.num_pri:
        raise ValueError(f"pri_index {pri_index} outside 0..{schedule.num_pri - 1}")
    n = radio.num_subcarriers
    k = np.arange(n)
    if schedule.structure == "fa":
        sub = int(schedule.fa_subcarrier_indices[pri_index])
        return np.exp(2j * np.pi * sub * k / n)
    if pri_index in set(schedule.chirp_slot_pris().tolist()):
        return chirp_time_samples(ChirpSpec.from_radio(radio))
    return np.exp(2j * np.pi * schedule.tone_subcarrier_index * k / n)


def overhead_fraction(schedule: MarsSchedule, radio: RadioParams) -> float:
    """Sensing share of the CPI's time-frequency resource elements.

    A chirp symbol consumes all N subcarriers; a tone or FA symbol consumes
    one plus the configured guard width. The denominator counts every OFDM
    symbol in the CPI (``num_pri * symbols_per_pri`` symbols of N elements).
    """
    n = radio.num_subcarriers
    total = schedule.num_pri * schedule.symbols_per_pri * n
    if schedule.structure == "conventional_chirp":
        used = schedule.num_pri * n
    elif schedule.structure == "fa":
        used = schedule.num_pri * (1 + schedule.guard_subcarriers)
    else:
        used = (schedule.num_chirp_symbols * n
                + schedule.num_tone_pris * (1 + schedule.guard_subcarriers))
    return used / total
