"""Config parsing, serialization, and run manifests.

Configs are YAML with nested sections; keys carry explicit unit suffixes
(``_dbm``, ``_ghz``, ``_deg``, ``_wavelengths``) and are converted to SI at
parse time. Parsing fails closed: unknown keys, duplicate unit variants,
and type mismatches all raise :class:`ConfigError` with path-qualified
messages. CSV output uses locale-independent full-precision scientific
notation so replays are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .channel import IfCube
from .harness import CustomRanges, ExperimentPlan
from .pipeline import PipelineSpec
from .scene import (
    ArrayGeometry,
    ClutterConfig,
    RadioParams,
    ReceiverConfig,
    SceneConfig,
    Target,
    WaveformConfig,
)
from .waveform import MarsSchedule

class ConfigError(ValueError):
    pass


def dbm_to_watts(v: float) -> float:
    return 10.0 ** (float(v) / 10.0) / 1000.0


class _Section:
    """One config mapping with fail-closed key accounting."""

    def __init__(self, data: dict, path: str):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
        self.data = data
        self.path = path
        self.seen = set()

    def take(self, *variants, required=False, default=None):
        """variants: (key, converter) pairs; at most one may be present."""
        present = [(k, fn) for k, fn in variants if k in self.data]
        if len(present) > 1:
            keys = ", ".join(k for k, _ in present)
            raise ConfigError(f"{self.path}: give only one of {keys}")
        if not present:
            if required:
                raise ConfigError(f"{self.path}: missing required key "
                                  f"{' or '.join(k for k, _ in variants)}")
            return default
        key, fn = present[0]
        self.seen.add(key)
        raw = self.data[key]
        try:
            return fn(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.path}.{key}: bad value {raw!r} ({exc})") from exc

    def finish(self):
        unknown = set(self.data) - self.seen
        if unknown:
            raise ConfigError(f"{self.path}: unknown keys {sorted(unknown)}")


def _bool(v):
    if isinstance(v, bool):
        return v
    raise ValueError("expected true/false")


def _float_list(v):
    return tuple(float(x) for x in v)


def _int_list(v):
    return tuple(int(x) for x in v)


def _pair(v):
    pair = tuple(float(x) for x in v)
    if len(pair) != 2:
        raise ValueError("expected [low, high]")
    return pair


def _parse_radio(data, path) -> RadioParams:
    s = _Section(data, path)
    carrier = s.take(("carrier_freq_hz", float), ("carrier_freq_ghz", lambda v: float(v) * 1e9),
                     required=True)
    spacing = s.take(("subcarrier_spacing_hz", float),
                     ("subcarrier_spacing_khz", lambda v: float(v) * 1e3), required=True)
    n = s.take(("num_subcarriers", int), required=True)
    pri = s.take(("pri_s", float), ("pri_ms", lambda v: float(v) * 1e-3), required=True)
    cpi = s.take(("cpi_s", float), ("cpi_ms", lambda v: float(v) * 1e-3),
                 ("num_pri", lambda v: int(v) * pri), required=True)
    radio = RadioParams(
        carrier_freq_hz=carrier,
        subcarrier_spacing_hz=spacing,
        num_subcarriers=n,
        pri_s=pri,
        cpi_s=cpi,
        symbols_per_pri=s.take(("symbols_per_pri", int), default=1),
        avg_tx_power_w=s.take(("avg_tx_power_w", float), ("avg_tx_power_dbm", dbm_to_watts),
                              required=True),
        noise_density_w_per_hz=s.take(("noise_density_w_per_hz", float),
                                      ("noise_density_dbm_per_hz", dbm_to_watts),
                                      required=True),
        si_attenuation_db=s.take(("si_attenuation_db", float), default=50.0),
        uplink_power_w=s.take(("uplink_power_w", float), ("uplink_power_dbm", dbm_to_watts),
                              default=0.0),
        uplink_distance_m=s.take(("uplink_distance_m", float), default=100.0),
        gain_tx=s.take(("gain_tx", float),
                       ("gain_tx_dbi", lambda v: 10.0 ** (float(v) / 10.0)), default=1.0),
        gain_rx=s.take(("gain_rx", float),
                       ("gain_rx_dbi", lambda v: 10.0 ** (float(v) / 10.0)), default=1.0),
        bandwidth_hz=s.take(("bandwidth_hz", float), ("bandwidth_mhz", lambda v: float(v) * 1e6)),
        symbol_duration_s=s.take(("symbol_duration_s", float),
                                 ("symbol_duration_us", lambda v: float(v) * 1e-6)),
    )
    s.finish()
    return radio


def _parse_array(data, path, wavelength_m) -> ArrayGeometry:
    s = _Section(data, path)
    per_wl = lambda v: float(v) * wavelength_m
    arr = ArrayGeometry(
        rx_cols=s.take(("rx_cols", int), required=True),
        rx_rows=s.take(("rx_rows", int), required=True),
        rx_spacing_x_m=s.take(("rx_spacing_x_m", float), ("rx_spacing_x_wavelengths", per_wl),
                              default=wavelength_m / 2.0),
        rx_spacing_y_m=s.take(("rx_spacing_y_m", float), ("rx_spacing_y_wavelengths", per_wl),
                              default=wavelength_m / 2.0),
        tx_cols=s.take(("tx_cols", int), default=1),
        tx_rows=s.take(("tx_rows", int), default=1),
        va_enabled=s.take(("va_enabled", _bool), default=False),
    )
    s.finish()
    return arr


def _parse_waveform(data, path) -> WaveformConfig:
    s = _Section(data, path)
    cfg = WaveformConfig(
        structure=s.take(("structure", str), default="comb"),
        chirp_pri_indices=s.take(("chirp_pri_indices", _int_list), default=(1,)),
        tone_subcarrier_index=s.take(("tone_subcarrier_index", int)),
        guard_subcarriers=s.take(("guard_subcarriers", int), default=0),
        duty_ratio=s.take(("duty_ratio", float)),
    )
    s.finish()
    return cfg


def _parse_clutter(data, path) -> ClutterConfig:
    s = _Section(data, path)
    cfg = ClutterConfig(
        enabled=s.take(("enabled", _bool), default=False),
        terrain=s.take(("terrain", str), default="grass_5ghz"),
        area_x_m=s.take(("area_x_m", float), default=2000.0),
        area_y_m=s.take(("area_y_m", float), default=1000.0),
        cell_m=s.take(("cell_m", float), default=1.0),
        station_height_m=s.take(("station_height_m", float), default=10.0),
        area_standoff_m=s.take(("area_standoff_m", float), default=0.0),
        gtri_a=s.take(("gtri_a", float)),
        gtri_b=s.take(("gtri_b", float)),
        gtri_c=s.take(("gtri_c", float)),
        gtri_d=s.take(("gtri_d", float)),
        surface_rms_height_m=s.take(("surface_rms_height_m", float)),
    )
    s.finish()
    return cfg


def _parse_receiver(data, path) -> ReceiverConfig:
    s = _Section(data, path)
    cfg = ReceiverConfig(
        butterworth_order=s.take(("butterworth_order", int), default=5),
        butterworth_cutoff_hz=s.take(("butterworth_cutoff_hz", float)),
        dc_removal=s.take(("dc_removal", _bool), default=True),
        residual_dc_db=s.take(("residual_dc_db", float)),
        tone_noise_bandwidth=s.take(("tone_noise_bandwidth", str), default="pri"),
        exact_within_symbol_doppler=s.take(("exact_within_symbol_doppler", _bool),
                                           default=False),
        uplink_cfo_fraction=s.take(("uplink_cfo_fraction", float), default=0.05),
    )
    s.finish()
    return cfg


def _parse_target(data, path) -> Target:
    s = _Section(data, path)
    deg = lambda v: math.radians(float(v))
    sin_to_rad = lambda v: math.asin(float(v))
    t = Target(
        range_m=s.take(("range_m", float), ("range_km", lambda v: float(v) * 1e3),
                       required=True),
        radial_velocity_mps=s.take(("radial_velocity_mps", float),
                                   ("speed_kmh", lambda v: float(v) / 3.6), required=True),
        psi_x_rad=s.take(("psi_x_rad", float), ("psi_x_deg", deg), ("sin_psi_x", sin_to_rad),
                         default=0.0),
        psi_y_rad=s.take(("psi_y_rad", float), ("psi_y_deg", deg), ("sin_psi_y", sin_to_rad),
                         default=0.0),
        rcs_m2=s.take(("rcs_m2", float), required=True),
    )
    s.finish()
    return t


def _parse_pipeline(data, path) -> PipelineSpec:
    s = _Section(data, path)
    spec = PipelineSpec(
        structure=s.take(("structure", str), default="comb"),
        suppressor=s.take(("suppressor", str), default="sthp"),
        eps_mode=s.take(("eps_mode", str), default="inf"),
        refinement=s.take(("refinement", str), default="fft"),
        va=s.take(("va", _bool), default=False),
        music_factor=s.take(("music_factor", int), default=10),
        stte_guard=s.take(("stte_guard", int), default=1),
    )
    s.finish()
    conflict = spec.conflict()
    if conflict:
        raise ConfigError(f"{path}.{conflict[0]}: {conflict[1]}")
    return spec


def _parse_custom(data, path) -> CustomRanges:
    s = _Section(data, path)
    cfg = CustomRanges(
        range_m=s.take(("range_m", _pair), default=(100.0, 500.0)),
        speed_mps=s.take(("speed_mps", _pair), default=(7.0, 50.0)),
        sin_psi_x=s.take(("sin_psi_x", _pair), default=(-0.5, 0.5)),
        sin_psi_y=s.take(("sin_psi_y", _pair), default=(-0.5, 0.5)),
        rcs_m2=s.take(("rcs_m2", float), default=100.0),
    )
    s.finish()
    return cfg


def _parse_experiment(data, path, default_seed) -> ExperimentPlan:
    s = _Section(data, path)
    pipelines_raw = s.take(("pipelines", list), default=[{}])
    pipelines = tuple(_parse_pipeline(p, f"{path}.pipelines[{i}]")
                      for i, p in enumerate(pipelines_raw))
    sweep_values = s.take(("sweep_values", _float_list),
                          ("sweep_values_dbm", lambda v: tuple(dbm_to_watts(x) for x in v)),
                          ("sweep_values_m", _float_list), default=())
    custom_raw = s.take(("custom", dict), default=None)
    deg = lambda v: math.radians(float(v))
    plan = ExperimentPlan(
        scenario=s.take(("scenario", str), default="custom"),
        num_drops=s.take(("num_drops", int), default=100),
        sweep_axis=s.take(("sweep_axis", str), default="tx_power"),
        sweep_values=sweep_values,
        pipelines=pipelines,
        target_count=s.take(("target_count", int), default=1),
        seed=s.take(("seed", int), default=default_seed),
        range_bounds_m=s.take(("range_bounds_m", _pair), default=(100.0, 1000.0)),
        azimuth_max_rad=s.take(("azimuth_max_rad", float), ("azimuth_max_deg", deg),
                               default=math.radians(60.0)),
        custom=_parse_custom(custom_raw or {}, f"{path}.custom"),
        workers=s.take(("workers", int), default=1),
    )
    s.finish()
    try:
        return plan.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(raw: dict, source: str = "config"):
    """Build (SceneConfig, ExperimentPlan or None) from a parsed mapping."""
    if not isinstance(raw, dict) or not raw:
        raise ConfigError(f"{source}: empty config; required sections: radio, array")
    top = _Section(raw, source)
    radio_raw = top.take(("radio", dict), required=True)
    radio = _parse_radio(radio_raw, f"{source}.radio")
    array_raw = top.take(("array", dict), required=True)
    arr = _parse_array(array_raw, f"{source}.array", radio.wavelength_m)
    waveform = _parse_waveform(top.take(("waveform", dict), default={}), f"{source}.waveform")
    clutter = _parse_clutter(top.take(("clutter", dict), default={}), f"{source}.clutter")
    receiver = _parse_receiver(top.take(("receiver", dict), default={}), f"{source}.receiver")
    targets_raw = top.take(("targets", list), default=[])
    targets = tuple(_parse_target(t, f"{source}.targets[{i}]")
                    for i, t in enumerate(targets_raw))
    seed = top.take(("seed", int), default=0)
    experiment_raw = top.take(("experiment", dict), default=None)
    top.finish()
    scene = SceneConfig(radio=radio, array=arr, waveform=waveform, clutter=clutter,
                        receiver=receiver, targets=targets, seed=seed)
    plan = (_parse_experiment(experiment_raw, f"{source}.experiment", seed)
            if experiment_raw is not None else None)
    return scene, plan


def parse_config(path):
    """Load a YAML config file into (SceneConfig, ExperimentPlan or None)."""
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    if raw is None:
        raise ConfigError(f"{path}: empty config; required sections: radio, array")
    return config_from_dict(raw, source=str(path))


def scene_to_dict(config: SceneConfig) -> dict:
    """Canonical SI form with all defaults resolved (round-trips through
    :func:`config_from_dict`)."""
    radio = {k: v for k, v in asdict(config.radio).items() if v is not None}
    out = {
        "radio": radio,
        "array": asdict(config.array),
        "waveform": {k: (list(v) if isinstance(v, tuple) else v)
                     for k, v in asdict(config.waveform).items() if v is not None},
        "clutter": {k: v for k, v in asdict(config.clutter).items() if v is not None},
        "receiver": {k: v for k, v in asdict(config.receiver).items() if v is not None},
        "targets": [asdict(t) for t in config.targets],
        "seed": config.seed,
    }
    return out


def plan_to_dict(plan: ExperimentPlan) -> dict:
    d = asdict(plan)
    d["sweep_values"] = list(plan.sweep_values)
    d["range_bounds_m"] = list(plan.range_bounds_m)
    d["pipelines"] = [asdict(p) for p in plan.pipelines]
    d["custom"] = {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(plan.custom).items()}
    return d


def config_hash(effective: dict) -> str:
    """Stable under key reordering: hash of the canonical JSON encoding."""
    text = json.dumps(effective, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- binary cube format -----------------------------------------------------

_CUBE_MAGIC = b"MARSCUB1"


def write_cube(path, cube: IfCube) -> None:
    """Header (magic, version, dims, sample rate, schedule JSON) followed by
    row-major little-endian complex128 payloads, chirp branch then tone."""
    chirp = np.ascontiguousarray(cube.chirp_branch, dtype="<c16")
    tone = np.ascontiguousarray(cube.tone_branch_compressed, dtype="<c16")
    n_sym = cube.schedule.num_chirp_symbols
    n = chirp.shape[1] // n_sym if n_sym else 0
    meta = json.dumps({"schedule": cube.schedule.to_dict()}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CUBE_MAGIC)
        fh.write(struct.pack("<IIIII", 1, chirp.shape[0], n_sym, n, tone.shape[1]))
        fh.write(struct.pack("<d", cube.sample_rate_hz))
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(chirp.tobytes())
        fh.write(tone.tobytes())


def read_cube(path) -> IfCube:
    with open(path, "rb") as fh:
        if fh.read(8) != _CUBE_MAGIC:
            raise ValueError(f"{path}: not a cube file (bad magic)")
        version, l, n_sym, n, m_tone = struct.unpack("<IIIII", fh.read(20))
        if version != 1:
            raise ValueError(f"{path}: unsupported cube version {version}")
        (sample_rate,) = struct.unpack("<d", fh.read(8))
        (meta_len,) = struct.unpack("<I", fh.read(4))
        meta = json.loads(fh.read(meta_len).decode("utf-8"))
        chirp = np.frombuffer(fh.read(16 * l * n_sym * n), dtype="<c16").reshape(l, n_sym * n)
        tone = np.frombuffer(fh.read(16 * l * m_tone), dtype="<c16").reshape(l, m_tone)
    schedule = MarsSchedule.from_dict(meta["schedule"])
    return IfCube(chirp_branch=chirp.astype(complex), tone_branch_compressed=tone.astype(complex),
                  schedule=schedule, sample_rate_hz=sample_rate)


# --- CSV --------------------------------------------------------------------

def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17e")
    return str(value)


def write_csv(path, fieldnames, rows) -> None:
    lines = [",".join(fieldnames)]
    for row in rows:
        if isinstance(row, dict):
            lines.append(",".join(format_cell(row.get(k)) for k in fieldnames))
        else:
            lines.append(",".join(format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


# --- run manifest -------------------------------------------------------------

@dataclass
class RunManifest:
    """Everything needed to replay a run and check it reproduced."""

    tool: str
    version: str
    command: list
    master_seed: int
    config_hash: str
    effective_config: dict
    stages: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def add_stage(self, name: str, seconds: float) -> None:
        self.stages.append({"name": name, "seconds": seconds})

    def add_output(self, path) -> None:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.outputs.append({"path": Path(path).name, "sha256": digest})

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> RunManifest:
    raw = json.loads(Path(path).read_text())
    return RunManifest(**raw)
