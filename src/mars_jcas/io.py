"""Config parsing, serialization (configs, schedules, cubes), run manifests.

Configs are YAML with nested sections. Each section's keys, types and
defaults are the fields of its dataclass; a field may also be given in
another unit (``_dbm``, ``_ghz``, ``_deg``, ``_wavelengths``, ...), converted
to SI at parse time. Parsing fails closed: unknown keys, duplicate unit
variants, type mismatches (2.7, true or "7" for an integer key, "0.25" for a
float key) and floats not finite or past :data:`LARGEST` raise
:class:`ConfigError` with path-qualified messages, as in a cube's schedule
and a run manifest. CSV output uses locale-independent full-precision
scientific notation so replays are exact.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import struct
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .channel import IfCube
from .harness import ExperimentPlan
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


_REQUIRED = object()

# Largest config float in SI units: a drop squares products of four in float64.
LARGEST = 1e30


class _Section:
    """One config mapping with fail-closed key accounting."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a mapping, got {type(data).__name__}")
        self.data = data
        self.path = path
        self.seen = set()

    def take(self, *variants, default=_REQUIRED):
        """variants: (key, converter) pairs; at most one may be present."""
        present = [(k, fn) for k, fn in variants if k in self.data]
        if len(present) > 1:
            keys = ", ".join(k for k, _ in present)
            raise ConfigError(f"{self.path}: give only one of {keys}")
        if not present:
            if default is _REQUIRED:
                raise ConfigError(f"{self.path}: missing required key "
                                  f"{' or '.join(k for k, _ in variants)}")
            return default
        key, fn = present[0]
        self.seen.add(key)
        raw = self.data[key]
        try:
            value = fn(raw)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{self.path}.{key}: bad value {raw!r} ({exc})") from exc
        # Every float a key yields, unit-converted or a tuple item, is finite
        # and at most LARGEST in magnitude.
        if any(isinstance(v, float) and not abs(v) <= LARGEST
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{self.path}.{key}: bad value {raw!r} (not within ±{LARGEST:g})")
        return value

    def finish(self):
        unknown = set(self.data) - self.seen
        if unknown:
            raise ConfigError(f"{self.path}: unknown keys {sorted(unknown)}")


def _expect(ok: bool, value, what: str):
    """``value`` when ``ok``, else a ValueError. A reader may pass its own
    conversion as ``value``: what that refuses keeps its message, and what it
    reads but the key's type is not (int("7")) is refused."""
    if not ok:
        raise ValueError(f"expected {what}")
    return value


def _int(v):
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError("expected an integer")
    return _expect(not isinstance(v, str), int(v), "an integer")


_float = lambda v: float(_expect(not isinstance(v, (bool, str)), v, "a number"))
_str = lambda v: _expect(isinstance(v, str), v, "a string")
_bool = lambda v: _expect(isinstance(v, bool), v, "true/false")
_mapping = lambda v: dict(_expect(isinstance(v, dict), v, "a mapping"))
_list = lambda read: lambda v: read(_expect(isinstance(v, (list, tuple)), v, "a list"))


def _array(v):
    a = np.array(v)
    if a.ndim != 1 or a.dtype.kind not in "if" or not np.all(np.isfinite(a)):
        raise ValueError("expected a list of finite numbers")
    return a


_SCALARS = {int: _int, float: _float, bool: _bool, str: _str, dict: _mapping,
            np.ndarray: _array}


def _converter(tp, path):
    """value -> annotation ``tp`` for the value at ``path``. A nested
    dataclass is a section of its own; Optional[X] reads as X, since None is
    only ever a default."""
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        return lambda v: _read(tp, _mapping(v), path)
    if origin is Union:
        return _converter(args[0], path)
    if origin is tuple and is_dataclass(args[0]):
        return _list(lambda v: tuple(_read(args[0], x, f"{path}[{i}]")
                                     for i, x in enumerate(v)))
    if origin is tuple:
        item = _converter(args[0], path)
        size = None if args[-1] is Ellipsis else len(args)

        def items(v):
            v = tuple(item(x) for x in v)
            if size is not None and len(v) != size:
                raise ValueError(f"expected {size} items")
            return v
        return _list(items)
    return _SCALARS[tp]


def _times(k):
    return lambda v, got: _float(v) * k


_dbm = lambda v, got: dbm_to_watts(_float(v))
_dbi = lambda v, got: 10.0 ** (_float(v) / 10.0)
_deg = lambda v, got: math.radians(_float(v))
_sin = lambda v, got: math.asin(_expect(abs(s := _float(v)) <= 1.0, s, "|sin ψ| ≤ 1"))
_wavelengths = lambda v, got: _float(v) * got["wavelength_m"]
_floats = _list(lambda v: tuple(_float(x) for x in v))


def _on_axis(axis, to_si):
    """A ``sweep_values`` unit variant, which only a sweep along ``axis`` takes."""
    def read(v, got):
        _expect(got["sweep_axis"] == axis, None, f"sweep_axis {axis}, got {got['sweep_axis']!r}")
        return tuple(map(to_si, _floats(v)))
    return read


# Unit variants of a field's own SI key: (key, to_SI(value, fields read so far)).
_UNITS = {
    RadioParams: {
        "carrier_freq_hz": [("carrier_freq_ghz", _times(1e9))],
        "subcarrier_spacing_hz": [("subcarrier_spacing_khz", _times(1e3))],
        "pri_s": [("pri_ms", _times(1e-3))],
        "cpi_s": [("cpi_ms", _times(1e-3)), ("num_pri", lambda v, got: _int(v) * got["pri_s"])],
        "avg_tx_power_w": [("avg_tx_power_dbm", _dbm)],
        "noise_density_w_per_hz": [("noise_density_dbm_per_hz", _dbm)],
        "uplink_power_w": [("uplink_power_dbm", _dbm)],
        "gain_tx": [("gain_tx_dbi", _dbi)],
        "gain_rx": [("gain_rx_dbi", _dbi)],
        "bandwidth_hz": [("bandwidth_mhz", _times(1e6))],
        "symbol_duration_s": [("symbol_duration_us", _times(1e-6))],
    },
    ArrayGeometry: {
        "rx_spacing_x_m": [("rx_spacing_x_wavelengths", _wavelengths)],
        "rx_spacing_y_m": [("rx_spacing_y_wavelengths", _wavelengths)],
    },
    Target: {
        "range_m": [("range_km", _times(1e3))],
        "radial_velocity_mps": [("speed_kmh", lambda v, got: _float(v) / 3.6)],
        "psi_x_rad": [("psi_x_deg", _deg), ("sin_psi_x", _sin)],
        "psi_y_rad": [("psi_y_deg", _deg), ("sin_psi_y", _sin)],
    },
    ExperimentPlan: {
        "sweep_values": [("sweep_values_dbm", _on_axis("tx_power", dbm_to_watts)),
                         ("sweep_values_m", _on_axis("range", float))],
        "azimuth_max_rad": [("azimuth_max_deg", _deg)],
    },
}


@functools.cache
def _fields(cls):
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def _default(f):
    if f.default is not MISSING:
        return f.default
    if f.default_factory is not MISSING:
        return f.default_factory()
    return _REQUIRED


def _read(cls, data, path, **context):
    """Dataclass ``cls`` from the mapping ``data`` at ``path``. Each field's
    key is its name or one of its ``_UNITS`` variants, its converter comes
    from its annotation, and an absent key takes the field's default (a
    field without one is required). ``context`` holds defaults that depend
    on context, by field name, and values the unit conversions use. A rule
    the class checks itself (a ValueError from ``cls``) is a ConfigError
    at ``path``."""
    s = _Section(data, path)
    got = dict(context)
    for f, tp in _fields(cls):
        units = _UNITS.get(cls, {}).get(f.name, ())
        got[f.name] = s.take((f.name, _converter(tp, f"{path}.{f.name}")),
                             *[(key, lambda v, fn=fn: fn(v, got)) for key, fn in units],
                             default=got.get(f.name, _default(f)))
    s.finish()
    try:
        return cls(**{f.name: got[f.name] for f, _ in _fields(cls)})
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def config_from_dict(raw: dict, source: str = "config"):
    """Build (SceneConfig, ExperimentPlan or None) from a parsed mapping."""
    if not isinstance(raw, dict) or not raw:
        raise ConfigError(f"{source}: empty config; required sections: radio, array")
    top = _Section(raw, source)
    radio = _read(RadioParams, top.take(("radio", _mapping)), f"{source}.radio")
    lam = radio.wavelength_m
    arr = _read(ArrayGeometry, top.take(("array", _mapping)), f"{source}.array",
                wavelength_m=lam, rx_spacing_x_m=lam / 2.0, rx_spacing_y_m=lam / 2.0)
    sections = {name: _read(cls, top.take((name, _mapping), default={}), f"{source}.{name}")
                for name, cls in (("waveform", WaveformConfig), ("clutter", ClutterConfig),
                                  ("receiver", ReceiverConfig))}
    targets = top.take(("targets", _list(lambda v: tuple(
        _read(Target, t, f"{source}.targets[{i}]", psi_x_rad=0.0, psi_y_rad=0.0)
        for i, t in enumerate(v)))), default=())
    seed = top.take(("seed", _int), default=SceneConfig.seed)
    experiment_raw = top.take(("experiment", _mapping), default=None)
    top.finish()
    scene = SceneConfig(radio=radio, array=arr, targets=targets, seed=seed, **sections)
    plan = (_read(ExperimentPlan, experiment_raw, f"{source}.experiment", seed=seed)
            if experiment_raw is not None else None)
    return scene, plan


class _ConfigLoader(yaml.SafeLoader):
    """Safe loader that reads a plain 60.0e3 or 1e-3 as a float, as YAML 1.2
    does (YAML 1.1 reads a string); a quoted number stays a string."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def parse_config(path):
    """Load a YAML config file into (SceneConfig, ExperimentPlan or None)."""
    text = Path(path).read_text()
    try:
        raw = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    if raw is None:
        raise ConfigError(f"{path}: empty config; required sections: radio, array")
    return config_from_dict(raw, source=str(path))


def to_dict(value):
    """Canonical SI form of a config dataclass or schedule, defaults resolved,
    that :func:`config_from_dict` or :func:`read_cube` reads back: each
    dataclass a dict without its None fields, each tuple or array a list."""
    if is_dataclass(value):
        return {f.name: to_dict(getattr(value, f.name)) for f in fields(value)
                if getattr(value, f.name) is not None}
    if isinstance(value, tuple):
        return [to_dict(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def config_hash(effective: dict) -> str:
    """Stable under key reordering: hash of the canonical JSON encoding."""
    text = json.dumps(effective, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- binary cube format -----------------------------------------------------

_CUBE_MAGIC = b"MARSCUB1"
# Magic, version, L, chirp symbols, N, tone PRIs, sample rate, header length.
_CUBE_HEADER = struct.Struct("<8sIIIIIdI")


def write_cube(path, cube: IfCube) -> None:
    """Header (magic, version, dims, sample rate, schedule JSON) followed by
    row-major little-endian complex128 payloads, chirp branch then tone.
    The file holds the chirp branch element-major, (L, symbols * N); the
    cube's symbol-major (symbols, L, N) is transposed here and in
    :func:`read_cube`."""
    chirp = np.ascontiguousarray(cube.chirp_branch.transpose(1, 0, 2), dtype="<c16")
    tone = np.ascontiguousarray(cube.tone_branch_compressed, dtype="<c16")
    n_sym = cube.schedule.num_chirp_symbols
    n = chirp.shape[2] if n_sym else 0
    meta = json.dumps({"schedule": to_dict(cube.schedule)}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CUBE_HEADER.pack(_CUBE_MAGIC, 1, chirp.shape[0], n_sym, n, tone.shape[1],
                                   cube.sample_rate_hz, len(meta)))
        fh.write(meta)
        fh.write(chirp.tobytes())
        fh.write(tone.tobytes())


def read_cube(path) -> IfCube:
    """The cube :func:`write_cube` wrote at ``path``. A header or schedule
    key that is unknown, missing or mistyped is a ConfigError naming it; a
    header that is not UTF-8 JSON, or a length or count at odds with the
    header, is a ValueError naming ``path``."""
    data = Path(path).read_bytes()
    if data[:8] != _CUBE_MAGIC or len(data) < _CUBE_HEADER.size:
        raise ValueError(f"{path}: not a cube file ({len(data)} bytes, magic {data[:8]!r})")
    _, version, l, n_sym, n, m_tone, sample_rate, meta_len = _CUBE_HEADER.unpack_from(data)
    if version != 1:
        raise ValueError(f"{path}: unsupported cube version {version}")
    chirp_at = _CUBE_HEADER.size + meta_len
    tone_at = chirp_at + 16 * l * n_sym * n
    size = tone_at + 16 * l * m_tone
    if len(data) != size:
        raise ValueError(f"{path}: {len(data)} bytes, but its header gives {size}")
    try:
        meta = json.loads(data[_CUBE_HEADER.size:chirp_at].decode("utf-8"))
    except ValueError as exc:   # bytes that are not UTF-8, or not JSON
        raise ValueError(f"{path}: damaged header: {exc}") from exc
    header = _Section(meta, f"{path}: header")
    raw = header.take(("schedule", _mapping))
    header.finish()
    # Files written before to_dict left None fields out carry "fa_seed": null.
    schedule = _read(MarsSchedule, {k: v for k, v in raw.items() if v is not None},
                     f"{path}: schedule")
    if (n_sym, m_tone) != (schedule.num_chirp_symbols, schedule.num_tone_pris):
        raise ValueError(f"{path}: header counts {n_sym} chirp symbols and {m_tone} tone PRIs, "
                         f"its schedule {schedule.num_chirp_symbols} and {schedule.num_tone_pris}")
    chirp = np.frombuffer(data, "<c16", l * n_sym * n, chirp_at).reshape(l, n_sym, n)
    tone = np.frombuffer(data, "<c16", l * m_tone, tone_at).reshape(l, m_tone)
    return IfCube(chirp_branch=np.ascontiguousarray(chirp.transpose(1, 0, 2), dtype=complex),
                  tone_branch_compressed=tone.astype(complex),
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

@dataclass(frozen=True)
class Stage:
    """One timed stage of a run; timings stay out of the hashed outputs."""

    name: str
    seconds: float


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay a run and check it reproduced."""

    tool: str
    version: str
    command: tuple[str, ...]
    master_seed: int
    config_hash: str
    effective_config: dict
    stages: tuple[Stage, ...]
    outputs: tuple[dict, ...]

    def __post_init__(self):
        # The rules a field's type cannot state; the message names the field.
        if not self.command:
            raise ValueError("command: must name the subcommand, got none")
        for i, entry in enumerate(self.outputs):
            name = entry.get("path")
            if not (set(entry) == {"path", "sha256"} and isinstance(name, str)
                    and name not in ("", "..") and Path(name).name == name
                    and isinstance(entry["sha256"], str)
                    and re.fullmatch("[0-9a-f]{64}", entry["sha256"])):
                raise ValueError(f"outputs[{i}]: {entry!r} is not a bare file name and "
                                 "its sha256")

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> RunManifest:
    """The manifest at ``path``, read as a config section is: anything
    :meth:`RunManifest.write` would not have written is a ConfigError
    naming the field at fault."""
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"{path}: not a JSON manifest: {exc}") from exc
    return _read(RunManifest, raw, str(path))
