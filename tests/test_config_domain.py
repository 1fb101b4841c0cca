"""Every config that loads runs its drops.

A hypothesis test edits desk_small key by key, each key drawn from its
typed domain (boundary and non-finite values included), and runs
``montecarlo --drops 1``, ``simulate --targets 1`` and ``simulate`` on it;
the last puts the config's own targets, which about half the draws give,
into its cubes. Each run must exit 0, or exit 3 before its output directory
exists: a value the run cannot use is a config error at load, not a
failure at drop 0. Any exception that escapes ``main`` fails the test, and
so does an exit 4, except for the data-dependent failures in
:data:`ALLOWED_RUNTIME_ERRORS`.

Keys that size the run's arrays (subcarriers, PRIs and symbols per PRI,
elements and VA, the clutter grid, the MUSIC factor, the STTE guard and the
target count) are drawn too, at most a few times desk_small's sizes, so a
run takes a fraction of a second. Clutter is off unless a draw turns it on,
over a 60 m x 60 m grid of 50 m cells unless a draw resizes it. The drop
and worker counts are the commands' own.
"""

from __future__ import annotations

import re
import signal

import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mars_jcas.cli import main, preset_path
from mars_jcas.io import LARGEST
from mars_jcas.scene import SPEED_OF_LIGHT

# Exit-4 messages a drop may raise on data the load cannot see, each a
# pattern of the whole message with its reason.
ALLOWED_RUNTIME_ERRORS = {
    # Whether MUSIC's snapshots span K + 1 dimensions depends on the drawn
    # targets, clutter and noise: an echo or clutter return far above the
    # noise floor leaves the covariance numerically rank-deficient.
    r"music_refine: covariance rank \d+ < K\+1 = \d+ \(degenerate snapshot set\)":
        "degenerate MUSIC snapshot set",
}

# Every float (nan and +-inf included), floats on desk_small's scale, and
# the bounds of the load rules: the largest config float, the speed of
# light, desk_small's wavelength and the car and uav height reach.
FLOATS = st.one_of(
    st.floats(),
    st.floats(-2000.0, 2000.0),
    st.sampled_from([0.0, -0.0, -1.0, 1.0, 1e-300, -1e-300, 1e300, -1e300, LARGEST, -LARGEST,
                     SPEED_OF_LIGHT, -SPEED_OF_LIGHT, SPEED_OF_LIGHT / 5e9, 10.0, 90.0]),
)
INTS = st.one_of(st.integers(), st.integers(-3, 70))
PAIRS = st.lists(FLOATS, min_size=2, max_size=2)
# symbols_per_pri S at desk_small's symbol time (1/60 ms), its PRI, and a CPI
# of P PRIs: (symbols_per_pri, pri_ms, cpi_ms).
FRAMES = st.tuples(st.integers(-1, 20), st.integers(-1, 80)).map(
    lambda sp: (sp[0], sp[0] / 60.0, sp[0] * sp[1] / 60.0))
# Clutter grid lengths, and cells of at least 0.5 m besides the bad ones.
LENGTHS = st.one_of(st.floats(-10.0, 300.0), st.sampled_from([0.0, 60.0]))
CELLS = st.one_of(st.floats(0.5, 60.0), st.sampled_from([0.0, -1.0, 50.0]))
# A config's own targets: zero to two, every field a float.
TARGET = st.fixed_dictionaries({
    name: FLOATS for name in ("range_m", "radial_velocity_mps", "sin_psi_x", "sin_psi_y",
                              "rcs_m2")})
TARGETS = st.lists(TARGET, max_size=2)


def _strings(*known):
    return st.one_of(st.sampled_from(known), st.text(max_size=4))


# (section path, key, domain); a key no draw picks keeps desk_small's value.
KEYS = [
    (("radio",), "carrier_freq_ghz", FLOATS),
    (("radio",), "avg_tx_power_dbm", FLOATS),
    (("radio",), "noise_density_dbm_per_hz", FLOATS),
    (("radio",), "si_attenuation_db", FLOATS),
    (("radio",), "uplink_power_dbm", FLOATS),
    (("radio",), "uplink_distance_m", FLOATS),
    (("radio",), "gain_tx_dbi", FLOATS),
    (("radio",), "gain_rx_dbi", FLOATS),
    (("radio",), "num_subcarriers", st.integers(-1, 1024)),
    (("radio",), "symbols_per_pri", st.integers(-1, 20)),
    (("radio",), ("symbols_per_pri", "pri_ms", "cpi_ms"), FRAMES),
    (("array",), "rx_cols", st.integers(-1, 6)),
    (("array",), "rx_rows", st.integers(-1, 6)),
    (("array",), "tx_cols", st.integers(-1, 3)),
    (("array",), "tx_rows", st.integers(-1, 3)),
    (("array",), "va_enabled", st.booleans()),
    (("waveform",), "structure", _strings("fa", "lshape", "comb", "conventional_chirp")),
    (("waveform",), "chirp_pri_indices", st.lists(INTS, max_size=4)),
    (("waveform",), "tone_subcarrier_index", INTS),
    (("waveform",), "guard_subcarriers", INTS),
    (("receiver",), "butterworth_order", INTS),
    (("receiver",), "butterworth_cutoff_hz", FLOATS),
    (("receiver",), "dc_removal", st.booleans()),
    (("receiver",), "residual_dc_db", FLOATS),
    (("receiver",), "tone_noise_bandwidth", _strings("pri", "symbol")),
    (("receiver",), "exact_within_symbol_doppler", st.booleans()),
    (("receiver",), "uplink_cfo_fraction", FLOATS),
    (("clutter",), "enabled", st.booleans()),
    (("clutter",), "terrain", _strings("grass_5ghz", "soil_5ghz", "tall_vegetation_5ghz",
                                       "urban_5ghz")),
    (("clutter",), "station_height_m", FLOATS),
    (("clutter",), "area_standoff_m", FLOATS),
    (("clutter",), "gtri_a", FLOATS),
    (("clutter",), "gtri_b", FLOATS),
    (("clutter",), "gtri_c", FLOATS),
    (("clutter",), "gtri_d", FLOATS),
    (("clutter",), "surface_rms_height_m", FLOATS),
    (("clutter",), "area_x_m", LENGTHS),
    (("clutter",), "area_y_m", LENGTHS),
    (("clutter",), "cell_m", CELLS),
    ((), "seed", INTS),
    ((), "targets", TARGETS),
    (("experiment",), "scenario", _strings("car", "uav", "custom")),
    (("experiment",), "target_count", INTS),
    (("experiment",), "sweep_axis", _strings("range", "tx_power")),
    (("experiment",), "sweep_values", st.lists(FLOATS, max_size=2)),
    (("experiment",), "range_bounds_m", PAIRS),
    (("experiment",), "azimuth_max_deg", FLOATS),
    (("experiment", "custom"), "range_m", PAIRS),
    (("experiment", "custom"), "speed_mps", PAIRS),
    (("experiment", "custom"), "sin_psi_x", PAIRS),
    (("experiment", "custom"), "sin_psi_y", PAIRS),
    (("experiment", "custom"), "rcs_m2", FLOATS),
    (("experiment", "pipeline"), "structure", _strings("comb", "lshape", "fa")),
    (("experiment", "pipeline"), "suppressor", _strings("stap", "sthp", "mf")),
    (("experiment", "pipeline"), "eps_mode", _strings("zero", "em", "inf")),
    (("experiment", "pipeline"), "refinement", _strings("fft", "music")),
    (("experiment", "pipeline"), "va", st.booleans()),
    (("experiment", "pipeline"), "stte_guard", INTS),
    (("experiment", "pipeline"), "music_factor", st.integers(-1, 16)),
]

# One to four keys of KEYS, each with a value from its domain; a tuple of
# keys takes a tuple of values.
EDITS = st.lists(st.sampled_from(KEYS), min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.tuples(*[st.tuples(st.just((path, key)), domain)
                             for path, key, domain in keys]))
# About half the draws also give the config one or two targets of their own,
# as the last edit, for simulate without --targets to put into its cubes:
# each inside desk_small's IF window and the unit disk or, like TARGETS',
# of any float (few of those load).
DESK_TARGET = st.fixed_dictionaries({
    "range_m": st.floats(1.0, 2400.0), "radial_velocity_mps": st.floats(-60.0, 60.0),
    "sin_psi_x": st.floats(-0.7, 0.7), "sin_psi_y": st.floats(-0.7, 0.7),
    "rcs_m2": st.floats(1e-3, 1e3)})
DRAWS = st.one_of(EDITS, st.tuples(
    EDITS, st.lists(st.one_of(DESK_TARGET, TARGET), min_size=1, max_size=2)).map(
        lambda drawn: (*drawn[0], (((), "targets"), drawn[1]))))


def _config(edits) -> dict:
    raw = yaml.safe_load(preset_path("desk_small").read_text())
    raw["clutter"].update(enabled=False, area_x_m=60.0, area_y_m=60.0, cell_m=50.0)
    raw["experiment"]["pipeline"] = raw["experiment"]["pipelines"][0]
    for (path, key), value in edits:
        section = raw
        for name in path:
            section = section.setdefault(name, {})
        section.update(zip(key, value) if isinstance(key, tuple) else [(key, value)])
    raw["experiment"]["pipelines"] = [raw["experiment"].pop("pipeline")]
    return raw


class _Timeout(Exception):
    """Raised by the alarm: an error main does not catch, or a DropError."""


def _run(argv) -> int:
    def expire(signum, frame):
        raise _Timeout(f"{argv[0]} did not finish within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(edits=DRAWS)
# Each of these failed at drop 0 (exit 4, or a traceback), hung, or
# crashed at parse (the zero carrier).
@example(edits=(((("radio",), "carrier_freq_ghz"), 0.0),))
@example(edits=(((("experiment", "custom"), "range_m"), [0.0, 0.0]),))
@example(edits=(((("experiment",), "scenario"), "uav"),
                ((("experiment",), "range_bounds_m"), [50.0, 60.0])))
@example(edits=(((("experiment", "custom"), "speed_mps"), [0.0, -0.0]),))
@example(edits=(((("experiment", "custom"), "sin_psi_x"), [0.70710678, 1.0]),
                ((("experiment", "custom"), "sin_psi_y"), [0.70710677, 1.0])))
@example(edits=(((("radio",), "uplink_distance_m"), 1e-300),))
@example(edits=(((("receiver",), "residual_dc_db"), -6166.0),))
@example(edits=(((("clutter",), "enabled"), True), ((("clutter",), "gtri_a"), -1.0)))
@example(edits=(((("clutter",), "enabled"), True), ((("clutter",), "gtri_d"), -1075.0)))
@example(edits=(((("clutter",), "enabled"), True), ((("clutter",), "gtri_c"), -0.5),
                ((("clutter",), "gtri_b"), -3.0)))
# The config's own targets in simulate's cubes: two under MUSIC (K = 2), and
# one of the largest RCS, whose echo leaves MUSIC's snapshots rank 1.
@example(edits=((((), "targets"), [
    {"range_m": 200.0, "radial_velocity_mps": 20.0, "sin_psi_x": 0.1, "sin_psi_y": -0.2,
     "rcs_m2": 100.0},
    {"range_m": 450.0, "radial_velocity_mps": -30.0, "sin_psi_x": -0.4, "sin_psi_y": 0.3,
     "rcs_m2": 10.0}]), ((("experiment", "pipeline"), "refinement"), "music")))
@example(edits=((((), "targets"), [
    {"range_m": 100.0, "radial_velocity_mps": 20.0, "sin_psi_x": 1.0, "sin_psi_y": 0.0,
     "rcs_m2": LARGEST}]), ((("experiment", "pipeline"), "refinement"), "music")))
def test_every_config_that_loads_runs_its_drops(tmp_path_factory, capsys, edits):
    tmp = tmp_path_factory.mktemp("domain")
    cfg = tmp / "edited.yaml"
    cfg.write_text(yaml.safe_dump(_config(edits)))
    for command, *flags in (("montecarlo", "--drops", "1"), ("simulate", "--targets", "1"),
                            ("simulate",)):
        out = tmp / "-".join([command, *flags])
        code = _run([command, "--config", str(cfg), "--out", str(out), *flags])
        err = capsys.readouterr().err
        if code == 4:
            assert any(re.fullmatch(rf"runtime error: drop 0 \(.*\): {m}", err.strip())
                       for m in ALLOWED_RUNTIME_ERRORS), err
        else:
            assert code in (0, 3), err
            assert out.exists() == (code == 0), err
