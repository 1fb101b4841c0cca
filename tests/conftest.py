from __future__ import annotations

import math
import os
from concurrent.futures import Future
from dataclasses import replace

import pytest
import yaml

from mars_jcas import cpus
from mars_jcas.cli import preset_path
from mars_jcas.clutter import build_clutter_map
from mars_jcas.harness import compile_run, drop_scene, run_drop
from mars_jcas.io import parse_config
from mars_jcas.pipeline import PipelineSpec
from mars_jcas.scene import (
    ArrayGeometry,
    ClutterConfig,
    RadioParams,
    SceneConfig,
    Target,
    WaveformConfig,
    validate_scene,
)


def make_radio(*, n=512, df=60e3, fc=5e9, pri=0.25e-3, num_pri=64, spp=15,
               power_w=1.0, noise=10 ** (-174.0 / 10) / 1000.0) -> RadioParams:
    return RadioParams(
        carrier_freq_hz=fc, subcarrier_spacing_hz=df, num_subcarriers=n,
        pri_s=pri, cpi_s=num_pri * pri, symbols_per_pri=spp,
        avg_tx_power_w=power_w, noise_density_w_per_hz=noise,
        si_attenuation_db=50.0, uplink_power_w=0.0,
    )


WAVELENGTH = 299792458.0 / 5e9  # matches make_radio's carrier


def make_array(*, cols=4, rows=4, wavelength=WAVELENGTH, tx=1, va=False) -> ArrayGeometry:
    return ArrayGeometry(rx_cols=cols, rx_rows=rows,
                         rx_spacing_x_m=wavelength / 2, rx_spacing_y_m=wavelength / 2,
                         tx_cols=tx, tx_rows=tx, va_enabled=va)


def ura(cols, rows, dx, dy) -> ArrayGeometry:
    """A receive URA of ``cols`` x ``rows`` elements at spacings ``dx``, ``dy``."""
    return ArrayGeometry(rx_cols=cols, rx_rows=rows, rx_spacing_x_m=dx, rx_spacing_y_m=dy)


def make_scene(radio=None, arr=None, targets=(), *, indices=(1, 6, 15),
               clutter_enabled=False, seed=3, **receiver_kw):
    from mars_jcas.scene import ReceiverConfig
    radio = radio or make_radio()
    for key in ("si_attenuation_db", "uplink_power_w"):
        if key in receiver_kw:
            radio = replace(radio, **{key: receiver_kw.pop(key)})
    arr = arr or make_array()
    cfg = SceneConfig(
        radio=radio, array=arr,
        waveform=WaveformConfig(structure="comb", chirp_pri_indices=tuple(indices)),
        clutter=ClutterConfig(enabled=clutter_enabled),
        receiver=ReceiverConfig(**receiver_kw),
        targets=tuple(targets), seed=seed,
    )
    return validate_scene(cfg)


def on_grid_target(scene, *, range_bin=60, vel_bin=10, x_bin=1, y_bin=-1, rcs=100.0) -> Target:
    res_sin_x = scene.radio.wavelength_m / (scene.array.rx_cols * scene.array.rx_spacing_x_m)
    res_sin_y = scene.radio.wavelength_m / (scene.array.rx_rows * scene.array.rx_spacing_y_m)
    return Target(
        range_m=range_bin * scene.radio.range_res_m,
        radial_velocity_mps=vel_bin * scene.radio.velocity_res_mps,
        psi_x_rad=math.asin(x_bin * res_sin_x),
        psi_y_rad=math.asin(y_bin * res_sin_y),
        rcs_m2=rcs,
    )


# The five pipelines the desk_mc acceptance run compares.
DESK_MC = (
    PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf", va=True),
    PipelineSpec(structure="lshape", suppressor="stap", eps_mode="zero", va=True),
    PipelineSpec(structure="fa", suppressor="mf", eps_mode="inf"),
    PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf"),
    PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf", refinement="music"),
)


# desk_small waveform changes that each break the schedule of its first
# pipeline group (comb with VA), not the scene's own: (change, message).
BAD_DESK_WAVEFORMS = [
    ({"chirp_pri_indices": [1, 3, 15]}, "overlaps"),
    ({"structure": "fa", "chirp_pri_indices": [0, 6, 15]}, "index 0 is forbidden"),
    ({"chirp_pri_indices": [1]}, "W >= 2"),
]


def desk_raw(**waveform) -> dict:
    """The desk_small preset as a mapping, with its waveform section updated."""
    raw = yaml.safe_load(preset_path("desk_small").read_text())
    raw["waveform"].update(waveform)
    return raw


@pytest.fixture(scope="session")
def desk():
    scene_cfg, plan = parse_config(preset_path("desk_small"))
    return validate_scene(scene_cfg), plan


@pytest.fixture(scope="session")
def desk_clutter(desk):
    scene, _ = desk
    return build_clutter_map(replace(scene, array=scene.array.with_va(True)))


def compiled(scene, plan, clutter=None):
    """The run of ``plan`` over ``scene`` (``harness.compile_run``) with
    ``clutter``, or without a map whatever the scene's clutter section says."""
    if clutter is None:
        scene = replace(scene, clutter=replace(scene.clutter, enabled=False))
    return compile_run(scene, plan, clutter)


def drop_at(run, drop_index, point=0):
    """(scene with the drop's targets, groups, sweep value) of drop
    ``drop_index`` at ``run``'s sweep point ``point``."""
    value, scene, groups = run.points[point]
    return drop_scene(scene, run.plan, drop_index, value), groups, value


def drop_records(scene, plan, drop_index, clutter=None, point=0):
    """``run_drop`` of drop ``drop_index`` at sweep point ``point`` of the
    :func:`compiled` run."""
    run = compiled(scene, plan, clutter)
    value, at, groups = run.points[point]
    return run_drop(at, run, drop_index, groups, value)


def assert_no_child():
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Helper-thread schedules: stand-ins for cpus.helper() that fix when the
# helper runs what is queued on it.
class AtSubmission:
    """A helper that runs each call when it is submitted."""

    @staticmethod
    def submit(fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class Never:
    """A helper that never runs a call."""

    @staticmethod
    def submit(fn, *args):
        return Future()


class Stepped:
    """A helper stepped one piece at a time, alternating with the caller:
    each time the caller claims a piece, the helper claims the next and
    runs it before the caller runs its own. It never runs any other call,
    such as a chirp noise draw."""

    @staticmethod
    def submit(fn, *args):
        claims = getattr(fn, "__self__", None)
        if isinstance(claims, cpus._Claims):
            take = claims.take

            def caller_take():
                piece = take()
                mine = take()
                if mine is not None:
                    mine()
                return piece

            claims.take = caller_take
        return Future()
