from __future__ import annotations

import math
from dataclasses import replace

import pytest

from mars_jcas.cli import preset_path
from mars_jcas.clutter import build_clutter_map
from mars_jcas.io import parse_config
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
    res_sin_x = scene.wavelength_m / (scene.array.rx_cols * scene.array.rx_spacing_x_m)
    res_sin_y = scene.wavelength_m / (scene.array.rx_rows * scene.array.rx_spacing_y_m)
    return Target(
        range_m=range_bin * scene.range_res_m,
        radial_velocity_mps=vel_bin * scene.velocity_res_mps,
        psi_x_rad=math.asin(x_bin * res_sin_x),
        psi_y_rad=math.asin(y_bin * res_sin_y),
        rcs_m2=rcs,
    )


@pytest.fixture(scope="session")
def desk():
    scene_cfg, plan = parse_config(preset_path("desk_small"))
    return validate_scene(scene_cfg), plan


@pytest.fixture(scope="session")
def desk_clutter(desk):
    scene, _ = desk
    return build_clutter_map(replace(scene, array=scene.array.with_va(True)))
