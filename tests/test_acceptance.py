"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

The desk-scale Monte-Carlo run backing criteria 5 and 6 is shared: the same
200 drops are scored for every pipeline, so method comparisons are paired.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml

from conftest import make_array, make_radio, ura
from mars_jcas.channel import synthesize_if_cube
from mars_jcas.cli import main, preset_path
from mars_jcas.estimator import (
    epsilon_m,
    interference_cov,
    signed_bin,
    stap_range_spectrum,
    sthp_range_spectrum,
)
from mars_jcas.harness import monte_carlo, rmse_normalized
from mars_jcas.io import read_manifest
from mars_jcas.pipeline import PipelineSpec
from mars_jcas.scene import steering_from_sin, steering_ura_from_sin
from mars_jcas.waveform import (
    build_schedule,
    chirp_time_samples,
    overhead_fraction,
)
from oracles import chirp_freq_coeffs, ofdm_time_samples

LAM = 299792458.0 / 5e9


@pytest.fixture(scope="module")
def desk_mc(desk, desk_clutter):
    """200 shared drops scored for the five pipelines criteria 5-6 compare."""
    scene, plan = desk
    pipelines = (
        PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf", va=True),
        PipelineSpec(structure="lshape", suppressor="stap", eps_mode="zero", va=True),
        PipelineSpec(structure="fa", suppressor="mf", eps_mode="inf", va=False),
        PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf", va=False),
        PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf",
                     refinement="music", va=False),
    )
    plan = replace(plan, pipelines=pipelines, num_drops=200)
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows, report = monte_carlo(plan, scene, desk_clutter)
    wall = time.perf_counter() - started
    return rows, report, wall


def _records(report, tag):
    return [r for r in report.records if r.pipeline == tag]


def _rate(report, tag):
    recs = _records(report, tag)
    return sum(r.hit for r in recs) / len(recs)


def test_criterion_1_resolution_arithmetic(tmp_path, capsys):
    started = time.perf_counter()
    code = main(["resolution", "--preset", "table1_car", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    assert code == 0
    rows = {}
    for line in (tmp_path / "resolution.csv").read_text().splitlines()[1:]:
        name, off, on = line.split(",")
        rows[name] = (float(off), float(on))
    capsys.readouterr()
    assert rows["range_res_m"][0] == pytest.approx(1.22, abs=0.005)
    assert rows["velocity_res_mps"][0] == pytest.approx(0.24, abs=0.0005)
    assert rows["sin_angle_res_x"][0] == pytest.approx(0.25, rel=1e-12)
    assert rows["sin_angle_res_x"][1] == pytest.approx(0.125, rel=1e-12)
    assert rows["sin_angle_res_y"][0] == pytest.approx(0.25, rel=1e-12)
    assert rows["sin_angle_res_y"][1] == pytest.approx(0.125, rel=1e-12)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: dR={rows['range_res_m'][0]:.4f} m, "
          f"dv={rows['velocity_res_mps'][0]:.4f} m/s, "
          f"dsin={rows['sin_angle_res_x'][0]:.3f}/{rows['sin_angle_res_x'][1]:.3f}, "
          f"{elapsed:.2f} s")


def test_criterion_2_overhead():
    started = time.perf_counter()
    radio_ls = make_radio(n=1024, num_pri=64, spp=1, pri=1.0 / 60e3)
    lshape = build_schedule(radio_ls, make_array(), "lshape", chirp_pri_indices=(1,))
    frac_ls = overhead_fraction(lshape, radio_ls)
    assert abs(frac_ls - 0.0166) < 0.001  # one tenth of a point around 1.66%

    radio_t1 = make_radio(n=2048, num_pri=500, spp=15)
    comb = build_schedule(radio_t1, make_array(cols=8, rows=8), "comb",
                          chirp_pri_indices=(1, 3, 6, 10))
    frac_comb = overhead_fraction(comb, radio_t1)
    assert frac_comb < 0.004

    arr_va = make_array(cols=8, rows=8, tx=2, va=True)
    comb_va = build_schedule(radio_t1, arr_va, "comb", chirp_pri_indices=(1, 6, 16, 30))
    comb_off = build_schedule(radio_t1, arr_va.with_va(False), "comb",
                              chirp_pri_indices=(1, 6, 16, 30))
    assert comb_va.num_chirp_symbols == 4 * comb_off.num_chirp_symbols
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: lshape={100 * frac_ls:.3f}%, "
          f"comb={100 * frac_comb:.4f}%, VA chirp elements x4, {elapsed:.2f} s")


def test_criterion_3_waveform_properties():
    started = time.perf_counter()
    worst_mod, worst_side, worst_rt = 0.0, 0.0, 0.0
    for n in (256, 2048):
        x = chirp_time_samples(make_radio(n=n))
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(x) - 1.0))))
        # Brute-force cyclic autocorrelation oracle (direct sums, no FFT).
        sidelobes = [abs(np.sum(x * np.conj(np.roll(x, lag)))) for lag in range(1, n)]
        worst_side = max(worst_side, max(sidelobes) / n)
        back = ofdm_time_samples(chirp_freq_coeffs(x))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - x))))
    elapsed = time.perf_counter() - started
    assert worst_mod < 1e-12
    assert worst_side < 1e-9
    assert worst_rt < 1e-10
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS: modulus err {worst_mod:.1e}, "
          f"sidelobes {worst_side:.1e}*N, round trip {worst_rt:.1e}, {elapsed:.1f} s")


def test_criterion_4_algebraic_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(99)

    # Kronecker DFT synthesis == 2D-FFT over the element grid (4x4 toy).
    lx = ly = 4
    y = rng.normal(size=(lx * ly,)) + 1j * rng.normal(size=(lx * ly,))
    f_x = np.exp(-2j * np.pi * np.outer(np.arange(lx), np.arange(lx)) / lx)
    f_y = np.exp(-2j * np.pi * np.outer(np.arange(ly), np.arange(ly)) / ly)
    explicit = np.kron(f_y, f_x) @ y
    fft2 = np.fft.fft2(y.reshape(ly, lx)).reshape(-1)
    kron_err = float(np.max(np.abs(explicit - fft2)))
    assert kron_err < 1e-9

    # Virtual-aperture steering identity on a 2x2 tx / 2x2 rx toy.
    sx, sy = 0.37, -0.18
    a_big = steering_ura_from_sin(sx, sy, ura(4, 4, LAM / 2, LAM / 2), LAM)
    a_ty = steering_from_sin(sy, 2, LAM, LAM)  # tx spacing L*d = lambda
    a_ry = steering_from_sin(sy, 2, LAM / 2, LAM)
    a_tx = steering_from_sin(sx, 2, LAM, LAM)
    a_rx = steering_from_sin(sx, 2, LAM / 2, LAM)
    grouped = np.kron(np.kron(a_ty, a_ry), np.kron(a_tx, a_rx))
    va_err = float(np.max(np.abs(grouped - a_big)))
    assert va_err < 1e-12

    # Matched filter as the eps -> infinity limit of the loaded spectrum.
    w, l, n = 2, 2, 4096
    a_st = np.kron(np.exp(1j * np.array([0.1, 0.9])),
                   steering_from_sin(0.2, l, LAM / 2, LAM))
    yst = 0.05 * np.outer(a_st, np.exp(2j * np.pi * 1000 * np.arange(n) / n))
    yst = yst + (rng.normal(size=(w * l, n)) + 1j * rng.normal(size=(w * l, n)))
    d_inf, _ = stap_range_spectrum(yst, a_st[:, None], "inf")
    eps0 = epsilon_m(interference_cov(yst))
    scale = np.max(np.abs(d_inf))
    devs = [np.max(np.abs(stap_range_spectrum(yst, a_st[:, None], "em",
                                              epsilon=mult * eps0)[0] - d_inf)) / scale
            for mult in (1e2, 1e4, 1e6)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-6

    # Zero-forcing nulls any static component exactly.
    w, l, n = 3, 4, 64
    a_t = np.exp(1j * np.array([0.0, 1.3, 2.9]))
    a_s = steering_from_sin(-0.25, l, LAM / 2, LAM)
    target = np.outer(np.kron(a_t, a_s),
                      np.exp(2j * np.pi * 30 * np.arange(n) / n))
    static = np.tile(rng.normal(size=(l, n)) + 1j * rng.normal(size=(l, n)), (w, 1))
    d_clean, _ = sthp_range_spectrum(target, a_t, a_s[:, None], "inf")
    d_dirty, _ = sthp_range_spectrum(target + 1e6 * static, a_t, a_s[:, None], "inf")
    zf_err = float(np.max(np.abs(d_dirty - d_clean)) / np.max(np.abs(d_clean)))
    assert zf_err < 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4 PASS: kron/FFT {kron_err:.1e}, VA steering {va_err:.1e}, "
          f"eps-limit {devs[2]:.1e}, ZF null {zf_err:.1e}, {elapsed:.1f} s")


def test_criterion_5_pipeline_hit_rates(desk_mc):
    rows, report, wall = desk_mc
    comb_va = _rate(report, "comb-sthp-inf-fft-va")
    lshape = _rate(report, "lshape-stap-zero-fft-va")
    fa = _rate(report, "fa-mf-inf-fft")
    assert comb_va >= 0.99
    assert fa < comb_va
    assert comb_va >= lshape >= fa
    assert wall < 300.0
    print(f"\nACCEPTANCE 5 PASS: comb+STHP(inf)+VA={comb_va:.3f}, "
          f"lshape+STAP(0)+VA={lshape:.3f}, FA={fa:.3f}, {wall:.0f} s shared run")


def test_criterion_6_rmse_floor_and_music(desk_mc):
    rows, report, wall = desk_mc
    fft_rmse = rmse_normalized(_records(report, "comb-sthp-inf-fft"))
    music_rmse = rmse_normalized(_records(report, "comb-sthp-inf-music"))
    for dim, value in fft_rmse.items():
        assert 0.23 <= value <= 0.35, f"{dim}: {value}"
    assert music_rmse["sin_psi_x"] <= 0.5 * fft_rmse["sin_psi_x"]
    assert music_rmse["sin_psi_y"] <= 0.5 * fft_rmse["sin_psi_y"]
    assert wall < 600.0
    print(f"\nACCEPTANCE 6 PASS: FFT RMSE "
          f"(R={fft_rmse['range']:.3f}, v={fft_rmse['velocity']:.3f}, "
          f"sx={fft_rmse['sin_psi_x']:.3f}, sy={fft_rmse['sin_psi_y']:.3f}); "
          f"MUSIC angles (sx={music_rmse['sin_psi_x']:.3f}, "
          f"sy={music_rmse['sin_psi_y']:.3f})")


def test_criterion_7_clutter_discipline(desk, desk_clutter):
    started = time.perf_counter()
    scene, _ = desk
    # (a) zero targets, clutter on, noiseless, DC removal off: tone-branch
    # Doppler energy stays inside the zero-velocity guard.
    quiet = replace(scene, targets=(),
                    radio=replace(scene.radio, noise_density_w_per_hz=1e-60),
                    receiver=replace(scene.receiver, dc_removal=False))
    sched = build_schedule(quiet.radio, quiet.array, "comb",
                           chirp_pri_indices=quiet.waveform.chirp_pri_indices)
    cube = synthesize_if_cube(quiet, sched, desk_clutter)
    from mars_jcas.estimator import expand_nn
    y = expand_nn(cube.tone_branch_compressed, sched)
    spec = np.abs(np.fft.fft(y, axis=1)) ** 2
    m = y.shape[1]
    outside = np.abs(signed_bin(np.arange(m), m)) > 1
    leak = spec[:, outside].sum() / spec.sum()
    assert leak < 0.01

    # (b) constructed strong-clutter / weak-target space-time fixture:
    # both clutter-aware stages find the target where the matched filter
    # locks onto the clutter.
    rng = np.random.default_rng(7)
    w, l, n = 3, 4, 64
    a_t = np.exp(1j * np.array([0.0, 1.3, 2.9]))
    a_s = steering_from_sin(0.35, l, LAM / 2, LAM)
    target_bin, clutter_bin = 45, 12
    target = 1e-4 * np.outer(np.kron(a_t, a_s),
                             np.exp(2j * np.pi * target_bin * np.arange(n) / n))
    clutter = np.zeros((w * l, n), dtype=complex)
    for sin_c in (-0.5, 0.05, 0.3, 0.6):
        spat = steering_from_sin(sin_c, l, LAM / 2, LAM)
        amp = 50.0 * (rng.normal() + 1j * rng.normal())
        clutter += np.outer(np.kron(np.ones(w), spat),
                            amp * np.exp(2j * np.pi * clutter_bin * np.arange(n) / n))
    noise = 1e-8 * (rng.normal(size=(w * l, n)) + 1j * rng.normal(size=(w * l, n)))
    yst = target + clutter + noise
    _, (bin_mf,) = stap_range_spectrum(yst, np.kron(a_t, a_s)[:, None], "inf")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, (bin_stap0,) = stap_range_spectrum(yst, np.kron(a_t, a_s)[:, None], "zero")
    _, (bin_sthp,) = sthp_range_spectrum(yst, a_t, a_s[:, None], "inf")
    assert bin_mf == clutter_bin
    assert bin_stap0 == target_bin
    assert bin_sthp == target_bin
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 7 PASS: off-guard tone leak {leak:.2e}; "
          f"MF->bin {bin_mf} (clutter), STAP(0)/STHP->bin {bin_stap0}/{bin_sthp} "
          f"(target), {elapsed:.1f} s")


def test_criterion_8_replay_determinism(tmp_path, capsys):
    started = time.perf_counter()
    raw = yaml.safe_load(preset_path("desk_small").read_text())
    raw["clutter"]["enabled"] = False
    raw["experiment"]["num_drops"] = 2
    cfg = tmp_path / "replaycfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    out1 = tmp_path / "orig"
    assert main(["montecarlo", "--config", str(cfg), "--out", str(out1)]) == 0
    out2 = tmp_path / "replayed"
    code = main(["replay", "--manifest", str(out1 / "manifest.json"),
                 "--out", str(out2)])
    capsys.readouterr()
    assert code == 0
    for name in ("curves.csv", "records.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = read_manifest(out1 / "manifest.json")
    assert {o["path"] for o in manifest.outputs} == {"curves.csv", "records.csv"}
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8 PASS: replay byte-identical, {elapsed:.1f} s")
