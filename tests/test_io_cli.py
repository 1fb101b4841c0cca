from __future__ import annotations

import json
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
import yaml

import oracles
from conftest import make_array, make_radio, make_scene, on_grid_target
from mars_jcas.channel import synthesize_if_cube
from mars_jcas.cli import main, preset_path
from mars_jcas.harness import schedule_for
from mars_jcas.io import (
    ConfigError,
    config_from_dict,
    config_hash,
    dbm_to_watts,
    format_cell,
    parse_config,
    plan_to_dict,
    read_cube,
    read_manifest,
    scene_to_dict,
    write_csv,
    write_cube,
)
from mars_jcas.pipeline import PipelineSpec, front_end, run_pipeline


class TestConfigParsing:
    def test_table1_car_preset_values(self):
        scene_cfg, plan = parse_config(preset_path("table1_car"))
        r = scene_cfg.radio
        assert r.carrier_freq_hz == 5e9
        assert r.subcarrier_spacing_hz == 60e3
        assert r.num_subcarriers == 2048
        assert r.avg_tx_power_w == pytest.approx(0.01)       # 10 dBm
        assert r.noise_density_w_per_hz == pytest.approx(dbm_to_watts(-174.0),
                                                         rel=1e-12, abs=0)
        assert r.uplink_power_w == pytest.approx(dbm_to_watts(23.0))
        assert scene_cfg.array.rx_cols == 8 and scene_cfg.array.rx_rows == 8
        assert scene_cfg.array.tx_cols == 2
        assert scene_cfg.waveform.chirp_pri_indices == (1, 3, 6, 10)
        assert plan.scenario == "car"
        # Spacing resolved to half the 5 GHz wavelength.
        lam = 299792458.0 / 5e9
        assert scene_cfg.array.rx_spacing_x_m == pytest.approx(lam / 2)

    def test_antenna_gain_keys(self, tmp_path):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["radio"]["gain_tx_dbi"] = 3.0
        raw["radio"]["gain_rx"] = 2.0
        cfg = tmp_path / "g.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        scene_cfg, _ = parse_config(cfg)
        assert scene_cfg.radio.gain_tx == pytest.approx(10 ** 0.3)
        assert scene_cfg.radio.gain_rx == 2.0

    def test_empty_file_lists_required_sections(self, tmp_path):
        cfg = tmp_path / "empty.yaml"
        cfg.write_text("")
        with pytest.raises(ConfigError, match="radio"):
            parse_config(cfg)

    def test_unknown_key_named(self, tmp_path):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["radio"]["carier_freq_ghz"] = 5.0  # typo
        cfg = tmp_path / "typo.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="carier_freq_ghz"):
            parse_config(cfg)

    def test_duplicate_unit_variants_rejected(self, tmp_path):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["radio"]["carrier_freq_hz"] = 5e9  # alongside carrier_freq_ghz
        cfg = tmp_path / "dup.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="only one of"):
            parse_config(cfg)

    def test_type_mismatch_path_qualified(self, tmp_path):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["radio"]["num_subcarriers"] = "many"
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="num_subcarriers"):
            parse_config(cfg)

    @pytest.mark.parametrize("override,key", [
        ({"structure": "conventional_chirp"}, "structure"),
        ({"suppressor": "stpa"}, "suppressor"),
        ({"eps_mode": "bogus"}, "eps_mode"),
        ({"refinement": "musik"}, "refinement"),
        ({"music_factor": 0}, "music_factor"),
        ({"stte_guard": -1}, "stte_guard"),
        ({"structure": "fa", "suppressor": "mf", "va": True}, "va"),
        ({"structure": "lshape", "suppressor": "sthp"}, "suppressor"),
        # MF is STAP at eps = inf; FA is its own matched filter, FFT angles only.
        ({"suppressor": "mf", "eps_mode": "zero"}, "eps_mode"),
        ({"structure": "fa", "eps_mode": "em", "refinement": "music"}, "suppressor"),
        ({"structure": "fa", "suppressor": "mf", "eps_mode": "em"}, "eps_mode"),
        ({"structure": "fa", "suppressor": "mf", "refinement": "music"}, "refinement"),
    ])
    def test_bad_pipeline_spec_fails_closed(self, tmp_path, capsys, override, key):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        pipe = {"structure": "comb", "suppressor": "sthp", "eps_mode": "inf",
                "refinement": "fft", "va": False}
        raw["experiment"]["pipelines"] = [pipe, {**pipe, **override}]
        cfg = tmp_path / "pipe.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        where = f"experiment.pipelines[1].{key}"
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(cfg)
        assert main(["resolution", "--config", str(cfg)]) == 3
        assert where in capsys.readouterr().err
        assert main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path / "mc")]) == 3
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("override,key", [
        ({"scenario": "boat"}, "scenario"),
        ({"num_drops": -1}, "num_drops"),
        ({"target_count": 0}, "target_count"),
        ({"sweep_values": [1.0, 0.5]}, "sweep_values"),
        ({"sweep_axis": "speed"}, "sweep_axis"),
        ({"workers": 0}, "workers"),
        ({"stte_guard": 1}, "stte_guard"),   # a per-pipeline key only
    ])
    def test_bad_plan_value_fails_closed(self, tmp_path, capsys, override, key):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["experiment"].update(override)
        cfg = tmp_path / "plan.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        where = f"{cfg}.experiment"
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(cfg)
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert where in err and key in err
        assert not out.exists()

    def test_duplicate_pipeline_tag_fails_closed(self, tmp_path, capsys):
        # FA guard 1 and guard 3 share the tag fa-mf-inf-fft: their curves
        # would merge and simulate would write both to the same files.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        fa = {"structure": "fa", "suppressor": "mf", "eps_mode": "inf", "refinement": "fft"}
        raw["experiment"]["pipelines"] = [{**fa, "stte_guard": 1}, {**fa, "stte_guard": 3}]
        cfg = tmp_path / "dup.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        where = f"{cfg}.experiment"
        with pytest.raises(ConfigError, match=re.escape(where) + ".*pipelines\\[1\\].*fa-mf-inf-fft"):
            parse_config(cfg)
        for command in ("montecarlo", "simulate"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert where in err and "fa-mf-inf-fft" in err
            assert not out.exists()

    @pytest.mark.parametrize("flag,value,key", [
        ("--workers", "0", "workers"),
        ("--drops", "-1", "num_drops"),
    ])
    def test_bad_override_fails_before_output_dir(self, tmp_path, capsys, flag, value, key):
        out = tmp_path / "mc"
        assert main(["montecarlo", "--preset", "desk_small", "--out", str(out),
                     flag, value]) == 3
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_effective_dict_round_trip(self):
        scene_cfg, plan = parse_config(preset_path("desk_small"))
        effective = scene_to_dict(scene_cfg)
        effective["experiment"] = plan_to_dict(plan)
        back_scene, back_plan = config_from_dict(effective, source="round")
        assert back_scene == scene_cfg
        assert back_plan == plan

    def test_config_hash_key_order_invariant(self):
        a = {"radio": {"x": 1.0, "y": 2.0}, "seed": 3}
        b = {"seed": 3, "radio": {"y": 2.0, "x": 1.0}}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"radio": {"x": 1.0, "y": 2.5}, "seed": 3})


class TestCubeFormat:
    def _cube(self):
        scene = make_scene(radio=make_radio(power_w=10.0))
        scene = replace(scene, targets=(on_grid_target(scene),))
        sched = schedule_for(scene, PipelineSpec(structure="comb"), 1)
        return scene, synthesize_if_cube(scene, sched)

    def test_round_trip_exact(self, tmp_path):
        scene, cube = self._cube()
        path = tmp_path / "c.bin"
        write_cube(path, cube)
        back = read_cube(path)
        np.testing.assert_array_equal(back.chirp_branch, cube.chirp_branch)
        np.testing.assert_array_equal(back.tone_branch_compressed,
                                      cube.tone_branch_compressed)
        assert back.sample_rate_hz == cube.sample_rate_hz
        assert back.schedule.to_dict() == cube.schedule.to_dict()

    def test_estimator_accepts_file_cube(self, tmp_path):
        scene, cube = self._cube()
        path = tmp_path / "c.bin"
        write_cube(path, cube)
        back = read_cube(path)
        pipe = PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf")
        direct = run_pipeline(front_end(cube, scene), scene, pipe, 1)[0]
        loaded = run_pipeline(front_end(back, scene), scene, pipe, 1)[0]
        assert direct == loaded

    @pytest.mark.parametrize("va", [False, True])
    def test_file_bytes_keep_element_major_layout(self, tmp_path, va):
        # The file is version 1 as documented in the README: the chirp
        # branch element-major, (L, symbols * N), as the per-symbol oracle
        # concatenates it; the cube's symbol-major branch is transposed on
        # the way out and back.
        scene = make_scene(radio=make_radio(n=64, power_w=10.0),
                           arr=make_array(cols=2, rows=3, tx=2, va=va),
                           indices=(1, 5) if va else (1, 6, 15))
        scene = replace(scene, targets=(on_grid_target(scene),))
        sched = schedule_for(scene, PipelineSpec(structure="comb", va=va), 1)
        cube = synthesize_if_cube(scene, sched, seed=9)
        path = tmp_path / "c.bin"
        write_cube(path, cube)
        chirp = oracles.chirp_branch_per_symbol(scene, sched, seed=9)
        meta = json.dumps({"schedule": sched.to_dict()}).encode("utf-8")
        want = (b"MARSCUB1"
                + struct.pack("<IIIII", 1, 6, sched.num_chirp_symbols, 64, sched.num_tone_pris)
                + struct.pack("<d", cube.sample_rate_hz) + struct.pack("<I", len(meta)) + meta
                + chirp.astype("<c16").tobytes()
                + cube.tone_branch_compressed.astype("<c16").tobytes())
        assert path.read_bytes() == want
        back = read_cube(path)
        assert back.chirp_branch.flags.c_contiguous
        assert np.array_equal(back.chirp_branch.view(float), cube.chirp_branch.view(float))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACUBE" + b"\0" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_cube(path)


class TestCsv:
    def test_cell_formats(self):
        assert format_cell(None) == ""
        assert format_cell(True) == "1"
        assert format_cell(3) == "3"
        assert format_cell(0.5) == format(0.5, ".17e")
        assert format_cell("comb") == "comb"

    def test_write_csv_deterministic(self, tmp_path):
        rows = [{"a": 1, "b": 0.1}, {"a": 2, "b": None}]
        p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
        write_csv(p1, ["a", "b"], rows)
        write_csv(p2, ["a", "b"], rows)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[2] == "2,"


class TestCli:
    def test_resolution_prints_and_writes(self, tmp_path, capsys):
        code = main(["resolution", "--preset", "table1_car", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "range_res_m" in out
        csv = (tmp_path / "resolution.csv").read_text().splitlines()
        row = dict(zip(("quantity", "no_va", "va"), csv[1].split(",")))
        assert float(row["no_va"]) == pytest.approx(1.22, abs=0.005)
        manifest = read_manifest(tmp_path / "manifest.json")
        assert manifest.outputs[0]["path"] == "resolution.csv"

    def test_waveform_symbol_dump(self, tmp_path, capsys):
        code = main(["waveform", "--preset", "desk_small", "--out", str(tmp_path),
                     "--symbol", "1"])
        assert code == 0
        assert "overhead_fraction" in capsys.readouterr().out
        sym = (tmp_path / "symbol_1.csv").read_text().splitlines()
        assert sym[0] == "index,re,im"
        assert len(sym) == 1 + 512
        sched = yaml.safe_load((tmp_path / "schedule.yaml").read_text())
        assert sched["chirp_pri_indices"] == [1, 6, 15]

    def test_unknown_preset_is_config_error(self, capsys):
        assert main(["resolution", "--preset", "nope"]) == 3
        assert "unknown preset" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        assert main(["resolution"]) == 2
        assert main(["not-a-command"]) == 2

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["waveform"]["chirp_pri_indices"] = [0, 3]
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["resolution", "--config", str(cfg)]) == 3
        assert "index 0" in capsys.readouterr().err

    def _fast_config(self, tmp_path, drops=2):
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"]["enabled"] = False
        raw["experiment"]["num_drops"] = drops
        cfg = tmp_path / "fast.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        return cfg

    def test_simulate_writes_cube_and_estimates(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path)
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--targets", "1", "--dump-cube", "--dump-spectra"])
        assert code == 0
        est = (out / "estimates.csv").read_text().splitlines()
        assert len(est) == 2
        cube = read_cube(out / "cube_comb-sthp-inf-fft-va.bin")
        assert cube.num_elements == 16 and cube.chirp_branch.shape[1] == 16
        manifest = read_manifest(out / "manifest.json")
        names = {o["path"] for o in manifest.outputs}
        assert "estimates.csv" in names and "truth.csv" in names
        assert any(n.startswith("range_spectrum") for n in names)

    def test_simulate_runs_the_scored_drop(self, tmp_path, capsys):
        # simulate --drop d and montecarlo share one drop path: the same
        # targets, cubes and estimates, down to the last printed digit.
        raw = yaml.safe_load(preset_path("desk_small").read_text())
        raw["clutter"].update(area_x_m=200.0, area_y_m=100.0)
        pipe = {"structure": "comb", "suppressor": "sthp", "eps_mode": "inf",
                "refinement": "fft", "va": False}
        raw["experiment"].update(num_drops=3, target_count=1, pipelines=[
            {**pipe, "va": True}, {**pipe, "structure": "fa", "suppressor": "mf"},
            {**pipe, "refinement": "music"}, {**pipe, "suppressor": "mf"}])
        cfg = tmp_path / "four.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        sim, mc = tmp_path / "sim", tmp_path / "mc"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim),
                     "--targets", "1", "--drop", "2"]) == 0
        assert main(["montecarlo", "--config", str(cfg), "--out", str(mc)]) == 0

        def rows(path):
            lines = path.read_text().splitlines()
            return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]

        simulated = [(r["pipeline"], r["range_m"], r["velocity_mps"], r["psi_x_rad"])
                     for r in rows(sim / "estimates.csv")]
        scored = [(r["pipeline"], r["est_range_m"], r["est_velocity_mps"], r["est_psi_x_rad"])
                  for r in rows(mc / "records.csv") if r["drop"] == "2"]
        assert len(simulated) == 4
        assert sorted(simulated) == sorted(scored)

    def test_simulate_table1_cube_header_dims(self, tmp_path, capsys):
        # Table-I geometry: 64 elements, 4 chirp symbols, 2048 samples each.
        raw = yaml.safe_load(preset_path("table1_car").read_text())
        raw["clutter"]["enabled"] = False
        raw["experiment"]["num_drops"] = 1
        cfg = tmp_path / "t1.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "sim"
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--targets", "1", "--dump-cube"])
        assert code == 0
        cube = read_cube(out / "cube_comb-sthp-inf-fft.bin")
        assert cube.chirp_branch.shape == (4, 64, 2048)
        assert cube.tone_branch_compressed.shape == (64, 496)
        assert cube.schedule.num_chirp_occasions == 4
        assert cube.sample_rate_hz == pytest.approx(122.88e6)

    def test_montecarlo_and_replay_byte_identical(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path)
        out1 = tmp_path / "run1"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out1)]) == 0
        out2 = tmp_path / "run2"
        code = main(["replay", "--manifest", str(out1 / "manifest.json"),
                     "--out", str(out2)])
        assert code == 0
        for name in ("curves.csv", "records.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_montecarlo_timings_unhashed_and_replay_identical(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path, drops=3)
        raw = yaml.safe_load(cfg.read_text())
        raw["experiment"]["sweep_values"] = [0.5, 1.0]
        cfg.write_text(yaml.safe_dump(raw))
        out1 = tmp_path / "run1"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out1)]) == 0
        manifest = read_manifest(out1 / "manifest.json")
        assert sorted(o["path"] for o in manifest.outputs) == ["curves.csv", "records.csv"]
        lines = (out1 / "timings.csv").read_text().splitlines()
        assert lines[0] == "sweep_value,drop,seconds"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3 * 2
        assert {(float(v), int(d)) for v, d, _ in rows} == {
            (v, d) for v in (0.5, 1.0) for d in range(3)}
        assert all(float(sec) > 0 for _, _, sec in rows)
        capsys.readouterr()
        code = main(["replay", "--manifest", str(out1 / "manifest.json"),
                     "--out", str(tmp_path / "run2")])
        assert code == 0
        report = capsys.readouterr().out
        for name in ("curves.csv", "records.csv"):
            assert re.search(rf"^{re.escape(name)}\s+ok$", report, re.MULTILINE)

    def test_scale_full_raises_drop_floor_but_yields_to_override(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path)
        out = tmp_path / "scaled"
        # --drops wins over the --scale floor, keeping the smoke run cheap;
        # the flag must still be recorded for replay.
        code = main(["montecarlo", "--config", str(cfg), "--out", str(out),
                     "--scale", "full", "--drops", "2"])
        assert code == 0
        manifest = read_manifest(out / "manifest.json")
        assert "--scale" in manifest.command and "full" in manifest.command
        records = (out / "records.csv").read_text().splitlines()
        assert len(records) == 1 + 2

    def test_replay_single_drop(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path)
        out1 = tmp_path / "run1"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out1)]) == 0
        out2 = tmp_path / "drop"
        code = main(["replay", "--manifest", str(out1 / "manifest.json"),
                     "--out", str(out2), "--drop", "1"])
        assert code == 0
        assert (out2 / "drop_1_records.csv").exists()

    def test_replay_detects_tampering(self, tmp_path, capsys):
        cfg = self._fast_config(tmp_path)
        out1 = tmp_path / "run1"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest["outputs"][0]["sha256"] = "0" * 64
        (out1 / "manifest.json").write_text(json.dumps(manifest))
        out2 = tmp_path / "run2"
        code = main(["replay", "--manifest", str(out1 / "manifest.json"),
                     "--out", str(out2)])
        assert code == 4
