"""Command-line entry point.

Subcommands: resolution, waveform, clutter-map, simulate, montecarlo,
replay. Every run that writes files also writes a ``manifest.json``
sufficient to replay it byte-identically. Exit codes: 0 ok, 2 usage,
3 config error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .clutter import build_clutter_for, build_clutter_map
from .channel import synthesize_fa_measurements, synthesize_if_cube
from .harness import DropError, ExperimentPlan, draw_targets, monte_carlo, run_drop, schedule_for
from .io import (
    ConfigError,
    RunManifest,
    config_from_dict,
    config_hash,
    parse_config,
    plan_to_dict,
    read_manifest,
    scene_to_dict,
    write_csv,
    write_cube,
)
from .pipeline import run_fa_pipeline, run_pipeline
from .seeding import derive_seed
from .scene import SceneValidationError, resolution_report, validate_scene
from .waveform import build_schedule, overhead_fraction, symbol_time_samples

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4


def preset_path(name: str) -> Path:
    path = resources.files("mars_jcas.presets").joinpath(f"{name}.yaml")
    if not path.is_file():
        available = sorted(p.stem for p in resources.files("mars_jcas.presets").iterdir()
                           if p.name.endswith(".yaml") and p.stem != "gtri_terrain")
        raise ConfigError(f"unknown preset {name!r}; available: {available}")
    return Path(str(path))


def _load(args):
    if args.config:
        scene_cfg, plan = parse_config(args.config)
    else:
        scene_cfg, plan = parse_config(preset_path(args.preset))
    if getattr(args, "seed", None) is not None:
        scene_cfg = replace(scene_cfg, seed=args.seed)
        if plan is not None:
            plan = replace(plan, seed=args.seed)
    scene = validate_scene(scene_cfg)
    return scene_cfg, scene, plan


def _manifest_for(args, scene_cfg, plan, command_tokens) -> RunManifest:
    effective = scene_to_dict(scene_cfg)
    if plan is not None:
        effective["experiment"] = plan_to_dict(plan)
    return RunManifest(
        tool="mars-jcas", version=__version__, command=command_tokens,
        master_seed=plan.seed if plan is not None else scene_cfg.seed,
        config_hash=config_hash(effective), effective_config=effective,
    )


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_resolution(args) -> int:
    scene_cfg, scene, plan = _load(args)
    rep_off = resolution_report(scene.radio, scene.array.with_va(False))
    rep_on = resolution_report(scene.radio, scene.array.with_va(True))
    rows = [
        ("range_res_m", rep_off.range_res_m, rep_on.range_res_m),
        ("velocity_res_mps", rep_off.velocity_res_mps, rep_on.velocity_res_mps),
        ("sin_angle_res_x", rep_off.sin_angle_res_x, rep_on.sin_angle_res_x),
        ("sin_angle_res_y", rep_off.sin_angle_res_y, rep_on.sin_angle_res_y),
        ("max_unambiguous_speed_mps", rep_off.max_unambiguous_speed_mps,
         rep_on.max_unambiguous_speed_mps),
    ]
    print(f"{'quantity':<28}{'no_va':>14}{'va':>14}")
    for name, off, on in rows:
        print(f"{name:<28}{off:>14.6g}{on:>14.6g}")
    if args.out:
        out = _outdir(args)
        write_csv(out / "resolution.csv", ["quantity", "no_va", "va"], rows)
        manifest = _manifest_for(args, scene_cfg, plan, ["resolution"])
        manifest.add_output(out / "resolution.csv")
        manifest.write(out / "manifest.json")
    return EXIT_OK


def cmd_waveform(args) -> int:
    scene_cfg, scene, plan = _load(args)
    schedule = build_schedule(
        scene.radio, scene.array, scene.waveform.structure,
        chirp_pri_indices=scene.waveform.chirp_pri_indices,
        tone_subcarrier_index=scene.waveform.tone_subcarrier_index,
        guard_subcarriers=scene.waveform.guard_subcarriers,
        fa_seed=scene.seed,
    )
    overhead = overhead_fraction(schedule, scene.radio)
    print(f"structure            {schedule.structure}")
    print(f"num_pri              {schedule.num_pri}")
    print(f"symbols_per_pri      {schedule.symbols_per_pri}")
    print(f"duty_ratio           {schedule.duty_ratio:.6g}")
    print(f"chirp_occasions      {list(schedule.chirp_pri_indices)}")
    print(f"slots_per_chirp      {schedule.slots_per_chirp}")
    print(f"tone_subcarrier      {schedule.tone_subcarrier_index}")
    print(f"overhead_fraction    {overhead:.6g} ({100 * overhead:.4g}%)")
    if args.out:
        out = _outdir(args)
        (out / "schedule.yaml").write_text(yaml.safe_dump(schedule.to_dict(), sort_keys=True))
        (out / "overhead.txt").write_text(
            f"overhead_fraction {overhead:.17e}\n"
            f"chirp_symbols {schedule.num_chirp_symbols}\n"
            f"tone_pris {schedule.num_tone_pris}\n"
            f"total_elements {schedule.num_pri * schedule.symbols_per_pri * scene.radio.num_subcarriers}\n")
        outputs = [out / "schedule.yaml", out / "overhead.txt"]
        if args.symbol is not None:
            samples = symbol_time_samples(schedule, scene.radio, args.symbol)
            rows = [(k, s.real, s.imag) for k, s in enumerate(samples)]
            sym_path = out / f"symbol_{args.symbol}.csv"
            write_csv(sym_path, ["index", "re", "im"], rows)
            outputs.append(sym_path)
        manifest = _manifest_for(args, scene_cfg, plan, _waveform_tokens(args))
        for p in outputs:
            manifest.add_output(p)
        manifest.write(out / "manifest.json")
    return EXIT_OK


def _waveform_tokens(args):
    tokens = ["waveform"]
    if args.symbol is not None:
        tokens += ["--symbol", str(args.symbol)]
    return tokens


def cmd_clutter_map(args) -> int:
    scene_cfg, scene, plan = _load(args)
    if not scene.clutter.enabled:
        print("clutter disabled in config; nothing to build", file=sys.stderr)
        return EXIT_CONFIG
    started = time.perf_counter()
    cmap = build_clutter_map(scene)
    seconds = time.perf_counter() - started
    power = np.sum(np.abs(cmap.chirp_tables[0]) ** 2, axis=1)
    print(f"terrain              {cmap.terrain}")
    print(f"patches              {cmap.patch_count}")
    print(f"tx_slots             {cmap.num_tx_slots}")
    print(f"total_power_unit_tx  {power.sum():.6g}")
    print(f"build_seconds        {seconds:.3f}")
    if args.out:
        out = _outdir(args)
        rows = [(r, r * cmap.range_res_m, power[r]) for r in range(cmap.num_range_bins)]
        write_csv(out / "clutter_profile.csv", ["range_bin", "range_m", "power"], rows)
        manifest = _manifest_for(args, scene_cfg, plan, ["clutter-map"])
        manifest.add_stage("build_clutter_map", seconds)
        manifest.add_output(out / "clutter_profile.csv")
        manifest.write(out / "manifest.json")
    return EXIT_OK


def _simulate_tokens(args):
    tokens = ["simulate", "--drop", str(args.drop)]
    if args.targets is not None:
        tokens += ["--targets", str(args.targets)]
    if args.dump_cube:
        tokens.append("--dump-cube")
    if args.dump_spectra:
        tokens.append("--dump-spectra")
    return tokens


def cmd_simulate(args) -> int:
    scene_cfg, scene, plan = _load(args)
    if plan is None:
        plan = ExperimentPlan(seed=scene.seed)
    if args.targets is not None:
        plan = replace(plan, target_count=args.targets)
        scene = replace(scene, targets=draw_targets(plan, scene, args.drop))
    if not scene.targets:
        print("no targets: give a targets section or --targets K", file=sys.stderr)
        return EXIT_CONFIG
    out = _outdir(args)
    manifest = _manifest_for(args, scene_cfg, plan, _simulate_tokens(args))

    cmap = None
    if scene.clutter.enabled:
        started = time.perf_counter()
        cmap = build_clutter_for(scene, plan.pipelines)
        manifest.add_stage("build_clutter_map", time.perf_counter() - started)

    outputs = []
    est_rows = []
    drop_seed = derive_seed(plan.seed, "drop", args.drop, "None")
    for pipe in plan.pipelines:
        schedule = schedule_for(scene, pipe, plan.seed)
        started = time.perf_counter()
        debug = {} if args.dump_spectra else None
        if pipe.structure == "fa":
            meas = synthesize_fa_measurements(scene, schedule, cmap, seed=drop_seed)
            ests = run_fa_pipeline(meas, scene, schedule, len(scene.targets),
                                   guard=plan.stte_guard)
        else:
            va_scene = replace(scene, array=scene.array.with_va(pipe.va))
            cube = synthesize_if_cube(va_scene, schedule, cmap, seed=drop_seed)
            ests = run_pipeline(cube, va_scene, pipe, len(scene.targets), debug=debug)
            if args.dump_cube:
                cube_path = out / f"cube_{pipe.tag}.bin"
                write_cube(cube_path, cube)
                outputs.append(cube_path)
        manifest.add_stage(f"simulate_{pipe.tag}", time.perf_counter() - started)
        for k, e in enumerate(ests):
            est_rows.append({
                "pipeline": pipe.tag, "target": k,
                "velocity_mps": e.velocity_mps, "psi_x_rad": e.psi_x_rad,
                "psi_y_rad": e.psi_y_rad, "range_m": e.range_m,
                "amplitude": e.amplitude, "velocity_bin": e.velocity_bin,
                "angle_x_bin": e.angle_x_bin, "angle_y_bin": e.angle_y_bin,
                "range_bin": e.range_bin, "refinement": e.refinement,
                "method": e.method, "eps_mode": e.eps_mode,
            })
        if debug:
            avm = debug["avmap"]
            rows = []
            nx, ny, nv = avm.values.shape
            for bx in range(nx):
                for by in range(ny):
                    for bv in range(nv):
                        rows.append((avm.sin_x(bx), avm.sin_y(by), avm.velocity(bv),
                                     avm.values[bx, by, bv]))
            map_path = out / f"angle_velocity_map_{pipe.tag}.csv"
            write_csv(map_path, ["sin_psi_x", "sin_psi_y", "velocity_mps", "magnitude"], rows)
            outputs.append(map_path)
            for k, d in enumerate(debug.get("spectra", [])):
                sp_path = out / f"range_spectrum_{pipe.tag}_{k}.csv"
                write_csv(sp_path, ["range_m", "magnitude"],
                          [(i * scene.range_res_m, abs(v)) for i, v in enumerate(d)])
                outputs.append(sp_path)

    truth_rows = [{
        "target": k, "range_m": t.range_m, "radial_velocity_mps": t.radial_velocity_mps,
        "psi_x_rad": t.psi_x_rad, "psi_y_rad": t.psi_y_rad, "rcs_m2": t.rcs_m2,
    } for k, t in enumerate(scene.targets)]
    write_csv(out / "truth.csv", list(truth_rows[0].keys()), truth_rows)
    write_csv(out / "estimates.csv",
              ["pipeline", "target", "velocity_mps", "psi_x_rad", "psi_y_rad", "range_m",
               "amplitude", "velocity_bin", "angle_x_bin", "angle_y_bin", "range_bin",
               "refinement", "method", "eps_mode"], est_rows)
    outputs += [out / "truth.csv", out / "estimates.csv"]
    for p in outputs:
        manifest.add_output(p)
    manifest.write(out / "manifest.json")
    print(f"wrote {len(outputs)} artifacts to {out}")
    return EXIT_OK


def _montecarlo_tokens(args):
    tokens = ["montecarlo"]
    if args.scale != "desk":
        tokens += ["--scale", args.scale]
    if args.drops is not None:
        tokens += ["--drops", str(args.drops)]
    if args.workers is not None:
        tokens += ["--workers", str(args.workers)]
    return tokens


def cmd_montecarlo(args) -> int:
    scene_cfg, scene, plan = _load(args)
    if plan is None:
        print("config has no experiment section", file=sys.stderr)
        return EXIT_CONFIG
    if args.scale == "full":
        # Benchmark-scale statistics; pair with the table1_* presets to
        # reproduce the published curve structure (long runtime).
        plan = replace(plan, num_drops=max(plan.num_drops, 500))
    if args.drops is not None:
        plan = replace(plan, num_drops=args.drops)
    if args.workers is not None:
        plan = replace(plan, workers=args.workers)
    out = _outdir(args)
    manifest = _manifest_for(args, scene_cfg, plan, _montecarlo_tokens(args))

    started = time.perf_counter()
    rows, report = monte_carlo(plan, scene)
    manifest.add_stage("monte_carlo", time.perf_counter() - started)

    write_csv(out / "curves.csv",
              ["sweep_axis", "sweep_value", "pipeline", "metric", "value",
               "ci_low", "ci_high", "n"], rows)
    rec_rows = []
    for r in report.records:
        rec_rows.append({
            "pipeline": r.pipeline, "drop": r.drop_index, "sweep_value": r.sweep_value,
            "truth_range_m": r.truth.range_m,
            "truth_velocity_mps": r.truth.radial_velocity_mps,
            "truth_psi_x_rad": r.truth.psi_x_rad, "truth_psi_y_rad": r.truth.psi_y_rad,
            "est_range_m": None if r.estimate is None else r.estimate.range_m,
            "est_velocity_mps": None if r.estimate is None else r.estimate.velocity_mps,
            "est_psi_x_rad": None if r.estimate is None else r.estimate.psi_x_rad,
            "est_psi_y_rad": None if r.estimate is None else r.estimate.psi_y_rad,
            "off_range": r.offsets_bins[0], "off_velocity": r.offsets_bins[1],
            "off_sin_x": r.offsets_bins[2], "off_sin_y": r.offsets_bins[3],
            "hit": r.hit,
        })
    write_csv(out / "records.csv", list(rec_rows[0].keys()) if rec_rows else
              ["pipeline", "drop", "sweep_value", "hit"], rec_rows)
    for name in ("curves.csv", "records.csv"):
        manifest.add_output(out / name)
    # Per-drop runtimes vary run to run, so they stay out of the hashed outputs.
    sweep = {str(v): v for v in (plan.sweep_values or (None,))}
    write_csv(out / "timings.csv", ["sweep_value", "drop", "seconds"],
              [(sweep[value], drop, seconds)
               for (value, drop), seconds in report.drop_runtimes_s.items()])
    manifest.write(out / "manifest.json")
    for row in rows:
        if row["metric"] == "hit_rate":
            print(f"{row['pipeline']:<28} sweep={row['sweep_value']} "
                  f"hit_rate={row['value']:.4f} [{row['ci_low']:.4f}, {row['ci_high']:.4f}] "
                  f"n={row['n']}")
    return EXIT_OK


def cmd_replay(args) -> int:
    manifest = read_manifest(args.manifest)
    out = _outdir(args)
    cfg_path = out / "_effective_config.yaml"
    cfg_path.write_text(yaml.safe_dump(manifest.effective_config, sort_keys=True))

    if args.drop is not None:
        scene_cfg, plan = config_from_dict(manifest.effective_config, source="manifest")
        scene = validate_scene(scene_cfg)
        if plan is None:
            print("manifest has no experiment plan to replay a drop from", file=sys.stderr)
            return EXIT_CONFIG
        records = run_drop(scene, plan, args.drop,
                           clutter=None if not scene.clutter.enabled else
                           build_clutter_for(scene, plan.pipelines))
        rows = [{"pipeline": r.pipeline, "hit": r.hit,
                 "truth_range_m": r.truth.range_m,
                 "est_range_m": None if r.estimate is None else r.estimate.range_m}
                for r in records]
        write_csv(out / f"drop_{args.drop}_records.csv",
                  ["pipeline", "hit", "truth_range_m", "est_range_m"], rows)
        print(f"replayed drop {args.drop}: {sum(r.hit for r in records)}/{len(records)} hits")
        return EXIT_OK

    argv = list(manifest.command) + ["--config", str(cfg_path), "--out", str(out)]
    code = main(argv)
    if code != EXIT_OK:
        return code
    mismatches = []
    for entry in manifest.outputs:
        path = out / entry["path"]
        if not path.exists():
            mismatches.append((entry["path"], "missing"))
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        status = "ok" if digest == entry["sha256"] else "mismatch"
        print(f"{entry['path']:<40} {status}")
        if status != "ok":
            mismatches.append((entry["path"], digest))
    if mismatches:
        print(f"{len(mismatches)} outputs differ from the manifest", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mars-jcas",
                                     description="JCAS sensing waveform simulator and estimator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--preset", help="built-in config name (e.g. table1_car)")
        group.add_argument("--config", help="path to a YAML config file")
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--seed", type=int, help="override the master seed")

    p = sub.add_parser("resolution", help="print the resolution report")
    common(p)
    p.set_defaults(func=cmd_resolution)

    p = sub.add_parser("waveform", help="emit the schedule, samples, and overhead")
    common(p)
    p.add_argument("--symbol", type=int, help="dump this PRI's sensing symbol as CSV")
    p.set_defaults(func=cmd_waveform)

    p = sub.add_parser("clutter-map", help="build and profile the clutter map")
    common(p)
    p.set_defaults(func=cmd_clutter_map)

    p = sub.add_parser("simulate", help="synthesize one drop and run the estimators")
    common(p, out_required=True)
    p.add_argument("--targets", type=int, help="draw K random targets instead of config targets")
    p.add_argument("--drop", type=int, default=0, help="drop index for seeding")
    p.add_argument("--dump-cube", action="store_true", help="write the binary IF cube")
    p.add_argument("--dump-spectra", action="store_true",
                   help="write the angle-velocity map and range spectra as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("montecarlo", help="run the experiment plan and write curves")
    common(p, out_required=True)
    p.add_argument("--drops", type=int, help="override the plan's drop count")
    p.add_argument("--workers", type=int, help="parallel drop workers")
    p.add_argument("--scale", choices=("desk", "full"), default="desk",
                   help="'full' raises the drop count to benchmark scale (>= 500)")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("replay", help="re-run a manifest and verify outputs")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--drop", type=int, help="replay a single drop instead of the full run")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, SceneValidationError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DropError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
