"""Command-line entry point.

Subcommands: resolution, waveform, clutter-map, simulate, montecarlo,
replay. Every run that writes files also writes a ``manifest.json``
sufficient to replay it byte-identically. Exit codes: 0 ok, 2 usage,
3 config error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import time
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import __version__, cpus
from .clutter import build_clutter_map, gtri_reflectivity, terrain_params
from .estimator import TargetEstimate
from .harness import (
    CURVE_COLUMNS,
    RECORD_COLUMNS,
    DropError,
    ExperimentPlan,
    TargetCountError,
    compile_run,
    drop_estimates,
    drop_scene,
    fa_schedule_seed,
    monte_carlo,
    plan_groups,
    record_rows,
    run_drop,
)
from .io import (
    LARGEST,
    ConfigError,
    RunManifest,
    Stage,
    config_from_dict,
    config_hash,
    parse_config,
    read_manifest,
    to_dict,
    write_csv,
    write_cube,
)
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


def _scene_schedule(scene, plan):
    """The schedule of the scene's own waveform section; an FA one hops as
    every FA pipeline of the run does."""
    w = scene.waveform
    return build_schedule(scene.radio, scene.array, w.structure,
                          chirp_pri_indices=w.chirp_pri_indices,
                          tone_subcarrier_index=w.tone_subcarrier_index,
                          guard_subcarriers=w.guard_subcarriers,
                          fa_seed=fa_schedule_seed(scene.seed if plan is None else plan.seed))


def _source(args):
    """The command's config file: ``--config`` or the preset's path."""
    return args.config or preset_path(args.preset)


def _load(args, compiles=False):
    """(scene config, scene, plan, the waveform section's schedule) of the
    command's config with :func:`_checked`'s rules applied."""
    source = _source(args)
    scene_cfg, plan = parse_config(source)
    if args.seed is not None:
        scene_cfg = replace(scene_cfg, seed=args.seed)
        if plan is not None:
            plan = replace(plan, seed=args.seed)
    scene, schedule = _checked(source, scene_cfg, plan, compiles)
    return scene_cfg, scene, plan, schedule


def _checked(source, scene_cfg, plan, compiles):
    """(scene, the waveform section's schedule) of a parsed config with every
    load rule and, unless the command ``compiles`` its run after its
    overrides, every plan rule applied: a bad one is a config error at
    ``source`` before anything is written or drawn."""
    scene = validate_scene(scene_cfg)
    try:
        schedule = _scene_schedule(scene, plan)
        if plan is not None and not compiles:
            plan_groups(scene, plan)
        if scene.clutter.enabled:
            # The terrain model's rules and bound at both ends of the grazing angles.
            sigma0 = gtri_reflectivity(np.array([0.0, np.pi / 2]), terrain_params(scene),
                                       scene.radio.wavelength_m)
            if not np.all(sigma0 <= LARGEST):
                raise ValueError(f"clutter: reflectivity {sigma0.tolist()} at grazing 0 and "
                                 f"90 degrees; it must be at most {LARGEST:g}")
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return scene, schedule


def _command(args) -> tuple:
    """The subcommand and each option (``--`` and its dest, dashed) whose
    parsed value differs from its default, as replay passes them back. The
    config, seed and output directory are left out: replay takes them from
    the effective config."""
    defaults = vars(build_parser().parse_args([args.command, "--preset", "_", "--out", "_"]))
    tokens = [args.command]
    for dest, value in vars(args).items():
        if dest in ("preset", "config", "out", "seed") or value == defaults[dest]:
            continue
        tokens.append("--" + dest.replace("_", "-"))
        if value is not True:
            tokens.append(str(value))
    return tuple(tokens)


# The subcommands whose runs write a manifest.
RECORDED = ("resolution", "waveform", "clutter-map", "simulate", "montecarlo")


def _check_command(command, path) -> None:
    """Raise ``ConfigError`` naming the manifest at ``path`` unless a run
    could have recorded ``command`` (:func:`_command`): a subcommand of
    :data:`RECORDED`, then options its parser takes, none of them one that
    replay supplies (``--config``, ``--out``), takes from the effective
    config (``--seed``) or that excludes ``--config`` (``--preset``)."""
    where = f"{path}.command: {list(command)!r}"
    if command[0] not in RECORDED:
        raise ConfigError(f"{where}: no run records {command[0]!r}; the subcommands that "
                          f"write a manifest are {', '.join(RECORDED)}")
    # Replay's own --config and --out go first: a recorded one would replace them.
    mark = "\0"
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            args = build_parser().parse_args([command[0], "--config", mark, "--out", mark,
                                              *command[1:]])
    except SystemExit:
        # The parser's last line, after its "prog: error: " prefix.
        reason = (err.getvalue().strip().splitlines() or ["it asks for help"])[-1]
        reason = reason.split(" error: ", 1)[-1]
        raise ConfigError(f"{where}: no run records it: {reason}") from None
    given = [opt for opt, recorded in (("--config", args.config != mark),
                                       ("--out", args.out != mark),
                                       ("--seed", args.seed is not None)) if recorded]
    if given:
        raise ConfigError(f"{where}: no run records {', '.join(given)}; replay takes the "
                          f"config, seed and output directory from the manifest and --out")


def _record(args, scene_cfg, plan, out: Path, outputs, stages=()) -> None:
    """Write the run's ``out/manifest.json``: its command, effective config
    (without ``workers``, which sets how the drops run, not what they
    compute), ``(name, seconds)`` stages and the sha256 of each output file."""
    effective = to_dict(scene_cfg)
    if plan is not None:
        effective["experiment"] = to_dict(plan)
        del effective["experiment"]["workers"]
    RunManifest(
        tool="mars-jcas", version=__version__, command=_command(args),
        master_seed=plan.seed if plan is not None else scene_cfg.seed,
        config_hash=config_hash(effective), effective_config=effective,
        stages=tuple(Stage(name, seconds) for name, seconds in stages),
        outputs=tuple({"path": path.name, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
                      for path in outputs),
    ).write(out / "manifest.json")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_resolution(args) -> int:
    scene_cfg, scene, plan, _ = _load(args)
    rep_off = resolution_report(scene.radio, scene.array.with_va(False))
    rep_on = resolution_report(scene.radio, scene.array.with_va(True))
    rows = [(f.name, getattr(rep_off, f.name), getattr(rep_on, f.name)) for f in fields(rep_off)]
    print(f"{'quantity':<28}{'no_va':>14}{'va':>14}")
    for name, off, on in rows:
        print(f"{name:<28}{off:>14.6g}{on:>14.6g}")
    if args.out:
        out = _outdir(args)
        write_csv(out / "resolution.csv", ["quantity", "no_va", "va"], rows)
        _record(args, scene_cfg, plan, out, [out / "resolution.csv"])
    return EXIT_OK


def cmd_waveform(args) -> int:
    scene_cfg, scene, plan, schedule = _load(args)
    if args.symbol is not None and not 0 <= args.symbol < schedule.num_pri:
        raise ConfigError(f"--symbol {args.symbol} is outside the PRIs 0..{schedule.num_pri - 1}")
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
        (out / "schedule.yaml").write_text(yaml.safe_dump(to_dict(schedule), sort_keys=True))
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
        _record(args, scene_cfg, plan, out, outputs)
    return EXIT_OK


def cmd_clutter_map(args) -> int:
    scene_cfg, scene, plan, _ = _load(args)
    if not scene.clutter.enabled:
        raise ConfigError("clutter disabled in config; nothing to build")
    started = time.perf_counter()
    cmap = build_clutter_map(scene)
    seconds = time.perf_counter() - started
    power = np.sum(np.abs(cmap.chirp_tables[0]) ** 2, axis=1)
    print(f"terrain              {scene.clutter.terrain}")
    print(f"patches              {cmap.patch_count}")
    print(f"tx_slots             {cmap.num_tx_slots}")
    print(f"total_power_unit_tx  {power.sum():.6g}")
    print(f"build_seconds        {seconds:.3f}")
    print(f"build_cpus           {cpus.count()}")
    if args.out:
        out = _outdir(args)
        rows = [(r, r * cmap.range_res_m, power[r]) for r in range(cmap.num_range_bins)]
        write_csv(out / "clutter_profile.csv", ["range_bin", "range_m", "power"], rows)
        _record(args, scene_cfg, plan, out, [out / "clutter_profile.csv"],
                [("build_clutter_map", seconds)])
    return EXIT_OK


def cmd_simulate(args) -> int:
    scene_cfg, scene, plan, _ = _load(args, compiles=True)
    plan = plan or ExperimentPlan(seed=scene_cfg.seed)
    if args.drop < 0:
        raise ConfigError(f"--drop {args.drop}: a drop index is at least 0")
    if args.targets is None and not scene.targets:
        raise ConfigError("no targets: give a targets section or --targets K")
    started = time.perf_counter()
    try:
        if args.targets is not None:
            plan = replace(plan, target_count=args.targets)
        run = compile_run(scene, plan, own_targets=args.targets is None)
    except ValueError as exc:
        override = args.targets is not None and isinstance(exc, TargetCountError)
        raise ConfigError(f"{'command-line override' if override else _source(args)}: "
                          f"{exc}") from exc
    stages = [("compile_run", time.perf_counter() - started)]
    out = _outdir(args)

    outputs, est_rows, truth_rows = [], [], []
    tags = [p.tag for p in plan.pipelines]
    for k, (value, drop, groups) in enumerate(run.points):
        sweep = "" if value is None else f"_sweep{k}"
        # With --targets, the drop at every sweep point as montecarlo scores it.
        drop = drop if args.targets is None else drop_scene(drop, plan, args.drop, value)
        rows_k = []
        started = time.perf_counter()
        for pipe, data, ests, debug in drop_estimates(drop, run, args.drop, groups, value,
                                                      debug=args.dump_spectra):
            name = pipe.tag + sweep
            stages.append((f"simulate_{name}", time.perf_counter() - started))
            if args.dump_cube and pipe.structure != "fa":
                cube_path = out / f"cube_{name}.bin"
                write_cube(cube_path, data)
                outputs.append(cube_path)
            rows_k += [{"pipeline": pipe.tag, "sweep_value": value, "target": j, **vars(e),
                        "refinement": pipe.refinement, "method": pipe.suppressor,
                        "eps_mode": pipe.eps_mode} for j, e in enumerate(ests)]
            if debug:
                avm = debug["avmap"]
                rows = [(avm.sin_x(bx), avm.sin_y(by), avm.velocity(bv), avm.values[bx, by, bv])
                        for bx, by, bv in np.ndindex(avm.values.shape)]
                map_path = out / f"angle_velocity_map_{name}.csv"
                write_csv(map_path, ["sin_psi_x", "sin_psi_y", "velocity_mps", "magnitude"],
                          rows)
                outputs.append(map_path)
                for j, d in enumerate(debug.get("spectra", [])):
                    sp_path = out / f"range_spectrum_{name}_{j}.csv"
                    write_csv(sp_path, ["range_m", "magnitude"],
                              [(i * scene.radio.range_res_m, abs(v)) for i, v in enumerate(d)])
                    outputs.append(sp_path)
            started = time.perf_counter()
        # Pipelines run grouped by shared cube; list their estimates in plan order.
        est_rows += sorted(rows_k, key=lambda row: tags.index(row["pipeline"]))
        truth_rows += [{"sweep_value": value, "target": j, **vars(t)}
                       for j, t in enumerate(drop.targets)]
    write_csv(out / "truth.csv", list(truth_rows[0].keys()), truth_rows)
    write_csv(out / "estimates.csv",
              ["pipeline", "sweep_value", "target", *(f.name for f in fields(TargetEstimate)),
               "refinement", "method", "eps_mode"], est_rows)
    outputs += [out / "truth.csv", out / "estimates.csv"]
    _record(args, scene_cfg, plan, out, outputs, stages)
    print(f"wrote {len(outputs)} artifacts to {out}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    scene_cfg, scene, plan, _ = _load(args, compiles=True)
    if plan is None:
        raise ConfigError("config has no experiment section")
    try:
        if args.scale == "full":
            # Benchmark-scale statistics; pair with the table1_* presets to
            # reproduce the published curve structure (long runtime).
            plan = replace(plan, num_drops=max(plan.num_drops, 500))
        if args.drops is not None:
            plan = replace(plan, num_drops=args.drops)
        if args.workers is not None:
            plan = replace(plan, workers=args.workers)
    except ValueError as exc:
        raise ConfigError(f"command-line override: {exc}") from exc
    started = time.perf_counter()
    try:
        # The run is compiled before the first drop and the output directory.
        rows, report = monte_carlo(plan, scene)
    except ValueError as exc:
        raise ConfigError(f"{_source(args)}: {exc}") from exc
    stages = [("monte_carlo", time.perf_counter() - started)]

    out = _outdir(args)
    write_csv(out / "curves.csv", CURVE_COLUMNS, rows)
    write_csv(out / "records.csv", RECORD_COLUMNS, record_rows(report.records))
    # Per-drop runtimes vary run to run, so they stay out of the hashed outputs.
    sweep = {str(v): v for v in (plan.sweep_values or (None,))}
    write_csv(out / "timings.csv", ["sweep_value", "drop", "seconds"],
              [(sweep[value], drop, seconds)
               for (value, drop), seconds in report.drop_runtimes_s.items()])
    _record(args, scene_cfg, plan, out, [out / "curves.csv", out / "records.csv"], stages)
    for row in rows:
        if row["metric"] == "hit_rate":
            print(f"{row['pipeline']:<28} sweep={row['sweep_value']} "
                  f"hit_rate={row['value']:.4f} [{row['ci_low']:.4f}, {row['ci_high']:.4f}] "
                  f"n={row['n']}")
    return EXIT_OK


def cmd_replay(args) -> int:
    manifest = read_manifest(args.manifest)
    _check_command(manifest.command, args.manifest)
    if args.drop is not None:
        # The run's drop K at every sweep point, as its records.csv holds it:
        # only a montecarlo run has drops and a records.csv.
        if manifest.command[0] != "montecarlo":
            raise ConfigError(f"--drop replays a drop of a montecarlo run; the manifest is of "
                              f"a {manifest.command[0]} run")
        scene_cfg, plan = config_from_dict(manifest.effective_config, source="manifest")
        if plan is None:
            raise ConfigError("manifest has no experiment plan to replay a drop from")
        scene, _ = _checked("manifest", scene_cfg, plan, compiles=True)
        try:
            if not 0 <= args.drop < plan.num_drops:
                span = f" (0 to {plan.num_drops - 1})" if plan.num_drops else ""
                raise ValueError(f"drop {args.drop} is not a drop of this run, which has "
                                 f"{plan.num_drops} drops{span}")
            run = compile_run(scene, plan)
            records = [r for value, at, groups in run.points
                       for r in run_drop(at, run, args.drop, groups, value)]
        except ValueError as exc:
            raise ConfigError(f"manifest, --drop {args.drop}: {exc}") from exc
        write_csv(_outdir(args) / f"drop_{args.drop}_records.csv", RECORD_COLUMNS,
                  record_rows(records))
        print(f"replayed drop {args.drop}: {sum(r.hit for r in records)}/{len(records)} hits")
        return EXIT_OK
    out = _outdir(args)
    cfg_path = out / "_effective_config.yaml"
    cfg_path.write_text(yaml.safe_dump(manifest.effective_config, sort_keys=True))
    code = main([*manifest.command, "--config", str(cfg_path), "--out", str(out)])
    if code != EXIT_OK:
        return code
    mismatches = 0
    for entry in manifest.outputs:
        path = out / entry["path"]
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        status = "ok" if digest == entry["sha256"] else "mismatch" if digest else "missing"
        print(f"{entry['path']:<40} {status}")
        mismatches += status != "ok"
    if mismatches:
        print(f"{mismatches} outputs differ from the manifest", file=sys.stderr)
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
    p.add_argument("--drop", type=int, default=0, help="drop index for seeding")
    p.add_argument("--targets", type=int, help="draw K random targets instead of config targets")
    p.add_argument("--dump-cube", action="store_true", help="write the binary IF cube")
    p.add_argument("--dump-spectra", action="store_true",
                   help="write the angle-velocity map and range spectra as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("montecarlo", help="run the experiment plan and write curves")
    common(p, out_required=True)
    p.add_argument("--scale", choices=("desk", "full"), default="desk",
                   help="'full' raises the drop count to benchmark scale (>= 500)")
    p.add_argument("--drops", type=int, help="override the plan's drop count")
    p.add_argument("--workers", type=int, help="parallel drop workers")
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
    except (ConfigError, SceneValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DropError, ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
