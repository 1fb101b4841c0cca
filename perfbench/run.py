"""Monte-Carlo benchmark for mars-jcas.

    python3 perfbench/run.py --workload desk_mix --seed 1 --seconds 30 --trace 0

Runs one workload in this process in the order ``mars-jcas montecarlo``
does: parse the preset, validate the scene, build the clutter map, run
``harness.monte_carlo`` with one worker, write curves.csv and records.csv.
It checks the outputs, prints a table of the metrics and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs the same work with every library call
site wrapped (see tracer.py) and reports the per-layer metrics.

Run files go to perfbench/out/: <workload>-s<seed>-t<trace>.json (metrics,
environment, hit counts, warnings), the CSV outputs and, when traced, the
spans. perfbench/summarize.py reads them back.
"""

from __future__ import annotations

import os

# Pin the load before numpy is imported: one process, one BLAS/OpenMP
# thread. On a 2-core machine desk_mix ran faster with one thread than two.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import DropProbe, Kernel, scale  # noqa: E402
from tracer import CallSiteMissing, Tracer, WarningLog, expected_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
REFERENCE = ROOT / "perfbench" / "reference.json"

SETUP_REPEATS = 3
# Wilson intervals at z = 3.29 (two-sided 0.001): 95% family-wise over the
# about 50 pipeline checks of comparing two commits (Bonferroni). At
# z = 1.96 per check a correct program would fail about one run in twenty
# for each pipeline whose hit rate lies away from 0 and 1.
WILSON_Z = 3.29


def import_library():
    """Import mars_jcas from this checkout's src/, and only from there."""
    sys.path.insert(0, str(SRC))
    try:
        import mars_jcas
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mars_jcas from {SRC}: {exc}")
    if SRC.resolve() not in Path(mars_jcas.__file__).resolve().parents:
        raise SystemExit(f"perfbench: mars_jcas imported from {mars_jcas.__file__}, "
                         f"not from {SRC}")
    return mars_jcas


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workers": 1,
    }


def wilson(hits: int, n: int, z: float = WILSON_Z) -> tuple:
    if n == 0:
        return (0.0, 1.0)
    p = hits / n
    den = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / den
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / den
    return (max(0.0, center - half), min(1.0, center + half))


def tail(runtimes: list) -> tuple:
    """Highest percentile of per-drop time with at least ten drops beyond
    it: (value, percentile). With ten drops or fewer it is the maximum."""
    ordered = sorted(runtimes)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def record_rows(report) -> list:
    """records.csv rows, with the columns ``mars-jcas montecarlo`` writes."""
    rows = []
    for r in report.records:
        e = r.estimate
        rows.append({
            "pipeline": r.pipeline, "drop": r.drop_index, "sweep_value": r.sweep_value,
            "truth_range_m": r.truth.range_m,
            "truth_velocity_mps": r.truth.radial_velocity_mps,
            "truth_psi_x_rad": r.truth.psi_x_rad, "truth_psi_y_rad": r.truth.psi_y_rad,
            "est_range_m": None if e is None else e.range_m,
            "est_velocity_mps": None if e is None else e.velocity_mps,
            "est_psi_x_rad": None if e is None else e.psi_x_rad,
            "est_psi_y_rad": None if e is None else e.psi_y_rad,
            "off_range": r.offsets_bins[0], "off_velocity": r.offsets_bins[1],
            "off_sin_x": r.offsets_bins[2], "off_sin_y": r.offsets_bins[3],
            "hit": r.hit,
        })
    return rows


CURVE_COLUMNS = ["sweep_axis", "sweep_value", "pipeline", "metric", "value",
                 "ci_low", "ci_high", "n"]


def check_outputs(workload, plan, pipelines, report, rows, hits, totals, out_dir,
                  reference) -> list:
    """Problems found in one run's outputs; empty when the run is correct."""
    problems = []
    sweep = list(plan.sweep_values) or [None]
    per_point = plan.num_drops * plan.target_count
    expected = per_point * len(sweep) * len(pipelines)
    if len(report.records) != expected:
        problems.append(f"{len(report.records)} records, expected {expected}")
    curve_n = {(row["sweep_value"], row["pipeline"]): row["n"]
               for row in rows if row["metric"] == "hit_rate"}
    for value in sweep:
        for pipe in pipelines:
            if curve_n.get((value, pipe.tag)) != per_point:
                problems.append(f"curves.csv: hit_rate of {pipe.tag} at {value} "
                                f"has n={curve_n.get((value, pipe.tag))}, expected {per_point}")
    with open(out_dir / "records.csv", newline="") as handle:
        written = list(csv.DictReader(handle))
    if (len(written) != len(report.records)
            or sum(row["hit"] == "1" for row in written) != sum(hits.values())):
        problems.append("records.csv does not match the report's records")

    for pipe in pipelines:
        ref = reference.get(workload.name, {}).get(pipe.tag)
        if ref is None:
            problems.append(f"no reference hit rate for {pipe.tag} on {workload.name}")
            continue
        lo, hi = wilson(hits[pipe.tag], totals[pipe.tag])
        ref_lo, ref_hi = wilson(ref["hits"], ref["n"])
        if hi < ref_lo or lo > ref_hi:
            problems.append(f"{pipe.tag}: hit rate {hits[pipe.tag]}/{totals[pipe.tag]} "
                            f"[{lo:.4f}, {hi:.4f}] is outside the reference "
                            f"{ref['hits']}/{ref['n']} [{ref_lo:.4f}, {ref_hi:.4f}]")
    return problems


def run(workload, seed: int, seconds: int, trace: bool) -> dict:
    lib = import_library()
    from mars_jcas import clutter as lib_clutter
    from mars_jcas import harness as lib_harness
    from mars_jcas import io as lib_io
    from mars_jcas import scene as lib_scene
    from mars_jcas.pipeline import PipelineSpec

    pipelines = tuple(PipelineSpec(structure=s, suppressor=u, eps_mode=e, refinement=r, va=v)
                      for s, u, e, r, v in workload.pipelines)
    needs_va = any(p.va for p in pipelines)
    preset = Path(lib.__file__).parent / "presets" / f"{workload.preset}.yaml"
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    out_dir = OUT / f"{workload.name}-s{seed}-t{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)

    log = WarningLog()
    tracer = Tracer(log) if trace else None
    if tracer:
        tracer.install()

    # Raw seconds, and the calibration kernel timed around each interval
    # (see speed.py); the metrics are scaled to the reference speed.
    kernel = Kernel()
    setup_s, setup_kernel_s = [], [kernel()]
    with log:
        # Set up several times for a steady setup_s; the drops use the map
        # of the last set-up, which wall_s includes.
        for _ in range(SETUP_REPEATS):
            scene = clutter_map = None
            started = time.perf_counter()
            scene_cfg, plan = lib_io.parse_config(preset)
            scene = lib_scene.validate_scene(replace(scene_cfg, seed=seed))
            clutter_map = lib_clutter.build_clutter_map(
                replace(scene, array=scene.array.with_va(needs_va)))
            setup_s.append(time.perf_counter() - started)
            setup_kernel_s.append(kernel())

        sweep_points = max(1, len(plan.sweep_values))
        plan = replace(plan, seed=seed, pipelines=pipelines, workers=1,
                       num_drops=workload.drops_per_point(seconds, sweep_points))
        attempted = plan.num_drops * sweep_points
        probe = lib_harness.run_drop = DropProbe(kernel, lib_harness.run_drop)
        started = time.perf_counter()
        try:
            rows, report = lib_harness.monte_carlo(plan, scene, clutter_map)
        except lib_harness.DropError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            rows, report = None, None
        finally:
            lib_harness.run_drop = probe.run_drop
        monte_carlo_s = time.perf_counter() - started - sum(probe.inside_s.values())
        probe.finish()
        started = time.perf_counter()
        if report is not None:
            lib_io.write_csv(out_dir / "curves.csv", CURVE_COLUMNS, rows)
            recs = record_rows(report)
            lib_io.write_csv(out_dir / "records.csv", list(recs[0]) if recs else ["hit"], recs)
        csv_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.remove()

    result = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(),
              "attempted": attempted, "drops_per_sweep_point": plan.num_drops,
              "sweep_points": sweep_points,
              "warnings": {f"{pipe}/{kind}": n for (pipe, kind), n in sorted(log.counts.items())}}
    if report is None:
        result.update(failed=attempted, problems=["monte_carlo aborted by a DropError"],
                      metrics={})
        return result

    completed = len(report.drop_runtimes_s)
    runtimes = probe.scaled_runtimes(report.drop_runtimes_s)
    raw_runtimes = [t - probe.inside_s.get(key, 0.0) for key, t in report.drop_runtimes_s.items()]
    drop_phase_s = monte_carlo_s * sum(runtimes) / sum(raw_runtimes)
    setups = [t * scale(setup_kernel_s[i], setup_kernel_s[i + 1]) for i, t in enumerate(setup_s)]
    wall_s = setups[-1] + drop_phase_s + csv_s * scale(probe.samples[-1][1])
    tail_s, tail_pct = tail(runtimes)
    hits = Counter()
    totals = Counter()
    for r in report.records:
        hits[r.pipeline] += r.hit
        totals[r.pipeline] += 1
    hit_rate = sum(hits.values()) / sum(totals.values())
    problems = check_outputs(workload, plan, pipelines, report, rows, hits, totals,
                             out_dir, reference)
    result.update(
        failed=attempted - completed,
        drop_fail_frac=(attempted - completed) / attempted,
        hit_rate=hit_rate,
        hits={tag: {"hits": hits[tag], "n": totals[tag]} for tag in totals},
        drop_s_tail_percentile=tail_pct,
        records_sha256=hashlib.sha256((out_dir / "records.csv").read_bytes()).hexdigest(),
        raw={"setup_s": setup_s, "monte_carlo_s": monte_carlo_s, "csv_s": csv_s,
             "drop_s_p50": statistics.median(raw_runtimes)},
        kernel_s={"setup": setup_kernel_s, "drops": [s for _, s in probe.samples]},
    )
    if attempted != completed:
        problems.append(f"{attempted - completed} of {attempted} drops not completed")

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "drops_per_s": (completed / drop_phase_s, "1/s"),
            "drop_s_p50": (statistics.median(runtimes), "s"),
            "drop_s_tail": (tail_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, log, hit_rate, wall_s, sum(probe.inside_s.values()))
        missing = sorted(name for name in expected_spans(pipelines)
                         if not metrics[f"{name}.calls"][0])
        if missing:
            problems.append(f"no spans recorded for {missing}: a call site moved")
        spans_path = OUT / f"{workload.name}-s{seed}-t1-spans.json"
        spans_path.write_text(json.dumps({"columns": ["name", "start_s", "end_s",
                                                      "parent", "drop"],
                                          "spans": tracer.span_records()}))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    result["problems"] = problems
    return result


def layer_metrics(tracer: Tracer, log: WarningLog, hit_rate: float, wall_s: float,
                  probe_s: float) -> dict:
    """Per-layer metrics of a traced run. Self times are raw seconds; the
    probe's kernel time is taken out of the drop phase for the coverage."""
    metrics = {}
    totals = tracer.layer_totals()
    totals["harness.monte_carlo"][0] -= probe_s
    for name, (self_s, calls) in totals.items():
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    counts = tracer.counts
    for name in ("clutter.patch_element_slots", "channel.samples",
                 "estimator.whitener_builds"):
        metrics[name] = (counts[name], "count")
    kept = counts["pipeline.targets_kept"]
    metrics["pipeline.range_candidates_per_target"] = (
        counts["pipeline.range_candidates_scored"] / kept if kept else 0.0, "ratio")
    for kind, n in log.by_kind().items():
        metrics[f"estimator.runtime_warnings.{kind}"] = (n, "count")
    drop_phase = tracer.total_s("harness.monte_carlo") - probe_s
    metrics["harness.run_drop.coverage"] = (
        tracer.total_s("harness.run_drop") / drop_phase if drop_phase else 0.0, "fraction")
    metrics["harness.hit_rate"] = (hit_rate, "fraction")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


def declared_metrics(trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def print_summary(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"drops {result['attempted']} ({result['drops_per_sweep_point']} x "
          f"{result['sweep_points']} sweep points)  nproc {env['nproc']}  "
          f"threads 1  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<46} {metric['value']:>16.6g} {metric['unit']}")
    if "hit_rate" in result:
        print(f"  {'hit_rate':<46} {result['hit_rate']:>16.6g} fraction")
        print(f"  {'drop_fail_frac':<46} {result['drop_fail_frac']:>16.6g} fraction")
        print(f"  drop_s_tail is p{result['drop_s_tail_percentile']:.1f} of "
              f"{result['attempted']} drops")
        for tag, h in result["hits"].items():
            print(f"  hits {tag:<36} {h['hits']}/{h['n']}")
        print(f"  records.csv sha256 {result['records_sha256']}")
    for key, n in result["warnings"].items():
        print(f"  warning {key}: {n}")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    declared = declared_metrics(bool(args.trace))

    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except CallSiteMissing as exc:
        raise SystemExit(f"perfbench: {exc}")
    produced = {name: m["unit"] for name, m in result["metrics"].items()}
    if result["metrics"] and produced != declared:
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(produced.items()) ^ set(declared.items()))}")

    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print_summary(result)
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
