"""Summarize the run files in perfbench/out/ by workload.

    python3 perfbench/summarize.py [--write-reference] [--write-baseline FILE]

For each end-to-end metric it prints the median, the quartiles and the
spread (quartile distance over median) of the untraced runs, marking a
spread that is not below a third of the metric's bound in BENCHMARK.json.
For traced runs it prints per-layer medians and the tracing overhead
(median traced wall_s minus median untraced wall_s).

``--write-reference`` pools the untraced runs' hit counts per pipeline
into perfbench/reference.json, the reference of run.py's hit-rate check.
``--write-baseline FILE`` writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def load_runs() -> dict:
    runs = defaultdict(list)
    for path in sorted(OUT.glob("*-t[01].json")):
        run = json.loads(path.read_text())
        runs[(run["workload"], run["trace"])].append(run)
    return runs


def stats(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def metric_stats(runs: list) -> dict:
    names = runs[0]["metrics"]
    return {name: dict(stats([r["metrics"][name]["value"] for r in runs]),
                       unit=runs[0]["metrics"][name]["unit"]) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--write-baseline", metavar="FILE")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = load_runs()
    if not runs:
        print(f"no run files in {OUT}", file=sys.stderr)
        return 1

    summary = {"environment": next(iter(runs.values()))[0]["environment"], "workloads": {}}
    steady = True
    for workload in sorted({w for w, _ in runs}):
        entry = summary["workloads"][workload] = {}
        untraced, traced = runs.get((workload, 0), []), runs.get((workload, 1), [])
        if untraced:
            entry["seeds"] = [r["seed"] for r in untraced]
            entry["drops"] = untraced[0]["attempted"]
            entry["end_to_end"] = metric_stats(untraced)
            entry["hit_rate"] = stats([r["hit_rate"] for r in untraced])
            entry["incorrect_runs"] = [r["seed"] for r in untraced if r["problems"]]
            print(f"{workload}: {len(untraced)} untraced runs, {entry['drops']} drops each, "
                  f"incorrect seeds {entry['incorrect_runs']}")
            for name, s in entry["end_to_end"].items():
                flag = ""
                if name != "setup_s" and s["spread"] >= bounds[name] / 3:
                    flag = f"  NOT STEADY (bound {bounds[name]})"
                    steady = False
                print(f"  {name:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                      f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}{flag}")
        if traced:
            entry["trace_seeds"] = [r["seed"] for r in traced]
            entry["per_layer_median"] = {name: s["median"]
                                         for name, s in metric_stats(traced).items()}
            print(f"  {len(traced)} traced runs; per-layer medians:")
            for name, value in entry["per_layer_median"].items():
                if value:
                    print(f"    {name:<46} {value:.6g}")
        if untraced and traced:
            entry["tracing_overhead_s"] = (entry["per_layer_median"]["trace.wall_s"]
                                           - entry["end_to_end"]["wall_s"]["median"])
            print(f"  tracing overhead {entry['tracing_overhead_s']:.4f} s "
                  f"(traced wall_s minus untraced wall_s, medians)")

    if args.write_reference:
        reference = defaultdict(lambda: defaultdict(lambda: {"hits": 0, "n": 0}))
        for (workload, trace), group in runs.items():
            for run in group if trace == 0 else ():
                for tag, h in run["hits"].items():
                    reference[workload][tag]["hits"] += h["hits"]
                    reference[workload][tag]["n"] += h["n"]
        (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"wrote {HERE / 'reference.json'}")
    if args.write_baseline:
        Path(args.write_baseline).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.write_baseline}")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
