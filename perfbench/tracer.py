"""Outside-in tracing for the benchmark.

The library is not instrumented. Instead the traced run replaces the
library's functions, at the modules that call them, with wrappers that
record a span per call: name, start, end, parent span and drop id. Spans
stay in memory and are written once the run ends. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import warnings
from collections import Counter

# (module whose global the caller looks up, attribute, span name).
# harness and pipeline import their callees by name, so each function is
# wrapped where it is called; a wrapper on the defining module alone would
# record nothing. The benchmark itself calls io, scene, clutter and
# harness.monte_carlo through their modules. schedule_for lives in harness
# but only builds the waveform schedule, so it is counted as waveform.
CALL_SITES = (
    ("io", "parse_config", "io.parse_config"),
    ("io", "write_csv", "io.write_csv"),
    ("scene", "validate_scene", "scene.validate_scene"),
    ("clutter", "build_clutter_map", "clutter.build_clutter_map"),
    ("harness", "monte_carlo", "harness.monte_carlo"),
    ("harness", "run_drop", "harness.run_drop"),
    ("harness", "draw_targets", "harness.draw_targets"),
    ("harness", "score_estimates", "harness.score_estimates"),
    ("harness", "schedule_for", "waveform.schedule_for"),
    ("harness", "build_schedule", "waveform.build_schedule"),
    ("harness", "synthesize_if_cube", "channel.synthesize_if_cube"),
    ("harness", "synthesize_fa_measurements", "channel.synthesize_fa_measurements"),
    ("harness", "run_pipeline", "pipeline.run_pipeline"),
    ("harness", "run_fa_pipeline", "pipeline.run_fa_pipeline"),
    ("pipeline", "expand_nn", "estimator.expand_nn"),
    ("pipeline", "angle_velocity_map", "estimator.angle_velocity_map"),
    ("pipeline", "stte_peaks", "estimator.stte_peaks"),
    ("pipeline", "music_refine", "estimator.music_refine"),
    ("pipeline", "va_assemble", "estimator.va_assemble"),
    ("pipeline", "reshape_space_time", "estimator.reshape_space_time"),
    ("pipeline", "temporal_steering", "estimator.temporal_steering"),
    ("pipeline", "space_time_steering", "estimator.space_time_steering"),
    ("pipeline", "steering_ura_from_sin", "scene.steering_ura_from_sin"),
    ("pipeline", "stap_range_spectrum", "estimator.stap_range_spectrum"),
    ("pipeline", "sthp_range_spectrum", "estimator.sthp_range_spectrum"),
    ("pipeline", "fa_range_doppler_map", "estimator.fa_range_doppler_map"),
    ("pipeline", "fa_angle_snapshot", "estimator.fa_angle_snapshot"),
)

WARNING_KINDS = ("rank_deficient", "steering_annihilated", "other")


class CallSiteMissing(RuntimeError):
    """A wrapped name no longer exists where the benchmark expects it."""


def expected_spans(pipelines) -> set:
    """Span names a run of these pipelines must record at least once; a
    name that stays at zero means a call site moved and the trace is blind."""
    names = {"io.parse_config", "io.write_csv", "scene.validate_scene",
             "clutter.build_clutter_map", "harness.monte_carlo", "harness.run_drop",
             "harness.draw_targets", "harness.score_estimates",
             "waveform.schedule_for", "waveform.build_schedule"}
    for p in pipelines:
        if p.structure == "fa":
            names |= {"channel.synthesize_fa_measurements", "pipeline.run_fa_pipeline",
                      "estimator.fa_range_doppler_map", "estimator.fa_angle_snapshot"}
            continue
        names |= {"channel.synthesize_if_cube", "pipeline.run_pipeline",
                  "estimator.expand_nn", "estimator.angle_velocity_map",
                  "estimator.stte_peaks", "estimator.va_assemble",
                  "estimator.reshape_space_time"}
        if p.suppressor == "sthp":
            names |= {"estimator.sthp_range_spectrum", "estimator.temporal_steering",
                      "scene.steering_ura_from_sin"}
        else:
            names |= {"estimator.stap_range_spectrum", "estimator.space_time_steering"}
        if p.refinement == "music":
            names.add("estimator.music_refine")
    return names


def warning_kind(message) -> str:
    text = str(message)
    if "rank" in text and "pseudo-inverse" in text:
        return "rank_deficient"
    if "annihilated" in text:
        return "steering_annihilated"
    return "other"


class WarningLog:
    """Counts warnings by (pipeline, kind) while entered. ``pipeline`` is
    set by the tracer around each pipeline call; untraced runs count all
    warnings under one label."""

    UNATTRIBUTED = "(unattributed)"

    def __init__(self):
        self.counts = Counter()
        self.pipeline = self.UNATTRIBUTED
        self._guard = None

    def __enter__(self):
        self._guard = warnings.catch_warnings()
        self._guard.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._record
        return self

    def __exit__(self, *exc):
        return self._guard.__exit__(*exc)

    def _record(self, message, category, filename, lineno, file=None, line=None):
        self.counts[(self.pipeline, warning_kind(message))] += 1

    def by_kind(self) -> dict:
        out = dict.fromkeys(WARNING_KINDS, 0)
        for (_, kind), n in self.counts.items():
            out[kind] += n
        return out


class Tracer:
    """Span recorder installed over the library's call sites."""

    def __init__(self, log: WarningLog):
        self.log = log
        self.spans = []          # [name, start, end, parent index, drop id]
        self.counts = Counter()
        self._stack = []
        self._drop = None
        self._undo = []
        self._hooks = {
            "harness.run_drop": self._on_drop,
            "clutter.build_clutter_map": self._on_clutter,
            "channel.synthesize_if_cube": self._on_cube,
            "channel.synthesize_fa_measurements": self._on_fa_meas,
            "pipeline.run_pipeline": self._on_pipeline,
            "pipeline.run_fa_pipeline": self._on_pipeline,
            "estimator.stap_range_spectrum": self._on_range_spectrum,
            "estimator.sthp_range_spectrum": self._on_range_spectrum,
        }

    def install(self) -> None:
        for module_name, attr, span in CALL_SITES:
            module = importlib.import_module(f"mars_jcas.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.remove()
                raise CallSiteMissing(
                    f"mars_jcas.{module_name}.{attr} no longer exists; the span "
                    f"{span!r} would read zero. Update CALL_SITES in perfbench/tracer.py")
            setattr(module, attr, self._wrap(span, original))
            self._undo.append((module, attr, original))

    def remove(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, span_name, original):
        hook = self._hooks.get(span_name)
        signature = inspect.signature(original) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            bound = None
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            undo = hook(bound.arguments, None, before=True) if hook else None
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self._drop]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if undo:
                    undo()
            if hook:
                hook(bound.arguments, result, before=False)
            return result

        return traced

    # Hooks: called before the span (may return an undo callable run when
    # the call ends, even by exception) and after a successful call.

    def _on_drop(self, args, result, before):
        if before:
            previous = self._drop
            self._drop = (str(args["sweep_value"]), args["drop_index"])
            return lambda: setattr(self, "_drop", previous)
        return None

    def _on_clutter(self, args, result, before):
        if not before:
            self.counts["clutter.patch_element_slots"] += (
                result.patch_count * result.num_elements * result.num_tx_slots)

    def _on_cube(self, args, result, before):
        if not before:
            self.counts["channel.samples"] += (result.chirp_branch.size
                                               + result.tone_branch_compressed.size)

    def _on_fa_meas(self, args, result, before):
        if not before:
            self.counts["channel.samples"] += result.size

    def _on_pipeline(self, args, result, before):
        if before:
            previous = self.log.pipeline
            pipe = args.get("pipe")
            self.log.pipeline = pipe.tag if pipe is not None else "fa"
            return lambda: setattr(self.log, "pipeline", previous)
        if "pipe" in args:
            self.counts["pipeline.targets_kept"] += len(result)
        return None

    def _on_range_spectrum(self, args, result, before):
        if before:
            return None
        self.counts["pipeline.range_candidates_scored"] += 1
        if args["eps_mode"] in ("zero", "em"):
            self.counts["estimator.whitener_builds"] += 1
        return None

    def layer_totals(self) -> dict:
        """Span name -> [self seconds, calls]."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                covered[span[3]] += durations[i]
        totals = {span: [0.0, 0] for _, _, span in CALL_SITES}
        for i, span in enumerate(self.spans):
            totals[span[0]][0] += durations[i] - covered[i]
            totals[span[0]][1] += 1
        return totals

    def total_s(self, span_name: str) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name == span_name)

    def span_records(self) -> list:
        """Spans with times relative to the first span, for writing out."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [[name, start - origin, end - origin, parent, drop]
                for name, start, end, parent, drop in self.spans]
