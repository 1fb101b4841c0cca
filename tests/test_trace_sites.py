"""Guard the benchmark's call-site trace against library refactors.

perfbench/tracer.py wraps library functions by (module, attribute) at the
modules that call them and reads ``eps_mode`` from the range-stage calls.
A rename or a moved call would blind the traced benchmark run; these tests
make it fail here first. The tracer is loaded from its file, read-only.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import compiled
from mars_jcas.harness import run_drop
from mars_jcas.pipeline import PipelineSpec

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_site_resolves(tracer):
    for module_name, attr, span in tracer.CALL_SITES:
        module = importlib.import_module(f"mars_jcas.{module_name}")
        assert callable(getattr(module, attr, None)), f"{span}: mars_jcas.{module_name}.{attr}"


@pytest.mark.parametrize("name", ["stap_range_spectrum", "sthp_range_spectrum"])
def test_range_stage_keeps_eps_mode_parameter(name):
    pipeline = importlib.import_module("mars_jcas.pipeline")
    assert "eps_mode" in inspect.signature(getattr(pipeline, name)).parameters


def test_drop_and_pipeline_keep_the_parameters_the_tracer_binds():
    # Tracer._on_drop reads drop_index and sweep_value, DropProbe passes
    # run_drop's five arguments by position, and _on_pipeline reads pipe.
    pipeline = importlib.import_module("mars_jcas.pipeline")
    names = list(inspect.signature(run_drop).parameters)
    assert len(names) == 5 and names[2] == "drop_index" and names[4] == "sweep_value"
    assert "pipe" in inspect.signature(pipeline.run_pipeline).parameters


@pytest.mark.parametrize("pipe", [
    PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf", va=True),
    PipelineSpec(structure="lshape", suppressor="stap", eps_mode="zero", va=True),
    PipelineSpec(structure="comb", suppressor="mf", eps_mode="inf"),
    PipelineSpec(structure="comb", suppressor="sthp", eps_mode="inf", refinement="music"),
    PipelineSpec(structure="fa", suppressor="mf", eps_mode="inf"),
], ids=lambda p: p.tag)
def test_traced_drop_records_every_expected_span(tracer, desk, pipe):
    scene, plan = desk
    plan = replace(plan, pipelines=(pipe,))
    run = compiled(scene, plan)
    sweep_value, scene, groups = run.points[0]
    with tracer.WarningLog() as log:
        trace = tracer.Tracer(log)
        trace.install()
        try:
            run_drop(scene, run, 0, groups, sweep_value)
        finally:
            trace.remove()
    recorded = {name for name, *_ in trace.spans}
    # Set-up and run-level spans are recorded by perfbench/run.py, not by a drop.
    wanted = tracer.expected_spans([pipe]) - tracer.expected_spans([])
    assert wanted <= recorded
