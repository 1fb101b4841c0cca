"""The CPU budget's helper thread and the pieces it shares with the calling
thread: every piece runs once, the FA map and IF cube are the one-CPU
result bit for bit under any schedule of the pieces, and no piece, error or
reference outlives the call that shared it. A pool worker runs its BLAS
calls on one thread."""

from __future__ import annotations

import os
import sys
import threading
import time
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (DESK_MC, AtSubmission, Never, Stepped, assert_no_child, compiled, drop_at,
                      drop_records, make_array, make_radio, make_scene)
from mars_jcas import cpus, harness
from mars_jcas.channel import DropDraws, synthesize_if_cube
from mars_jcas.cli import preset_path
from mars_jcas.clutter import build_clutter_map
from mars_jcas.estimator import fa_range_doppler_map
from mars_jcas.harness import DropError, drop_estimates
from mars_jcas.io import parse_config
from mars_jcas.pipeline import PipelineSpec
from mars_jcas.scene import Target, validate_scene
from mars_jcas.waveform import build_schedule

RNG = np.random.default_rng


# The schedules the pieces run under. None: no helper, as at one CPU.
HELPERS = [None, AtSubmission, Never, Stepped]


def run_under(helper, piece_values, fn, *args):
    """``fn(draws, *args)`` with pieces of ``piece_values`` values shared,
    and chirp noise blocks queued, under ``helper``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cpus, "count", lambda: 1)
        mp.setattr(cpus, "PIECE_VALUES", piece_values)
        if helper is not None:
            mp.setattr(cpus, "helper", lambda: helper)
        return fn(DropDraws(7), *args)


class TestShareSchedules:
    @staticmethod
    def outputs(draws, scene, sched, cmap, meas, fa_radio, fa_sched):
        cube = synthesize_if_cube(scene, sched, cmap, draws=draws)
        return [cube.chirp_branch, cube.tone_branch_compressed,
                fa_range_doppler_map(meas, fa_sched, fa_radio)]

    @given(l=st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]), n=st.integers(2, 48),
           m=st.integers(1, 200), targets=st.integers(0, 2), clutter=st.booleans(),
           residual=st.sampled_from([None, 40.0]), seed=st.integers(0, 2**32 - 1))
    @example(l=(3, 2), n=48, m=40, targets=1, clutter=True, residual=40.0, seed=1)   # cube shared
    @example(l=(2, 2), n=32, m=129, targets=2, clutter=False, residual=None, seed=2)  # 1-row last
    @example(l=(3, 1), n=9, m=150, targets=0, clutter=True, residual=None, seed=3)   # M > N, odd N
    @example(l=(1, 1), n=4, m=65, targets=0, clutter=False, residual=None, seed=4)   # all below
    @settings(max_examples=40, deadline=None)
    def test_every_schedule_gives_the_one_cpu_result(self, l, n, m, targets, clutter, residual,
                                                     seed):
        # Slices of at least 128 values: the cube's rows of N samples, the
        # Doppler transform's columns of M cells and the real transform's
        # rows of N//2 + 1 cells are cut into one slice, one and a small
        # remainder, or many as (L, M, N) vary.
        rng = RNG(seed)
        radio = make_radio(n=n)
        scene = make_scene(radio=radio, arr=make_array(cols=l[0], rows=l[1]),
                           residual_dc_db=residual,
                           targets=[Target(float(r), float(v), 0.1, -0.2, 50.0) for r, v in
                                    zip(rng.uniform(50.0, 2000.0, targets),
                                        rng.uniform(-40.0, 40.0, targets))])
        cmap = None
        if clutter:
            cmap = build_clutter_map(replace(scene, clutter=replace(
                scene.clutter, enabled=True, area_x_m=40.0, area_y_m=20.0)))
        sched = build_schedule(scene.radio, scene.array, "comb", chirp_pri_indices=(1, 6, 15))
        fa_radio = make_radio(n=n, num_pri=m)
        fa_sched = build_schedule(fa_radio, make_array(), "fa", fa_seed=0)
        fa_sched = replace(fa_sched, fa_subcarrier_indices=rng.integers(0, n, size=m))
        meas = rng.normal(size=(l[0] * l[1], m)) + 1j * rng.normal(size=(l[0] * l[1], m))
        case = (scene, sched, cmap, meas, fa_radio, fa_sched)
        want = run_under(None, 2**16, self.outputs, *case)
        for helper in HELPERS:
            got = run_under(helper, 128, self.outputs, *case)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.array_equal(a.view(float), b.view(float)), helper


class TestQueued:
    @pytest.mark.parametrize("where", ["one-cpu", "pool-worker"])
    def test_submits_nothing_and_starts_no_thread(self, monkeypatch, where):
        # At one CPU, and in a pool worker on two, a call runs when taken,
        # on the calling thread, and a dropped one never runs.
        monkeypatch.setattr(cpus, "_HELPER", None)
        monkeypatch.setattr(cpus, "count", lambda: 1 if where == "one-cpu" else 2)
        monkeypatch.setattr(cpus, "_CALLING_THREAD_ONLY", where == "pool-worker")
        threads, ran = threading.active_count(), []
        queued = cpus.Queued(lambda x: ran.append((x, threading.get_ident())) or x, 4,
                             values=cpus.PIECE_VALUES)
        assert ran == []
        assert queued.take() == 4 and ran == [(4, threading.get_ident())]
        cpus.Queued(ran.append, 5, values=cpus.PIECE_VALUES).drop()
        assert len(ran) == 1
        assert cpus.helper() is None and cpus._HELPER is None
        assert threading.active_count() == threads

    def test_unstarted_call_runs_on_the_caller_and_drop_unqueues(self, monkeypatch):
        # The helper is held busy: a taken call runs on the calling thread,
        # and a dropped one never runs.
        monkeypatch.setattr(cpus, "count", lambda: 2)
        release, ran = threading.Event(), []
        busy = cpus.helper().submit(release.wait, 10)
        try:
            taken = cpus.Queued(lambda: ran.append(("taken", threading.get_ident())),
                                values=cpus.PIECE_VALUES)
            dropped = cpus.Queued(lambda: ran.append(("dropped", threading.get_ident())),
                                  values=cpus.PIECE_VALUES)
            taken.take()
            dropped.drop()
            assert not busy.done()
        finally:
            release.set()
            busy.result(timeout=10)
        cpus.helper().submit(lambda: None).result(timeout=10)
        assert ran == [("taken", threading.get_ident())]

    @pytest.mark.parametrize("end", ["take", "drop"])
    def test_started_call_is_waited_for(self, monkeypatch, end):
        # take raises the helper's exception, and drop returns, only once
        # the started call has finished.
        monkeypatch.setattr(cpus, "count", lambda: 2)
        started, log = threading.Event(), []

        def call():
            started.set()
            time.sleep(0.05)
            log.append("finished")
            raise ValueError("call failed")

        queued = cpus.Queued(call, values=cpus.PIECE_VALUES)
        assert started.wait(10)
        if end == "take":
            with pytest.raises(ValueError, match="call failed"):
                queued.take()
        else:
            queued.drop()
        assert log == ["finished"]

    def test_small_call_never_asks_for_the_helper(self, monkeypatch):
        # Below cpus.PIECE_VALUES a call runs when taken, on the calling
        # thread, and a dropped one never runs, at any CPU count.
        def no_helper():
            raise AssertionError("a small call asked for the helper")

        monkeypatch.setattr(cpus, "count", lambda: 2)
        monkeypatch.setattr(cpus, "helper", no_helper)
        ran = []
        queued = cpus.Queued(lambda x: ran.append((x, threading.get_ident())) or x, 4,
                             values=cpus.PIECE_VALUES - 1)
        assert ran == []
        assert queued.take() == 4 and ran == [(4, threading.get_ident())]
        cpus.Queued(ran.append, 5, values=cpus.PIECE_VALUES - 1).drop()
        assert len(ran) == 1


class TestShare:
    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(cpus, "count", lambda: 2)

    def test_every_piece_runs_once(self, two_cpus):
        # The claim is the only shared state: with the interpreter switching
        # threads every microsecond, also while a slice's work is being
        # made, no slice may run twice or be skipped.
        def make(ran, rows):
            sum(range(500))
            return lambda: ran.append(rows)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 20.0
            for _ in range(200):
                ran = []
                cpus.share(partial(make, ran), 16, cpus.PIECE_VALUES)
                assert sorted(ran, key=lambda s: s.start) == [slice(i, i + 1) for i in range(16)]
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(previous)

    @pytest.mark.parametrize("extent, unit, slices", [
        (3, cpus.PIECE_VALUES, [(0, 1), (1, 2), (2, 3)]),
        (9, cpus.PIECE_VALUES // 4, [(0, 4), (4, 8), (8, 9)]),
        (5, cpus.PIECE_VALUES // 2 + 1, [(0, 2), (2, 4), (4, 5)]),
        (cpus.PIECE_VALUES, 1, [(0, cpus.PIECE_VALUES)]),
        (10, 7, [(0, 10)])])
    def test_slices_of_at_least_piece_values(self, monkeypatch, extent, unit, slices):
        # Each slice spans ceil(PIECE_VALUES / unit) indices, the last what
        # is left, handed to the maker in order; a range of two full
        # slices or more is queued on the helper.
        made, asked = [], []
        monkeypatch.setattr(cpus, "helper", lambda: asked.append(1) or AtSubmission)
        cpus.share(lambda rows: partial(made.append, rows), extent, unit)
        assert made == [slice(lo, hi) for lo, hi in slices]
        assert len(asked) == (len(slices) > 1)

    def test_small_pieces_run_in_order_on_the_calling_thread(self, monkeypatch):
        # One slice, or one and a remainder of fewer than cpus.PIECE_VALUES
        # values, never asks for the helper: the slices run in order on the
        # calling thread. Two full slices are queued.
        def no_helper():
            raise AssertionError("a small range asked for the helper")

        monkeypatch.setattr(cpus, "count", lambda: 2)
        monkeypatch.setattr(cpus, "helper", no_helper)
        step = cpus.PIECE_VALUES
        for extent in (1, step, 2 * step - 1):
            ran = []
            cpus.share(lambda rows: lambda: ran.append((rows, threading.get_ident())),
                       extent, 1)
            assert ran == [(slice(lo, min(lo + step, extent)), threading.get_ident())
                           for lo in range(0, extent, step)]
        with pytest.raises(AssertionError, match="asked for the helper"):
            cpus.share(lambda rows: lambda: None, 2 * step, 1)

    def test_helper_error_surfaces_after_claimed_pieces(self, two_cpus):
        # The caller's slices wait until the helper has claimed one, which
        # raises; the caller runs the rest, and only then does share raise.
        caller = threading.get_ident()
        claimed, done, raised = threading.Event(), [], []

        def work(rows):
            if threading.get_ident() != caller:
                claimed.set()
                raised.append(ValueError(f"slice {rows.start} failed"))
                raise raised[-1]
            assert claimed.wait(10)
            time.sleep(0.002)
            done.append(rows.start)

        with pytest.raises(ValueError, match="failed") as exc:
            cpus.share(lambda rows: partial(work, rows), 6, cpus.PIECE_VALUES)
        assert exc.value is raised[0]
        assert len(done) == 5

    def test_caller_error_waits_for_helper_piece(self, two_cpus):
        # The caller's first slice raises while the helper runs its first:
        # share raises once that slice is done, and no further one starts.
        caller = threading.get_ident()
        started, log = threading.Event(), []

        def work():
            if threading.get_ident() != caller:
                started.set()
                time.sleep(0.05)
                log.append("helper done")
                return
            assert started.wait(10)
            raise KeyError("caller failed")

        with pytest.raises(KeyError, match="caller failed"):
            cpus.share(lambda rows: work, 20, cpus.PIECE_VALUES)
        assert log == ["helper done"]

    def test_helper_error_in_a_drop_is_the_drop_error_cause(self, monkeypatch, two_cpus):
        # table1_car's FA map (500 x 2048) shares its real transform; the
        # first block the helper claims raises.
        caller = threading.get_ident()
        irfft = np.fft.irfft
        failed, raised, running = threading.Event(), [], []

        def helper_fails(*args, **kwargs):
            running.append(1)
            try:
                if threading.get_ident() != caller:
                    failed.set()
                    raised.append(FloatingPointError("helper piece failed"))
                    raise raised[-1]
                assert failed.wait(10)
                return irfft(*args, **kwargs)
            finally:
                running.pop()

        scene_cfg, plan = parse_config(preset_path("table1_car"))
        scene = validate_scene(scene_cfg)
        scene = replace(scene, clutter=replace(scene.clutter, enabled=False))
        plan = replace(plan, pipelines=(PipelineSpec(structure="fa", suppressor="mf"),))
        run = compiled(scene, plan)
        drop, groups, value = drop_at(run, 0)
        monkeypatch.setattr(np.fft, "irfft", helper_fails)
        with pytest.raises(DropError, match="helper piece failed") as exc, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            list(drop_estimates(drop, run, 0, groups, value))
        assert exc.value.cause is raised[0] and running == []

    def test_queued_loop_keeps_no_reference(self, two_cpus):
        # The helper is held busy by a draw queued first, so both of the FA
        # map's claim loops are still queued when it returns; once the map
        # is dropped, its lag grid must be freed.
        m, n = 500, 2048
        rng = RNG(3)
        radio = make_radio(n=n, num_pri=m)
        sched = build_schedule(radio, make_array(), "fa", fa_seed=0)
        meas = rng.normal(size=(4, m)) + 1j * rng.normal(size=(4, m))
        release = threading.Event()
        busy = cpus.helper().submit(release.wait, 10)
        try:
            power = fa_range_doppler_map(meas, sched, radio)
            grid = weakref.ref(power.base)
            assert grid() is not None and not busy.done()
            del power
            assert grid() is None
        finally:
            release.set()
            busy.result(timeout=10)


class TestSlicesAtPresetSizes:
    @staticmethod
    def slices_of_a_drop(preset, pipelines):
        """Per cpus.share call of one drop of ``preset``, clutter off:
        (extent, unit, the (start, stop) of each slice in the order made)."""
        scene_cfg, plan = parse_config(preset_path(preset))
        scene = validate_scene(scene_cfg)
        calls, share = [], cpus.share

        def counted(make, extent, unit):
            made = []
            calls.append((extent, unit, made))
            share(lambda s: made.append((s.start, s.stop)) or make(s), extent, unit)

        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mp.setattr(cpus, "share", counted)
            drop_records(scene, replace(plan, pipelines=pipelines), 0)
        return calls

    def test_table1_car_slices(self):
        # Each cube symbol: two slices of 32 of its 64 rows of 2048 samples.
        # The FA map (M = 500, N = 2048): the Doppler transform in 8 chunks
        # of at most 132 of its 1025 columns, the real one in 8 blocks of at
        # most 64 of its 500 rows.
        calls = self.slices_of_a_drop("table1_car", (
            PipelineSpec(structure="comb", suppressor="sthp"),
            PipelineSpec(structure="fa", suppressor="mf")))
        cube = [made for extent, unit, made in calls if (extent, unit) == (64, 2048)]
        assert len(cube) == 4 and all(made == [(0, 32), (32, 64)] for made in cube)
        cols = [(lo, min(lo + 132, 1025)) for lo in range(0, 1025, 132)]
        rows = [(lo, min(lo + 64, 500)) for lo in range(0, 500, 64)]
        assert len(cols) == len(rows) == 8
        assert [c for c in calls if (c[0], c[1]) != (64, 2048)] == [
            (1025, 500, cols), (500, 1025, rows)]

    def test_desk_small_one_slice_and_no_helper(self, monkeypatch):
        # desk_small's cube rows (16 x 512 samples, VA or not) and FA map
        # (M = 64, N = 512) are one slice each, and at two CPUs the drop
        # never asks for the helper.
        def no_helper():
            raise AssertionError("a desk_small drop asked for the helper")

        monkeypatch.setattr(cpus, "count", lambda: 2)
        monkeypatch.setattr(cpus, "helper", no_helper)
        calls = self.slices_of_a_drop("desk_small", DESK_MC)
        assert {(extent, unit) for extent, unit, _ in calls} == {(16, 512), (257, 64),
                                                                 (64, 257)}
        assert all(made == [(0, extent)] for extent, _, made in calls)


class TestSpread:
    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_results_taken_in_order(self, monkeypatch, count, n):
        # Item i is computed in the calling process where i = 0 (mod
        # count), else in child i % count; fewer items fork fewer children.
        monkeypatch.setattr(cpus, "count", lambda: count)
        taken = []
        cpus.spread(lambda i: (i, os.getpid()), range(n), taken.append)
        assert [i for i, _ in taken] == list(range(n))
        pids = [pid for _, pid in taken]
        assert all((pid == os.getpid()) == (i % count == 0) for i, pid in enumerate(pids))
        assert all(pids[i] == pids[i % count] for i in range(n))
        assert len(set(pids)) == min(count, n)
        assert_no_child()

    def test_pool_worker_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(cpus, "count", lambda: 2)
        monkeypatch.setattr(cpus, "_CALLING_THREAD_ONLY", True)
        taken = []
        cpus.spread(lambda i: os.getpid(), range(4), taken.append)
        assert taken == [os.getpid()] * 4

    def test_error_that_does_not_load_back_is_named(self, monkeypatch):
        # A local class does not pickle: the child sends a RuntimeError
        # naming the exception, and the items after it are not taken.
        class Unpicklable(Exception):
            pass

        def work(i):
            if i == 1:
                raise Unpicklable("item 1 failed")
            return i

        monkeypatch.setattr(cpus, "count", lambda: 2)
        taken = []
        with pytest.raises(RuntimeError, match="^Unpicklable: item 1 failed$"):
            cpus.spread(work, range(4), taken.append)
        assert taken == [0]
        assert_no_child()


def blas_threads():
    """The threads of numpy's bundled OpenBLAS in this process."""
    return cpus._openblas().scipy_openblas_get_num_threads64_()


class TestBlasThreads:
    @pytest.mark.skipif(cpus._openblas() is None, reason="numpy has no bundled OpenBLAS")
    def test_pool_worker_runs_one_blas_thread(self, desk):
        scene, plan = desk
        with ProcessPoolExecutor(1, initializer=harness._pool_init,
                                 initargs=(compiled(scene, plan),)) as pool:
            assert pool.submit(blas_threads).result(timeout=60) == 1

    def test_missing_library_or_setter_is_safe(self, monkeypatch, tmp_path):
        # No library beside numpy, a file that is no library, and a library
        # without the setter: the worker switch still runs on the calling
        # thread and changes no BLAS setting.
        monkeypatch.setattr(cpus.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert cpus._openblas() is None
        (tmp_path / "numpy.libs").mkdir()
        (tmp_path / "numpy.libs" / "libscipy_openblas64_-0.so").write_text("not a library")
        assert cpus._openblas() is None
        monkeypatch.undo()
        before = blas_threads() if cpus._openblas() is not None else None
        for lib in (None, object()):
            monkeypatch.setattr(cpus, "_CALLING_THREAD_ONLY", False)
            monkeypatch.setattr(cpus, "_openblas", lambda: lib)
            cpus.work_on_calling_thread()
            assert cpus.helper() is None
        monkeypatch.undo()
        if before is not None:
            assert blas_threads() == before
