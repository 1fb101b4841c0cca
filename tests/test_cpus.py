"""The CPU budget's helper thread and the pieces it shares with the calling
thread: every piece runs once, the FA map and IF cube are the one-CPU
result bit for bit under any schedule of the pieces, and no piece, error or
reference outlives the call that shared it. A pool worker runs its BLAS
calls on one thread."""

from __future__ import annotations

import sys
import threading
import time
import warnings
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import compiled, drop_at, make_array, make_radio, make_scene
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


class AtSubmission:
    """A helper that runs each call when it is submitted."""

    @staticmethod
    def submit(fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class Never:
    """A helper that never runs a call."""

    @staticmethod
    def submit(fn, *args):
        return Future()


class Stepped:
    """A helper stepped one piece at a time, alternating with the caller:
    each time the caller claims a piece, the helper claims the next and
    runs it before the caller runs its own. It never runs any other call,
    such as a chirp noise draw."""

    @staticmethod
    def submit(fn, *args):
        claims = getattr(fn, "__self__", None)
        if isinstance(claims, cpus._Claims):
            take = claims.take

            def caller_take():
                piece = take()
                mine = take()
                if mine is not None:
                    mine()
                return piece

            claims.take = caller_take
        return Future()


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
    @example(l=(3, 2), n=48, m=40, targets=1, clutter=True, residual=40.0, seed=1)   # M < 64
    @example(l=(2, 2), n=32, m=129, targets=2, clutter=False, residual=None, seed=2)  # M % 64 == 1
    @example(l=(3, 1), n=9, m=150, targets=0, clutter=True, residual=None, seed=3)   # M > N, odd N
    @example(l=(1, 1), n=4, m=65, targets=0, clutter=False, residual=None, seed=4)   # all below
    @settings(max_examples=40, deadline=None)
    def test_every_schedule_gives_the_one_cpu_result(self, l, n, m, targets, clutter, residual,
                                                     seed):
        # Pieces of 128 values: a cube half of L/2 rows x N samples, a
        # Doppler chunk of M rows and a 64-row real-transform block fall on
        # either side of the rule as (L, M, N) vary.
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
        # threads every microsecond, also while a piece is being made, no
        # piece may run twice or be skipped.
        def pieces(ran):
            for i in range(16):
                sum(range(500))
                yield lambda i=i: ran.append(i)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 20.0
            for _ in range(200):
                ran = []
                cpus.share(pieces(ran), cpus.PIECE_VALUES)
                assert sorted(ran) == list(range(16))
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(previous)

    def test_small_pieces_run_in_order_on_the_calling_thread(self, two_cpus):
        ran = []
        cpus.share((lambda i=i: ran.append((i, threading.get_ident())) for i in range(8)),
                   cpus.PIECE_VALUES - 1)
        assert ran == [(i, threading.get_ident()) for i in range(8)]

    def test_helper_error_surfaces_after_claimed_pieces(self, two_cpus):
        # The caller's pieces wait until the helper has claimed one, which
        # raises; the caller runs the rest, and only then does share raise.
        caller = threading.get_ident()
        claimed, done, raised = threading.Event(), [], []

        def piece(i):
            if threading.get_ident() != caller:
                claimed.set()
                raised.append(ValueError(f"piece {i} failed"))
                raise raised[-1]
            assert claimed.wait(10)
            time.sleep(0.002)
            done.append(i)

        with pytest.raises(ValueError, match="failed") as exc:
            cpus.share((lambda i=i: piece(i) for i in range(6)), cpus.PIECE_VALUES)
        assert exc.value is raised[0]
        assert len(done) == 5

    def test_caller_error_waits_for_helper_piece(self, two_cpus):
        # The caller's first piece raises while the helper runs its first:
        # share raises once that piece is done, and no further one starts.
        caller = threading.get_ident()
        started, log = threading.Event(), []

        def piece():
            if threading.get_ident() != caller:
                started.set()
                time.sleep(0.05)
                log.append("helper done")
                return
            assert started.wait(10)
            raise KeyError("caller failed")

        with pytest.raises(KeyError, match="caller failed"):
            cpus.share((piece for _ in range(20)), cpus.PIECE_VALUES)
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
