"""The process's CPU budget: how many CPUs one process spreads its work
over, the forked children that take a share of the clutter build, and the
one helper thread that takes a share of a drop's work.

- :func:`~mars_jcas.clutter.build_clutter_map` hands its chunks to
  :func:`spread`, which on Linux forks :func:`count` - 1 child processes
  for the call: each child computes every count-th chunk on one BLAS
  thread and sends each result back over a pipe, and none outlives the
  call. Processes, not threads: two build threads of one process waited
  on each other's numpy calls and OpenBLAS calls, while two processes side
  by side each kept one process's speed. A child holds its chunks'
  operands (about 5 MB on desk_small with VA, 10 MB on table1_uav with
  VA), memory that ends with it.
- With two or more CPUs the process has one helper thread, made on first
  use, and work reaches it one way, as a :class:`Queued` call: the chirp
  noise blocks queued ahead of the cube that reads them
  (:class:`~mars_jcas.channel.DropDraws`), each from its own generator,
  and the claim loops of :func:`share`, the one owner of how work is
  split, whose slices are the FA map's transforms
  (:func:`~mars_jcas.estimator.fa_range_doppler_map`) and the rows of
  each IF cube symbol (:func:`~mars_jcas.channel.synthesize_if_cube`). A
  call on fewer than :data:`PIECE_VALUES` values, or one the helper has
  not started, runs on the thread that takes it, so a process whose calls
  are all smaller, such as a desk_small run, starts no helper.
- A ``--workers`` pool process, whose siblings keep the other CPUs busy,
  calls :func:`work_on_calling_thread` and runs all of it on its calling
  thread, as at one CPU, with one BLAS thread; so does a child of
  :func:`spread`. A serial run keeps numpy's default BLAS threads.

Who runs a piece or draws a block never changes what it computes, so
results do not depend on the CPU count.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

# Most CPUs one process's work spreads over. Each build process holds a
# chunk's operands, and the speed-ups were measured at two.
MAX = 2

# Fewest complex values a call must hold to be queued on the helper, and
# fewest a slice of :func:`share` holds: smaller calls cost more to hand
# over than the helper saves. Queued, desk-sized pieces made desk drops
# 11% slower, and desk-sized chirp noise blocks (8192 values) made
# desk_mix drop_s_p50 9-16% slower.
PIECE_VALUES = 2**16


def count() -> int:
    """CPUs one process spreads its work over: those in the process's CPU
    set where the platform reports it, else every CPU of the machine, at
    most :data:`MAX`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX)


_HELPER = None  # the helper thread's executor, made on first use
_CALLING_THREAD_ONLY = False  # set in a pool worker


def helper() -> Optional[ThreadPoolExecutor]:
    """The executor of the process's helper thread, a single thread; None
    at one CPU and in a pool worker."""
    global _HELPER
    if _CALLING_THREAD_ONLY or count() < 2:
        return None
    if _HELPER is None:
        _HELPER = ThreadPoolExecutor(1, thread_name_prefix="mars-jcas-helper")
    return _HELPER


class Queued:
    """``fn(*args)`` on ``values`` complex values, queued on the helper
    thread where the process has one (:func:`helper`) and ``values`` is at
    least :data:`PIECE_VALUES`; otherwise it runs when taken."""

    def __init__(self, fn: Callable, *args, values: int):
        side = helper() if values >= PIECE_VALUES else None
        self._call = partial(fn, *args)
        self._future = None if side is None else side.submit(fn, *args)

    def take(self):
        """The call's result, or its exception, once the call has finished:
        waited for where the helper has started it, else run here."""
        if self._future is not None and not self._future.cancel():
            return self._future.result()
        return self._call()

    def drop(self) -> None:
        """Unqueue the call if the helper has not started it, else wait for
        it to finish; its result or exception is not read."""
        if self._future is not None and not self._future.cancel():
            wait((self._future,))


def _forget_helper() -> None:
    # A forked child has no copy of the thread.
    global _HELPER
    _HELPER = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled OpenBLAS, ``numpy.libs/libscipy_openblas64_*`` as
    numpy's Linux wheels ship it, or None where numpy has none."""
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*"):
        try:
            return ctypes.CDLL(str(lib))
        except OSError:
            pass
    return None


def work_on_calling_thread() -> None:
    """Run this process's draws and pieces on the calling thread from now
    on, as at one CPU, and its BLAS calls on one thread. For a pool worker,
    whose siblings keep the other CPUs busy: with two workers on two CPUs
    the helper gained nothing, and BLAS threads of their own made each
    worker several times slower. Where numpy has no bundled OpenBLAS, or
    it has no thread setter, BLAS keeps its threads."""
    global _CALLING_THREAD_ONLY
    _CALLING_THREAD_ONLY = True
    set_threads = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if set_threads is not None:
        set_threads(ctypes.c_int(1))


def spread(work: Callable, items: Sequence, take: Callable) -> None:
    """``take(work(item))`` for each of ``items``, in order, on the calling
    thread.

    On Linux with :func:`count` CPUs, ``count() - 1`` children are forked
    first: child k computes ``work(items[i])`` for every i = k (mod
    count) and sends each result back as one pickled message over a pipe,
    while the calling process computes the items with i = 0 (mod count)
    and takes the children's results as it reaches them. Elsewhere, in a
    pool worker (:func:`work_on_calling_thread`) and at one CPU, every item
    runs on the calling thread. ``work`` must return what pickles.

    An exception ``work`` raises in a child is raised here when its item
    is reached; a child that ends without sending its result is a
    ``RuntimeError`` naming its wait status. Whether this returns or
    raises, every child has been killed and reaped by then.
    """
    n = count() if sys.platform.startswith("linux") and not _CALLING_THREAD_ONLY else 1
    children = []
    try:
        for k in range(1, min(n, len(items))):
            children.append(_Child(work, items[k::n]))
        for i, item in enumerate(items):
            take(work(item) if i % n == 0 else children[i % n - 1].result())
    finally:
        for child in children:
            child.end()


class _Child:
    """A forked process that computes ``work(item)`` for each of ``items``
    and sends each result, or the exception that stopped it, back as one
    pickled message."""

    def __init__(self, work: Callable, items: Sequence):
        # A fork, not a spawned interpreter: the child reads the caller's
        # arrays as they are, shared until written, and runs only ``work``
        # on its one thread; the helper thread is not copied into it.
        read, write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(read)
            _serve(work, items, write)
        os.close(write)
        self._results = open(read, "rb")
        self._status = None

    def result(self):
        """The next result, or the child's exception raised."""
        try:
            ok, value = pickle.load(self._results)
        except (EOFError, pickle.UnpicklingError):
            # The pipe closes only as the child ends.
            self._results.close()
            self._status = os.waitpid(self.pid, 0)[1]
            raise RuntimeError(f"child process {self.pid} ended without its result: "
                               f"wait status {self._status}") from None
        if not ok:
            raise value
        return value

    def end(self) -> None:
        """Kill and reap the child, once."""
        if self._status is None:
            self._results.close()
            os.kill(self.pid, signal.SIGKILL)
            self._status = os.waitpid(self.pid, 0)[1]


def _serve(work: Callable, items: Sequence, fd: int) -> None:
    """A child's life: one message per item, up to the first error; it
    leaves through ``os._exit``, so nothing of the parent's runs at exit."""
    code = 1
    try:
        work_on_calling_thread()
        with open(fd, "wb") as out:
            for item in items:
                try:
                    message = pickle.dumps((True, work(item)), pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    out.write(_error_message(exc))
                    break
                out.write(message)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def _error_message(exc: Exception) -> bytes:
    """``exc`` pickled, or a ``RuntimeError`` naming it where it does not
    pickle and load back."""
    try:
        message = pickle.dumps((False, exc))
        pickle.loads(message)
        return message
    except Exception:
        return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


class _Claims:
    """Pieces handed out one at a time, in order, to whichever thread asks
    first. A piece is made under the claim, so whatever making it does
    happens in piece order."""

    def __init__(self, pieces: Iterable[Callable[[], object]]):
        self._pieces = iter(pieces)
        self._lock = threading.Lock()

    def take(self):
        """The next piece, or None once every piece is claimed."""
        with self._lock:
            return next(self._pieces, None)

    def run(self) -> None:
        """Run the pieces handed out until none is left."""
        while (piece := self.take()) is not None:
            piece()
            del piece   # before the next: a piece may hold a copy of its input

    def close(self) -> None:
        """Hand out nothing more, and let go of the pieces."""
        with self._lock:
            self._pieces = iter(())


def share(make: Callable[[slice], Callable[[], object]], extent: int, unit: int) -> None:
    """Do the work over ``range(extent)``, shared with the helper thread,
    in slices of ``ceil(PIECE_VALUES / unit)`` indices, ``unit`` being the
    complex values one index holds; return when every slice is done.

    ``make(s)`` returns the callable that does slice ``s``. It is called
    under the claim, in slice order, so it must stay a maker: the FA map's
    real transform copies its rows there because a later block's output
    overwrites earlier blocks' input, and a copy made by the work would race.

    One claim loop is a :class:`Queued` call on the values past the first
    slice, and the calling thread claims slices until none is left, so a
    range of one slice, or one and a remainder under :data:`PIECE_VALUES`
    values, runs in order on the calling thread. An exception a slice
    raises is raised here once every claimed slice has finished, and the
    queued loop keeps no slice once this returns.
    """
    step = -(-PIECE_VALUES // unit)
    claims = _Claims(make(slice(lo, min(lo + step, extent))) for lo in range(0, extent, step))
    loop = Queued(claims.run, values=unit * (extent - step))
    try:
        claims.run()
    finally:
        claims.close()
        loop.drop()
    loop.take()
