"""Machine-speed calibration for the benchmark's timings.

On shared hosts the CPU's speed drifts: the same 20 desk_small drops took
from 1.55 s to 2.45 s within two minutes on a shared 2-core host, with CPU time
equal to wall time, so the slowdown is the core's speed, not preemption.
A fixed kernel timed between drops, every half second, tracks that drift. Each
measured interval is scaled by ``REFERENCE_S / (kernel time around it)``,
which gives seconds at the reference speed. The kernel does not touch the
library, so a change to the program moves the scaled times as much as the
raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# kernel() on the reference machine (shared 2-core x86-64 host, numpy 2.4.6,
# one BLAS thread). Only ratios matter; this keeps values near seconds.
REFERENCE_S = 0.03
PROBE_INTERVAL_S = 0.5


class Kernel:
    """A fixed mix of the kinds of work the library does: a large FFT (FA
    map, IF synthesis), small Hermitian decompositions (range stage,
    MUSIC), many small FFTs and ufuncs (per-candidate scoring) and a
    pure-Python loop (per-drop bookkeeping). Outputs of the large FFT go to
    a preallocated buffer so page faults do not add noise."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._big = rng.standard_normal((500, 2048)) + 1j * rng.standard_normal((500, 2048))
        self._out = np.empty_like(self._big)
        a = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
        self._cov = a @ a.conj().T
        self._small = rng.standard_normal((16, 512)) + 1j * rng.standard_normal((16, 512))
        self()

    def __call__(self) -> float:
        started = time.perf_counter()
        np.fft.fft(self._big, axis=0, out=self._out)
        for _ in range(20):
            np.linalg.eigh(self._cov)
            np.linalg.pinv(self._cov, hermitian=True)
        for _ in range(150):
            spectrum = np.abs(np.fft.fft(self._small, axis=1))
            np.exp(1j * spectrum[:, int(np.argmax(spectrum[0]))])
        total = 0.0
        for i in range(10000):
            total += i * 0.5
        return time.perf_counter() - started


def scale(*kernel_s: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_S * len(kernel_s) / sum(kernel_s)


class DropProbe:
    """Wraps ``run_drop`` to time the kernel before a drop at most once per
    PROBE_INTERVAL_S. The kernel runs inside the harness's per-drop timer,
    so its time is recorded per drop and taken out again."""

    def __init__(self, kernel: Kernel, run_drop):
        self.kernel = kernel
        self.samples = []        # (drops completed before the sample, kernel seconds)
        self.inside_s = {}       # drop key -> seconds the probe added to that drop
        self.run_drop = run_drop
        self._count = 0
        self._last = -float("inf")

    def __call__(self, scene, plan, drop_index, clutter=None, sweep_value=None):
        started = time.perf_counter()
        if started - self._last >= PROBE_INTERVAL_S:
            self.samples.append((self._count, self.kernel()))
            self._last = time.perf_counter()
            self.inside_s[(str(sweep_value), drop_index)] = self._last - started
        self._count += 1
        return self.run_drop(scene, plan, drop_index, clutter, sweep_value)

    def finish(self) -> None:
        """Take the closing sample, after the last drop."""
        self.samples.append((self._count, self.kernel()))

    def scaled_runtimes(self, runtimes: dict) -> list:
        """Per-drop seconds at reference speed, in drop order: the probe's
        own time removed, then scaled by the two samples on either side."""
        out = []
        following = 0
        for j, (key, seconds) in enumerate(runtimes.items()):
            while following < len(self.samples) and self.samples[following][0] <= j:
                following += 1
            near = [s for _, s in self.samples[max(following - 2, 0):following + 2]]
            out.append((seconds - self.inside_s.get(key, 0.0)) * scale(*near))
        return out
