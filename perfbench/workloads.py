"""The benchmark's workloads: a built-in preset each, the pipelines run on
it, and the drop rate used to turn ``--seconds`` into a fixed drop count.

Every workload keeps its preset's own sweep (``desk_small`` has none, so
one point). The drop count depends only on ``--seconds``, never on how
fast the code is, so two versions of the program score the same drops and
the hit rates repeat exactly for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The desk_mc acceptance pipelines, as
# (structure, suppressor, eps_mode, refinement, va).
DESK_MC_PIPELINES = (
    ("comb", "sthp", "inf", "fft", True),
    ("lshape", "stap", "zero", "fft", True),
    ("fa", "mf", "inf", "fft", False),
    ("comb", "sthp", "inf", "fft", False),
    ("comb", "sthp", "inf", "music", False),
)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    pipelines: tuple
    # Drop evaluations per second at the seed commit (2-core x86-64,
    # one BLAS thread), used only to size the run.
    nominal_drops_per_s: float
    why: str

    def drops_per_point(self, seconds: int, sweep_points: int) -> int:
        """Drops per sweep point so the drop phase lasts about ``seconds``."""
        return max(1, math.ceil(seconds * self.nominal_drops_per_s / sweep_points))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk_mix",
        preset="desk_small",
        pipelines=DESK_MC_PIPELINES,
        nominal_drops_per_s=7.5,
        why="desk_small with the five desk_mc pipelines: cheap drops, range "
            "stage and MUSIC dominate, per-drop fixed costs show most",
    ),
    Workload(
        name="car_fa",
        preset="table1_car",
        pipelines=(("fa", "mf", "inf", "fft", False),
                   ("comb", "sthp", "inf", "fft", False)),
        nominal_drops_per_s=0.5,
        why="table1_car, no VA: the FA correlator map takes almost all drop "
            "time and the range stage scores one candidate",
    ),
    # Not in BENCHMARK.json: three 28 s clutter builds per run would more
    # than double the time of a full benchmark pass. Run it by hand.
    Workload(
        name="uav_va",
        preset="table1_uav",
        pipelines=(("comb", "sthp", "inf", "fft", True),
                   ("comb", "sthp", "inf", "music", False),
                   ("comb", "stap", "em", "fft", False)),
        nominal_drops_per_s=1.8,
        why="table1_uav: heaviest clutter map (4 slots x 64 elements), "
            "64-element VA cube synthesis and MUSIC, no FA",
    ),
)}
