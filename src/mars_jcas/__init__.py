"""Joint-communication-and-sensing radar toolkit.

Builds MaRS sensing waveforms on an OFDM baseband, synthesizes receiver
data cubes (targets, ground clutter, self-interference, uplink leakage,
noise), runs the space-time detection pipelines, and benchmarks hit rate
and normalized RMSE over Monte-Carlo drops.
"""

__version__ = "0.1.0"

from .scene import (
    ArrayGeometry,
    RadioParams,
    ResolutionReport,
    SceneConfig,
    SceneValidationError,
    Target,
    ValidatedScene,
    received_power,
    resolution_report,
    validate_scene,
)
from .waveform import (
    MarsSchedule,
    build_schedule,
    chirp_time_samples,
    overhead_fraction,
)
from .clutter import ClutterMap, GtriParams, build_clutter_map, gtri_reflectivity
from .channel import IfCube, synthesize_fa_measurements, synthesize_if_cube
from .estimator import (
    AngleVelocityMap,
    TargetEstimate,
    angle_velocity_map,
    epsilon_m,
    expand_nn,
    fa_range_doppler_map,
    interference_cov,
    music_refine,
    reshape_space_time,
    space_time_steering,
    stap_range_spectrum,
    sthp_range_spectrum,
    stte_peaks,
    va_assemble,
)
from .pipeline import FrontEnd, PipelineSpec, front_end, run_fa_pipeline, run_pipeline
from .harness import (
    DropError,
    ExperimentPlan,
    TrialReport,
    monte_carlo,
    rmse_normalized,
    run_drop,
)

__all__ = [name for name in dir() if not name.startswith("_")]
