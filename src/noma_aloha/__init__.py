"""Two-power NOMA over p-persistent slotted ALOHA: closed-form performance
model, throughput optimizer and validating Monte Carlo simulator."""

from .model import (
    CountPair,
    PowerProfile,
    RegionBounds,
    Scenario,
    average_throughput,
    baseline_optimum,
    baseline_success,
    region_bounds,
    sinr_high,
    sinr_low,
    success_probability,
)
from .optimize import OptimizationResult, coordinate_ascent
from .simulate import (
    SimConfig,
    SimStats,
    run_simulation,
    sic_decode,
)

__version__ = "0.1.0"

__all__ = [
    "Scenario",
    "PowerProfile",
    "CountPair",
    "RegionBounds",
    "sinr_high",
    "sinr_low",
    "region_bounds",
    "success_probability",
    "average_throughput",
    "baseline_success",
    "baseline_optimum",
    "OptimizationResult",
    "coordinate_ascent",
    "SimConfig",
    "SimStats",
    "sic_decode",
    "run_simulation",
]
