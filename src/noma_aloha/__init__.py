"""Two-power NOMA over p-persistent slotted ALOHA: closed-form performance
model, throughput optimizer and validating Monte Carlo simulator."""

from .model import (
    CountPair,
    DecodeFlags,
    PowerProfile,
    RegionBounds,
    Scenario,
    average_throughput,
    baseline_optimum,
    baseline_success,
    cond_sum_rate_high,
    cond_sum_rate_low,
    decode_feasibility,
    joint_pmf,
    region_bounds,
    sinr_high,
    sinr_low,
    success_probability,
)
from .optimize import (
    AscentConfig,
    OptimizationResult,
    coordinate_ascent,
    grid_search_oracle,
)
from .simulate import (
    SimConfig,
    SimStats,
    SlotOutcome,
    run_simulation,
    sic_decode,
)

__version__ = "0.1.0"

__all__ = [
    "Scenario",
    "PowerProfile",
    "CountPair",
    "DecodeFlags",
    "RegionBounds",
    "sinr_high",
    "sinr_low",
    "decode_feasibility",
    "region_bounds",
    "joint_pmf",
    "success_probability",
    "cond_sum_rate_high",
    "cond_sum_rate_low",
    "average_throughput",
    "baseline_success",
    "baseline_optimum",
    "AscentConfig",
    "OptimizationResult",
    "coordinate_ascent",
    "grid_search_oracle",
    "SlotOutcome",
    "SimConfig",
    "SimStats",
    "sic_decode",
    "run_simulation",
]
