"""Overloaded multiclass FIFO queues with reneging.

Three layers: exact simulation of the K-class single-server queue with
deadlines (``simulate``), a numerical solver for its fluid model
(``fluid``), and a harness that verifies the fluid limit by comparing
fluid-scaled simulations against fluid predictions (``scaling``).
"""
from .distributions import (Deterministic, Distribution, DistributionError,
                            Exponential, HyperExponential, Replay,
                            UniformInterval, UniformMixture, mix_seed, stream)
from .fluid import (BoxMixtureInitial, FluidClass, FluidModelError,
                    FluidModelInput, FluidSolution, InvariantInitial,
                    InvariantState, ZeroInitial, equilibrium_band, eval_fluid,
                    fluid_abandoning, fluid_age_count, fluid_grid,
                    fluid_nonabandoning, fluid_queue_length, invariant_state,
                    residual_deadline_limit, solve_fluid, solve_workload)
from .measures import (AtomicMeasure2D, Box, box_masses, corner_distance,
                       corner_mass, eval_box, evolve, rect_distance,
                       upper_right)
from .scaling import (ReportRow, ScalingError, ScalingPlan, ScalingReport,
                      corner_regularity_probe, default_rect_grid, run_plan)
from .simulate import (ClassSpec, Empty, JobRecord, SimConfig, SimTrace,
                       SimulationError, WarmStart, fluid_model_of, run)

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure2D", "Box", "BoxMixtureInitial", "ClassSpec",
    "Deterministic", "Distribution", "DistributionError",
    "Empty", "Exponential", "FluidClass",
    "FluidModelError", "FluidModelInput", "FluidSolution", "HyperExponential",
    "InvariantInitial", "InvariantState", "JobRecord", "Replay", "ReportRow",
    "ScalingError", "ScalingPlan", "ScalingReport", "SimConfig", "SimTrace",
    "SimulationError", "UniformInterval", "UniformMixture", "WarmStart",
    "ZeroInitial", "box_masses", "corner_distance", "corner_mass",
    "corner_regularity_probe", "default_rect_grid", "equilibrium_band",
    "eval_box", "eval_fluid", "evolve", "fluid_abandoning", "fluid_age_count",
    "fluid_grid", "fluid_model_of", "fluid_nonabandoning", "fluid_queue_length",
    "invariant_state", "mix_seed", "rect_distance", "residual_deadline_limit",
    "run", "run_plan", "solve_fluid", "solve_workload", "stream",
    "upper_right",
]
