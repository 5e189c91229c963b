"""Grid-free kinematic-wave corridor control.

Closed-form cumulative-count traffic dynamics, a stochastic boundary-flow
and variable-speed-limit MILP on top of them, a rolling-horizon closed loop,
and the experiment harness that compares the hedged controller against
fixed-demand baselines.

The solver's names (``Solution``, ``branch_and_bound``, ``export_model``)
load ``corridorflow.solver``, and scipy with it, on first use, so importing
the package loads no scipy.
"""

from .lwr import (
    InvalidParameterError,
    LinkGeometry,
    TriangularFD,
    ValueConditionSet,
    critical_density,
)
from .linkmodel import LinkSpec
from .network import Corridor, Junction, TopologyError
from .twostage import (
    DemandDistribution,
    HorizonState,
    ModelBundle,
    ObjectiveWeights,
    build_deterministic_baseline,
    build_deterministic_equivalent,
    objective_breakdown,
)
from .lp import LinearProgram
from .controller import HorizonConfig, Trajectory, run_closed_loop
from .experiments import ExperimentConfig, SweepError, case_study, run_comparison, run_sd_sweep

__version__ = "0.1.0"

_SOLVER_NAMES = ("Solution", "branch_and_bound", "export_model")


def __getattr__(name):
    if name in _SOLVER_NAMES:
        from . import solver
        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
