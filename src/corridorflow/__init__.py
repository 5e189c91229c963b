"""Grid-free kinematic-wave corridor control.

Closed-form cumulative-count traffic dynamics, a stochastic boundary-flow
and variable-speed-limit MILP on top of them, a rolling-horizon closed loop,
and the experiment harness that compares the hedged controller against
fixed-demand baselines.

Importing the package loads no scipy: ``corridorflow.solver`` imports it where
a model is first solved, so writing a model (``export_model``) loads none
either.
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
from .solver import Solution, branch_and_bound, export_model
from .controller import HorizonConfig, Trajectory, run_closed_loop
from .experiments import ExperimentConfig, SweepError, case_study, run_comparison, run_sd_sweep

__version__ = "0.1.0"
