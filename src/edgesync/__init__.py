"""Edge-level synchronization toolkit for weighted agent networks.

Builds the edge-space lift of a weighted undirected graph, derives the
critical diffusive coupling gain from a quadratic contraction
certificate, and simulates the closed-loop network with fixed-step
integration. The cli module exposes the same pipeline as a command line
tool driven by scenario files.
"""

import os

# One BLAS thread unless the caller chose a count: other counts give other bits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .analysis import (
    DecayFit,
    check_monotone,
    edge_energy,
    fit_decay_rate,
    sync_error,
)
from .controller import (
    ControllerConfig,
    accumulate_coupling,
    coupling_inputs,
    critical_gain,
    edge_end_arrays,
    make_controller,
)
from .edge_lift import (
    EdgeLift,
    build_edge_lift,
    lift_residual,
    lift_rows,
)
from .errors import (
    DimensionMismatchError,
    DisconnectedGraphError,
    DivergedError,
    EdgeSyncError,
    EmptyWindowError,
    NoConvergenceError,
    NonFiniteError,
    NonSymmetricError,
    NotPositiveDefiniteError,
    NotStabilizableError,
    ParseError,
    SingularMatrixError,
    WeightRangeError,
)
from .graphs import (
    SpectralReport,
    WeightedGraph,
    parse_graph_text,
    random_connected_graph,
    read_graph_file,
    spectral_report,
)
from .linalg import lyapunov_solve, sym_eig
from .metric import (
    MetricCertificate,
    verify_ari_sampled,
    verify_killing_integrability,
)
from .models import (
    AgentModel,
    convective_linearization,
    linear_model,
    lorenz_model,
    tanh_perturbed_model,
)
from .riccati import LinearDesign, bass_initial_gain, solve_ari
from .scenario import RunSetup, Scenario, parse_scenario, parse_scenario_text, realize
from .simulate import (
    Trajectory,
    perturbed_initial_conditions,
    simulate,
    simulate_batch,
)

__version__ = "0.1.0"

__all__ = [
    "AgentModel",
    "ControllerConfig",
    "DecayFit",
    "DimensionMismatchError",
    "DisconnectedGraphError",
    "DivergedError",
    "EdgeLift",
    "EdgeSyncError",
    "EmptyWindowError",
    "LinearDesign",
    "MetricCertificate",
    "NoConvergenceError",
    "NonFiniteError",
    "NonSymmetricError",
    "NotPositiveDefiniteError",
    "NotStabilizableError",
    "ParseError",
    "RunSetup",
    "Scenario",
    "SingularMatrixError",
    "SpectralReport",
    "Trajectory",
    "WeightRangeError",
    "WeightedGraph",
    "accumulate_coupling",
    "bass_initial_gain",
    "build_edge_lift",
    "check_monotone",
    "convective_linearization",
    "coupling_inputs",
    "critical_gain",
    "edge_end_arrays",
    "edge_energy",
    "fit_decay_rate",
    "lift_residual",
    "lift_rows",
    "linear_model",
    "lorenz_model",
    "lyapunov_solve",
    "make_controller",
    "parse_graph_text",
    "parse_scenario",
    "parse_scenario_text",
    "perturbed_initial_conditions",
    "random_connected_graph",
    "read_graph_file",
    "realize",
    "simulate",
    "simulate_batch",
    "solve_ari",
    "spectral_report",
    "sym_eig",
    "sync_error",
    "tanh_perturbed_model",
    "verify_ari_sampled",
    "verify_killing_integrability",
]
