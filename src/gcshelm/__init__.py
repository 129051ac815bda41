"""Gaussian coherent-state least squares for the 1D high-frequency Helmholtz
problem with perfectly matched layers."""

from .phase_space import (
    LatticeSpec,
    IndexSet,
    build_symbol_set,
    build_planewave_rhs_set,
)
from .gaussian_states import SecondOrderOperator, constant_operator
from .problem_model import (
    ProblemCase,
    pml_sigma,
    cutoff_phi,
    mu_heterogeneous,
)
from .quadrature import QuadratureRule, build_rule, nodes_per_wavelength
from .assembly_solver import DesignSystem, SolveReport, assemble, solve, reconstruct
from .reference_fem import FemMesh, FemSolution, fem_solve
from .analysis import ErrorReport, FrameDiagnostics, h1k_error, frame_bounds
from .experiments import ExperimentConfig, ExperimentRecord, run_case, scaling_study, emit

__version__ = "0.1.0"
