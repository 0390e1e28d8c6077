"""Div-div stabilized MINI mixed finite elements for linearized
incompressible elasticity on the reference square: critical-load
detection, inf-sup estimation and manufactured-solution convergence."""

from .analysis import (AbstractConstants, ConvergenceRow, ConvergenceTable,
                       ProblemConfig, StabilityReport, compute_M0,
                       compute_errors, estimate_inf_sup,
                       find_stability_limits, is_stable, manufactured_load,
                       manufactured_pressure, run_convergence,
                       stabilization_parameter, uniform_vertical_load)
from .forms import (AssembledSystem, assemble_coupling, assemble_divdiv,
                    assemble_elastic, assemble_h1_gram, assemble_load,
                    assemble_pressure_mass, assemble_system, elastic_parts)
from .mesh import (GAMMA_D, GAMMA_TOP, INTERIOR, TriMesh,
                   build_structured_mesh, classify_boundary_nodes)
from .solvers import (NonSymmetricMatrixError, SaddleSystem,
                      SingularSaddleError, smallest_eigenvalue, solve_saddle)
from .spaces import (MixedSpace, QuadratureRule, build_constraints,
                     make_quadrature, reference_basis)

__all__ = [
    "AbstractConstants", "AssembledSystem", "ConvergenceRow",
    "ConvergenceTable", "GAMMA_D", "GAMMA_TOP", "INTERIOR", "MixedSpace",
    "NonSymmetricMatrixError", "ProblemConfig",
    "QuadratureRule", "SaddleSystem", "SingularSaddleError",
    "StabilityReport", "TriMesh", "assemble_coupling", "assemble_divdiv",
    "assemble_elastic", "assemble_h1_gram", "assemble_load",
    "assemble_pressure_mass", "assemble_system", "build_constraints",
    "build_structured_mesh", "classify_boundary_nodes", "compute_M0",
    "compute_errors", "elastic_parts", "estimate_inf_sup",
    "find_stability_limits", "is_stable",
    "make_quadrature", "manufactured_load", "manufactured_pressure",
    "reference_basis", "run_convergence", "smallest_eigenvalue",
    "solve_saddle", "stabilization_parameter", "uniform_vertical_load",
]
