"""Div-div stabilized MINI mixed finite elements for linearized
incompressible elasticity on the reference square: critical-load
detection, inf-sup estimation and manufactured-solution convergence."""

from .analysis import (AbstractConstants, ConvergenceRow, ConvergenceTable,
                       ProblemConfig, StabilityReport, compute_M0,
                       compute_errors, estimate_inf_sup,
                       find_stability_limits, is_stable, manufactured_load,
                       manufactured_pressure, run_convergence)
from .forms import (assemble_coupling, assemble_divdiv, assemble_elastic,
                    assemble_h1_gram, assemble_load, assemble_pressure_mass,
                    elastic_parts)
from .mesh import build_structured_mesh
from .solvers import (NonSymmetricMatrixError, SaddleSystem,
                      SingularSaddleError, smallest_eigenvalue, solve_saddle)
from .spaces import MixedSpace, make_quadrature
