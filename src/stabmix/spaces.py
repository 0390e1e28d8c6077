"""MINI displacement space and continuous P1 pressure space.

Displacements are discretized with vertex hats plus one cubic bubble per
triangle and component; pressures with continuous P1.  The pressure space
carries no zero-mean constraint: the traction-free upper edge already
fixes the pressure level.

Quadrature rules are built on the reference triangle {x,y >= 0, x+y <= 1}
by collapsing a Gauss-Legendre product rule from the unit square (Stroud,
Approximate Calculation of Multiple Integrals, 1971).  Exactness for the
requested total degree is guaranteed by construction, so no tabulated
point sets are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .mesh import TriMesh

MAX_QUAD_DEGREE = 20
QUAD_DEGREE = 6  # the assembly rule, see make_quadrature
BOUNDARY_TOL = 1e-12  # a node within this of x = +-1 or y = -1 is on that side

# gradients of the barycentric hats with respect to the reference (x, y)
_P1_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass(frozen=True)
class QuadratureRule:
    """Rule on the reference triangle, weights summing to 1/2.

    points are barycentric triples (lam1, lam2, lam3); the reference
    coordinates are (x, y) = (lam2, lam3).
    """

    degree: int
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


def make_quadrature(degree: int) -> QuadratureRule:
    """Rule exact for all bivariate polynomials of the given total degree.

    Degree 6 is the assembly rule: bubble-gradient products are degree
    4, one extra degree comes from the linear weight in the load term,
    and one more is margin.
    """
    if not isinstance(degree, (int, np.integer)) or isinstance(degree, bool):
        raise ValueError(f"quadrature degree must be an integer, got {degree!r}")
    if degree < 1 or degree > MAX_QUAD_DEGREE:
        raise ValueError(
            f"unsupported quadrature degree {degree}; supported degrees are "
            f"1..{MAX_QUAD_DEGREE}"
        )

    # collapsed product rule: x = a(1-b), y = ab with jacobian a raises the
    # polynomial degree in a by one
    ga, wa = leggauss((degree + 3) // 2)
    gb, wb = leggauss((degree + 2) // 2)
    a = 0.5 * (ga + 1.0)
    b = 0.5 * (gb + 1.0)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    x = (aa * (1.0 - bb)).ravel()
    y = (aa * bb).ravel()
    w = (0.25 * np.outer(wa, wb) * aa).ravel()
    return QuadratureRule(degree=int(degree),
                          points=np.column_stack([1.0 - x - y, x, y]), weights=w)


def tabulate_scalar_basis(rule: QuadratureRule, include_bubble: bool):
    """Scalar basis table at the rule's points.

    Returns (values, grads) with values (n_basis, nq) and grads
    (n_basis, nq, 2) in reference coordinates; basis order is the three
    hats lam1, lam2, lam3 then, if requested, the bubble 27*lam1*lam2*lam3.
    """
    lam = rule.points
    nq = lam.shape[0]
    vals = np.vstack([lam.T, 27.0 * lam.prod(axis=1)])
    # the bubble gradient is 27 * sum_i (product of the other two) grad lam_i
    others = lam[:, [1, 0, 0]] * lam[:, [2, 2, 1]]
    grads = np.concatenate([np.broadcast_to(_P1_GRADS[:, None], (3, nq, 2)),
                            27.0 * (others @ _P1_GRADS)[None]])
    k = 4 if include_bubble else 3
    return vals[:k], grads[:k]


@dataclass(frozen=True)
class MixedSpace:
    """Dof bookkeeping for the MINI / P1 pair on a triangulation.

    Displacement dofs: x/y component per vertex hat, then x/y per element
    bubble (2*(n_nodes + n_tris) in total; bubbles can be dropped for the
    deliberately unstable P1/P1 control mode).  Pressure dofs: one per
    vertex.

    The boundary conditions are homogeneous and imposed by reduction to
    ``free_dofs``, never by penalties.  Problem 1 clamps both components
    on the sides |x| = 1 and the bottom y = -1, upper corners included;
    problem 2 fixes the normal component only: x on the sides, y on the
    bottom, both at the bottom corners.  The open top and the bubbles
    are never constrained.
    """

    mesh: TriMesh
    problem: int = 1
    include_bubbles: bool = True
    n_u: int = field(init=False)
    n_p: int = field(init=False)
    elem_dofs: np.ndarray = field(init=False)
    free_dofs: np.ndarray = field(init=False)
    quadrature: QuadratureRule = field(init=False)

    def __post_init__(self):
        if self.problem not in (1, 2):
            raise ValueError(f"unknown problem id {self.problem!r}; expected 1 or 2")
        nn = self.mesh.n_nodes
        nt = self.mesh.n_triangles
        n_u = 2 * (nn + nt) if self.include_bubbles else 2 * nn

        tri = self.mesh.triangles
        vertex_cols = np.empty((nt, 6), dtype=np.int64)
        vertex_cols[:, 0::2] = 2 * tri
        vertex_cols[:, 1::2] = 2 * tri + 1
        if self.include_bubbles:
            bubble = 2 * nn + 2 * np.arange(nt, dtype=np.int64)[:, None]
            elem_dofs = np.concatenate(
                [vertex_cols, bubble, bubble + 1], axis=1)
        else:
            elem_dofs = vertex_cols
        elem_dofs.setflags(write=False)

        object.__setattr__(self, "n_u", n_u)
        object.__setattr__(self, "n_p", nn)
        object.__setattr__(self, "elem_dofs", elem_dofs)
        object.__setattr__(self, "quadrature", make_quadrature(QUAD_DEGREE))

        x, y = self.mesh.nodes.T
        side = np.abs(x) >= 1.0 - BOUNDARY_TOL
        bottom = y <= -1.0 + BOUNDARY_TOL
        walls = side | bottom
        fixed = np.zeros(n_u, dtype=bool)
        fixed[0:2 * nn:2] = walls if self.problem == 1 else side  # x
        fixed[1:2 * nn:2] = walls if self.problem == 1 else bottom  # y
        free = np.flatnonzero(~fixed)
        free.setflags(write=False)
        object.__setattr__(self, "free_dofs", free)

