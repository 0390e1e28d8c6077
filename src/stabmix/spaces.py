"""MINI displacement space and continuous P1 pressure space.

Displacements are discretized with vertex hats plus one cubic bubble per
triangle and component; pressures with continuous P1.  The pressure space
carries no zero-mean constraint: the traction-free upper edge already
fixes the pressure level.

Quadrature rules are built on the reference triangle {x,y >= 0, x+y <= 1}
by collapsing a Gauss-Legendre product rule from the unit square and
averaging it over the six vertex permutations.  Exactness for the
requested total degree is guaranteed by construction, so no tabulated
point sets are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .mesh import GAMMA_D, TriMesh, classify_boundary_nodes

MAX_QUAD_DEGREE = 20
QUAD_DEGREE = 6  # the assembly rule, see make_quadrature

# gradients of the barycentric hats with respect to the reference (x, y)
_P1_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric rule on the reference triangle, weights summing to 1/2.

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
    na = (degree + 3) // 2
    nb = (degree + 2) // 2
    ga, wa = leggauss(na)
    gb, wb = leggauss(nb)
    a = 0.5 * (ga + 1.0)
    b = 0.5 * (gb + 1.0)
    wa = 0.5 * wa
    wb = 0.5 * wb

    aa, bb = np.meshgrid(a, b, indexing="ij")
    ww = np.outer(wa, wb) * aa
    x = (aa * (1.0 - bb)).ravel()
    y = (aa * bb).ravel()
    w = ww.ravel()

    lam = np.column_stack([1.0 - x - y, x, y])

    # symmetrize over the six barycentric permutations; each permutation is
    # an affine self-map of the triangle with |det| = 1
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    pts = np.concatenate([lam[:, p] for p in perms], axis=0)
    wts = np.concatenate([w] * len(perms)) / len(perms)
    return QuadratureRule(degree=int(degree), points=pts, weights=wts)


def reference_basis(kind: str, point) -> tuple[np.ndarray, np.ndarray]:
    """Values and reference-coordinate gradients at barycentric points.

    kind "p1" gives the three hats (values (..., 3), gradients (..., 3, 2));
    kind "bubble" gives 27*lam1*lam2*lam3 (values (...,), gradients (..., 2)).
    """
    pt = np.asarray(point, dtype=float)
    if pt.shape[-1] != 3:
        raise ValueError("barycentric point must have 3 components")
    if np.any(pt < -1e-12) or np.any(np.abs(pt.sum(axis=-1) - 1.0) > 1e-12):
        raise ValueError(f"invalid barycentric point {point!r}")

    if kind == "p1":
        vals = pt.copy()
        grads = np.broadcast_to(_P1_GRADS, pt.shape[:-1] + (3, 2)).copy()
        return vals, grads
    if kind == "bubble":
        l1, l2, l3 = pt[..., 0], pt[..., 1], pt[..., 2]
        vals = 27.0 * l1 * l2 * l3
        # chain rule through lam1 = 1-x-y, lam2 = x, lam3 = y
        gx = 27.0 * (-l2 * l3 + l1 * l3)
        gy = 27.0 * (-l2 * l3 + l1 * l2)
        return vals, np.stack([gx, gy], axis=-1)
    raise ValueError(f"unknown basis kind {kind!r}; expected 'p1' or 'bubble'")


def tabulate_scalar_basis(rule: QuadratureRule, include_bubble: bool):
    """Scalar basis table at the rule's points.

    Returns (values, grads) with values (n_basis, nq) and grads
    (n_basis, nq, 2) in reference coordinates; basis order is the three
    hats then, if requested, the bubble.
    """
    hats, hat_grads = reference_basis("p1", rule.points)
    vals = [hats.T]
    grads = [np.swapaxes(hat_grads, 0, 1)]
    if include_bubble:
        bv, bg = reference_basis("bubble", rule.points)
        vals.append(bv[None, :])
        grads.append(bg[None, :, :])
    return np.concatenate(vals, axis=0), np.concatenate(grads, axis=0)


@dataclass(frozen=True)
class MixedSpace:
    """Dof bookkeeping for the MINI / P1 pair on a triangulation.

    Displacement dofs: x/y component per vertex hat, then x/y per element
    bubble (2*(n_nodes + n_tris) in total; bubbles can be dropped for the
    deliberately unstable P1/P1 control mode).  Pressure dofs: one per
    vertex.  The constraint set lists (dof, 0.0) pairs implied by the
    problem's boundary conditions; constraints are imposed by reduction
    to the free dofs, never by penalties.
    """

    mesh: TriMesh
    problem: int = 1
    include_bubbles: bool = True
    n_u: int = field(init=False)
    n_p: int = field(init=False)
    elem_dofs: np.ndarray = field(init=False)
    constraints: list = field(init=False)
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

        constraints = build_constraints(self, self.problem)
        fixed = np.array(sorted(dof for dof, _ in constraints), dtype=np.int64)
        free = np.setdiff1d(np.arange(n_u, dtype=np.int64), fixed)
        free.setflags(write=False)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "free_dofs", free)

    @property
    def n_free(self) -> int:
        return self.free_dofs.shape[0]

    @property
    def local_basis_size(self) -> int:
        return 4 if self.include_bubbles else 3


def build_constraints(space: MixedSpace, problem: int) -> list[tuple[int, float]]:
    """Homogeneous displacement constraints for the two model problems.

    Problem 1 clamps both components at every constrained-boundary node.
    Problem 2 zeroes the normal component only: x on the side edges, y on
    the bottom edge, both at the bottom corners where two normals meet.
    The upper corners belong to the closed constrained sides, so they
    carry the side-edge constraint in both problems.  Bubbles vanish on
    element boundaries and are never constrained.
    """
    if problem not in (1, 2):
        raise ValueError(f"unknown problem id {problem!r}; expected 1 or 2")
    classes = classify_boundary_nodes(space.mesh)
    constraints: list[tuple[int, float]] = []
    for node, cls in sorted(classes.items()):
        if cls.kind != GAMMA_D:
            continue
        if problem == 1:
            constraints.append((2 * node, 0.0))
            constraints.append((2 * node + 1, 0.0))
        else:
            if "left" in cls.sides or "right" in cls.sides:
                constraints.append((2 * node, 0.0))
            if "bottom" in cls.sides:
                constraints.append((2 * node + 1, 0.0))
    return constraints
