"""MINI displacement space and continuous P1 pressure space.

Displacements are discretized with vertex hats plus one cubic bubble per
triangle and component; pressures with continuous P1.  The pressure space
carries no zero-mean constraint: the traction-free upper edge already
fixes the pressure level.

MixedSpace owns what its layout decides: the element geometry, the
reference tables, the scatter plans and the static condensation of the
MINI bubbles (MixedSpace.condense, solved with Condensed.solve).  Each is
built on first use, and its arrays are read-only: every operator shares them.

Quadrature rules are built on the reference triangle {x,y >= 0, x+y <= 1}
by collapsing a Gauss-Legendre product rule from the unit square (Stroud,
Approximate Calculation of Multiple Integrals, 1971).  Exactness for the
requested total degree is guaranteed by construction, so no tabulated
point sets are needed.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from .mesh import TriMesh

MAX_QUAD_DEGREE = 20
QUAD_DEGREE = 6  # the assembly rule, see make_quadrature
BOUNDARY_TOL = 1e-12  # a node within this of x = +-1 or y = -1 is on that side
Condensation = namedtuple("Condensation", "bb bv vertex vv cols eye")

# gradients of the barycentric hats with respect to the reference (x, y)
_P1_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def _read_only(*arrays):
    """The arrays, made read-only: a space's cached arrays are shared by every operator."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class QuadratureRule:
    """Rule on the reference triangle, weights summing to 1/2.

    points are barycentric triples (lam1, lam2, lam3); the reference
    coordinates are (x, y) = (lam2, lam3).
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _read_only(self.points, self.weights)


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
    return QuadratureRule(points=np.column_stack([1.0 - x - y, x, y]), weights=w)


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


@functools.cache  # read-only, so every space with the same basis shares them
def _reference(degree: int, include_bubbles: bool):
    rule = make_quadrature(degree)
    return (rule, *_read_only(*tabulate_scalar_basis(rule, include_bubbles)))


@dataclass(frozen=True)
class ScatterPlan:
    """CSR pattern of an operator, explicit zeros included, and the data slot pos of each
    entry of an element tensor in its native layout (MixedSpace.scatter_plan, and the
    condensed vertex block's); entries of fixed dofs go to the extra slot nnz, dropped."""

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    pos: np.ndarray

    def __post_init__(self):
        _read_only(self.indptr, self.indices, self.pos)

    def csr(self, data) -> sp.csr_matrix:
        """The operator of data over the shared pattern, data not copied: every view."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def assemble(self, tensor) -> sp.csr_matrix:
        """One np.add.at into the shared pattern: each slot sums in element order."""
        data = np.zeros(len(self.indices) + 1)  # slot nnz takes the fixed dofs' entries
        np.add.at(data, self.pos, tensor.ravel())  # bincount would copy pos to int64
        return self.csr(data[:-1])


class Condensed(namedtuple("Condensed", "Binv C G cols schur below saddle_B saddle_C")):
    """MixedSpace.condense's parts: cols holds the condensed system's row of each column
    of C_e, its last row for a fixed vertex; saddle_B and saddle_C are None for a block."""

    def solve(self, inner, x):
        """Solve with the bubbles eliminated element by element: x and the result, vectors
        or blocks, hold the rows of the condensed system, which inner solves, then two per
        element."""
        Binv, C, G, cols = self[:4]
        # a vector keeps the einsum's last bits, and cols itself indexes its bincount
        nr, m, k = len(x) - 2 * len(Binv), x.shape[1:], x[0].size
        dot, at = (np.matmul, (cols[..., None] * k + np.arange(k)).ravel()) if m else (
            lambda A, b: np.einsum("eij,ej->ei", A, b), cols.ravel())
        y = dot(Binv, x[nr:].reshape(-1, 2, *m))  # B_e^-1 x_b
        z = np.bincount(at, dot(C.transpose(0, 2, 1), y).ravel(), (nr + 1) * k).reshape(
            nr + 1, *m)  # x_r - sum_e C_e^T y_e, one bincount for all columns
        z[:nr], z[nr] = inner(np.subtract(x[:nr], z[:nr], z[:nr])), 0.0  # slot nr: fixed
        return np.concatenate([z[:nr], (y - dot(G, z.take(cols, axis=0))).reshape(-1, *m)])


@dataclass(frozen=True)
class MixedSpace:
    """Dof bookkeeping for the MINI / P1 pair on a triangulation.

    Row e of elem_basis lists element e's basis functions: its three vertex hats,
    the hat of vertex i being basis function i, then its bubble, basis function
    n_nodes + e (bubbles can be dropped for the deliberately unstable P1/P1 control
    mode).  Component c of basis function i is displacement dof 2i + c; elem_dofs
    lists them per element in that order.  Pressure dofs: one per vertex.

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
    elem_basis: np.ndarray = field(init=False)
    elem_dofs: np.ndarray = field(init=False)
    free_dofs: np.ndarray = field(init=False)
    _plans: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.problem not in (1, 2):
            raise ValueError(f"unknown problem id {self.problem!r}; expected 1 or 2")
        nn, nt = self.mesh.n_nodes, self.mesh.n_triangles
        basis = self.mesh.triangles.astype(np.int64)
        if self.include_bubbles:  # element e's bubble is basis function n_nodes + e
            basis = np.hstack([basis, nn + np.arange(nt, dtype=np.int64)[:, None]])
        x, y = self.mesh.nodes.T
        side, bottom = np.abs(x) >= 1.0 - BOUNDARY_TOL, y <= -1.0 + BOUNDARY_TOL
        walls = side | bottom
        fixed = np.zeros((nn + self.include_bubbles * nt, 2), dtype=bool)
        fixed[:nn] = np.column_stack([walls] * 2 if self.problem == 1 else [side, bottom])
        dofs = (2 * basis[:, :, None] + (0, 1)).reshape(nt, -1)
        free = np.flatnonzero(~fixed)  # row-major: fixed[i, c] is dof 2i + c
        _read_only(basis, dofs, free)
        object.__setattr__(self, "n_u", fixed.size)
        object.__setattr__(self, "n_p", nn)
        object.__setattr__(self, "elem_basis", basis)
        object.__setattr__(self, "elem_dofs", dofs)
        object.__setattr__(self, "free_dofs", free)

    def numbering(self, reduced: bool, dofs=None):
        """Numbers of dofs (elem_dofs by default) and their count: the dofs and n_u, or if
        reduced the free dofs' numbers, fixed dofs numbered n = len(free_dofs), and n."""
        dofs = self.elem_dofs if dofs is None else dofs
        if not reduced:
            return dofs, self.n_u
        n = len(self.free_dofs)
        ids = np.full(self.n_u, n)
        ids[self.free_dofs] = np.arange(n)
        return ids[dofs], n

    @functools.cached_property
    def basis_pairs(self):
        """Sorted pattern of the pairs of elem_basis: its row pointer and columns over
        the basis functions, and place[e, a, b], where element e's pair (a, b) sits in
        its row."""
        nb = self.n_u // 2
        kt = np.uint32 if nb * nb <= 2 ** 32 else np.int64  # pair keys i * nb + j
        b = self.elem_basis.astype(kt)
        key = (b[:, :, None] * kt(nb) + b[:, None, :]).ravel()
        order = np.argsort(key, kind="stable")  # timsort: elements come in runs
        new = np.r_[True, (slots := key[order])[1:] != slots[:-1]]
        place = np.empty(b.shape + b.shape[1:], dtype=np.int32)
        place.reshape(-1)[order] = np.cumsum(new, dtype=np.int32) - 1
        bptr = np.r_[0, np.cumsum(np.bincount(slots[new] // kt(nb), minlength=nb))]
        place -= bptr[b][:, :, None]
        return _read_only(bptr.astype(np.int32), (slots[new] % kt(nb)).astype(np.int32),
                          place.astype(np.min_scalar_type(place.max())))

    def scatter_plan(self, form: str, reduced: bool = True) -> ScatterPlan:
        """Plan of the displacement ("uu"), coupling ("pu") or pressure ("pp")
        operators, built on first use.  Native layouts: uu[e, a, b, c, d]
        couples dofs 2a+c and 2b+d of element e, pu[e, p, j] vertex p with
        dof j, and pp[e, p, r] vertices p and r.

        Each plan derives from basis_pairs without a sort of its own: in the layout of
        the class docstring, row (i, c) starts after the free rows before it, each as
        wide as its basis row's free columns, and within it column (j, d) follows the
        free components of the columns before j, and (j, 0) if d = 1."""
        if (form, reduced) not in self._plans:
            (bptr, bcol, place), basis = self.basis_pairs, self.elem_basis
            rank = bptr[basis][:, :, None] + place  # pair (a, b)'s place in the pattern
            ids, n = (  # ids[j, d]: the number of dof 2j + d (in pp: of vertex j)
                (np.arange(self.n_u // 2)[:, None], self.n_p) if form == "pp"
                else self.numbering(reduced, np.arange(self.n_u).reshape(-1, 2)))
            ids, free = ids.astype(np.int32), ids < n
            row_free = free if form == "uu" else np.ones((self.n_p, 1), dtype=bool)
            G = np.pad(np.cumsum(np.take(free.sum(axis=1), bcol), dtype=np.int32), (1, 0))
            first = G[bptr[:len(row_free) + 1]]  # G[k]: the free columns before pair k
            width = row_free * np.diff(first)[:, None]
            ends = np.cumsum(width, dtype=np.int32).reshape(width.shape)
            nnz = int(ends[-1, -1])  # a fixed row or column goes past slot nnz:
            start = np.where(row_free, ends - width - first[:-1, None], nnz)
            shift = np.where(free, np.cumsum(free, axis=1, dtype=np.int32) - free, nnz)
            cols = np.take(ids, bcol[:bptr[len(row_free)]], axis=0).ravel()
            cols = cols[cols < n]  # each basis row's free columns, once per free row:
            indices = np.repeat(start[row_free], width[row_free])
            indices = cols[np.subtract(np.arange(nnz, dtype=np.int32), indices, indices)]
            ka, kb = (None, None) if form == "uu" else (3, 3 if form == "pp" else None)
            pos = G[rank[:, :ka, :kb]][..., None] + np.repeat(  # as [e, a, b, (c, d)]
                start, free.shape[1], axis=1).take(basis[:, :ka], axis=0)[:, :, None]
            pos += np.tile(shift, row_free.shape[1]).take(basis[:, :kb], axis=0)[:, None]
            self._plans[form, reduced] = ScatterPlan(
                (int(row_free.sum()), n), np.r_[0, ends[row_free]].astype(np.int32),
                indices, np.minimum(pos, nnz, out=pos).ravel())
        return self._plans[form, reduced]

    @functools.cached_property
    def geometry(self):
        """Vertices, jacobian determinants and inverse-transposed jacobians of the
        elements; the columns of J span the triangle edges."""
        p = self.mesh.nodes[self.mesh.triangles]
        J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        invJT = np.stack([J[:, 1, 1], -J[:, 1, 0], -J[:, 0, 1], J[:, 0, 0]], axis=-1)
        return _read_only(p, det, invJT.reshape(-1, 2, 2) / det[:, None, None])

    def reference(self, degree: int = QUAD_DEGREE):
        """Rule of this degree, reference basis values (k, nq) and gradients (k, nq, 2)."""
        return _reference(degree, self.include_bubbles)

    @functools.cached_property
    def condensation(self) -> Condensation:
        """Slot maps that eliminate the MINI bubbles from an operator of the "uu" plan:
        bb and bv, the slots of B_e and C_e; vertex, the plan of the free vertex block,
        numbered first, for C_e^T B_e^-1 C_e (a fixed vertex's entries go to its dropped
        slot); vv, the block's slots in the data (a fixed vertex takes slot nnz, read as
        zero); cols, the dofs of C_e's columns, nvf if fixed; eye, the identity."""
        plan, nt = self.scatter_plan("uu"), self.mesh.n_triangles
        nvf = int(np.searchsorted(self.free_dofs, 2 * self.mesh.n_nodes))
        pos = plan.pos.reshape(nt, 4, 4, 2, 2)  # [e, a, b, c, d], bubble a = 3
        vv = np.flatnonzero(plan.indices[:plan.indptr[nvf]] < nvf)
        to_vv = np.full(len(plan.indices) + 1, len(vv))
        to_vv[vv] = np.arange(len(vv))
        upd = to_vv[pos[:, :3, :3].transpose(0, 1, 3, 2, 4)].ravel()  # as [e, 6, 6]
        vertex = ScatterPlan((nvf, nvf), np.searchsorted(vv, plan.indptr[:nvf + 1]),
                             plan.indices[vv], upd)
        rows = np.repeat(np.arange(plan.shape[0]), np.diff(plan.indptr))
        return Condensation(*_read_only(
            pos[:, 3, 3], pos[:, 3, :3].transpose(0, 2, 1, 3).reshape(nt, 2, 6)), vertex,
            *_read_only(vv, np.minimum(self.numbering(True)[0][:, :6], nvf),
                        1.0 * (plan.indices == rows)))

    def condense(self, data, coupling=None):
        """The MINI bubbles of operator data over the "uu" plan eliminated element by
        element: Condensed(B_e^-1, C_e, G_e = B_e^-1 C_e, cols, the vertex Schur
        complement A_vv - sum_e C_e^T G_e, the B_e's count of negative eigenvalues), or
        None if a B_e is singular; ArithmeticError if data or a B_e's determinant
        overflowed.  Given coupling, B as assembled by the "pu" plan and C (or 0), the
        same of the saddle [[A, B^T], [B, C]], its pressures numbered first: C_e and G_e
        gain the columns of B_b,e^T, and saddle_B = B_v - sum_e B_b,e G_e and saddle_C =
        C - sum_e B_b,e B_e^-1 B_b,e^T follow."""
        c, ext = self.condensation, np.append(data, 0.0)
        B, C = ext[c.bb], ext[c.bv]
        with np.errstate(over="ignore", invalid="ignore"):
            det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        if not (np.isfinite(data).all() and np.isfinite(det).all()):
            raise ArithmeticError("the block has non-finite entries: the load overflows")
        if not np.all((det < 0.0) | (det > 0.0)):  # a zero determinant
            return None
        # a 2x2 block has one negative eigenvalue if det < 0, two if also b00 < 0
        below = int(np.sum(det < 0.0) + 2 * np.sum((det > 0.0) & (B[:, 0, 0] < 0.0)))
        Binv = np.stack([B[:, 1, 1], -B[:, 0, 1], -B[:, 1, 0], B[:, 0, 0]], axis=-1)
        Binv = (Binv / det[:, None]).reshape(-1, 2, 2)
        if coupling is not None:  # pos[e, p, j] of B, bubble dofs j = 6, 7
            pu, pp = self.scatter_plan("pu"), self.scatter_plan("pp")
            Bb = coupling[0].data[pu.pos.reshape(len(B), 3, 8)[:, :, 6:].transpose(0, 2, 1)]
            C = np.concatenate([C, Bb], axis=2)
        U = C.transpose(0, 2, 1) @ (G := Binv @ C)
        schur, nvf = c.vertex.assemble(-U[:, :6, :6]), c.vertex.shape[0]
        schur.data += data[c.vv]
        if coupling is None:
            return Condensed(Binv, C, G, c.cols, schur, below, None, None)
        BG = np.pad(U[:, 6:, :6], ((0, 0), (0, 0), (0, 2)))  # B_b,e G_e, none on bubbles
        return Condensed(Binv, C, G, np.hstack([c.cols + self.n_p, self.mesh.triangles]),
                         schur, below, (coupling[0] - pu.assemble(BG))[:, :nvf],
                         coupling[1] - pp.assemble(U[:, 6:, 6:]))
