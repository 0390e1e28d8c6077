"""Structured triangulations of the reference square (-1, 1) x (-1, 1).

The physical setup lives on a square body whose upper edge (y = +1) is
traction free while the remaining three sides carry displacement
constraints.  Boundary edges and nodes are therefore tagged with one of
two labels: ``GAMMA_TOP`` for the free upper edge and ``GAMMA_D`` for the
constrained rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAMMA_TOP = "gamma_top"
GAMMA_D = "gamma_d"
INTERIOR = "interior"


@dataclass(frozen=True)
class TriMesh:
    """Triangulation of (-1,1)^2 from a uniform n x n node grid.

    Attributes
    ----------
    grid_n : nodes per side of the generating grid
    nodes : (n_nodes, 2) vertex coordinates
    triangles : (n_tris, 3) vertex indices, counterclockwise
    boundary_edges : sorted vertex pair -> GAMMA_TOP or GAMMA_D
    """

    grid_n: int
    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: dict[tuple[int, int], str]

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.triangles.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def h(self) -> float:
        """Grid spacing 2/(n-1)."""
        return 2.0 / (self.grid_n - 1)

    def signed_areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


@dataclass(frozen=True)
class NodeClass:
    """Boundary classification of a single node.

    ``sides`` lists which closed square sides ("left", "right", "bottom",
    "top") contain the node; corners sit on two of them.
    """

    kind: str
    sides: frozenset


def build_structured_mesh(n: int) -> TriMesh:
    """Uniform n x n node grid on [-1,1]^2, cells split along the
    lower-right to upper-left diagonal.

    The diagonal orientation is observable in the reference results this
    package reproduces (the manufactured load grows with x, so the two
    criss patterns are not equivalent for it); this one matches.

    Raises
    ------
    ValueError
        if n < 2 (no cells).
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"mesh resolution must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"mesh resolution must be >= 2 nodes per side, got {n}")

    ticks = np.linspace(-1.0, 1.0, n)
    xv, yv = np.meshgrid(ticks, ticks, indexing="xy")
    nodes = np.column_stack([xv.ravel(), yv.ravel()])

    def nid(i, j):
        return j * n + i

    # cell (i, j), row by row, has corners a, b, c, d counterclockwise from
    # its lower left and splits into (a, b, d) and (b, c, d)
    a = nid(np.arange(n - 1, dtype=np.int64), np.arange(n - 1)[:, None]).ravel()
    b, c, d = a + 1, a + n + 1, a + n
    triangles = np.stack([a, b, d, b, c, d], axis=1).reshape(-1, 3)

    boundary_edges: dict[tuple[int, int], str] = {}
    for k in range(n - 1):
        bottom = (nid(k, 0), nid(k + 1, 0))
        top = (nid(k, n - 1), nid(k + 1, n - 1))
        left = (nid(0, k), nid(0, k + 1))
        right = (nid(n - 1, k), nid(n - 1, k + 1))
        boundary_edges[_key(*bottom)] = GAMMA_D
        boundary_edges[_key(*left)] = GAMMA_D
        boundary_edges[_key(*right)] = GAMMA_D
        boundary_edges[_key(*top)] = GAMMA_TOP

    return TriMesh(grid_n=n, nodes=nodes, triangles=triangles,
                   boundary_edges=boundary_edges)


def _key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def classify_boundary_nodes(mesh: TriMesh, tol: float = 1e-12) -> dict[int, NodeClass]:
    """Classify every node as interior, free-top or constrained boundary.

    Nodes with y = 1 and -1 < x < 1 are GAMMA_TOP.  Everything else on
    the boundary is GAMMA_D, including the two upper corners: the closed
    side edges win there, so the side constraint applies.  Lower corners
    sit on two constrained sides at once.
    """
    out = {}
    x = mesh.nodes[:, 0]
    y = mesh.nodes[:, 1]
    for k in range(mesh.n_nodes):
        sides = set()
        if x[k] <= -1.0 + tol:
            sides.add("left")
        if x[k] >= 1.0 - tol:
            sides.add("right")
        if y[k] <= -1.0 + tol:
            sides.add("bottom")
        if y[k] >= 1.0 - tol:
            sides.add("top")
        if not sides:
            kind = INTERIOR
        elif sides == {"top"}:
            kind = GAMMA_TOP
        else:
            kind = GAMMA_D
        out[k] = NodeClass(kind=kind, sides=frozenset(sides))
    return out
