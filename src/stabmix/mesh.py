"""Structured triangulations of the reference square (-1, 1) x (-1, 1).

The physical setup lives on a square body whose upper edge (y = +1) is
traction free while the remaining three sides carry displacement
constraints; ``spaces.MixedSpace`` reads those sides off the node
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TriMesh:
    """Triangulation of (-1,1)^2: vertex coordinates (n_nodes, 2) and
    counterclockwise vertex indices (n_tris, 3)."""

    nodes: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.triangles.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def build_structured_mesh(n: int) -> TriMesh:
    """Uniform n x n node grid on [-1,1]^2, cells split along the
    lower-right to upper-left diagonal.

    The diagonal orientation is observable in the reference results this
    package reproduces (the manufactured load grows with x, so the two
    diagonal choices are not equivalent for it); this one matches.
    Raises ValueError if n < 2 (no cells).
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"mesh resolution must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"mesh resolution must be >= 2 nodes per side, got {n}")

    ticks = np.linspace(-1.0, 1.0, n)
    xv, yv = np.meshgrid(ticks, ticks, indexing="xy")
    nodes = np.column_stack([xv.ravel(), yv.ravel()])

    # cell (i, j), row by row, has corners a, b, c, d counterclockwise from
    # its lower left (node j*n + i) and splits into (a, b, d) and (b, c, d)
    a = (np.arange(n - 1)[:, None] * n + np.arange(n - 1, dtype=np.int64)).ravel()
    b, c, d = a + 1, a + n + 1, a + n
    triangles = np.stack([a, b, d, b, c, d], axis=1).reshape(-1, 3)
    return TriMesh(nodes=nodes, triangles=triangles)
