"""Mesh construction, and the boundary sides the spaces read off it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmix import MixedSpace, build_structured_mesh


def signed_areas(mesh):
    p = mesh.nodes[mesh.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def spacing(mesh):
    """The distinct gaps between neighbouring x and y grid lines."""
    return {float(g) for axis in (0, 1)
            for g in np.round(np.diff(np.unique(mesh.nodes[:, axis])), 12)}


def test_counts_smallest_mesh():
    mesh = build_structured_mesh(2)
    assert mesh.n_nodes == 4
    assert mesh.n_triangles == 2
    assert signed_areas(mesh).sum() == pytest.approx(4.0, abs=1e-12)


def test_counts_reference_meshes():
    mesh = build_structured_mesh(5)
    assert mesh.n_nodes == 25
    assert mesh.n_triangles == 32
    mesh = build_structured_mesh(33)
    assert mesh.n_nodes == 1089
    assert mesh.n_triangles == 2048


def test_invalid_resolution():
    with pytest.raises(ValueError):
        build_structured_mesh(1)
    with pytest.raises(ValueError):
        build_structured_mesh(0)
    with pytest.raises(ValueError):
        build_structured_mesh(2.5)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=30))
def test_mesh_invariants(n):
    mesh = build_structured_mesh(n)
    assert mesh.n_nodes == n * n
    assert mesh.n_triangles == 2 * (n - 1) ** 2
    areas = signed_areas(mesh)
    assert np.all(areas > 0)
    assert abs(areas.sum() - 4.0) <= 1e-12
    assert spacing(mesh) == {round(2.0 / (n - 1), 12)}


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=2, max_value=15))
def test_edge_sharing(n):
    mesh = build_structured_mesh(n)
    counts = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    # a boundary edge has both ends on one side x = +-1 or y = +-1
    x, y = mesh.nodes.T
    boundary = {(i, j) for i, j in counts
                if any(abs(c[i]) == 1.0 and c[i] == c[j] for c in (x, y))}
    assert len(boundary) == 4 * (n - 1)
    for key, cnt in counts.items():
        assert cnt == (1 if key in boundary else 2)


def test_refinement_halves_h():
    for n in (5, 9, 17):
        (coarse,) = spacing(build_structured_mesh(n))
        (fine,) = spacing(build_structured_mesh(2 * n - 1))
        assert fine == pytest.approx(coarse / 2.0)


def test_classification():
    """Which displacement components each kind of node has fixed, as
    (x fixed, y fixed) per problem."""
    mesh = build_structured_mesh(5)
    fixed = {}
    for problem in (1, 2):
        space = MixedSpace(mesh, problem=problem)
        free = set(space.free_dofs.tolist())
        for k in range(mesh.n_nodes):
            key = (problem, *mesh.nodes[k])
            fixed[key] = (2 * k not in free, 2 * k + 1 not in free)
    # the open top is traction free, the interior unconstrained
    assert fixed[(1, 0.0, 1.0)] == fixed[(2, 0.0, 1.0)] == (False, False)
    assert fixed[(1, 0.0, 0.0)] == fixed[(2, 0.0, 0.0)] == (False, False)
    assert fixed[(1, -1.0, 0.0)] == (True, True)
    # the top corners belong to the constrained closed sides
    assert fixed[(1, 1.0, 1.0)] == fixed[(1, -1.0, 1.0)] == (True, True)
    assert fixed[(2, 1.0, 1.0)] == fixed[(2, -1.0, 1.0)] == (True, False)
    # bottom corners sit on two constrained sides at once
    assert fixed[(2, -1.0, -1.0)] == fixed[(2, 1.0, -1.0)] == (True, True)


def test_mesh_is_readonly():
    mesh = build_structured_mesh(3)
    with pytest.raises(ValueError):
        mesh.nodes[0, 0] = 7.0
    with pytest.raises(ValueError):
        mesh.triangles[0, 0] = 5
