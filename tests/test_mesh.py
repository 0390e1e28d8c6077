"""Mesh construction, tagging and classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmix import (GAMMA_D, GAMMA_TOP, INTERIOR, build_structured_mesh,
                     classify_boundary_nodes)


def test_counts_smallest_mesh():
    mesh = build_structured_mesh(2)
    assert mesh.n_nodes == 4
    assert mesh.n_triangles == 2
    assert mesh.signed_areas().sum() == pytest.approx(4.0, abs=1e-12)


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
    areas = mesh.signed_areas()
    assert np.all(areas > 0)
    assert abs(areas.sum() - 4.0) <= 1e-12
    assert mesh.h == pytest.approx(2.0 / (n - 1))


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=2, max_value=15))
def test_edge_sharing(n):
    mesh = build_structured_mesh(n)
    counts = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    boundary = set(mesh.boundary_edges)
    for key, cnt in counts.items():
        if key in boundary:
            assert cnt == 1
        else:
            assert cnt == 2
    # every tagged edge is a real mesh edge with exactly one tag
    assert boundary <= set(counts)


def test_boundary_tags():
    mesh = build_structured_mesh(5)
    for (i, j), tag in mesh.boundary_edges.items():
        both_top = mesh.nodes[i, 1] == 1.0 and mesh.nodes[j, 1] == 1.0
        assert tag == (GAMMA_TOP if both_top else GAMMA_D)
    n_boundary_edges = sum(1 for _ in mesh.boundary_edges)
    assert n_boundary_edges == 4 * 4


def test_refinement_halves_h():
    for n in (5, 9, 17):
        coarse = build_structured_mesh(n)
        fine = build_structured_mesh(2 * n - 1)
        assert fine.h == pytest.approx(coarse.h / 2.0)


def test_classification():
    mesh = build_structured_mesh(5)
    classes = classify_boundary_nodes(mesh)
    coords = {tuple(mesh.nodes[k]): cls for k, cls in classes.items()}
    assert coords[(0.0, 1.0)].kind == GAMMA_TOP
    assert coords[(-1.0, 0.0)].kind == GAMMA_D
    assert coords[(0.0, 0.0)].kind == INTERIOR
    # the top corners belong to the constrained closed sides
    assert coords[(1.0, 1.0)].kind == GAMMA_D
    assert coords[(1.0, 1.0)].sides == {"right", "top"}
    assert coords[(-1.0, 1.0)].kind == GAMMA_D
    # bottom corners sit on two constrained sides at once
    assert coords[(-1.0, -1.0)].sides == {"left", "bottom"}


def test_mesh_is_readonly():
    mesh = build_structured_mesh(3)
    with pytest.raises(ValueError):
        mesh.nodes[0, 0] = 7.0
    with pytest.raises(ValueError):
        mesh.triangles[0, 0] = 5
