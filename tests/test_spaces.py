"""Quadrature rules, reference bases, dof maps, boundary conditions and scatter plans."""

import dataclasses
import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmix import MixedSpace, build_structured_mesh, make_quadrature
from stabmix.mesh import TriMesh
from stabmix.spaces import MAX_QUAD_DEGREE, QuadratureRule, tabulate_scalar_basis


def reference_monomial_integral(p, q):
    # int over {x,y >= 0, x+y <= 1} of x^p y^q
    return factorial(p) * factorial(q) / factorial(p + q + 2)


def test_weights_sum_to_half():
    for degree in (1, 2, 4, 6, 10):
        rule = make_quadrature(degree)
        assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)


def test_quadrature_frozen_examples():
    rule = make_quadrature(6)
    x, y = rule.points[:, 1], rule.points[:, 2]
    assert (rule.weights * np.ones_like(x)).sum() == pytest.approx(0.5, abs=1e-14)
    assert (rule.weights * x * y).sum() == pytest.approx(1.0 / 24.0, abs=1e-14)
    assert (rule.weights * x ** 6).sum() == pytest.approx(1.0 / 56.0, abs=1e-14)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_quadrature_exact_for_monomials(degree, data):
    p = data.draw(st.integers(min_value=0, max_value=degree))
    q = data.draw(st.integers(min_value=0, max_value=degree - p))
    rule = make_quadrature(degree)
    x, y = rule.points[:, 1], rule.points[:, 2]
    val = (rule.weights * x ** p * y ** q).sum()
    assert val == pytest.approx(reference_monomial_integral(p, q), abs=2e-14)


def test_unsupported_degree_lists_supported():
    with pytest.raises(ValueError, match="supported"):
        make_quadrature(0)
    with pytest.raises(ValueError, match="supported"):
        make_quadrature(MAX_QUAD_DEGREE + 1)
    with pytest.raises(ValueError):
        make_quadrature(2.5)


def table_at(*points, include_bubble=True):
    """Basis table at hand-picked barycentric points, through a rule that
    carries them."""
    pts = np.array(points, dtype=float)
    weights = np.full(len(pts), 0.5 / len(pts))
    return tabulate_scalar_basis(QuadratureRule(pts, weights), include_bubble)


def test_bubble_values():
    l1, l2, l3 = 0.2, 0.5, 0.3
    vals, grads = table_at([1 / 3, 1 / 3, 1 / 3], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                           [0.0, 0.3, 0.7], [l1, l2, l3])
    assert vals.shape == (4, 6) and grads.shape == (4, 6, 2)
    assert vals[3, 0] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(grads[3, 0], 0.0, atol=1e-14)
    # vanishes at the vertices and along each edge (one coordinate zero)
    assert np.allclose(vals[3, 1:5], 0.0, atol=1e-15)
    # chain rule through lam1 = 1-x-y, lam2 = x, lam3 = y
    expected = 27.0 * np.array([l1 * l3 - l2 * l3, l1 * l2 - l2 * l3])
    assert np.allclose(grads[3, 5], expected, atol=1e-14)


def test_bubble_integral():
    rule = make_quadrature(6)
    vals, _ = tabulate_scalar_basis(rule, include_bubble=True)
    assert (rule.weights * vals[3]).sum() == pytest.approx(9.0 / 40.0, abs=1e-14)


def test_p1_basis():
    vals, grads = table_at([0.2, 0.5, 0.3], include_bubble=False)
    assert vals.shape == (3, 1) and grads.shape == (3, 1, 2)
    assert np.allclose(vals[:, 0], [0.2, 0.5, 0.3])
    assert np.allclose(grads[:, 0], [[-1, -1], [1, 0], [0, 1]])


@settings(deadline=None, max_examples=50)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_partition_of_unity(a, b):
    l1 = a
    l2 = (1.0 - a) * b
    l3 = 1.0 - l1 - l2
    vals, grads = table_at([l1, l2, max(l3, 0.0)])
    assert vals[:3].sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(grads[:3].sum(axis=0), 0.0, atol=1e-14)


def test_quadrature_points_in_triangle():
    for degree in range(1, MAX_QUAD_DEGREE + 1):
        pts = make_quadrature(degree).points
        assert np.all(pts >= 0.0)
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-15, rtol=0.0)


def test_dof_counts():
    mesh = build_structured_mesh(5)
    space = MixedSpace(mesh, problem=1)
    assert space.n_u == 2 * (25 + 32)
    assert space.n_p == 25
    assert space.elem_dofs.shape == (32, 8)
    nobubble = MixedSpace(mesh, problem=1, include_bubbles=False)
    assert nobubble.n_u == 2 * 25
    assert nobubble.elem_dofs.shape == (32, 6)


@pytest.mark.parametrize("renumber", [False, True])
@pytest.mark.parametrize("include_bubbles", [True, False])
@pytest.mark.parametrize("problem", [1, 2])
def test_elem_dofs_follow_the_triangles(problem, include_bubbles, renumber):
    # row e: x and y of vertices t0, t1, t2 of triangle e, then x and y of its bubble,
    # basis function n_nodes + e; the bubbles are never fixed
    for n in (2, 3, 5, 9):
        mesh = build_structured_mesh(n)
        mesh = renumbered(mesh, seed=n) if renumber else mesh
        space = MixedSpace(mesh, problem, include_bubbles)
        nn = mesh.n_nodes
        rows = [[d for t in tri for d in (2 * t, 2 * t + 1)]
                + ([2 * (nn + e), 2 * (nn + e) + 1] if include_bubbles else [])
                for e, tri in enumerate(mesh.triangles.tolist())]
        assert space.elem_dofs.dtype == np.int64 and space.elem_dofs.tolist() == rows
        assert space.free_dofs.dtype == np.int64
        assert space.n_u == 2 * (nn + include_bubbles * mesh.n_triangles)
        assert np.isin(np.arange(2 * nn, space.n_u), space.free_dofs).all()


def test_unknown_problem():
    mesh = build_structured_mesh(3)
    with pytest.raises(ValueError):
        MixedSpace(mesh, problem=3)


def fixed_dofs(space):
    """The constrained displacement dofs: the complement of free_dofs."""
    return np.setdiff1d(np.arange(space.n_u), space.free_dofs)


def reference_fixed_dofs(mesh, problem, tol=1e-12):
    """Per-node classification of the fixed dofs, written out side by side.

    A node is on the constrained boundary when it lies on the left, right
    or bottom side; the open top alone (y = 1, -1 < x < 1) is free.
    Problem 1 fixes both components there, problem 2 the normal one: x on
    the left and right sides, y on the bottom.
    """
    fixed = []
    for k, (x, y) in enumerate(mesh.nodes):
        sides = set()
        if x <= -1.0 + tol:
            sides.add("left")
        if x >= 1.0 - tol:
            sides.add("right")
        if y <= -1.0 + tol:
            sides.add("bottom")
        if not sides:
            continue
        if problem == 1 or sides & {"left", "right"}:
            fixed.append(2 * k)
        if problem == 1 or "bottom" in sides:
            fixed.append(2 * k + 1)
    return fixed


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=2, max_value=40), st.sampled_from([1, 2]),
       st.booleans())
def test_free_dofs_match_node_classification(n, problem, include_bubbles):
    mesh = build_structured_mesh(n)
    space = MixedSpace(mesh, problem=problem, include_bubbles=include_bubbles)
    expected_fixed = reference_fixed_dofs(mesh, problem)
    expected_free = sorted(set(range(space.n_u)) - set(expected_fixed))
    assert space.free_dofs.tolist() == expected_free


@pytest.mark.parametrize("n", [3, 5, 9])
def test_constraint_counts(n):
    mesh = build_structured_mesh(n)
    clamped = MixedSpace(mesh, problem=1)
    sliding = MixedSpace(mesh, problem=2)
    n_gamma_d = 4 * (n - 1) - (n - 2)  # all boundary nodes minus open top
    assert len(fixed_dofs(clamped)) == 2 * n_gamma_d
    assert len(fixed_dofs(sliding)) == n_gamma_d + 2  # bottom corners twice


def test_constraint_dofs_valid_and_unique():
    mesh = build_structured_mesh(7)
    for problem in (1, 2):
        space = MixedSpace(mesh, problem=problem)
        free = space.free_dofs
        assert np.all(np.diff(free) > 0)  # sorted, no repeats
        assert 0 <= free[0] and free[-1] < space.n_u
        # bubbles vanish on element boundaries and are never constrained
        assert np.all(fixed_dofs(space) < 2 * mesh.n_nodes)
        assert len(fixed_dofs(space)) + len(free) == space.n_u


def test_constraint_components():
    mesh = build_structured_mesh(5)
    xy = {tuple(mesh.nodes[k]): k for k in range(mesh.n_nodes)}

    clamped = set(fixed_dofs(MixedSpace(mesh, problem=1)).tolist())
    k = xy[(-1.0, 0.0)]
    assert 2 * k in clamped and 2 * k + 1 in clamped

    sliding = set(fixed_dofs(MixedSpace(mesh, problem=2)).tolist())
    k = xy[(0.0, -1.0)]            # bottom edge: normal is vertical
    assert 2 * k not in sliding and 2 * k + 1 in sliding
    k = xy[(-1.0, 0.5)]            # side edge: normal is horizontal
    assert 2 * k in sliding and 2 * k + 1 not in sliding
    k = xy[(-1.0, -1.0)]           # bottom corner: two normals meet
    assert 2 * k in sliding and 2 * k + 1 in sliding
    k = xy[(1.0, 1.0)]             # top corner: side-edge normal only
    assert 2 * k in sliding and 2 * k + 1 not in sliding
    k = xy[(0.0, 1.0)]             # open top: traction free
    assert 2 * k not in sliding and 2 * k + 1 not in sliding


def sorted_plan(space, form, reduced):
    """shape, indptr, indices and pos of a plan by one sort of the keys row * n_c + col
    of every element-tensor entry, fixed dofs keyed last: the builder that plans were
    derived by before basis-function pairs, kept as their oracle."""
    u, n = space.numbering(reduced)
    ub, tri = u.reshape(len(u), -1, 2), space.mesh.triangles
    rows, cols, shape = {
        "uu": (ub[:, :, None, :, None], ub[:, None, :, None, :], (n, n)),
        "pu": (tri[:, :, None], u[:, None, :], (space.n_p, n)),
        "pp": (tri[:, :, None], tri[:, None, :], (space.n_p, space.n_p)),
    }[form]
    n_r, n_c = shape
    key = rows * np.int64(n_c) + cols
    key[(rows == n_r) | (cols == n_c)] = n_r * n_c  # slot nnz
    key = key.ravel()
    slots = np.unique(key)
    pos = np.searchsorted(slots, key)
    slots = slots[:np.searchsorted(slots, n_r * n_c)]
    return shape, np.searchsorted(slots, np.arange(n_r + 1) * np.int64(n_c)), slots % n_c, pos


def assert_plans_match_oracle(space, reduced_options=(True, False)):
    for form in ("uu", "pu", "pp"):
        for reduced in reduced_options:
            plan = space.scatter_plan(form, reduced)
            shape, indptr, indices, pos = sorted_plan(space, form, reduced)
            where = (space.mesh.n_nodes, space.problem, space.include_bubbles, form, reduced)
            assert plan.shape == shape, where
            for got, want in zip((plan.indptr, plan.indices, plan.pos), (indptr, indices, pos)):
                assert got.dtype == np.int32 and np.array_equal(got, want), where


def renumbered(mesh, seed):
    """The mesh with its nodes and triangles in random order and each triangle's
    vertices rotated at random, so counterclockwise still."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(mesh.n_nodes)  # new node j is old node order[j]
    tri = np.argsort(order)[mesh.triangles][rng.permutation(mesh.n_triangles)]
    turn = (np.arange(3) + rng.integers(3, size=(len(tri), 1))) % 3
    return TriMesh(mesh.nodes[order], np.take_along_axis(tri, turn, axis=1))


@pytest.mark.parametrize("renumber", [False, True])
@pytest.mark.parametrize("include_bubbles", [True, False])
@pytest.mark.parametrize("problem", [1, 2])
def test_scatter_plans_match_sorted_oracle(problem, include_bubbles, renumber):
    # the derivation from basis-function pairs needs no structured numbering
    for n in range(2, 18):
        mesh = build_structured_mesh(n)
        mesh = renumbered(mesh, seed=n) if renumber else mesh
        assert_plans_match_oracle(MixedSpace(mesh, problem, include_bubbles))


def test_scatter_plans_with_wide_pair_keys():
    # 70000 nodes, all but 25 in no triangle and numbered first: the pair keys
    # i * n_basis + j outgrow 32 bits, and most basis functions pair with nothing
    small = build_structured_mesh(5)
    far = np.random.default_rng(0).uniform(-0.9, 0.9, (70000 - small.n_nodes, 2))
    mesh = TriMesh(np.vstack([far, small.nodes]), small.triangles + len(far))
    for problem in (1, 2):
        for include_bubbles in (True, False):
            space = MixedSpace(mesh, problem, include_bubbles)
            assert (space.n_u // 2) ** 2 > 2 ** 32
            assert_plans_match_oracle(space)


@pytest.mark.slow
@pytest.mark.parametrize("problem", [1, 2])
def test_scatter_plans_at_65(problem):
    # a fresh 65x65 space builds its three plans from one sort of 131072 pair keys;
    # 5.2 MB of them are the plans' own arrays
    space = MixedSpace(build_structured_mesh(65), problem=problem)
    tracemalloc.start()
    try:
        for form in ("uu", "pu", "pp"):
            space.scatter_plan(form)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9e6 and retained <= 6e6
    assert_plans_match_oracle(space)


def test_assembly_sums_like_bincount():
    # np.add.at takes each slot's entries in element order, as np.bincount did
    rng = np.random.default_rng(0)
    for n in (2, 5, 9, 17):
        space = MixedSpace(build_structured_mesh(n), problem=n % 2 + 1)
        for form in ("uu", "pu", "pp"):
            plan = space.scatter_plan(form)
            tensor = rng.standard_normal(len(plan.pos)) * 10.0 ** rng.integers(-8, 8, len(plan.pos))
            want = np.bincount(plan.pos, tensor, minlength=len(plan.indices) + 1)[:-1]
            assert plan.assemble(tensor).data.tobytes() == want.tobytes(), (n, form)


def _arrays(value):
    """The arrays in value, through tuples and dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def test_cached_members_are_read_only_and_built_once():
    # every operator, condensation and shift data - s*eye of the space shares
    # these arrays; none but the layout (elem_basis, elem_dofs, free_dofs) is built
    # with the space
    space = MixedSpace(build_structured_mesh(5), problem=1)
    assert space._plans == {} and not {"geometry", "basis_pairs", "condensation"} & set(
        vars(space))
    members = {"geometry": lambda: space.geometry,
               "reference(6)": lambda: space.reference(6),
               "reference(10)": lambda: space.reference(10),
               "basis_pairs": lambda: space.basis_pairs,
               "condensation": lambda: space.condensation}
    members.update({form: lambda form=form: space.scatter_plan(form)
                    for form in ("uu", "pu", "pp")})
    members.update({name: lambda name=name: getattr(space, name)
                    for name in ("elem_basis", "elem_dofs", "free_dofs")})
    for name, member in members.items():
        value = member()
        assert member() is value, name
        arrays = list(_arrays(value))
        assert arrays and not any(a.flags.writeable for a in arrays), name
        with pytest.raises(ValueError, match="read-only"):
            arrays[-1][(0,) * arrays[-1].ndim] = 0
    assert space.reference() is space.reference(6)
