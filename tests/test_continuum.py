"""The continuous problem's critical loads from the spectral oracle in continuum.py."""

import pytest

from continuum import critical_load


def test_problem2_critical_load_converged():
    # with v.n = 0 on the sides and the bottom the kernel's modes are smooth, so the
    # Galerkin bounds agree to ten digits from N = 10 on
    for N in (10, 14):
        assert critical_load(2, N) == pytest.approx(3.2273479017, abs=1e-9)


def test_problem1_upper_bounds_fall():
    # the clamped sides meet the free top in singular corners, so problem 1's upper
    # bounds fall slowly (like N^-3.2, towards about 6.595)
    table = {6: 6.645706365831183, 10: 6.607916773298275, 14: 6.601302568744704}
    loads = [critical_load(1, N) for N in table]
    assert loads[0] > loads[1] > loads[2]
    assert loads == pytest.approx(list(table.values()), abs=1e-6)
