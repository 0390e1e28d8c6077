"""Shared fixtures."""

import pytest

from stabmix import analysis

FACTOR_BUDGET = 200


@pytest.fixture
def factor_budget(monkeypatch):
    """Cap the factorizations of the critical-load search, so that a search that
    stops advancing fails the test instead of hanging.  Each one is an
    analysis.factor_with_inertia: the ray, A(a), tangent, end and kernel
    certificate tests and the shifts of lambda_min alike."""
    real = analysis.factor_with_inertia
    calls = []

    def budgeted(A):
        calls.append(None)
        if len(calls) > FACTOR_BUDGET:
            pytest.fail(f"more than {FACTOR_BUDGET} factorizations")
        return real(A)

    monkeypatch.setattr(analysis, "factor_with_inertia", budgeted)
