"""Shared fixtures."""

import pytest

from stabmix import analysis

FACTOR_BUDGET = 200


@pytest.fixture
def factor_budget(monkeypatch):
    """Cap the positive-definiteness tests of the critical-load search, so
    that a search that stops advancing fails the test instead of hanging."""
    real = analysis.positive_definite_factor
    calls = []

    def budgeted(A):
        calls.append(None)
        if len(calls) > FACTOR_BUDGET:
            pytest.fail(f"more than {FACTOR_BUDGET} positive-definiteness tests")
        return real(A)

    monkeypatch.setattr(analysis, "positive_definite_factor", budgeted)
