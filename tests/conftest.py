"""Fixtures shared across test modules."""

import pytest

from quadprop import verify


@pytest.fixture(scope="session")
def verify_summary():
    """The ``quadprop verify`` summary, run once per session: test_verify
    pins its schema and the acceptance criteria read their checks."""
    return verify.run_all()
