"""Fixtures shared across test modules."""

import pytest

from quadprop import verify


@pytest.fixture(scope="session")
def verify_summary():
    """The ``quadprop verify`` summary, run once per session: test_verify
    pins its schema and the acceptance criteria read their checks."""
    return verify.run_all()


@pytest.fixture
def record(monkeypatch):
    """``record(module, name)`` wraps ``module.name`` for the test and returns
    the list to which each call appends (args, kwargs, result)."""
    def wrap(module, name):
        calls, real = [], getattr(module, name)

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append((args, kwargs, out))
            return out

        monkeypatch.setattr(module, name, recording)
        return calls
    return wrap
