"""Lets child processes started by the tests import the package from `src/`
and treat a RuntimeWarning as an error, as pytest does in its own process;
counts calls of package functions for the work-count tests."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
# a filter the caller set comes later, so it wins where the two disagree
os.environ["PYTHONWARNINGS"] = ",".join(
    w for w in ("error::RuntimeWarning", os.environ.get("PYTHONWARNINGS")) if w)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name; returns the list of its calls."""
    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install
