"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import topologies
from repro.core import framework


@pytest.fixture
def cold_setup(monkeypatch):
    """Give the test a fresh process-wide setup cache.

    The fixture's value installs another fresh cache when called and
    returns it, for a test that needs setup to run cold more than once.
    """

    def fresh() -> framework.PreparedCache:
        cache = framework.PreparedCache()
        monkeypatch.setattr(framework, "_PREPARED", cache)
        return cache

    fresh()
    return fresh


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def path8():
    return topologies.path(8)


@pytest.fixture
def grid45():
    return topologies.grid(4, 5)


@pytest.fixture
def star10():
    return topologies.star(10)


@pytest.fixture
def petersen():
    return topologies.petersen()


@pytest.fixture(
    params=["path", "grid", "star", "petersen", "complete", "tree"],
)
def small_network(request):
    """A parametrized family of small topologies for protocol tests."""
    return {
        "path": topologies.path(9),
        "grid": topologies.grid(3, 4),
        "star": topologies.star(7),
        "petersen": topologies.petersen(),
        "complete": topologies.complete(6),
        "tree": topologies.balanced_tree(2, 3),
    }[request.param]
