"""Fixtures for every test module."""

import pytest

from aqsim import attacks


@pytest.fixture(autouse=True)
def two_usable_cpus(monkeypatch):
    """map_trials splits its blocks as on a host with two usable CPUs,
    whatever this host has, so no test forks more than one child."""
    monkeypatch.setattr(attacks, "_usable_cpus", lambda: 2)
