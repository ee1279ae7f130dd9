"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests that need raw randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_n() -> int:
    """A small problem size that keeps unit tests fast."""
    return 256


@pytest.fixture
def medium_n() -> int:
    """A medium problem size for statistical assertions."""
    return 3 * 2 ** 10


@pytest.fixture
def no_backend(monkeypatch):
    """Make this test run as if on a host without the compiled backend."""
    monkeypatch.setenv("REPRO_COMPILED_DISABLE", "1")
