"""Fixtures shared by the test modules."""

import zlib

import numpy as np
import pytest


@pytest.fixture
def rng(request) -> np.random.Generator:
    """A generator seeded from the test's node id: a test draws the same inputs whichever tests run before it."""
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))
