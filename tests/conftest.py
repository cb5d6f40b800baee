from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from qitbench.encodings import bag_of, omega_tree_of

FIXTURES = Path(__file__).parent / "fixtures"

# Selected with ``--hypothesis-profile=ci``: the same examples on every run,
# and more of them where a test does not set its own count.
settings.register_profile("ci", derandomize=True, max_examples=300)


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def bag():
    return bag_of(("a", "b"))


@pytest.fixture(scope="session")
def bag_a():
    return bag_of(("a",))


@pytest.fixture(scope="session")
def omega_tree():
    return omega_tree_of(("a", "b"), 2, [((0, 1), (1, 0))])
