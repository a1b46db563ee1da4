"""Shared fixtures: toy registries and block-sequence builders."""

from fractions import Fraction

import pytest

from bdspace.cli import forge_arena as arena
from bdspace.engine import Engine
from bdspace.registry import Registry, WAIVE, XK
from bdspace.schedule import slow_toy_schedule, validate_schedule
from bdspace.spaces import SignedUnits, generate_up_to


@pytest.fixture(scope="session")
def stage6():
    """The standard stage-6 toy registry (two weights, signed units)."""
    registry = Registry(validate_schedule((4, 16), (6, 1)), discipline=XK,
                        odd_guard=WAIVE, stage_cap=20000)
    generate_up_to(registry, 6, SignedUnits())
    return registry, Engine(registry)


@pytest.fixture(scope="session")
def rich5():
    """A Type2-richer toy registry generated to stage 5."""
    registry = Registry(validate_schedule((4, 16), (6, 2)), discipline=XK,
                        odd_guard=WAIVE, stage_cap=20000)
    generate_up_to(registry, 5, SignedUnits())
    return registry, Engine(registry)


@pytest.fixture()
def forge_arena():
    """Factory for empty slow-schedule registries for tower forging."""

    def build(length=2048):
        registry = arena(slow_toy_schedule(length))
        return registry, Engine(registry)

    return build


@pytest.fixture()
def half():
    return Fraction(1, 2)
