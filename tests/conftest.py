"""Fixtures shared by the test modules."""

import pytest

import zenosim.cli


@pytest.fixture
def fresh_models():
    """No seeded model kept by the CLI before the test and after it, so each run builds its own."""
    zenosim.cli._kept_model.cache_clear()
    yield
    zenosim.cli._kept_model.cache_clear()
