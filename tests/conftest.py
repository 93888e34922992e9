"""Fixtures that every test uses."""

import pytest

from nomacast import montecarlo


@pytest.fixture(autouse=True)
def no_pool_outlives_its_test():
    """Shut down the process pool a test leaves, so each test starts with none:
    a pool's workers run the engine as it was when the pool started, which a
    later test's monkeypatch of the engine would not reach."""
    yield
    montecarlo.close_pool()
