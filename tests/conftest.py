import pytest

from spaqlab import motion_model


@pytest.fixture
def searched(monkeypatch):
    """Arguments of every block_match call made while the test runs."""
    calls = []
    real_block_match = motion_model.block_match
    monkeypatch.setattr(motion_model, "block_match",
                        lambda *a: calls.append(a) or real_block_match(*a))
    return calls
