import pytest

from spaqlab import motion_model


@pytest.fixture
def searched(monkeypatch):
    """Every PU that block_match searches while the test runs."""
    pus = []
    real_block_match = motion_model.block_match
    monkeypatch.setattr(
        motion_model, "block_match",
        lambda cur, ref, group, *a: pus.extend(group)
        or real_block_match(cur, ref, group, *a))
    return pus
