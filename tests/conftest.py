import pytest

from affinewalk import indexing


@pytest.fixture
def forced_split(monkeypatch):
    """Every indexing.split_rows call cuts its table into up to three
    uneven ranges, as on a 3-CPU host with no minimum range size."""
    monkeypatch.setattr(indexing, "MIN_PART", 1)
    monkeypatch.setattr(indexing, "_cpus", lambda: 3)
