import pytest

from socialdmf import _parallel


@pytest.fixture
def three_cpus(monkeypatch):
    """The shared pool as on a 3-CPU host: two workers plus the caller.

    A fresh pool is made for the test and shut down after it, whatever the
    host's CPU count.
    """
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(_parallel, "_pool", None)
    yield
    if _parallel._pool is not None:
        _parallel._pool.shutdown()
