import pytest

from staircomp import oracle


@pytest.fixture
def builds(monkeypatch):
    """The (n, m) of every census the oracle enumerates, in order."""
    seen = []
    enumerate_census = oracle._enumerate

    def counting(n, m):
        seen.append((n, m))
        return enumerate_census(n, m)

    monkeypatch.setattr(oracle, "_enumerate", counting)
    return seen
