"""Fixtures shared by the store tests."""

import pytest

import repro.saintetiq.serialization as serialization
from repro.store import InMemoryBackend, JsonDirectoryBackend, SqliteBackend


@pytest.fixture(params=["memory", "json", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield InMemoryBackend()
    elif request.param == "json":
        yield JsonDirectoryBackend(tmp_path / "store")
    else:
        with SqliteBackend(tmp_path / "store.sqlite") as store:
            yield store


@pytest.fixture
def encodings(monkeypatch):
    """Owners of the hierarchies encoded so far; ``clear()`` starts a new count.

    ``hierarchy_to_dict`` is the one way a hierarchy becomes text.
    """
    encoded = []
    hierarchy_to_dict = serialization.hierarchy_to_dict

    def counting(hierarchy):
        encoded.append(hierarchy.owner)
        return hierarchy_to_dict(hierarchy)

    monkeypatch.setattr(serialization, "hierarchy_to_dict", counting)
    return encoded
