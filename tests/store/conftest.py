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

    ``hierarchy_text`` is the one way a hierarchy becomes text (the dict
    view, ``hierarchy_to_dict``, is only the oracle it equals).
    """
    encoded = []
    hierarchy_text = serialization.hierarchy_text

    def counting(hierarchy):
        encoded.append(hierarchy.owner)
        return hierarchy_text(hierarchy)

    monkeypatch.setattr(serialization, "hierarchy_text", counting)
    return encoded
