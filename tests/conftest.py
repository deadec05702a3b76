import weakref
from types import SimpleNamespace

import pytest

from oockit import search


@pytest.fixture
def gdd_matrices(monkeypatch) -> list[SimpleNamespace]:
    """Each GDD cover matrix built in the test, in order: its u, m, order
    and budget, and `held`, how many matrices built before it were still
    alive when it was begun."""
    matrix, built, covers = search._gdd_matrix, [], []

    def record(u, m, order, budget):
        held = sum(ref() is not None for ref in covers)
        built.append(SimpleNamespace(u=u, m=m, order=order, budget=budget, held=held))
        cover, develop = matrix(u, m, order, budget)
        covers.append(weakref.ref(cover))
        return cover, develop

    monkeypatch.setattr(search, "_gdd_matrix", record)
    return built
