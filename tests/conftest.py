"""Fixtures shared by the test modules."""

from fractions import Fraction as F

import pytest

from plent.plmap import PLMap
from plent.relation import MonotoneArc


def _family_arcs(fam) -> list[MonotoneArc]:
    """The arcs of a branch family, built through the validating
    constructors from the integer keys that are all a family keeps."""
    lat = fam._lattice
    arcs = []
    for key in lat.keys:
        m = len(key) // 2
        pts = [(F(x, lat.dx), F(y, lat.dy)) for x, y in zip(key[:m], key[m:])]
        arcs.append(MonotoneArc.from_map(PLMap(pts)))
    return arcs


@pytest.fixture
def family_arcs():
    return _family_arcs


@pytest.fixture
def maps_built(monkeypatch) -> list:
    """A list that grows by one entry per `PLMap` built from now on."""
    built = []
    init, canonical = PLMap.__init__, PLMap._from_canonical.__func__

    def counted_init(self, points):
        built.append(1)
        init(self, points)

    def counted_canonical(cls, pts):
        built.append(1)
        return canonical(cls, pts)

    monkeypatch.setattr(PLMap, "__init__", counted_init)
    monkeypatch.setattr(PLMap, "_from_canonical", classmethod(counted_canonical))
    return built
