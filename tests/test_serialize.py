"""JSON round-trips for maps, arcs, and relations."""

import json
from fractions import Fraction as F

import pytest

from plent.errors import ParseError
from plent.plmap import UNIT, constant_map, map_equals
from plent.families import plateau_map, tent
from plent.relation import graph_of, inverse_rel, param_graph, rel_equals
from plent.serialize import (
    arc_from_json,
    arc_to_json,
    dumps,
    plmap_from_json,
    plmap_to_json,
    rat_from_json,
    rat_to_json,
    relation_from_json,
    relation_to_json,
)


def test_rational_roundtrip():
    for x in (F(0), F(1), F(2, 3), F(355, 113)):
        assert rat_from_json(rat_to_json(x)) == x


def test_rational_uses_decimal_strings():
    # large numerators survive readers that mangle big ints
    assert rat_to_json(F(10**30, 7)) == [str(10**30), "7"]


@pytest.mark.parametrize("bad", [["1", "0"], ["x", "2"], "3/4", ["1"], None])
def test_malformed_rationals_are_rejected(bad):
    with pytest.raises(ParseError):
        rat_from_json(bad)


def test_plmap_roundtrip_is_canonical():
    for f in (tent(3), plateau_map(), constant_map(UNIT, F(1, 2))):
        back = plmap_from_json(plmap_to_json(f))
        assert map_equals(back, f)
        assert back.breakpoints == f.breakpoints


def test_arc_roundtrip_all_kinds():
    arcs = list(graph_of(plateau_map()).arcs)
    arcs += list(graph_of(tent(2)).arcs)
    arcs += list(inverse_rel(graph_of(constant_map(UNIT, F(1, 2)))).arcs)
    arcs += [a for a in param_graph(plateau_map(), plateau_map()).arcs if a.is_point()]
    kinds = {a.kind for a in arcs}
    assert {"inc", "dec", "hor", "ver"} <= kinds
    assert arcs[-1].key() == ("ver", F(1, 2), F(1, 2), F(1, 2))
    for arc in arcs:
        back = arc_from_json(arc_to_json(arc))
        assert back.key() == arc.key()


def test_relation_roundtrip():
    rel = param_graph(tent(3), tent(2))
    back = relation_from_json(relation_to_json(rel))
    assert rel_equals(back, rel)


def test_dumps_is_deterministic_json():
    rel = param_graph(tent(3), tent(2))
    a = dumps(relation_to_json(rel))
    b = dumps(relation_to_json(param_graph(tent(3), tent(2))))
    assert a == b
    json.loads(a)  # valid JSON


def test_malformed_relation_is_rejected():
    with pytest.raises(ParseError):
        relation_from_json({"arcs": [{"direction": "diag"}]})
