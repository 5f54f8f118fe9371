"""Planar relations built from monotone arcs: graphs, inverses,
compositions, and strong commutation."""

import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from plent.errors import CompositionError, UnsupportedRelationError
from plent.plmap import Interval, PLMap, UNIT, compose, constant_map, iterate, merge_intervals
from plent.relation import (
    DEC,
    HOR,
    INC,
    VER,
    MonotoneArc,
    PLRelation,
    commutes,
    compose_rel,
    diagonal,
    fiber_intervals,
    graph_of,
    inverse_rel,
    param_graph,
    rel_equals,
    rel_power,
    rel_union,
    strong_commutation_relations,
    strongly_commutes,
)
from plent.families import affine, fold_partner, plateau_map, shifted_fold, tent


def tent_inv_comp(n, m):
    """The relation T_m^{-1} o T_n (y such that T_m(y) = T_n(x))."""
    return compose_rel(inverse_rel(graph_of(tent(m))), graph_of(tent(n)))


# -- graphs and fibers ---------------------------------------------------------


def test_graph_fiber_is_the_function_value():
    assert fiber_intervals(graph_of(tent(2)), F(1, 2)) == [Interval(F(1), F(1))]
    assert fiber_intervals(graph_of(tent(2)), F(1, 4)) == [Interval(F(1, 2), F(1, 2))]


def test_vertical_arc_fiber_is_an_interval():
    ver = inverse_rel(graph_of(constant_map(UNIT, F(1, 2))))
    fibs = fiber_intervals(ver, F(1, 2))
    assert fibs == [UNIT]
    assert fiber_intervals(ver, F(1, 4)) == []


def test_image_of_interval():
    xs = Interval(F(0), F(1, 4))
    images = [arc.image(xs) for arc in graph_of(tent(2)).arcs]
    assert images == [Interval(F(0), F(1, 2)), None]


def test_diagonal_relation():
    d = diagonal()
    assert fiber_intervals(d, F(1, 3)) == [Interval(F(1, 3), F(1, 3))]


# -- equality as point sets -----------------------------------------------------


def test_rel_equals_ignores_arc_subdivision():
    t2 = tent(2)
    whole = graph_of(t2)
    left = graph_of(t2.restrict(F(0), F(1, 2)))
    right = graph_of(t2.restrict(F(1, 2), F(1)))
    assert rel_equals(rel_union(left, right), whole)


def test_rel_union_deduplicates():
    g = graph_of(tent(3))
    assert rel_equals(rel_union(g, g), g)


def _random_arc(rng):
    """An arc of a random kind over a small denominator, so that equal
    domains, equal ranges and duplicate arcs are common.  A point is a
    vertical arc over a degenerate y-interval."""
    den = rng.choice([2, 3, 4, 6])
    a, b = sorted(F(v, den) for v in rng.sample(range(den + 1), 2))
    c, d = sorted(F(v, den) for v in rng.sample(range(den + 1), 2))
    kind = rng.choice([INC, DEC, HOR, VER, "point"])
    if kind == "point":
        return MonotoneArc.vertical(a, Interval(c, c))
    if kind == VER:
        return MonotoneArc.vertical(a, Interval(c, d))
    if kind == HOR:
        return MonotoneArc(HOR, homeo=PLMap([(a, c), (b, c)]))
    pts = [(a, c), (b, d)] if kind == INC else [(a, d), (b, c)]
    if rng.random() < 0.5:  # a bend keeps the ends, so it ties on the sort key
        pts.insert(1, ((a + b) / 2, (c + d) / 2 + (d - c) / 4 * (1 if kind == INC else -1)))
    return MonotoneArc(kind, homeo=PLMap(pts))


def test_arc_order_is_the_fraction_key_order():
    rng = random.Random(90210)
    for _ in range(400):
        arcs = [_random_arc(rng) for _ in range(rng.randint(1, 12))]
        seen = {}
        for arc in arcs:
            seen.setdefault(arc.key(), arc)
        want = sorted(
            seen.values(), key=lambda a: (a.dom.lo, a.dom.hi, a.ran.lo, a.ran.hi, a.kind)
        )
        assert [id(a) for a in PLRelation(arcs).arcs] == [id(a) for a in want]


# -- inverse and composition -----------------------------------------------------


def test_inverse_rel_is_an_involution():
    for rel in (graph_of(tent(3)), param_graph(tent(3), tent(2))):
        assert rel_equals(inverse_rel(inverse_rel(rel)), rel)


def test_compose_with_identity_graph():
    g = graph_of(tent(3))
    d = diagonal()
    assert rel_equals(compose_rel(g, d), g)
    assert rel_equals(compose_rel(d, g), g)


def test_graph_of_composition_is_composition_of_graphs():
    f, g = tent(2), tent(3)
    from plent.plmap import compose

    assert rel_equals(
        graph_of(compose(f, g)), compose_rel(graph_of(f), graph_of(g))
    )


def _point(x, y):
    return MonotoneArc.vertical(x, Interval(F(y), F(y)))


def _chained_fiber(s, r, x):
    """The fiber of s o r at x by brute force: the images under every arc of
    s of the fiber of r at x, merged."""
    return merge_intervals(
        z for iv in fiber_intervals(r, x) for arc in s.arcs if (z := arc.image(iv)) is not None
    )


def _assert_compose_matches_fibers(s, r, xs):
    comp = compose_rel(s, r)
    xs = set(xs) | {x for arc in comp.arcs for seg in arc.segments() for x, _ in seg}
    for x in sorted(xs):
        assert fiber_intervals(comp, x) == _chained_fiber(s, r, x), x


def _sample_xs(s, r):
    """The 1/48 grid, plus every x where an arc of r reaches an end of the
    domain of an arc of s: isolated points of s o r can only sit there."""
    xs = {F(k, 48) for k in range(49)}
    for ra in r.arcs:
        back = ra.inverse()
        for sa in s.arcs:
            for y in (sa.dom.lo, sa.dom.hi):
                if (iv := back.fiber(y)) is not None:
                    xs |= {iv.lo, iv.hi}
    return xs


def test_compose_of_tent_relations_against_bruteforce_fibers():
    r = param_graph(tent(3), tent(2))
    s = inverse_rel(graph_of(tent(2)))
    _assert_compose_matches_fibers(s, r, (F(k, 200) for k in range(201)))


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_compose_against_bruteforce_fibers(rng):
    """On small-grid relations mixing every arc kind and points, composition
    agrees with chaining fibers, degenerate overlaps included."""
    r = PLRelation([_random_arc(rng) for _ in range(rng.randint(1, 4))])
    s = PLRelation([_random_arc(rng) for _ in range(rng.randint(1, 4))])
    xs = _sample_xs(s, r)
    try:
        _assert_compose_matches_fibers(s, r, xs)
    except CompositionError:
        assert all(_chained_fiber(s, r, x) == [] for x in xs)
    except UnsupportedRelationError:
        # only a horizontal arc of r meeting a vertical arc of s is a rectangle
        assert any(
            ra.kind == HOR and sa.kind == VER and not sa.ys.is_point() and sa.x == ra.ran.lo
            for ra in r.arcs
            for sa in s.arcs
        )


@pytest.mark.parametrize("inner, outer", [((0, F(1, 2)), (F(1, 2), 1)), ((F(1, 2), 1), (0, F(1, 2)))])
def test_arcs_meeting_at_one_point_compose_to_that_point(inner, outer):
    inc = lambda a, b: PLRelation([MonotoneArc(INC, homeo=PLMap([(a, a), (b, b)]))])
    comp = compose_rel(inc(*outer), inc(*inner))
    assert rel_equals(comp, PLRelation([_point(F(1, 2), F(1, 2))]))
    assert [arc.key() for arc in comp.arcs] == [(VER, F(1, 2), F(1, 2), F(1, 2))]


def test_a_point_on_a_segment_is_absorbed():
    g = graph_of(tent(2))
    assert rel_equals(rel_union(g, PLRelation([_point(F(1, 4), F(1, 2))])), g)
    assert not rel_equals(rel_union(g, PLRelation([_point(F(1, 4), F(1, 4))])), g)


def test_inverse_of_a_point_is_a_point():
    assert _point(F(1, 3), F(2, 3)).inverse().key() == (VER, F(2, 3), F(1, 3), F(1, 3))


def test_empty_composition_raises():
    top = graph_of(constant_map(UNIT, F(1)))
    narrow = MonotoneArc.from_map(constant_map(Interval(F(0), F(1, 4)), F(0)))
    with pytest.raises(CompositionError):
        compose_rel(PLRelation([narrow]), top)


def test_rectangle_composition_is_rejected():
    hor = graph_of(constant_map(UNIT, F(1, 2)))
    ver = inverse_rel(hor)
    with pytest.raises(UnsupportedRelationError):
        compose_rel(ver, hor)


# -- parameterized graphs ----------------------------------------------------------


def test_param_graph_equals_composed_graph():
    f, g = tent(3), tent(2)
    direct = param_graph(f, g)
    composed = compose_rel(graph_of(g), inverse_rel(graph_of(f)))
    assert rel_equals(direct, composed)


def reference_param_graph(f, g):
    """param_graph as it was built piece by piece with restrict, inverse and
    compose, kept as its oracle: the arc keys.  A joint plateau is a point."""
    cuts = sorted(set(f.lap_boundaries()) | set(g.lap_boundaries()))
    arcs = []
    for t0, t1 in zip(cuts, cuts[1:]):
        fp, gp = f.restrict(t0, t1), g.restrict(t0, t1)
        if fp.is_constant():
            arcs.append(MonotoneArc.vertical(fp(t0), gp.range))
        else:
            arcs.append(MonotoneArc.from_map(compose(gp, fp.inverse())))
    return [arc.key() for arc in PLRelation(arcs).arcs]


PARAM_MAPS = [iterate(tent(n), k) for n in (2, 3, 5) for k in (1, 2, 3)] + [
    shifted_fold(3),
    shifted_fold(5),
    fold_partner(5),
    plateau_map(),
    affine(0, 1),
    affine(1, 0),
    affine(F(1, 3), F(2, 3)),
]


def test_param_graph_matches_the_piecewise_construction():
    for f, g in product(PARAM_MAPS, PARAM_MAPS):
        assert [arc.key() for arc in param_graph(f, g).arcs] == reference_param_graph(f, g)


def test_param_graph_keeps_the_joint_plateau_point():
    rel = param_graph(plateau_map(), plateau_map())
    assert (VER, F(1, 2), F(1, 2), F(1, 2)) in [arc.key() for arc in rel.arcs]
    assert fiber_intervals(rel, F(1, 2)) == [Interval(F(1, 2), F(1, 2))]


def test_param_graph_rejects_unequal_domains():
    with pytest.raises(CompositionError):
        param_graph(PLMap([(0, 0), (F(1, 2), 1)]), tent(2))


def test_param_graph_power_oracle():
    rel = param_graph(tent(2), tent(2))
    assert rel_equals(rel_power(rel, 2), param_graph(iterate(tent(2), 2), iterate(tent(2), 2)))


# -- commutation -------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,m,want",
    [(2, 3, True), (2, 5, True), (3, 4, True), (3, 5, True), (4, 5, True),
     (4, 6, False), (2, 4, False), (3, 6, False)],
)
def test_strong_commutation_for_tents_iff_coprime(n, m, want):
    assert strongly_commutes(tent(n), tent(m)) is want


def test_strong_commutation_returns_both_relations():
    flag, lhs, rhs = strong_commutation_relations(tent(2), tent(3))
    assert flag and rel_equals(lhs, rhs)


def test_commutes_is_necessary_for_strong_commutation():
    assert commutes(tent(2), tent(3))
    assert commutes(tent(2), tent(4))  # plain commutation is weaker


def test_tent_relation_coincidence():
    lhs = compose_rel(graph_of(tent(6)), inverse_rel(graph_of(tent(4))))
    rhs = compose_rel(graph_of(tent(3)), inverse_rel(graph_of(tent(2))))
    assert rel_equals(lhs, rhs)


def test_self_strong_commutation_fails_for_noninjective_maps():
    # f o f^{-1} contains the diagonal of the range only; f^{-1} o f has
    # whole fibers, so the two relations differ as point sets
    assert not strongly_commutes(tent(2), tent(2))


# -- property tests -------------------------------------------------------------------

small = st.integers(min_value=2, max_value=5)


@given(small, small)
@settings(max_examples=15, deadline=None)
def test_inverse_distributes_over_composition(n, m):
    r = graph_of(tent(n))
    s = inverse_rel(graph_of(tent(m)))
    lhs = inverse_rel(compose_rel(s, r))
    rhs = compose_rel(inverse_rel(r), inverse_rel(s))
    assert rel_equals(lhs, rhs)


@given(small)
@settings(max_examples=10, deadline=None)
def test_canonical_segments_is_stable_under_rebuild(n):
    rel = param_graph(tent(n), tent(2))
    rebuilt = PLRelation(rel.arcs)
    assert rel.canonical_segments() == rebuilt.canonical_segments()
