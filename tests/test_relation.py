"""Planar relations built from monotone arcs: graphs, inverses,
compositions, and strong commutation."""

import hashlib
import math
import pickle
import random
import re
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from plent.branch import chain
from plent.errors import CompositionError, UnsupportedRelationError
from plent.plmap import (
    Interval,
    PLMap,
    UNIT,
    compose,
    constant_map,
    identity_map,
    iterate,
    merge_intervals,
)
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
from plent.families import affine, fold_partner, parse_family, plateau_map, shifted_fold, tent


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


SPECS = [
    "tent:2", "tent:3", "tent:4", "tent:5", "sfold:3", "sfold:5", "gfold:5", "gfold:7",
    "plateau", "id", "slope:3/2", "slope:3", "tilde:tent:3", "block:2:tent:3",
]


OFF_UNIT_PLATEAU = PLMap([(F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)), (F(3, 4), 0)])


@pytest.mark.parametrize(
    "f", [parse_family(spec) for spec in SPECS] + [OFF_UNIT_PLATEAU], ids=SPECS + ["off-unit-plateau"]
)
def test_graph_of_is_the_relation_of_its_laps(f):
    """graph_of is the curve {(t, f(t))}; its integer form is that of the
    map's laps taken as arcs, keys in order, a domain other than [0, 1]
    included."""
    laps = PLRelation([MonotoneArc.from_map(lap) for lap in f.laps()])
    assert graph_of(f)._lattice == laps._lattice
    assert graph_of(f)._lattice == param_graph(identity_map(f.domain), f)._lattice


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


def test_rel_union_builds_no_arc_view(monkeypatch):
    """The union is made from the operands' integer forms, so it builds no
    `arcs` view, and it is the relation of all their arcs, on any lattices."""
    import plent.relation

    built = []
    real = plent.relation._arcs_of
    monkeypatch.setattr(plent.relation, "_arcs_of", lambda lat: built.append(lat) or real(lat))
    g, h = graph_of(tent(2)), graph_of(tent(3))
    assert rel_union(g, g)._lattice == g._lattice
    assert built == []
    assert rel_union(g, h)._lattice == PLRelation(g.arcs + h.arcs)._lattice
    rng = random.Random(5113)
    for _ in range(100):
        rels = [_random_relation(rng) for _ in range(rng.randint(1, 3))]
        want = PLRelation([arc for rel in rels for arc in rel.arcs])
        assert rel_union(*rels)._lattice == want._lattice


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
        assert list(PLRelation(arcs).arcs) == want


def _arc_points(arc):
    if arc.kind == VER:
        return [(arc.x, arc.ys.lo), (arc.x, arc.ys.hi)]
    return list(arc.homeo.breakpoints)


@given(st.randoms(use_true_random=False), st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_integer_form_holds_every_arc_exactly_on_the_least_lattice(rng, size):
    arcs = [_random_arc(rng) for _ in range(size)]
    rel = PLRelation(arcs)
    dx, dy, keys = rel._lattice
    points = [_arc_points(arc) for arc in rel.arcs]
    assert dx == math.lcm(*(x.denominator for pts in points for x, _ in pts))
    assert dy == math.lcm(*(y.denominator for pts in points for _, y in pts))
    assert len(keys) == len(rel.arcs)
    for key, pts in zip(keys, points):
        assert all(isinstance(v, int) for v in key)
        m = len(key) // 2
        assert [(F(x, dx), F(y, dy)) for x, y in zip(key[:m], key[m:])] == pts
    # in the order of the Fraction sort key, ties by first appearance
    seen = {}
    for arc in arcs:
        seen.setdefault(arc.key(), arc)
    want = sorted(seen.values(), key=lambda a: (a.dom.lo, a.dom.hi, a.ran.lo, a.ran.hi, a.kind))
    assert list(rel.arcs) == want


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
    xs = set(xs) | {x for arc in comp.arcs for x, _ in _arc_points(arc)}
    for x in sorted(xs):
        assert fiber_intervals(comp, x) == _chained_fiber(s, r, x), x


def _sample_xs(s, r):
    """The 1/48 grid, plus every x where an arc of r reaches an end of the
    domain of an arc of s: isolated points of s o r can only sit there."""
    xs = {F(k, 48) for k in range(49)}
    for ra in r.arcs:
        for sa in s.arcs:
            for y in (sa.dom.lo, sa.dom.hi):
                if ra.ran.contains(y):
                    xs |= set(_preimage(ra, Interval(y, y)))
    return xs


def _preimage(arc, ys):
    """The x-span of the points of the arc with y in ys, an interval inside
    its range, in `Fraction`s."""
    if arc.kind == VER:
        return Interval(arc.x, arc.x)
    if arc.kind == HOR:
        return arc.dom
    return Interval(*sorted(arc.homeo.inverse()(y) for y in ys))


def _compose_pair(r, s):
    """The arc of s o r in `Fraction`s, or None when ran(r) misses dom(s):
    the composition oracle.

    With O = ran(r) & dom(s), X = r^-1(O) and Z = s(O): a point X gives the
    vertical X x Z, a point Z the horizontal over X; a point O with both
    nondegenerate would be the rectangle X x Z, outside the model.
    """
    overlap = r.ran.intersect(s.dom)
    if overlap is None:
        return None
    xs, zs = _preimage(r, overlap), s.image(overlap)
    if xs.is_point():
        return MonotoneArc.vertical(xs.lo, zs)
    if zs.is_point():
        return MonotoneArc(HOR, homeo=PLMap([(xs.lo, zs.lo), (xs.hi, zs.lo)]))
    if overlap.is_point():
        raise UnsupportedRelationError(
            f"composition produces a full rectangle ([{xs.lo}, {xs.hi}] x [{zs.lo}, {zs.hi}]); "
            "rectangle fibers are outside the finite-arc model"
        )
    return chain(r, s)


def _without_covered_points(arcs):
    """The arcs, less every point arc that lies on a non-point arc."""
    solid = [arc for arc in arcs if not arc.is_point()]
    return solid + [
        p
        for p in arcs
        if p.is_point()
        and not any((iv := a.image(p.dom)) is not None and iv.contains(p.ys.lo) for a in solid)
    ]


def fraction_compose_rel(s, r):
    """s o r composed pair by pair in `Fraction`s, as compose_rel's oracle."""
    arcs = [arc for ra in r.arcs for sa in s.arcs if (arc := _compose_pair(ra, sa)) is not None]
    if not arcs:
        raise CompositionError("composition of relations is empty")
    return PLRelation(_without_covered_points(arcs))


def _random_relation(rng):
    """One to five random arcs, each strictly monotone one sometimes with
    its twin: the arc with the same ends and its bend toggled, so that arcs
    of the relation, and of its compositions, tie on the sort key."""
    arcs = []
    for _ in range(rng.randint(1, 5)):
        arcs.append(_random_arc(rng))
        if arcs[-1].kind in (INC, DEC) and rng.random() < 0.5:
            (x0, y0), *bend, (x1, y1) = arcs[-1].homeo.breakpoints
            mid = [] if bend else [((x0 + x1) / 2, (y0 + y1) / 2 + (y1 - y0) / 4)]
            arcs.append(MonotoneArc(arcs[-1].kind, homeo=PLMap([(x0, y0), *mid, (x1, y1)])))
    return PLRelation(arcs)


@given(st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_compose_rel_is_the_fraction_composition(rng):
    """On random relations mixing inc, dec, horizontal, vertical and point
    arcs, twins that tie on the sort key included, the integer composition
    has the oracle's integer form, keys in order, and fails exactly where
    the oracle fails, with the same error."""
    r, s = _random_relation(rng), _random_relation(rng)
    try:
        want = fraction_compose_rel(s, r)
    except (CompositionError, UnsupportedRelationError) as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            compose_rel(s, r)
    else:
        assert compose_rel(s, r)._lattice == want._lattice


def fraction_fiber(rel, x):
    """The fiber of rel at x in `Fraction`s, `fiber_intervals`'s oracle: the
    merged images of {x} under every arc."""
    return merge_intervals(iv for arc in rel.arcs if (iv := arc.image(Interval(x, x))) is not None)


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_fiber_intervals_is_the_fraction_fiber(rng):
    """On random relations mixing points, vertical, horizontal, inc and dec
    arcs, bent ones included: at every breakpoint, on the 1/48 grid, and at
    x over 97 dx, off the relation's lattice."""
    rel = _random_relation(rng)
    dx = rel._lattice.dx
    xs = {x for arc in rel.arcs for x, _ in _arc_points(arc)} | {F(k, 48) for k in range(49)}
    xs |= {F(97 * rng.randint(0, dx - 1) + rng.randint(1, 96), 97 * dx) for _ in range(8)}
    for x in sorted(xs):
        assert fiber_intervals(rel, x) == fraction_fiber(rel, x), x


def fraction_segments(rel):
    """The point set of rel as its maximal straight segments in `Fraction`s,
    `rel_equals`'s oracle: a point on another arc is dropped, and the
    segments are grouped by their line, x = c or slope and intercept, and
    merged."""
    by_line = {}
    for arc in _without_covered_points(list(rel.arcs)):
        pts = _arc_points(arc)
        for (px, py), (qx, qy) in zip(pts, pts[1:]):
            if px == qx:
                key, span = ("v", px), Interval(py, qy)
            else:
                slope = (qy - py) / (qx - px)
                key, span = ("s", slope, py - slope * px), Interval(px, qx)
            by_line.setdefault(key, []).append(span)
    return frozenset((key, tuple(merge_intervals(spans))) for key, spans in by_line.items())


def _split_arcs(rng, rel, odds=0.5):
    """The arcs of rel, each one not a point split, at these odds, at its
    point over x = lo + (hi - lo) * j/97 (y for a vertical arc), with that
    point added as a point arc: the same point set, decomposed otherwise
    and on a finer lattice."""
    arcs = []
    for arc in rel.arcs:
        if arc.is_point() or rng.random() >= odds:
            arcs.append(arc)
            continue
        t = F(rng.randint(1, 96), 97)
        if arc.kind == VER:
            y = arc.ys.lo + arc.ys.length * t
            arcs += [MonotoneArc.vertical(arc.x, Interval(arc.ys.lo, y)), _point(arc.x, y),
                     MonotoneArc.vertical(arc.x, Interval(y, arc.ys.hi))]
        else:
            x = arc.dom.lo + arc.dom.length * t
            arcs += [MonotoneArc(arc.kind, homeo=arc.homeo.restrict(arc.dom.lo, x)), _point(x, arc.homeo(x)),
                     MonotoneArc(arc.kind, homeo=arc.homeo.restrict(x, arc.dom.hi))]
    rng.shuffle(arcs)
    return arcs


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_rel_equals_is_the_fraction_point_set_equality(rng):
    """Against a random relation, or against a split copy of it with a
    random arc added half the time."""
    r = _random_relation(rng)
    s = _random_relation(rng) if rng.random() < 0.3 else PLRelation(_split_arcs(rng, r))
    if rng.random() < 0.5:
        s = rel_union(s, PLRelation([_random_arc(rng)]))
    want = fraction_segments(r) == fraction_segments(s)
    assert rel_equals(r, s) is want and rel_equals(s, r) is want


def test_rel_equals_sees_one_point_set_on_two_lattices():
    rng = random.Random(4897)
    finer = 0
    for _ in range(300):
        rel = _random_relation(rng)
        split = PLRelation(_split_arcs(rng, rel, odds=1))
        assert rel_equals(rel, split) and rel_equals(split, rel)
        finer += split._lattice.dx != rel._lattice.dx
    assert finer > 200  # only relations of points and vertical arcs keep their dx


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


def test_composition_keeps_no_point_lying_on_another_arc():
    """compose_rel drops a point arc that lies on another arc of the result,
    so a strong-commutation witness lists each point once; the point set is
    that of every pairwise composition."""
    rng = random.Random(1212)
    pairs = [(graph_of(tent(m)), inverse_rel(graph_of(tent(n)))) for n, m in [(2, 2), (4, 6), (2, 4), (3, 6)]]
    pairs += [
        tuple(PLRelation([_random_arc(rng) for _ in range(rng.randint(1, 4))]) for _ in range(2))
        for _ in range(300)
    ]
    dropped = 0
    for s, r in pairs:
        try:
            comp = compose_rel(s, r)
        except (CompositionError, UnsupportedRelationError):
            continue
        every = [arc for ra in r.arcs for sa in s.arcs if (arc := _compose_pair(ra, sa)) is not None]
        assert rel_equals(comp, PLRelation(every))
        solid = [arc for arc in comp.arcs if not arc.is_point()]
        for p in comp.arcs:
            if p.is_point() and solid:
                assert not any(iv.contains(p.ys.lo) for iv in fiber_intervals(PLRelation(solid), p.x))
        dropped += len({arc.key() for arc in every}) - len(comp.arcs)
    assert dropped > 0  # the cases must contain covered points to mean anything


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
    inverse = inverse_rel(PLRelation([_point(F(1, 3), F(2, 3))]))
    assert [arc.key() for arc in inverse.arcs] == [(VER, F(2, 3), F(1, 3), F(1, 3))]


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


def test_relation_algebra_builds_no_map_and_leaves_arcs_unbuilt(maps_built):
    """compose_rel, rel_power, inverse_rel and graph_of work on integer
    forms only: they build no `PLMap`, so no arc, and no result has built
    its `arcs` view, horizontal, vertical and point arcs included."""
    maps = [iterate(tent(3), 2), iterate(tent(2), 2), plateau_map(), constant_map(UNIT, F(1, 2))]
    maps_built.clear()
    f, g, plateau, flat = (graph_of(m) for m in maps)
    results = [f, g, plateau, flat, inverse_rel(plateau), inverse_rel(flat)]
    results.append(compose_rel(g, inverse_rel(f)))
    results.append(compose_rel(inverse_rel(plateau), g))
    results.append(compose_rel(flat, inverse_rel(plateau)))
    results.append(rel_power(param_graph(*maps[:2]), 3))
    assert maps_built == []
    assert all(rel._arcs is None for rel in results)


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


def fraction_param_graph(f, g):
    """The curve {(f(t), g(t))} built in `Fraction`s through the validating
    constructors, as param_graph's oracle: the points at the joint
    breakpoints, split where the slope sign of f or of g changes, then
    deduplicated and ordered as a relation orders its arcs."""
    ts = sorted({x for x, _ in f.breakpoints} | {x for x, _ in g.breakpoints})
    pts = [(f(t), g(t)) for t in ts]
    signs = [((q > p) - (q < p), (w > v) - (w < v)) for (p, v), (q, w) in zip(pts, pts[1:])]
    arcs, start = {}, 0
    for end in range(1, len(pts)):
        if end < len(signs) and signs[end] == signs[end - 1]:
            continue
        piece = pts[start : end + 1]
        if signs[start][0] == 0:
            ys = [y for _, y in piece]
            arc = MonotoneArc.vertical(piece[0][0], Interval(min(ys), max(ys)))
        else:
            arc = MonotoneArc.from_map(PLMap(sorted(piece)))
        arcs.setdefault(arc.key(), arc)
        start = end
    return sorted(arcs.values(), key=lambda a: (a.dom.lo, a.dom.hi, a.ran.lo, a.ran.hi, a.kind))


@st.composite
def unit_pl_maps(draw):
    """A PL map on [0, 1], flat pieces and shared values included."""
    values = st.fractions(0, 1, max_denominator=6)
    xs = sorted({F(0), F(1), *draw(st.lists(st.fractions(0, 1, max_denominator=12), max_size=5))})
    return PLMap(zip(xs, draw(st.lists(values, min_size=len(xs), max_size=len(xs)))))


SPEC_MAPS = [
    parse_family(spec)
    for spec in ("tent:2", "tent:3", "sfold:3", "gfold:5", "plateau", "id", "affine:1/3:2/3",
                 "slope:3/2", "tilde:tent:3")
]


@given(*[st.one_of(unit_pl_maps(), st.sampled_from(SPEC_MAPS))] * 2)
@settings(max_examples=300, deadline=None)
def test_param_graph_is_the_fraction_curve_and_round_trips(f, g):
    rel = param_graph(f, g)
    assert list(rel.arcs) == fraction_param_graph(f, g)
    assert PLRelation(rel.arcs)._lattice == rel._lattice
    back = pickle.loads(pickle.dumps(rel))
    assert back._lattice == rel._lattice and back.arcs == rel.arcs


def test_param_graph_builds_no_arc_until_its_arcs_are_read(monkeypatch):
    f, g = iterate(tent(3), 3), iterate(tent(2), 3)
    built = []
    for cls, name in ((PLMap, "_from_canonical"), (MonotoneArc, "_trusted"), (MonotoneArc, "vertical")):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *a, real=real: built.append(1) or real(*a))
    monkeypatch.setattr(PLMap, "__init__", lambda *a: built.append(1))
    rel = param_graph(f, g)
    assert built == []
    arcs = rel.arcs  # built now, once
    count = len(built)
    assert count > 0 and rel.arcs is arcs and len(built) == count


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


def test_strong_commutation_witnesses_of_the_builtin_specs_are_pinned():
    """Both relations of every ordered pair of the built-in specs, as their
    integer forms, keys in order; only (plateau, plateau) is refused, as a
    rectangle."""
    rows = []
    for a in SPECS:
        for b in SPECS:
            try:
                equal, lhs, rhs = strong_commutation_relations(parse_family(a), parse_family(b))
            except UnsupportedRelationError:
                rows.append((a, b, "UnsupportedRelationError"))
            else:
                rows.append((a, b, equal, tuple(lhs._lattice), tuple(rhs._lattice)))
    assert sum(row[2] is True for row in rows) == 49
    assert [row[:2] for row in rows if len(row) == 3] == [("plateau", "plateau")]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "d862d19bc9ef47669770a8165f930576b930f4515b86165ec90009fdcdf72590"


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
def test_relation_is_stable_under_rebuild_from_its_arcs(n):
    rel = param_graph(tent(n), tent(2))
    rebuilt = PLRelation(rel.arcs)
    assert rebuilt._lattice == rel._lattice and rel_equals(rel, rebuilt)
