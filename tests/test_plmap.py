"""Core piecewise-linear map machinery: construction, evaluation,
composition, lap structure, and the lap-growth entropy estimator."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plent.errors import DomainError, ResourceError
from plent.plmap import (
    Interval,
    PLMap,
    UNIT,
    _on_curve,
    compose,
    constant_map,
    constant_slope,
    entropy_lap_growth,
    identity_map,
    iterate,
    map_equals,
    merge_intervals,
)
from plent.families import parse_family, tent, plateau_map, slope_map


# -- intervals ---------------------------------------------------------------


def test_interval_basic_ops():
    a = Interval(F(0), F(1, 2))
    b = Interval(F(1, 4), F(3, 4))
    assert a.intersect(b) == Interval(F(1, 4), F(1, 2))
    assert a.contains(F(1, 3))
    assert not a.contains(F(3, 4))
    assert not a.intersect(b).is_point()
    assert a.intersect(Interval(F(1, 2), F(1))).is_point()
    assert a.length == F(1, 2)
    assert Interval(F(1, 3), F(1, 3)).is_point()


def test_interval_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Interval(F(1, 2), F(1, 4))


def test_merge_intervals_merges_touching_pieces():
    pieces = [
        Interval(F(0), F(1, 4)),
        Interval(F(1, 4), F(1, 2)),
        Interval(F(3, 4), F(1)),
    ]
    assert merge_intervals(pieces) == [
        Interval(F(0), F(1, 2)),
        Interval(F(3, 4), F(1)),
    ]
    # overlapping pieces merge too, into one cover of the unit interval
    assert merge_intervals([Interval(F(0), F(1, 2)), Interval(F(1, 3), F(1))]) == [UNIT]


# -- construction and canonical form ----------------------------------------


def test_collinear_breakpoints_are_merged():
    redundant = PLMap([(0, 0), (F(1, 2), F(1, 2)), (1, 1)])
    assert redundant == identity_map()
    assert len(redundant.breakpoints) == 2


def test_construction_rejects_degenerate_input():
    with pytest.raises(ValueError):
        PLMap([(0, 0)])
    with pytest.raises(ValueError):
        PLMap([(0, 0), (0, 1)])  # repeated x
    with pytest.raises(ValueError):
        PLMap([(0, 0), (1, 2)])  # outside the unit square


def test_immutability():
    f = tent(2)
    with pytest.raises(AttributeError):
        f.breakpoints = ()


def test_evaluation_and_domain_errors():
    t = tent(2)
    assert t(F(1, 4)) == F(1, 2)
    assert t(F(1, 2)) == F(1)
    assert t(F(3, 4)) == F(1, 2)
    half = PLMap([(0, 0), (F(1, 2), F(1, 2))])
    with pytest.raises(DomainError):
        half(F(3, 4))


# -- lap structure ------------------------------------------------------------


def test_tent_lap_structure():
    t3 = tent(3)
    assert t3.lap_count() == 3
    assert t3.critical_points() == [F(1, 3), F(2, 3)]
    assert all(lap.range == UNIT for lap in t3.laps())


def test_plateau_owns_a_lap_and_both_endpoints_are_critical():
    r = plateau_map()
    # a maximal constant piece counts as one lap; its endpoints are
    # critical points of the map
    assert r.lap_count() == 3
    cps = r.critical_points()
    assert F(1, 3) in cps and F(2, 3) in cps
    assert not all(lap.range == UNIT for lap in r.laps())


def test_laps_partition_the_domain():
    t4 = tent(4)
    laps = t4.laps()
    assert laps[0].domain.lo == F(0) and laps[-1].domain.hi == F(1)
    for a, b in zip(laps, laps[1:]):
        assert a.domain.hi == b.domain.lo


# -- composition, iteration, inverses ------------------------------------------


def test_compose_matches_pointwise_evaluation():
    f, g = tent(3), tent(2)
    h = compose(f, g)
    for k in range(17):
        x = F(k, 16)
        assert h(x) == f(g(x))


def test_iterate_lap_counts_multiply_for_tents():
    t3 = tent(3)
    assert iterate(t3, 2).lap_count() == 9
    assert iterate(t3, 3).lap_count() == 27


def test_identity_is_neutral_for_composition():
    f = tent(5)
    assert map_equals(compose(f, identity_map()), f)
    assert map_equals(compose(identity_map(), f), f)


def test_inverse_of_increasing_homeo():
    h = PLMap([(0, 0), (F(1, 4), F(1, 2)), (1, 1)])
    inv = h.inverse()
    for k in range(9):
        x = F(k, 8)
        assert inv(h(x)) == x


def test_preimage_of_tent():
    t2 = tent(2)
    pre = t2.preimage(F(1, 2))
    assert [iv.lo for iv in pre] == [F(1, 4), F(3, 4)]
    plateau_pre = plateau_map().preimage(F(1, 2))
    assert any(not iv.is_point() for iv in plateau_pre)


def test_restrict_keeps_values():
    t3 = tent(3)
    sub = t3.restrict(F(1, 6), F(1, 2))
    assert sub.domain == Interval(F(1, 6), F(1, 2))
    assert sub(F(1, 3)) == t3(F(1, 3))


# -- entropy from lap growth ---------------------------------------------------


def test_constant_slope_detection():
    assert constant_slope(tent(3)) == 3
    assert constant_slope(slope_map(F(3, 2))) == F(3, 2)
    assert constant_slope(plateau_map()) is None


def test_lap_growth_exact_fast_path():
    for s in (F(3, 2), F(2), F(3)):
        growth = entropy_lap_growth(slope_map(s), 3)
        assert growth.exact == math.log(s)


def test_lap_growth_terms_approach_log_n():
    rows = entropy_lap_growth(tent(3), 6)
    assert abs(rows.terms[-1] - math.log(3)) < 1e-3


def test_constant_map_has_zero_entropy_estimate():
    growth = entropy_lap_growth(constant_map(UNIT, F(1, 2)), 3)
    assert growth.exact == 0.0


# -- property tests ------------------------------------------------------------

rationals = st.fractions(min_value=0, max_value=1, max_denominator=64)
small_tents = st.integers(min_value=2, max_value=5).map(tent)


@given(small_tents, small_tents, rationals)
@settings(max_examples=60, deadline=None)
def test_compose_evaluation_identity(f, g, x):
    assert compose(f, g)(x) == f(g(x))


@given(small_tents, small_tents)
@settings(max_examples=25, deadline=None)
def test_lap_count_submultiplicative(f, g):
    assert compose(f, g).lap_count() <= f.lap_count() * g.lap_count()


@given(small_tents)
@settings(max_examples=10, deadline=None)
def test_map_equals_is_reflexive_on_rebuilt_maps(f):
    assert map_equals(f, PLMap(f.breakpoints))


# -- the integer compose against its Fraction oracle ------------------------------


def reference_compose(f, g):
    """compose as it was in Fraction arithmetic, kept as its oracle: the
    breakpoints of g and the preimages of f's nodes on g's sloped
    segments, with f(g(x)) evaluated at each."""
    xs = {x for x, _ in g.breakpoints}
    f_nodes = [x for x, _ in f.breakpoints]
    for x0, y0, x1, y1, slope in g.segments():
        if slope == 0:
            continue
        lo, hi = min(y0, y1), max(y0, y1)
        for node in f_nodes:
            if lo <= node <= hi:
                xs.add(x0 + (node - y0) / slope)
    return PLMap([(x, f(g(x))) for x in sorted(xs)])


SPECS = ["tent:2", "tent:3", "sfold:3", "gfold:7", "slope:3/2", "slope:5/3", "plateau",
         "id", "affine:1/3:2/3", "tilde:tent:3"]
# values drawn from a few fixed points repeat often, which makes plateaus
values = st.one_of(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)]), rationals)


@st.composite
def pl_maps(draw, lo=F(0), hi=F(1)):
    """A PL map on [lo, hi] with up to 7 breakpoints, usually not onto."""
    inner = draw(st.lists(rationals, max_size=5))
    xs = sorted({lo, hi, *(lo + (hi - lo) * t for t in inner)})
    return PLMap(zip(xs, draw(st.lists(values, min_size=len(xs), max_size=len(xs)))))


@st.composite
def sub_domain_maps(draw):
    """A PL map on a random nondegenerate subinterval of [0,1]."""
    a, b = sorted(draw(st.lists(rationals, min_size=2, max_size=2, unique=True)))
    return draw(pl_maps(a, b))


maps = st.one_of(st.sampled_from(SPECS).map(parse_family), pl_maps())


@given(maps, st.one_of(maps, sub_domain_maps(), st.just(parse_family("block:2:tent:3"))))
@settings(max_examples=300, deadline=None)
def test_compose_equals_the_fraction_reference_breakpoint_for_breakpoint(f, g):
    assert compose(f, g).breakpoints == reference_compose(f, g).breakpoints
    # outer map restricted to the inner map's range, as arc composition uses it
    r = g.range
    if not r.is_point():
        h = f.restrict(r.lo, r.hi)
        assert compose(h, g).breakpoints == reference_compose(h, g).breakpoints


def test_compose_checks_the_cap_on_the_breakpoint_count():
    f, g = tent(3), iterate(tent(3), 3)  # f o g has 82 breakpoints
    assert len(compose(f, g, cap_breakpoints=82).breakpoints) == 82
    with pytest.raises(ResourceError, match="82 breakpoints"):
        compose(f, g, cap_breakpoints=81)


@given(st.one_of(maps, sub_domain_maps()), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_on_curve_equals_pointwise_evaluation(m, scale):
    d = math.lcm(*(x.denominator for x, _ in m.breakpoints)) * scale
    lo, hi = (int(x * d) for x in (m.domain.lo, m.domain.hi))
    # the breakpoints and about 50 lattice points between them
    ts = sorted({*(int(x * d) for x, _ in m.breakpoints), *range(lo, hi, max(1, (hi - lo) // 50))})
    n, values = _on_curve(m, d, ts)
    assert [F(v, n) for v in values] == [m(F(t, d)) for t in ts]
    # off the domain on either side, as PLMap evaluation reports it
    for off in ([lo - 1, *ts], [*ts, hi + 1]):
        with pytest.raises(DomainError):
            _on_curve(m, d, off)
