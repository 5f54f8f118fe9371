"""Entropy estimation and certification: separated/spanning counts,
horseshoes, and the iterated bracketing of relation entropy."""

import hashlib
import math
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction as F
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

from plent.blocks import level_report, unit_copy
from plent.errors import CertificationError, ResourceError
from plent.plmap import (
    Bound, Interval, PLMap, _on_lattice, at_most, compose, iterate, merge_intervals
)
from plent.families import appendix_pair, block_interval, plateau_map, slope_map, tent
from plent.relation import (
    MonotoneArc,
    PLRelation,
    compose_rel,
    diagonal,
    fiber_intervals,
    graph_of,
    inverse_rel,
    param_graph,
    rel_equals,
    rel_power,
    strongly_commutes,
)
from plent.relation import _from_lattice
from plent.entropy import (
    HorseshoeCert,
    _base_intervals,
    _crossings,
    _lattice,
    _max_independent,
    _subdivision_patterns,
    bracket_theorem_main,
    entropy_estimate,
    enumerate_orbits,
    find_horseshoe,
    iterate_horseshoe_bound,
    separated_count,
    spanning_count,
    verify_horseshoe,
)

from test_relation import _random_arc


# -- orbit enumeration -----------------------------------------------------------


def test_orbits_of_the_diagonal_are_constant():
    orb = enumerate_orbits(diagonal(), 2, F(1, 4))
    assert all(len(set(o)) == 1 for o in orb.orbits)
    assert len(orb.orbits) == 5


def test_orbits_start_at_the_grid_multiples_in_the_unit_interval():
    orb = enumerate_orbits(diagonal(), 1, F(2, 5))
    assert orb.orbits == ((F(0),), (F(2, 5),), (F(4, 5),))


@pytest.mark.parametrize("grid", [0, F(-1, 8)])
def test_enumerate_orbits_needs_a_positive_grid(grid):
    with pytest.raises(ValueError):
        enumerate_orbits(diagonal(), 2, grid)


def test_separated_count_on_diagonal_grid():
    orb = enumerate_orbits(diagonal(), 1, F(1, 4))
    # {0, 1/2, 1} is the largest subset with pairwise gaps above 1/4
    assert separated_count(orb.orbits, F(1, 4)) == 3


def test_spanning_separated_sandwich():
    orb = enumerate_orbits(param_graph(tent(2), tent(3)), 2, F(1, 8))
    pts = orb.orbits
    for eps in (F(1, 4), F(1, 8)):
        r = spanning_count(pts, eps)
        s = separated_count(pts, eps)
        r_half = spanning_count(pts, eps / 2)
        assert r <= s <= r_half


def test_entropy_estimate_rows_are_consistent():
    rows = entropy_estimate(
        param_graph(tent(2), tent(3)), [F(1, 8)], n_max=3, grid=F(1, 16)
    )
    assert [r.n for r in rows] == [1, 2, 3]
    for r in rows:
        assert r.r_count <= r.s_count
        assert r.estimate == pytest.approx(math.log(r.s_count) / r.n)


@pytest.mark.parametrize("count", [separated_count, spanning_count])
@pytest.mark.parametrize("eps", [0, F(-1, 8)])
def test_counts_need_a_positive_eps(count, eps):
    with pytest.raises(ValueError):
        count([(F(0),), (F(1, 2),)], eps)


# -- the neighbour-search counts against their all-pairs reference ----------------


def _reference_separated(a, b, eps):
    return any(abs(x - y) > eps for x, y in zip(a, b))


def reference_separated_count(points, eps, separated=_reference_separated):
    """separated_count as it was written, comparing every pair in Fractions;
    kept as the oracle for the neighbour search."""
    n = len(points)
    adj = {i: set() for i in range(n)}
    for i, j in combinations(range(n), 2):
        if not separated(points[i], points[j], eps):
            adj[i].add(j)
            adj[j].add(i)
    seen = set()
    total = 0
    for start in range(n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        if len(comp) <= 24:
            total += _max_independent(comp, adj)
        else:
            chosen = []
            for u in sorted(comp):
                if all(w not in adj[u] for w in chosen):
                    chosen.append(u)
            total += len(chosen)
    return total


def reference_spanning_count(points, eps, exact_cap=16):
    """spanning_count as it was written: all-pairs covers, exact set cover up
    to exact_cap points, first-max greedy beyond."""
    n = len(points)
    covers = [
        {j for j in range(n) if not _reference_separated(points[i], points[j], eps)}
        for i in range(n)
    ]
    if n <= exact_cap:
        for size in range(1, n + 1):
            for subset in combinations(range(n), size):
                hit = set()
                for i in subset:
                    hit |= covers[i]
                if len(hit) == n:
                    return size
        return n
    uncovered = set(range(n))
    count = 0
    while uncovered:
        best = max(range(n), key=lambda i: len(covers[i] & uncovered))
        uncovered -= covers[best]
        count += 1
    return count


def _random_point_set(rng):
    """Points in [0, 1]^dim on mixed denominators, with duplicates, pairs
    exactly eps apart and, sometimes, a chain of points closer than eps that
    makes one component of more than 24 points."""
    dim = rng.choice((1, 1, 2, 3, 4, 5, 8, 17, 40))
    eps = rng.choice((F(1, 8), F(1, 6), F(1, 4), F(1, 7), F(2, 13), F(3, 10)))
    dens = rng.sample((2, 3, 4, 5, 6, 8, 9, 12, 16, 35), rng.randint(1, 3))

    def value():
        q = rng.choice(dens)
        return F(rng.randint(0, q), q)

    n = rng.choice((0, 1, 2, 3, rng.randint(4, 10), rng.randint(17, 60)))
    points = [tuple(value() for _ in range(dim)) for _ in range(n)]
    for _ in range(min(n, rng.randint(0, 4))):
        p = list(rng.choice(points))
        p[rng.randrange(dim)] += eps * rng.choice((1, -1))  # exactly eps apart
        points.append(tuple(p))
    for _ in range(min(n, rng.randint(0, 3))):
        points.append(rng.choice(points))  # duplicates
    if n and rng.random() < 0.25:
        base = rng.choice(points)
        step = eps / rng.choice((2, 3))
        points += [tuple(x + k * step for x in base) for k in range(1, rng.randint(26, 40))]
    rng.shuffle(points)
    return points, eps


def test_counts_match_the_all_pairs_reference_on_random_point_sets():
    rng = random.Random(6060)
    big_component = greedy_spanning = 0
    for _ in range(200):
        points, eps = _random_point_set(rng)
        assert separated_count(points, eps) == reference_separated_count(points, eps)
        assert spanning_count(points, eps) == reference_spanning_count(points, eps)
        greedy_spanning += len(points) > 16
        big_component += len(points) > 24
        assert spanning_count(points, eps, exact_cap=0) == reference_spanning_count(
            points, eps, exact_cap=0
        )
    assert big_component >= 40 and greedy_spanning >= 50


def test_counts_match_the_reference_on_a_component_over_24_points():
    # 30 points 1/16 apart on a line: one component, so the greedy packing
    # runs, and it keeps every other point
    points = [(F(k, 16), F(1, 3)) for k in range(30)]
    eps = F(1, 16)
    assert separated_count(points, eps) == reference_separated_count(points, eps) == 15
    assert spanning_count(points, eps) == reference_spanning_count(points, eps) == 10


def test_counts_match_the_reference_on_relation_orbits():
    rel = param_graph(tent(2), tent(3))
    for n in (1, 2, 3):
        orbits = enumerate_orbits(rel, n, F(1, 16)).orbits
        for eps in (F(1, 8), F(1, 16), F(1, 10)):
            assert separated_count(orbits, eps) == reference_separated_count(orbits, eps)
            assert spanning_count(orbits, eps, exact_cap=0) == reference_spanning_count(
                orbits, eps, exact_cap=0
            )


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_estimate_rows_match_counts_from_scratch(rng):
    """Each row's counts, read off a closeness graph extended level by level,
    equal the counts recomputed on that level's orbits alone."""
    rel = PLRelation([_random_arc(rng) for _ in range(rng.randint(1, 4))])
    grid = F(1, rng.choice((2, 3, 4, 6, 8)))
    eps_schedule = rng.sample((F(1, 8), F(1, 6), F(1, 4), F(2, 7), F(1, 3)), rng.randint(1, 3))
    # as many levels as keep the all-pairs reference small
    n_max = 1
    while n_max < 5 and len(enumerate_orbits(rel, n_max + 1, grid).orbits) <= 120:
        n_max += 1
    rows = entropy_estimate(rel, eps_schedule, n_max, grid)
    assert [(r.n, r.eps) for r in rows] == [(n, e) for n in range(1, n_max + 1) for e in eps_schedule]
    for row in rows:
        orbits = enumerate_orbits(rel, row.n, grid).orbits
        assert row.s_count == separated_count(orbits, row.eps) == reference_separated_count(orbits, row.eps)
        assert row.r_count == spanning_count(orbits, row.eps, exact_cap=0)


def test_orbit_cap_fires_at_the_first_level_over_it():
    rel = param_graph(tent(2), tent(3))
    # the 1/32 grid starts 257 orbits of length 4 and 513 of length 5
    for run in (
        lambda: entropy_estimate(rel, [F(1, 8), F(1, 16)], 6, F(1, 32), cap_orbits=500),
        lambda: enumerate_orbits(rel, 6, F(1, 32), cap_orbits=500),
    ):
        with pytest.raises(ResourceError, match="orbit count exceeds cap 500") as err:
            run()
        partial = err.value.partial
        assert partial.n == 5 and len(partial.orbits) > 500
        assert {len(orbit) for orbit in partial.orbits} == {5}
    assert len(enumerate_orbits(rel, 4, F(1, 32), cap_orbits=257).orbits) == 257


# -- horseshoes --------------------------------------------------------------------


def test_tent_self_composition_has_the_classic_two_horseshoe():
    rel = compose_rel(inverse_rel(graph_of(tent(2))), graph_of(tent(2)))
    cert = find_horseshoe(rel, 2)
    assert cert is not None
    assert list(cert.intervals) == [
        Interval(F(0), F(1, 3)),
        Interval(F(2, 3), F(1)),
    ]
    assert verify_horseshoe(rel, cert.intervals)
    assert cert.n == 2


def test_verify_horseshoe_rejects_bad_intervals():
    rel = compose_rel(inverse_rel(graph_of(tent(2))), graph_of(tent(2)))
    assert not verify_horseshoe(
        rel, [Interval(F(0), F(1, 3)), Interval(F(1, 3), F(2, 3))]
    )
    # overlapping intervals are never a horseshoe
    assert not verify_horseshoe(
        rel, [Interval(F(0), F(1, 2)), Interval(F(1, 4), F(1))]
    )


def test_cubed_tent_relation_has_a_fourteen_horseshoe():
    rel = rel_power(param_graph(tent(2), tent(3)), 3)
    cert = find_horseshoe(rel, 14)
    assert cert is not None and cert.n == 14
    assert verify_horseshoe(rel, cert.intervals)


def test_iterate_horseshoe_bounds_grow():
    rel = param_graph(tent(2), tent(3))
    rows = iterate_horseshoe_bound(
        3, power=lambda k: rel_power(rel, k), candidates=lambda k: [(3**k + 1) // 2]
    )
    assert all(at_most(a, b) for a, b in zip(rows, rows[1:]))
    assert rows[0][:3] == (1, 2, "certified")
    for row in rows:
        assert isinstance(row.evidence, HorseshoeCert) and row.evidence.n == row.base


@pytest.mark.parametrize("sizes", [[1], [0], [1, 2]])
def test_iterate_horseshoe_bound_rejects_sizes_below_two(sizes):
    powers = []

    def power(k):
        powers.append(k)
        return param_graph(tent(2), tent(3))

    with pytest.raises(ValueError, match="at least 2 intervals"):
        iterate_horseshoe_bound(2, power, candidates=lambda k: sizes)
    assert powers == []  # rejected before its power is formed


def test_bracket_of_tent_parameters_below_three_is_a_value_error():
    # the level-1 size (max(n, m) + 1) // 2 is 1: no horseshoe to search
    with pytest.raises(ValueError, match="at least 2 intervals"):
        bracket_theorem_main(2, 1, 2)


# -- the integer-lattice verifier against its Fraction reference ---------------------


def reference_verify_horseshoe(rel, intervals):
    """verify_horseshoe as it was written in Fractions, kept as the oracle for
    the integer-lattice version."""
    ivs = sorted(intervals, key=lambda iv: iv.lo)
    if len(ivs) < 2 or any(iv.is_point() for iv in ivs):
        return False
    for a, b in zip(ivs, ivs[1:]):
        if a.hi >= b.lo:
            return False
    los = [iv.lo for iv in ivs]
    images = [[] for _ in ivs]
    for arc in rel.arcs:
        dom = arc.dom
        i = max(bisect_right(los, dom.lo) - 1, 0)
        while i < len(ivs) and ivs[i].lo <= dom.hi:
            img = arc.image(ivs[i])
            if img is not None:
                images[i].append(img)
            i += 1

    def covers_all(merged, targets):
        j = 0
        for tgt in targets:
            while j < len(merged) and merged[j].hi < tgt.hi:
                j += 1
            if j == len(merged) or merged[j].lo > tgt.lo:
                return False
        return True

    return all(covers_all(merge_intervals(imgs), ivs) for imgs in images)


def _inside(rng, lo, hi):
    """A random rational strictly between lo and hi."""
    q = rng.choice((3, 4, 5, 7, 9, 11))
    return lo + (hi - lo) * F(rng.randint(1, q - 1), q)


def _monotone_arc(rng, a, b, c, d, decreasing):
    """An inc or dec arc from [a, b] onto [c, d], with up to three inner
    breakpoints."""
    inner = rng.randint(0, 3)
    xs = sorted({a, b, *(_inside(rng, a, b) for _ in range(inner))})
    ys = {c, d}
    while len(ys) < len(xs):
        ys.add(_inside(rng, c, d))
    ys = sorted(ys)
    if decreasing:
        ys.reverse()
    return MonotoneArc.from_map(PLMap(zip(xs, ys)))


def _random_case(rng):
    """A relation whose arcs over n disjoint sources chain images from 0 to
    1, with random gaps, overlaps and exact meetings at source endpoints,
    plus stray arcs of every kind; and patterns built around the sources:
    as they are, nudged by a tiny step, touching, overlapping, degenerate."""
    n = rng.randint(2, 4)
    step = F(1, rng.choice((10**6, 3**13, 7**8)))
    ends = set()
    while len(ends) < 2 * n:
        ends.add(F(rng.randint(1, 59), 60) if rng.random() < 0.5 else _inside(rng, F(0), F(1)))
    ends = sorted(ends)
    sources = [Interval(ends[2 * i], ends[2 * i + 1]) for i in range(n)]
    arcs = []
    for src in sources:
        pieces = rng.randint(1, 3)
        xs = sorted({src.lo, src.hi, *(_inside(rng, src.lo, src.hi) for _ in range(pieces - 1))})
        ys = [F(0)]
        for _ in range(len(xs) - 2):
            # meet exactly at a source endpoint half of the time
            ys.append(rng.choice(ends) if rng.random() < 0.5 else _inside(rng, F(0), F(1)))
        ys.append(F(1))
        ys.sort()
        for (x0, x1), (y0, y1) in zip(zip(xs, xs[1:]), zip(ys, ys[1:])):
            r = rng.random()
            if r < 0.15:
                y1 = max(y0, y1 - step)  # gap just below y1
            elif r < 0.3:
                y0 = min(y1, y0 + step)  # gap just above y0
            elif r < 0.4:
                y0 = max(F(0), y0 - step)  # overlap
            if rng.random() < 0.1 or y0 == y1:
                arcs.append(MonotoneArc.from_map(PLMap([(x0, y0), (x1, y0)])))
            else:
                arcs.append(_monotone_arc(rng, x0, x1, y0, y1, rng.random() < 0.5))
    for _ in range(rng.randint(0, 3)):
        x = rng.choice(ends) if rng.random() < 0.5 else _inside(rng, F(0), F(1))
        lo = _inside(rng, F(0), F(1))
        arcs.append(MonotoneArc.vertical(x, Interval(lo, _inside(rng, lo, F(1)))))
    for _ in range(rng.randint(0, 2)):
        a = _inside(rng, F(0), F(1))
        b = _inside(rng, a, F(1))
        arcs.append(MonotoneArc.from_map(PLMap([(a, a), (b, a)])))
    rel = PLRelation(arcs)

    i = rng.randrange(n)
    src = sources[i]
    patterns = [sources, sources[::-1], rng.sample(sources, rng.randint(2, n))]
    for lo, hi in ((src.lo + step, src.hi), (src.lo, src.hi - step),
                   (max(F(0), src.lo - step), src.hi), (src.lo, min(F(1), src.hi + step)),
                   (src.lo, src.lo)):
        patterns.append(sources[:i] + [Interval(lo, hi)] + sources[i + 1:])
    if i + 1 < n:
        nxt = sources[i + 1]
        patterns.append(sources[:i] + [Interval(src.lo, nxt.lo)] + sources[i + 1:])
        patterns.append(sources[:i] + [Interval(src.lo, min(F(1), nxt.lo + step))] + sources[i + 1:])
    return rel, patterns


def test_lattice_verify_matches_the_reference_on_random_relations():
    rng = random.Random(20240417)
    outcomes = []
    for _ in range(300):
        rel, patterns = _random_case(rng)
        for pattern in patterns:
            got = verify_horseshoe(rel, pattern)
            assert got == reference_verify_horseshoe(rel, pattern), pattern
            outcomes.append(got)
    # the cases must exercise both answers to mean anything
    assert outcomes.count(True) >= 100 and outcomes.count(False) >= 100


def test_lattice_verify_matches_the_reference_on_tent_patterns():
    # (group, relation, bases, sizes, most patterns per base and size)
    cases = []
    for k in range(1, 5):
        rel = param_graph(iterate(tent(2), k), iterate(tent(3), k))
        n = (3**k + 1) // 2
        sizes = range(max(2, n - 1), n + 2)
        cases.append(("tent", rel, list(_base_intervals(rel))[:1], sizes, None))
    # level 5 (274 arcs, 122 intervals): the Fraction reference takes about
    # a quarter second a pattern, so only the hull's first four
    rel = param_graph(iterate(tent(2), 5), iterate(tent(3), 5))
    cases.append(("tent k=5", rel, list(_base_intervals(rel))[:1], [122], 4))
    # an x-map with more laps than the y-map, and one of constant slope
    for group, f, g, laps, levels in (
        ("tent:5, tent:3", tent(5), tent(3), 5, (1, 2)),
        ("slope:3, tent:2", slope_map(3), tent(2), 3, (1, 2, 3)),
    ):
        for k in levels:
            rel = param_graph(iterate(f, k), iterate(g, k))
            sizes = sorted({2, 3, (laps**k + 1) // 2})
            cases.append((group, rel, list(_base_intervals(rel))[:1], sizes, None))
    for rel in (
        rel_power(param_graph(tent(2), tent(3)), 2),
        compose_rel(inverse_rel(graph_of(tent(2))), graph_of(tent(3))),
        param_graph(plateau_map(), tent(3)),  # vertical arcs
        param_graph(tent(3), plateau_map()),  # horizontal arcs
    ):
        cases.append(("other", rel, list(_base_intervals(rel))[:3], range(2, 5), None))
    outcomes = {}
    for group, rel, bases, sizes, most in cases:
        for base in bases:
            for n in sizes:
                for pattern in islice(_subdivision_patterns(base, n), most):
                    got = verify_horseshoe(rel, pattern)
                    assert got == reference_verify_horseshoe(rel, pattern)
                    outcomes.setdefault(group, set()).add(got)
    # the cases must exercise both answers to mean anything
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def _meeting_relation(shortfall=F(0), above=F(0)):
    """Sources [0,1/3] and [2/5,1].  Over [0,1/3] one arc climbs to its
    value at the source endpoint 1/3, inside its second segment:
    1/2 - 4 * shortfall / 9.  A second arc falls from 1 to 1/2 + above.
    [2/5,1] maps onto [0,1]."""
    return PLRelation([
        MonotoneArc.from_map(PLMap([(0, 0), (F(1, 5), F(1, 5)), (F(1, 2), F(7, 8) - shortfall)])),
        MonotoneArc.from_map(PLMap([(F(1, 4), 1), (F(1, 3), F(1, 2) + above)])),
        MonotoneArc.from_map(PLMap([(F(2, 5), 1), (1, 0)])),
    ])


def test_lattice_verify_images_meeting_exactly_or_one_step_apart():
    pattern = [Interval(F(0), F(1, 3)), Interval(F(2, 5), F(1))]
    step = F(1, _lattice(_meeting_relation(), pattern)[0])
    cases = [
        (F(0), F(0), True),  # the images meet exactly at 1/2, inside [2/5, 1]
        # a gap of 1/1350 below 1/2: rounding the value at 1/3 to the
        # breakpoint lattice (1/300) would close it
        (F(1, 600), F(0), False),
        (F(0), step, False),  # a one-step gap above 1/2
    ]
    for shortfall, above, want in cases:
        rel = _meeting_relation(shortfall, above)
        assert verify_horseshoe(rel, pattern) == reference_verify_horseshoe(rel, pattern) == want


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (F(3, 4), F(1, 2))],  # one segment, slope 2/3
        [(0, 0), (F(3, 8), F(1, 8)), (F(3, 4), F(1, 2))],  # bent: slopes 1/3, 1
    ],
    ids=["one-segment", "bent"],
)
def test_lattice_verify_raises_on_a_lattice_one_factor_too_coarse(monkeypatch, points):
    import plent.entropy

    rel = PLRelation([MonotoneArc.from_map(PLMap(points))])
    pattern = [Interval(F(0), F(1, 4)), Interval(F(1, 2), F(3, 4))]
    d, dx = _lattice(rel, pattern)
    # D holds the factor 3 only for the rise of a slope-p/3 segment per
    # 1/Dx step; without it every breakpoint and endpoint is still on the
    # lattice, so only the per-segment check can notice
    assert d % 3 == 0 and dx % 3 and d // 3 % dx == 0
    assert verify_horseshoe(rel, pattern) == reference_verify_horseshoe(rel, pattern)
    monkeypatch.setattr(plent.entropy, "_lattice", lambda rel, ivs: (d // 3, dx))
    with pytest.raises(ArithmeticError, match="^value is off the integer lattice$"):
        verify_horseshoe(rel, pattern)


def test_verify_converts_only_the_interval_endpoints(monkeypatch):
    import plent.entropy
    import plent.plmap

    # built before the count starts; the second has vertical arcs
    rels = [
        param_graph(iterate(tent(2), 2), iterate(tent(3), 2)),
        param_graph(plateau_map(), tent(3)),
    ]
    cases = [
        (rel, pattern)
        for rel in rels
        for base in islice(_base_intervals(rel), 6)
        for n in (2, 3)
        for pattern in _subdivision_patterns(base, n)
    ]
    calls = []
    real = plent.plmap._on_lattice

    def counting(q, d):
        calls.append(q)
        return real(q, d)

    monkeypatch.setattr(plent.plmap, "_on_lattice", counting)
    monkeypatch.setattr(plent.entropy, "_on_lattice", counting)
    outcomes = set()
    for rel, pattern in cases:
        calls.clear()
        outcomes.add(verify_horseshoe(rel, pattern))
        assert len(calls) <= 2 * len(pattern)
    assert outcomes == {True, False}


def _cursor_case(rng):
    """(relation, patterns, straight arc, bent arc).  The arcs sweep many
    sources each: one long straight arc over all n sources, so all 2n
    endpoints fall inside one segment; one long bent arc with a breakpoint
    strictly inside each source and one at each source's right end; and,
    over each source, an arc onto the sources' hull (or just short of it)
    bent strictly inside the source.  Patterns: the sources as they are,
    one of them nudged by a tiny step at either end, or a subset."""
    n = rng.randint(3, 12)
    step = F(1, rng.choice((10**6, 3**13)))
    ends = sorted(rng.sample(range(1, 6 * n), 2 * n))
    q = 6 * n
    sources = [Interval(F(ends[2 * i], q), F(ends[2 * i + 1], q)) for i in range(n)]
    lo, hi = sources[0].lo / 2, (1 + sources[-1].hi) / 2
    arcs = [MonotoneArc.from_map(PLMap([(lo, _inside(rng, F(0), F(1, 2))), (hi, F(1, 2))]))]
    knees = [lo, *(v for src in sources for v in (_inside(rng, src.lo, src.hi), src.hi)), hi]
    knees = sorted(set(knees))
    ys = sorted(rng.sample(range(len(knees) * 4), len(knees)))
    ys = [F(y, len(knees) * 4) for y in ys]
    arcs.append(MonotoneArc.from_map(PLMap(zip(knees, ys if rng.random() < 0.5 else ys[::-1]))))
    for src in sources:
        y0 = sources[0].lo + (step if rng.random() < 0.05 else 0)
        y1 = sources[-1].hi - (step if rng.random() < 0.05 else 0)
        xs = [src.lo, _inside(rng, src.lo, src.hi), src.hi]
        ys = [y0, _inside(rng, y0, y1), y1]
        if rng.random() < 0.5:
            ys.reverse()
        arcs.append(MonotoneArc.from_map(PLMap(zip(xs, ys))))
    i = rng.randrange(n)
    src = sources[i]
    patterns = [sources, rng.sample(sources, rng.randint(2, n))]
    for nudged in (Interval(src.lo + step, src.hi), Interval(src.lo, src.hi - step)):
        patterns.append(sources[:i] + [nudged] + sources[i + 1 :])
    return PLRelation(arcs), patterns, arcs[0], arcs[1]


def test_lattice_verify_matches_the_reference_along_segments_and_across_breakpoints():
    rng = random.Random(16)
    outcomes = []
    for _ in range(100):
        rel, patterns, straight, bent = _cursor_case(rng)
        assert len(straight.homeo.breakpoints) == 2
        for pattern in patterns:
            assert all(straight.dom.contains_interval(iv) for iv in pattern)
            got = verify_horseshoe(rel, pattern)
            assert got == reference_verify_horseshoe(rel, pattern), pattern
            outcomes.append(got)
        # a breakpoint of the bent arc lies strictly inside a source
        assert any(iv.lo < x < iv.hi for x, _ in bent.homeo.breakpoints for iv in patterns[0])
    assert outcomes.count(True) >= 50 and outcomes.count(False) >= 50


def _window_case(gap_arcs=(), spanning=True, vertical_hi=True):
    """Sources [0,1/5], [2/5,3/5], [4/5,1] of a relation whose arcs meet
    the window's boundaries.  A long arc, the identity over [0,1], meets
    every source, so each source's own interval comes only from it.  Over
    [0,1/5] an arc rises onto [2/5,3/4]; [3/4,1] comes from a vertical arc
    at the source's right end 1/5, and an arc over [1/5,2/5] starts there.
    Over [2/5,3/5] two arcs reach [0,1/5] and [4/5,1], and a vertical arc on
    its left end 2/5 adds a point.  Over [4/5,1] an arc falls onto [0,3/5]."""
    arcs = [
        MonotoneArc.from_map(PLMap([(0, F(2, 5)), (F(1, 5), F(3, 4))])),
        MonotoneArc.from_map(PLMap([(F(1, 5), F(1, 2)), (F(2, 5), F(1, 3))])),
        MonotoneArc.from_map(PLMap([(F(2, 5), 0), (F(1, 2), F(1, 5))])),
        MonotoneArc.from_map(PLMap([(F(1, 2), F(4, 5)), (F(3, 5), 1)])),
        MonotoneArc.vertical(F(2, 5), Interval(F(1, 2), F(1, 2))),
        MonotoneArc.from_map(PLMap([(F(4, 5), F(3, 5)), (1, 0)])),
        *gap_arcs,
    ]
    if spanning:
        arcs.append(MonotoneArc.from_map(PLMap([(0, 0), (F(1, 2), F(1, 2)), (1, 1)])))
    if vertical_hi:
        arcs.append(MonotoneArc.vertical(F(1, 5), Interval(F(3, 4), 1)))
    sources = [Interval(0, F(1, 5)), Interval(F(2, 5), F(3, 5)), Interval(F(4, 5), 1)]
    return arcs, sources


def test_lattice_verify_matches_the_reference_at_the_sweep_window_boundaries():
    outside = [  # in the gaps between the sources: right of a pattern's first two
        MonotoneArc.from_map(PLMap([(F(1, 4), 0), (F(1, 3), 1)])),
        MonotoneArc.from_map(PLMap([(F(2, 3), 1), (F(3, 4), 0)])),
        MonotoneArc.vertical(F(7, 10), Interval(0, 1)),
    ]
    cases = [
        ({}, True),
        (dict(gap_arcs=outside), True),
        (dict(spanning=False), False),  # the long arc alone fills each source
        (dict(spanning=False, gap_arcs=outside), False),
        (dict(vertical_hi=False), False),  # the vertical arc at 1/5 is needed
        (dict(vertical_hi=False, gap_arcs=outside), False),
    ]
    rng = random.Random(26)
    for kwargs, want in cases:
        arcs, sources = _window_case(**kwargs)
        rel = PLRelation(arcs)
        for pattern in (sources, sources[:2], sources[1:], [sources[0], sources[2]]):
            got = verify_horseshoe(rel, pattern)
            assert got == reference_verify_horseshoe(rel, pattern)
            if pattern is sources:
                assert got == want, kwargs
            # the arcs given in shuffled order, and the integer form's keys
            # in shuffled order: the sweep orders them itself
            for _ in range(5):
                shuffled = rng.sample(arcs, len(arcs))
                assert verify_horseshoe(PLRelation(shuffled), pattern) == got
                keys = rng.sample(rel._lattice.keys, len(arcs))
                shuffled = _from_lattice(rel._lattice._replace(keys=keys))
                assert verify_horseshoe(shuffled, pattern) == got


def test_lattice_verify_matches_the_reference_on_shuffled_random_relations():
    rng = random.Random(2026)
    outcomes = []
    for _ in range(100):
        rel, patterns = _random_case(rng)
        keys = rng.sample(rel._lattice.keys, len(rel._lattice.keys))
        shuffled = _from_lattice(rel._lattice._replace(keys=keys))
        for pattern in patterns:
            got = verify_horseshoe(shuffled, pattern)
            assert got == reference_verify_horseshoe(rel, pattern), pattern
            outcomes.append(got)
    assert outcomes.count(True) >= 30 and outcomes.count(False) >= 30


def test_verify_horseshoe_returns_false_before_reading_past_an_uncovered_source(monkeypatch):
    import plent.entropy

    rel = param_graph(iterate(tent(2), 5), iterate(tent(3), 5))
    cert = find_horseshoe(rel, 122).intervals
    assert cert[0] == Interval(F(0), F(1, 243))
    # the leftmost source halved: its images no longer cover the others
    pattern = [Interval(F(0), F(1, 486)), *cert[1:]]
    assert reference_verify_horseshoe(rel, pattern) is False
    right = _on_lattice(F(1, 486), _lattice(rel, pattern)[1])
    starts = []
    real = plent.entropy._pieces

    def counting(xs, ys):
        starts.append(xs[0])
        return real(xs, ys)

    monkeypatch.setattr(plent.entropy, "_pieces", counting)
    assert verify_horseshoe(rel, pattern) is False
    assert starts and max(starts) <= right


def test_verify_horseshoe_peak_memory():
    """The level-7 tent:2/tent:3 curve (2,314 arcs) and its 1,094-interval
    certificate, 142,218 (arc, source) images in all, checked below 2 MB
    of traced allocations.  The peak measured on Python 3.11 is 0.72 MB; it
    was 18.4 MB while every source's images were held to the end."""
    rel = param_graph(iterate(tent(2), 7), iterate(tent(3), 7))
    pattern = next(_subdivision_patterns(next(_base_intervals(rel)), 1094))
    tracemalloc.start()
    try:
        ok = verify_horseshoe(rel, pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 2 * 10**6, f"peak {peak / 1e6:.1f} MB"


def _structural_points(rel):
    return sorted({v for arc in rel.arcs for v in (arc.dom.lo, arc.dom.hi)}
                  | {x for arc in rel.arcs if arc.kind != "ver" for x, _ in arc.homeo.breakpoints})


def _appendix_block_relation(k, n_seq=(2, 5, 2, 5), s=2):
    """The relation of the tent block k + 1 that `level_report` searches."""
    f, g = appendix_pair(k, n_seq, s, _check=False)
    blk = block_interval(k + 1)
    return param_graph(unit_copy(f, blk), unit_copy(g, blk))


def _reference_crossings(rel):
    """The lap crossings of a base in Fractions, as a function of the base:
    the inc/dec arcs whose image over the base covers it, and the longest
    chain of their preimages of the base, each ending where or before the
    next begins (dynamic programming over the preimages by left end)."""
    strict = [(arc, arc.ran, arc.homeo.inverse()) for arc in rel.arcs if arc.kind in ("inc", "dec")]

    def crossings(base):
        spans = sorted(
            tuple(sorted((inverse(base.lo), inverse(base.hi))))
            for arc, ran, inverse in strict
            if ran.contains_interval(base)
            and (image := arc.image(base)) is not None
            and image.contains_interval(base)
        )
        best = []
        for a, _ in spans:
            best.append(1 + max((c for (_, d), c in zip(spans, best) if d <= a), default=0))
        return max(best, default=0)

    return crossings


def _old_base_intervals(rel):
    """The base order before crossings ranked it: the hull, then the other
    pairs of structural points (at most 42), longest first."""
    pts = _structural_points(rel)
    hull = Interval(pts[0], pts[-1])
    yield hull
    if len(pts) <= 42:
        pairs = sorted((Interval(a, b) for a, b in combinations(pts, 2)), key=lambda iv: -iv.length)
        yield from (iv for iv in pairs if iv != hull)


def test_base_intervals_are_the_hull_then_the_pairs_by_crossings():
    for rel in (
        compose_rel(inverse_rel(graph_of(tent(2))), graph_of(tent(3))),
        param_graph(plateau_map(), tent(3)),
        param_graph(iterate(tent(2), 2), iterate(tent(3), 2)),
        *(_appendix_block_relation(k) for k in (1, 2)),
        param_graph(iterate(tent(2), 3), iterate(tent(3), 3)),  # 34 arcs
        param_graph(iterate(tent(2), 5), iterate(tent(3), 5)),  # over 42 points
    ):
        pts = _structural_points(rel)
        want = [Interval(pts[0], pts[-1])]
        if len(pts) <= 42:
            crossings = _reference_crossings(rel)
            want += sorted(
                (Interval(a, b) for a, b in combinations(pts, 2) if (a, b) != (pts[0], pts[-1])),
                key=lambda iv: (-crossings(iv), -iv.length),
            )
        assert list(_base_intervals(rel)) == want
    # 42 points, the most whose pairs are all tried: every pair once
    many = param_graph(iterate(tent(2), 4), iterate(tent(3), 4))
    assert len(set(_base_intervals(many))) == len(list(_base_intervals(many))) == 42 * 41 // 2
    # the tent block of appendix level 2 is crossed five times by its laps
    # on the middle third, more than on any longer pair
    rel = _appendix_block_relation(2)
    second = list(_base_intervals(rel))[1]
    assert second == Interval(F(1, 3), F(2, 3))
    assert _reference_crossings(rel)(second) == 5


def _point_set_base_intervals(rel):
    """The base order built from the sorted set of structural points: its
    hull, then the other pairs ranked by `_crossings`, which takes the
    points on the relation's x-lattice, ties longest first."""
    points = set()
    for arc in rel.arcs:
        if arc.kind == "ver":
            points.add(arc.x)
        else:
            points.update(x for x, _ in arc.homeo.breakpoints)
    pts = sorted(points)
    yield Interval(pts[0], pts[-1])
    if len(pts) <= 42:
        crossings = _crossings(rel, [_on_lattice(p, rel._lattice.dx) for p in pts])
        pairs = sorted(
            (ij for ij in combinations(range(len(pts)), 2) if ij != (0, len(pts) - 1)),
            key=lambda ij: (-crossings.get(ij, 0), pts[ij[0]] - pts[ij[1]]),
        )
        yield from (Interval(pts[i], pts[j]) for i, j in pairs)


def test_base_intervals_keep_the_order_of_the_sorted_point_set():
    # the first certificate found, and so every artifact digest, depends
    # on this order
    rels = [param_graph(iterate(tent(2), k), iterate(tent(3), k)) for k in range(1, 5)]
    rels += [_appendix_block_relation(k) for k in (1, 2, 3)]
    rels.append(param_graph(plateau_map(), tent(3)))  # vertical arcs
    for rel in rels:
        assert list(_base_intervals(rel)) == list(_point_set_base_intervals(rel))


def _search_corpus():
    corpus = [param_graph(iterate(tent(2), k), iterate(tent(3), k)) for k in (1, 2, 3)]
    corpus += [
        rel_power(param_graph(tent(2), tent(3)), 2),
        compose_rel(inverse_rel(graph_of(tent(2))), graph_of(tent(2))),
        param_graph(plateau_map(), tent(3)),
        param_graph(tent(3), plateau_map()),
    ]
    return corpus + [_appendix_block_relation(k) for k in (1, 2, 3)]


def test_ranked_search_finds_a_horseshoe_exactly_when_the_old_order_does():
    outcomes = set()
    for rel in _search_corpus():
        for n in range(2, 6):
            old = any(
                verify_horseshoe(rel, pattern)
                for base in _old_base_intervals(rel)
                for pattern in _subdivision_patterns(base, n)
            )
            cert = find_horseshoe(rel, n)
            assert (cert is not None) == old, (rel.arcs, n)
            if cert is not None:
                assert cert.n == n and verify_horseshoe(rel, cert.intervals)
            outcomes.add(old)
    assert outcomes == {True, False}


def test_appendix_block_searches_stay_within_the_call_budget(monkeypatch):
    import plent.entropy

    calls = []

    def counting_verify(rel, intervals):
        calls.append(len(intervals))
        return verify_horseshoe(rel, intervals)

    monkeypatch.setattr(plent.entropy, "verify_horseshoe", counting_verify)
    for k in (1, 2, 3):
        rows = level_report((2, 5, 2, 5), 2, k).rows
        assert isinstance(rows[k].lower.evidence, HorseshoeCert)
    # 466 in the old longest-first order: 118 + 230 + 118
    assert 0 < len(calls) <= 80


# -- bracketing -------------------------------------------------------------------


def test_bracket_contains_target_at_every_level():
    report = bracket_theorem_main(3, 2, 4)
    assert report.target == Bound(1, 3, "theorem")
    assert [b.k for b in report.lower] == [b.k for b in report.upper] == [1, 2, 3, 4]
    for lo, hi in zip(report.lower, report.upper):
        assert at_most(lo, report.target) and at_most(report.target, hi)
    # monotone tightening
    assert all(at_most(a, b) for a, b in zip(report.lower, report.lower[1:]))
    assert all(at_most(b, a) for a, b in zip(report.upper, report.upper[1:]))


def test_bracket_stops_at_the_first_level_without_a_horseshoe(monkeypatch):
    import plent.entropy

    powers = []

    def counting_param_graph(f, g):
        powers.append((f, g))
        return param_graph(f, g)

    monkeypatch.setattr(plent.entropy, "param_graph", counting_param_graph)
    # the curve of (tent:3, tent:2) contracts: it has no 2-horseshoe at k=1
    with pytest.raises(CertificationError, match="no 2-horseshoe found at level k=1") as err:
        bracket_theorem_main(2, 3, 4)
    assert (err.value.level, err.value.n) == (1, 2)
    assert powers == [(tent(3), tent(2))]  # the curve of level 1 only


def _branch_counts_with_last(count_at):
    """`branch_counts` with the count of its last level replaced by
    count_at(k)."""
    import plent.entropy

    real = plent.entropy.branch_counts

    def patched(f, g, k_max, cap_arcs=None):
        rows = real(f, g, k_max, cap_arcs=cap_arcs)
        return rows[:-1] + [Bound(k_max, count_at(k_max), "certified")]

    return patched


@pytest.mark.parametrize(
    "count_at, message",
    [
        (lambda k: 3**k - 1, "bracket violated at k=2"),  # upper bound below log 3
        (lambda k: (k + 1) * 3**k + 1, r"misses the \(log\(k\+1\)\)/k gap at k=2"),
    ],
    ids=["missed-bracket", "missed-gap"],
)
def test_a_broken_bracket_raises_certification_error(monkeypatch, count_at, message):
    import plent.entropy

    monkeypatch.setattr(plent.entropy, "branch_counts", _branch_counts_with_last(count_at))
    with pytest.raises(CertificationError, match=message) as err:
        bracket_theorem_main(3, 2, 2)
    assert (err.value.level, err.value.n) == (2, count_at(2))


K, SIZE, COUNT = 23, (3**23 + 1) // 2, 3**23  # the bracket's level, a horseshoe, a count


def _bracket_to_23(monkeypatch, size, count):
    """bracket_theorem_main(3, 2, 23) on stand-in horseshoe bounds of the
    sizes it asks for, (1/k) log ((3^k + 1) // 2), and branch counts 3^k,
    at every level but the last, where they are size and count."""
    import plent.entropy

    def horseshoes(k_max, power, *, candidates):
        sizes = [candidates(k)[0] for k in range(1, k_max)] + [size]
        return [Bound(k, n, "certified") for k, n in enumerate(sizes, 1)]

    def counts(f, g, k_max, cap_arcs=None):
        cs = [3**k for k in range(1, k_max)] + [count]
        return [Bound(k, c, "certified") for k, c in enumerate(cs, 1)]

    monkeypatch.setattr(plent.entropy, "iterate_horseshoe_bound", horseshoes)
    monkeypatch.setattr(plent.entropy, "branch_counts", counts)
    return bracket_theorem_main(3, 2, K)


@pytest.mark.parametrize(
    "size, count",
    [(SIZE, COUNT), (SIZE, (K + 1) * COUNT), (COUNT, COUNT)],
    ids=["count-at-target", "count-at-gap", "horseshoe-at-target"],
)
def test_a_bracket_to_level_23_holds_at_its_edges(monkeypatch, size, count):
    report = _bracket_to_23(monkeypatch, size, count)
    assert (report.lower[-1].base, report.upper[-1].base) == (size, count)


@pytest.mark.parametrize(
    "size, count, message",
    [
        (SIZE, COUNT - 1, "bracket violated at k=23"),
        (SIZE, (K + 1) * COUNT + 1, r"misses the \(log\(k\+1\)\)/k gap at k=23"),
        (COUNT + 1, COUNT, "bracket violated at k=23"),
    ],
    ids=["count-below-target", "count-past-gap", "horseshoe-past-target"],
)
def test_one_past_an_edge_fails_the_bracket_at_level_23(monkeypatch, size, count, message):
    """Each is within 1e-12 of its edge in floats, (1/23) log N against
    log 3 or log 3 + log(24)/23, so only an exact check sees it.  The
    error's `n` is the size of the side at fault: the horseshoe's when it
    passes the target, else the count."""
    with pytest.raises(CertificationError, match=message) as err:
        _bracket_to_23(monkeypatch, size, count)
    assert (err.value.level, err.value.n) == (K, size if size > SIZE else count)


def test_bracket_rejects_non_coprime_pairs():
    with pytest.raises(ValueError):
        bracket_theorem_main(4, 2, 2)


def _cert_digest(report):
    text = "\n".join(
        f"{b.k} {b.base} " + " ".join(f"{iv.lo}:{iv.hi}" for iv in b.evidence.intervals)
        for b in report.lower
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "n, m, k, digest",
    [
        (3, 2, 6, "03dcfddb08d27db97adab94331f1ebe047ccff69a8078c198b6c933d93da5766"),
        (5, 3, 4, "a3b051163b8a207eacc863772d8c89e0bfbda3ac23c07c360832b18abcc23e80"),
    ],
)
def test_bracket_certificates_are_unchanged(n, m, k, digest):
    assert _cert_digest(bracket_theorem_main(n, m, k)) == digest


def test_bracket_builds_each_power_from_the_previous_one(monkeypatch):
    import plent.plmap

    calls = []

    def counting_compose(f, g, cap_breakpoints=None):
        calls.append(len(g.breakpoints))
        return compose(f, g, cap_breakpoints=cap_breakpoints)

    # the one name a power reaches compose through, `_iterates`' own;
    # relation's binding serves the strong-commutation check, not the powers
    monkeypatch.setattr(plent.plmap, "compose", counting_compose)
    bracket_theorem_main(3, 2, 6)
    assert len(calls) == 2 * (6 - 1)


def test_bracket_materializes_no_arc_of_its_curves(monkeypatch):
    """The horseshoe search and the branch counts read only the integer
    form of each k-th curve, so none of them builds its arcs."""
    import plent.relation

    built = []
    real = plent.relation._arcs_of
    monkeypatch.setattr(plent.relation, "_arcs_of", lambda lat: built.append(lat) or real(lat))
    report = bracket_theorem_main(3, 2, 6)
    assert [b.k for b in report.lower] == [1, 2, 3, 4, 5, 6]
    assert built == []


def test_orbit_counts_and_relation_queries_read_only_the_integer_form(monkeypatch, maps_built):
    """On the relation of the orbits-23 job, param_graph(tent:2, tent:3):
    point-set equality, strong commutation, fibers and the orbit counts
    build no `PLMap` and no arc; `rel_equals` builds no `Fraction`, and
    `fiber_intervals` only the endpoints it returns."""
    import plent.relation

    arcs_built, fractions_built = [], []
    real = plent.relation._arcs_of
    monkeypatch.setattr(plent.relation, "_arcs_of", lambda lat: arcs_built.append(lat) or real(lat))
    monkeypatch.setattr(plent.relation, "Fraction", lambda *a: fractions_built.append(a) or F(*a))
    f, g, identity = tent(2), tent(3), diagonal()
    maps_built.clear()
    rel = param_graph(f, g)
    assert rel_equals(rel, inverse_rel(inverse_rel(rel))) and not rel_equals(rel, identity)
    assert strongly_commutes(f, g)
    assert fractions_built == []
    for x in (F(k, 32) for k in range(33)):
        fractions_built.clear()
        fiber = fiber_intervals(rel, x)
        assert fiber and len(fractions_built) == 2 * len(fiber)
    rows = entropy_estimate(rel, [F(1, 8), F(1, 16)], 4, F(1, 32))
    assert [r.n for r in rows] == [1, 1, 2, 2, 3, 3, 4, 4]
    assert maps_built == [] and arcs_built == [] and rel._arcs is None


def test_first_subdivision_pattern_is_the_odd_pieces():
    rng = random.Random(2020)
    for _ in range(200):
        lo, hi = sorted(F(rng.randint(0, 60), rng.randint(1, 60)) for _ in range(2))
        if not lo < hi <= 1:
            continue
        n = rng.randint(2, 9)
        step = (hi - lo) / (2 * n - 1)
        want = tuple(Interval(lo + 2 * i * step, lo + (2 * i + 1) * step) for i in range(n))
        assert next(_subdivision_patterns(Interval(lo, hi), n)) == want
