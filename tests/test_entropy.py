"""Entropy estimation and certification: separated/spanning counts,
horseshoes, and the iterated bracketing of relation entropy."""

import hashlib
import math
import random
from bisect import bisect_right
from fractions import Fraction as F
from itertools import combinations

import pytest

from plent.plmap import Interval, PLMap, compose, iterate, merge_intervals
from plent.families import plateau_map, tent
from plent.relation import (
    MonotoneArc,
    PLRelation,
    compose_rel,
    diagonal,
    graph_of,
    inverse_rel,
    param_graph,
    rel_power,
)
from plent.entropy import (
    _base_intervals,
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
    assert cert.bound == pytest.approx(math.log(2))


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
    bounds = [row.bound for row in rows]
    assert bounds == sorted(bounds)
    assert bounds[0] == pytest.approx(math.log(2))


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
    cases = []
    for k in range(1, 5):
        rel = param_graph(iterate(tent(2), k), iterate(tent(3), k))
        n = (3**k + 1) // 2
        cases.append((rel, list(_base_intervals(rel))[:1], range(max(2, n - 1), n + 2)))
    for rel in (
        rel_power(param_graph(tent(2), tent(3)), 2),
        compose_rel(inverse_rel(graph_of(tent(2))), graph_of(tent(3))),
        param_graph(plateau_map(), tent(3)),  # vertical arcs
        param_graph(tent(3), plateau_map()),  # horizontal arcs
    ):
        cases.append((rel, list(_base_intervals(rel))[:3], range(2, 5)))
    outcomes = set()
    for rel, bases, sizes in cases:
        for base in bases:
            for n in sizes:
                for pattern in _subdivision_patterns(base, n):
                    got = verify_horseshoe(rel, pattern)
                    assert got == reference_verify_horseshoe(rel, pattern)
                    outcomes.add(got)
    assert outcomes == {True, False}


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
    step = F(1, _lattice(_meeting_relation(), pattern))
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


def test_base_intervals_are_the_hull_then_the_pairs_longest_first():
    for rel in (
        compose_rel(inverse_rel(graph_of(tent(2))), graph_of(tent(3))),
        param_graph(plateau_map(), tent(3)),
        param_graph(iterate(tent(2), 4), iterate(tent(3), 4)),  # over 42 points
    ):
        pts = sorted({v for arc in rel.arcs for v in (arc.dom.lo, arc.dom.hi)}
                     | {x for arc in rel.arcs if arc.kind != "ver" for x, _ in arc.homeo.breakpoints})
        want = [Interval(pts[0], pts[-1])]
        if len(pts) <= 42:
            want += sorted(
                (Interval(a, b) for a, b in combinations(pts, 2) if (a, b) != (pts[0], pts[-1])),
                key=lambda iv: -iv.length,
            )
        assert list(_base_intervals(rel)) == want


# -- bracketing -------------------------------------------------------------------


def test_bracket_contains_target_at_every_level():
    report = bracket_theorem_main(3, 2, 4)
    target = math.log(3)
    lower = dict(report.lower)
    upper = dict(report.upper)
    for k in range(1, 5):
        assert lower[k] <= target <= upper[k]
    # monotone tightening
    lows = [lower[k] for k in range(1, 5)]
    ups = [upper[k] for k in range(1, 5)]
    assert lows == sorted(lows)
    assert ups == sorted(ups, reverse=True)


def test_bracket_rejects_non_coprime_pairs():
    with pytest.raises(ValueError):
        bracket_theorem_main(4, 2, 2)


def _cert_digest(report):
    text = "\n".join(
        f"{c.k} {c.n} " + " ".join(f"{iv.lo}:{iv.hi}" for iv in c.cert.intervals)
        for c in report.certs
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
    import plent.entropy
    import plent.plmap

    calls = []

    def counting_compose(f, g, cap_breakpoints=None):
        calls.append(len(g.breakpoints))
        return compose(f, g, cap_breakpoints=cap_breakpoints)

    # every name a power could reach compose through; relation's own
    # binding serves the strong-commutation check, not the powers
    monkeypatch.setattr(plent.entropy, "compose", counting_compose)
    monkeypatch.setattr(plent.plmap, "compose", counting_compose)
    bracket_theorem_main(3, 2, 6)
    assert len(calls) == 2 * (6 - 1)
