"""Acceptance suite: one test per headline guarantee of the package.

Each test is self-contained, pins its tolerances explicitly, and asserts
its own wall-clock budget, so `pytest -v tests/test_acceptance.py` reads
as a pass/fail checklist.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from plent.plmap import Interval, compose, identity_map, iterate, map_equals
from plent.families import (
    appendix_pair,
    fold_partner,
    middle_third_tilde,
    plateau_map,
    shifted_fold,
    slope_map,
    tent,
)
from plent.relation import (
    compose_rel,
    diagonal,
    fiber_intervals,
    graph_of,
    inverse_rel,
    param_graph,
    rel_equals,
    rel_power,
    rel_union,
    strongly_commutes,
)
from plent.branch import branch_counts, branch_families
from plent.entropy import (
    bracket_theorem_main,
    enumerate_orbits,
    find_horseshoe,
    separated_count,
    spanning_count,
    verify_horseshoe,
)
from plent.plmap import entropy_lap_growth
from plent.invlim import (
    DiagonalSystem,
    check_diagonal_compat,
    entropy_estimate_diagonal,
    lift_orbit,
)
from plent.errors import LiftingError
from plent.blocks import appendix_system, level_report


def test_criterion_1_exact_identity_suite():
    start = time.perf_counter()
    for p in (3, 5, 7, 9):
        assert map_equals(compose(shifted_fold(p), fold_partner(p)), tent(p))
    for p in (5, 7, 9):
        lhs = compose_rel(
            graph_of(tent(p)), inverse_rel(graph_of(shifted_fold(p)))
        )
        rhs = rel_union(graph_of(tent((p - 1) // 2)), diagonal())
        assert rel_equals(lhs, rhs)
    r = plateau_map()
    for n in (3, 5):
        assert map_equals(compose(r, middle_third_tilde(tent(n))), r)
    assert map_equals(fold_partner(3), identity_map())
    assert time.perf_counter() - start < 10


def test_criterion_2_strong_commutation_table():
    start = time.perf_counter()
    for n, m in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 5)):
        assert strongly_commutes(tent(n), tent(m))
    for n, m in ((4, 6), (2, 4), (3, 6)):
        assert not strongly_commutes(tent(n), tent(m))
    lhs = compose_rel(graph_of(tent(6)), inverse_rel(graph_of(tent(4))))
    rhs = compose_rel(graph_of(tent(3)), inverse_rel(graph_of(tent(2))))
    assert rel_equals(lhs, rhs)
    assert time.perf_counter() - start < 10


def test_criterion_3_branch_calculus():
    start = time.perf_counter()
    level1, level2 = branch_families(tent(2), tent(3), 2)
    assert len(level1) == 4
    assert len(level2) == 14

    def present(fam, dom, ran):
        return any(b.dom == dom and b.ran == ran for b in fam.branches)

    assert present(level2, Interval(F(4, 9), F(2, 3)), Interval(F(1, 2), F(1)))
    assert present(level2, Interval(F(2, 3), F(1)), Interval(F(0), F(3, 4)))

    for f, g, n in ((tent(3), tent(2), 3), (tent(5), tent(3), 5)):
        for k, count, _ in branch_counts(f, g, 8):
            assert count <= (k + 1) * n**k
    assert time.perf_counter() - start < 60


def test_criterion_4_entropy_bracketing():
    start = time.perf_counter()
    report = bracket_theorem_main(3, 2, 8)
    target = math.log(3)
    lower = dict(report.lower)
    upper = dict(report.upper)
    assert lower[8] >= math.log(3) - math.log(2) / 8
    assert upper[8] <= math.log(3) + math.log(9) / 8
    lows = [lower[k] for k in range(1, 9)]
    ups = [upper[k] for k in range(1, 9)]
    assert lows == sorted(lows) and ups == sorted(ups, reverse=True)
    for k in range(1, 9):
        assert lower[k] <= target <= upper[k]

    report53 = bracket_theorem_main(5, 3, 5)
    lower5 = dict(report53.lower)
    upper5 = dict(report53.upper)
    assert lower5[5] <= math.log(5) <= upper5[5]
    assert time.perf_counter() - start < 300


def test_criterion_5_lap_growth_estimates():
    start = time.perf_counter()
    t36 = iterate(tent(3), 6)
    assert abs(math.log(t36.lap_count() - 1) / 6 - math.log(3)) < 1e-3
    for s in (F(3, 2), F(2), F(3)):
        growth = entropy_lap_growth(slope_map(s), 3)
        assert growth.exact == math.log(s)
    assert time.perf_counter() - start < 30


def test_criterion_6_horseshoe_certificates():
    start = time.perf_counter()
    rel = compose_rel(inverse_rel(graph_of(tent(2))), graph_of(tent(2)))
    cert = find_horseshoe(rel, 2)
    assert cert is not None
    assert list(cert.intervals) == [
        Interval(F(0), F(1, 3)),
        Interval(F(2, 3), F(1)),
    ]
    assert verify_horseshoe(rel, cert.intervals)

    cubed = rel_power(param_graph(tent(2), tent(3)), 3)
    cert14 = find_horseshoe(cubed, 14)
    assert cert14 is not None and cert14.n == 14
    assert verify_horseshoe(cubed, cert14.intervals)
    assert time.perf_counter() - start < 10


def test_criterion_7_inverse_limit_estimate_bands():
    start = time.perf_counter()
    shift = DiagonalSystem.shift(tent(2))
    rows = entropy_estimate_diagonal(
        shift, depth=8, n_max=10, eps=F(1, 16), grid=F(1, 256)
    )
    estimate = rows[-1].estimate
    assert math.log(2) - 0.2 <= estimate <= math.log(2) + 0.05

    diag = DiagonalSystem.constant(tent(2), tent(3))
    diag_rows = entropy_estimate_diagonal(
        diag, depth=8, n_max=6, eps=F(1, 16), grid=F(1, 64)
    )
    branch_upper = branch_counts(tent(3), tent(2), 6)[-1][2]
    assert max(r.estimate for r in diag_rows) <= branch_upper + 0.05
    assert time.perf_counter() - start < 300


def test_criterion_8_blockwise_counterexample_behavior():
    start = time.perf_counter()
    n_seq = (2, 5, 2, 5)
    s = F(2)
    for k in (1, 2, 3):
        f_k, g_k = appendix_pair(k, n_seq, s)
        f_k1, g_k1 = appendix_pair(k + 1, n_seq, s)
        assert map_equals(compose(f_k, g_k1), compose(g_k, f_k1))

    system = appendix_system(n_seq, s)
    assert check_diagonal_compat(system, 3)

    k_branch = 5
    slack = math.log(k_branch + 1) / k_branch
    for k in (1, 2, 3):
        rep = level_report(n_seq, s, k, k_branch=k_branch)
        expected = max(math.log(s), math.log(n_seq[k - 1]))
        assert rep.lower >= math.log(n_seq[k - 1]) - 1e-12
        assert rep.rows[0].lower >= math.log(s) - 1e-12
        assert rep.upper <= expected + slack + 1e-12

    with pytest.raises(LiftingError) as err:
        lift_orbit(system, 1, [F(4, 5), F(4, 5), F(4, 5), F(5, 6)], depth=4)
    assert err.value.level == 3
    assert time.perf_counter() - start < 120


def test_criterion_9_property_suites():
    start = time.perf_counter()

    # spanning/separated sandwich on exhaustively solvable instances
    for rel, n, grid in (
        (diagonal(), 1, F(1, 4)),
        (param_graph(tent(2), tent(3)), 2, F(1, 8)),
        (graph_of(tent(2)), 3, F(1, 8)),
    ):
        pts = enumerate_orbits(rel, n, grid).orbits
        for eps in (F(1, 4), F(1, 8)):
            r = spanning_count(pts, eps)
            sep = separated_count(pts, eps)
            assert r <= sep <= spanning_count(pts, eps / 2)

    # composition agrees with brute-force fiber chaining at random points
    rng = random.Random(90210)
    pairs = [
        (inverse_rel(graph_of(tent(2))), graph_of(tent(3))),
        (graph_of(tent(2)), param_graph(tent(3), tent(2))),
    ]
    for s_rel, r_rel in pairs:
        comp = compose_rel(s_rel, r_rel)
        for _ in range(200):
            x = F(rng.randrange(0, 1000), 1000)
            chained = set()
            for iv in fiber_intervals(r_rel, x):
                assert iv.is_point()  # strict arcs have point fibers
                for jv in fiber_intervals(s_rel, iv.lo):
                    chained.add(jv.lo)
                    chained.add(jv.hi)
            direct = set()
            for jv in fiber_intervals(comp, x):
                direct.add(jv.lo)
                direct.add(jv.hi)
            assert chained == direct

    # the inverse is an involution
    for rel in (graph_of(tent(3)), param_graph(tent(3), tent(2))):
        assert rel_equals(inverse_rel(inverse_rel(rel)), rel)

    # a separated family of truncated points projects without collapsing
    shift = DiagonalSystem.shift(tent(2))
    family = [shift.point_from_tip(6, F(k, 8)) for k in range(9)]
    eps = F(1, 16)
    for i, p in enumerate(family):
        for q in family[i + 1:]:
            assert any(abs(a - b) > eps for a, b in zip(p.coords, q.coords))
    deepest = {p.coords[p.depth] for p in family}
    assert len(deepest) == len(family)
    assert time.perf_counter() - start < 60
