"""Acceptance suite: one test per headline guarantee of the package.

Each test is self-contained, pins its tolerances explicitly, and asserts
its own wall-clock budget, so `pytest -v tests/test_acceptance.py` reads
as a pass/fail checklist.
"""

import hashlib
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import plent
from plent.plmap import Bound, Interval, at_most, compose, identity_map, iterate, map_equals
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
from plent.branch import branch_counts, initial_branches, next_family
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
from plent.cli import main


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


def test_criterion_3_branch_calculus(family_arcs):
    start = time.perf_counter()
    level1 = initial_branches(tent(2), tent(3))
    level2 = next_family(level1, level1)
    assert len(level1) == 4
    assert len(level2) == 14

    def present(fam, dom, ran):
        return any(a.dom == dom and a.ran == ran for a in family_arcs(fam))

    assert present(level2, Interval(F(4, 9), F(2, 3)), Interval(F(1, 2), F(1)))
    assert present(level2, Interval(F(2, 3), F(1)), Interval(F(0), F(3, 4)))

    for f, g, n in ((tent(3), tent(2), 3), (tent(5), tent(3), 5)):
        for b in branch_counts(f, g, 8):
            assert b.base <= (b.k + 1) * n**b.k
    assert time.perf_counter() - start < 60


def test_criterion_4_entropy_bracketing():
    start = time.perf_counter()
    report = bracket_theorem_main(3, 2, 8)
    target = Bound(1, 3, "theorem")
    lower, upper = report.lower, report.upper
    assert [b.k for b in lower] == [b.k for b in upper] == list(range(1, 9))
    # log 3 <= lower_8 + (1/8) log 2, and upper_8 <= log 3 + (1/8) log 9
    assert at_most(Bound(8, 3**8, "theorem"), lower[-1], gap=2)
    assert at_most(upper[-1], target, gap=9)
    assert all(at_most(a, b) for a, b in zip(lower, lower[1:]))
    assert all(at_most(b, a) for a, b in zip(upper, upper[1:]))
    for lo, hi in zip(lower, upper):
        assert at_most(lo, target) and at_most(target, hi)

    report53 = bracket_theorem_main(5, 3, 5)
    lo5, hi5 = report53.lower[-1], report53.upper[-1]
    assert lo5.k == hi5.k == 5
    assert at_most(lo5, report53.target) and at_most(report53.target, hi5)
    assert time.perf_counter() - start < 300


# run in a fresh interpreter, which prints its own peak: the ru_maxrss that
# wait4 reports starts at the peak of the process that spawned it
_PEAK_CHILD = """
import sys
from plent.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_criterion_4_bracket_memory_stays_small(tmp_path):
    """`bracket --n 3 --m 2 --kmax 8` peaks below 64 MiB (VmHWM).  It peaks
    at about 24 MiB on Python 3.11, since each horseshoe check holds only the
    images of the sources an unread arc can reach; it was 130 MiB while
    every (arc, source) image was held to the end of the check."""
    start = time.perf_counter()
    src = str(Path(plent.__file__).resolve().parents[1])
    argv = ["bracket", "--n", "3", "--m", "2", "--kmax", "8", "--out", str(tmp_path)]
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, *argv],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    peak_kib = int(out.stdout.split()[-1])
    digest = hashlib.sha256((tmp_path / "bracket.json").read_bytes()).hexdigest()
    assert digest == "7ca00ade2a1d876fc3ea4d58bd92daf2324789408967b4a8ef0f59e5dbf92f2c"
    assert peak_kib < 64 * 1024, f"peak {peak_kib / 1024:.1f} MiB"
    assert time.perf_counter() - start < 30


def test_criterion_5_lap_growth_estimates():
    start = time.perf_counter()
    t36 = iterate(tent(3), 6)
    assert abs(math.log(t36.lap_count() - 1) / 6 - math.log(3)) < 1e-3
    for s in (F(3, 2), F(2), F(3)):
        growth = entropy_lap_growth(slope_map(s), 3)
        assert growth.exact == Bound(1, s, "exact")
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
    upper = branch_counts(tent(3), tent(2), 6)[-1]
    assert max(r.estimate for r in diag_rows) <= math.log(upper.base) / upper.k + 0.05
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
    for k in (1, 2, 3):
        rep = level_report(n_seq, s, k, k_branch=k_branch)
        expected = Bound(1, max(s, n_seq[k - 1]), "theorem")
        lows = [r.lower for r in rep.rows if r.lower is not None]
        assert any(at_most(Bound(1, n_seq[k - 1], "theorem"), lo) for lo in lows)
        assert at_most(Bound(1, s, "theorem"), rep.rows[0].lower)
        for r in rep.rows:
            assert r.upper.k == k_branch and at_most(r.upper, expected, gap=k_branch + 1)

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


def test_criterion_10_orbit_counts_at_length_seven(tmp_path):
    """Orbits of the tent:2/tent:3 curve to length 7, counted at two scales
    from closeness graphs extended level by level, with the same table."""
    start = time.perf_counter()
    argv = ["entropy-rel", "--f", "tent:2", "--g", "tent:3", "--grid", "1/32", "--eps", "1/8,1/16"]
    assert main([*argv, "--nmax", "7", "--out", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256((tmp_path / "entropy_rel.csv").read_bytes()).hexdigest()
    assert digest == "b1ff2236414befeb67bc37dc233e25fcc5f5d322a4b1d484f81ec63bc7590dac"
    assert elapsed < 1
