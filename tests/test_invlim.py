"""Truncated inverse limits, diagonal maps, orbit lifting, and the
blockwise analysis of the level maps."""

import math
from fractions import Fraction as F

import pytest

from plent.errors import CompositionError, DepthExhaustedError, DomainError, LiftingError
from plent.families import appendix_pair, parse_family, tent
from plent.plmap import PLMap, as_rat, compose, map_equals
from plent.relation import param_graph, rel_equals
from plent.invlim import (
    DiagonalSystem,
    TruncatedPoint,
    _point,
    apply_diagonal,
    check_diagonal_compat,
    entropy_estimate_diagonal,
    first_incompatible_level,
    lift_orbit,
    psi_component,
)
from plent.blocks import appendix_system, level_report

from test_entropy import reference_separated_count


# -- the Fraction reference ------------------------------------------------------
#
# The one-point bodies of the diagonal step as first written, every map
# evaluated in Fractions; the integer kernel must agree with them.


def reference_validate_point(sys_, p):
    for i in range(1, p.depth + 1):
        if sys_.bonding(i)(p.coords[i]) != p.coords[i - 1]:
            raise CompositionError(
                f"bonding inconsistency at level {i}: "
                f"f_{i}({p.coords[i]}) != {p.coords[i - 1]}"
            )


def reference_point_from_tip(sys_, depth, tip):
    coords = [as_rat(tip)]
    for i in range(depth, 0, -1):
        coords.append(sys_.bonding(i)(coords[-1]))
    return TruncatedPoint(tuple(reversed(coords)))


def reference_apply_diagonal(sys_, p):
    if p.depth == 0:
        raise DepthExhaustedError("cannot apply the diagonal map at depth 0")
    coords = tuple(
        sys_.diagonal_maps(i + 1)(p.coords[i + 1]) for i in range(p.depth)
    )
    if sys_.shift_like:
        coords = coords + (p.coords[p.depth - 1],)
    out = TruncatedPoint(coords)
    reference_validate_point(sys_, out)
    return out


KERNEL_SYSTEMS = [
    *(("shift", f, None) for f in ("tent:2", "tent:3", "gfold:5", "slope:3/2")),
    ("diag", "tent:2", "tent:3"),
    ("diag", "slope:3", "tent:2"),
    ("diag", "sfold:3", "tent:5"),
    ("diag", "tent:4", "slope:3"),
]


def build_system(kind, f, g):
    if kind == "shift":
        return DiagonalSystem.shift(parse_family(f))
    return DiagonalSystem.constant(parse_family(f), parse_family(g))


@pytest.mark.parametrize("kind, f, g", KERNEL_SYSTEMS)
def test_kernel_matches_the_fraction_reference_step_by_step(kind, f, g):
    sys_ = build_system(kind, f, g)
    steps = 4
    depth = 3 if sys_.shift_like else 3 + steps
    grid = F(1, 64)
    tips = [k * grid for k in range(65)]
    batch = sys_._push_down(64, list(range(65)), depth)
    refs = [reference_point_from_tip(sys_, depth, tip) for tip in tips]
    for step in range(steps + 1):
        if step:
            batch = sys_._step(batch)
            refs = [reference_apply_diagonal(sys_, p) for p in refs]
        assert [_point(batch, j) for j in range(len(tips))] == refs, f"step {step}"
        sys_._check(batch)
    # the one-point wrappers run the same kernel
    for tip in tips[::8]:
        p = sys_.point_from_tip(depth, tip)
        assert p == reference_point_from_tip(sys_, depth, tip)
        assert apply_diagonal(sys_, p) == reference_apply_diagonal(sys_, p)
        sys_.validate_point(p)


@pytest.mark.parametrize(
    "f, g", [("tent:2", "gfold:5"), ("tent:3", "slope:3/2"), ("tent:2", "tilde:tent:3")]
)
def test_incompatible_pair_breaks_the_thread(f, g):
    sys_ = build_system("diag", f, g)
    with pytest.raises(CompositionError, match="bonding inconsistency"):
        entropy_estimate_diagonal(sys_, 3, 4, F(1, 16), F(1, 64))


def test_a_broken_thread_is_reported_like_the_reference():
    sys_ = DiagonalSystem.constant(tent(2), parse_family("gfold:5"))
    p = sys_.point_from_tip(3, F(1, 4))
    with pytest.raises(CompositionError) as ref:
        reference_apply_diagonal(sys_, p)
    with pytest.raises(CompositionError) as err:
        apply_diagonal(sys_, p)
    assert str(err.value) == str(ref.value)


HALF = PLMap([(0, 0), (F(1, 2), F(1, 2))])  # the identity of [0, 1/2]


@pytest.mark.parametrize(
    "call, reference, point, error",
    [
        (apply_diagonal, reference_apply_diagonal, (F(1, 4), F(3, 4)), DomainError),
        (apply_diagonal, reference_apply_diagonal, (F(1, 4),), DepthExhaustedError),
        (apply_diagonal, reference_apply_diagonal, (F(1, 8), F(1, 4), F(3, 8)), CompositionError),
        (DiagonalSystem.validate_point, reference_validate_point, (F(3, 4), F(3, 4)), DomainError),
        (DiagonalSystem.validate_point, reference_validate_point, (F(1, 8), F(1, 4)), CompositionError),
    ],
)
def test_one_point_errors_match_the_reference(call, reference, point, error):
    sys_ = DiagonalSystem.constant(HALF, HALF)
    p = TruncatedPoint(point)
    with pytest.raises(error):
        reference(sys_, p)
    with pytest.raises(error):
        call(sys_, p)


def test_estimate_never_evaluates_a_map_point_by_point(monkeypatch):
    calls = []
    evaluate = PLMap.__call__

    def counting(self, x):
        calls.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(PLMap, "__call__", counting)
    sys_ = DiagonalSystem.shift(tent(2))
    entropy_estimate_diagonal(sys_, 4, 8, F(1, 16), F(1, 256))
    assert calls == []


@pytest.mark.parametrize("n_max", [0, -1])
def test_diagonal_estimate_needs_a_positive_n_max(n_max):
    with pytest.raises(ValueError):
        entropy_estimate_diagonal(DiagonalSystem.shift(tent(2)), 3, n_max, F(1, 16), F(1, 64))


# -- points and systems ---------------------------------------------------------


def test_point_from_tip_threads_the_bonding_maps():
    sys_ = DiagonalSystem.constant(tent(2), tent(3))
    p = sys_.point_from_tip(3, F(1, 8))
    assert p.depth == 3
    for i in range(1, 4):
        assert tent(2)(p.coords[i]) == p.coords[i - 1]
    sys_.validate_point(p)


def test_validate_point_rejects_broken_threads():
    sys_ = DiagonalSystem.constant(tent(2), tent(3))
    with pytest.raises(ValueError):
        sys_.validate_point(TruncatedPoint((F(0), F(1, 3))))


def test_shift_system_is_the_natural_extension():
    f = tent(2)
    sys_ = DiagonalSystem.shift(f)
    p = sys_.point_from_tip(4, F(1, 16))
    q = apply_diagonal(sys_, p)
    # depth is preserved: the new tip is the old second-deepest coordinate
    assert q.depth == p.depth
    assert q.coords[0] == f(p.coords[0])
    assert q.coords[1:] == p.coords[:-1]


def test_shift_system_composes_its_diagonal_map_once():
    sys_ = DiagonalSystem.shift(tent(2))
    assert sys_.diagonal_maps(1) is sys_.diagonal_maps(7)
    assert map_equals(sys_.diagonal_maps(1), compose(tent(2), tent(2)))


def test_pairs_system_repeats_its_last_pair():
    first, second = (tent(2), tent(3)), (tent(3), tent(2))
    sys_ = DiagonalSystem([first, second])
    assert (sys_.bonding(1), sys_.diagonal_maps(1)) == first
    for i in (2, 9):
        assert (sys_.bonding(i), sys_.diagonal_maps(i)) == second


def test_system_needs_at_least_one_pair():
    with pytest.raises(ValueError):
        DiagonalSystem([])


def test_generic_diagonal_drops_one_level():
    sys_ = DiagonalSystem.constant(tent(2), tent(3))
    p = sys_.point_from_tip(3, F(1, 8))
    q = apply_diagonal(sys_, p)
    assert q.depth == p.depth - 1
    for i in range(q.depth + 1):
        assert q.coords[i] == tent(3)(p.coords[i + 1])


def test_diagonal_at_depth_zero_is_exhausted():
    sys_ = DiagonalSystem.constant(tent(2), tent(3))
    with pytest.raises(DepthExhaustedError):
        apply_diagonal(sys_, TruncatedPoint((F(1, 2),)))


def test_psi_component_is_the_parameterized_graph():
    sys_ = DiagonalSystem.constant(tent(2), tent(3))
    assert rel_equals(psi_component(sys_, 1), param_graph(tent(2), tent(3)))


# -- compatibility ----------------------------------------------------------------


def test_commuting_pair_is_compatible():
    sys_ = DiagonalSystem.constant(tent(2), tent(3))
    assert check_diagonal_compat(sys_, 4)
    assert first_incompatible_level(sys_, 4) is None


def test_incompatible_system_reports_first_level():
    from plent.families import middle_third_tilde

    # the rescaled tent does not commute with tent(2), so the very first
    # interface breaks the intertwining identity
    sys_ = DiagonalSystem.constant(tent(2), middle_third_tilde(tent(3)))
    assert not check_diagonal_compat(sys_, 3)
    assert first_incompatible_level(sys_, 3) == 1


def test_compatibility_stops_at_the_last_pair(monkeypatch):
    import plent.invlim

    calls = []

    def counting_compose(f, g):
        calls.append(1)
        return compose(f, g)

    monkeypatch.setattr(plent.invlim, "compose", counting_compose)
    # levels past the last pair repeat its check, so one level decides
    assert first_incompatible_level(DiagonalSystem.constant(tent(2), tent(3)), 8) is None
    assert len(calls) == 2


def test_two_pair_system_reports_its_first_incompatible_level():
    from plent.families import middle_third_tilde
    from plent.plmap import PLMap

    # level 1 holds (both sides are the zero map); level 2 and every level
    # after it compare tent(2) with a map that does not commute with it
    zero = PLMap([(0, 0), (1, 0)])
    sys_ = DiagonalSystem([(zero, zero), (tent(2), middle_third_tilde(tent(3)))])
    assert first_incompatible_level(sys_, 1) is None
    assert first_incompatible_level(sys_, 8) == 2


def test_appendix_system_is_compatible_but_not_at_omega():
    sys_ = appendix_system((2, 5, 2, 5), F(2))
    assert check_diagonal_compat(sys_, 3)


# -- orbit lifting -----------------------------------------------------------------


def test_lift_orbit_of_the_shift_system():
    f = tent(2)
    sys_ = DiagonalSystem.shift(f)
    g = sys_.diagonal_maps(1)
    x0 = F(1, 5)
    orbit = [x0]
    for _ in range(3):
        orbit.append(g(f.preimage(orbit[-1])[0].lo))
    # a consistently generated orbit lifts to an exact truncated point
    p = lift_orbit(sys_, 1, orbit, depth=6)
    sys_.validate_point(p)


def test_lift_orbit_depth_check():
    sys_ = DiagonalSystem.shift(tent(2))
    with pytest.raises(ValueError):
        lift_orbit(sys_, 2, [F(1, 3), F(1, 3), F(1, 3)], depth=2)


def test_lift_orbit_obstruction_reports_its_level():
    sys_ = appendix_system((2, 5, 2, 5), F(2))
    orbit = [F(4, 5), F(4, 5), F(4, 5), F(5, 6)]
    with pytest.raises(LiftingError) as err:
        lift_orbit(sys_, 1, orbit, depth=4)
    assert err.value.level == 3


# -- entropy estimates ---------------------------------------------------------------


def test_shift_estimate_recovers_the_base_entropy():
    sys_ = DiagonalSystem.shift(tent(2))
    rows = entropy_estimate_diagonal(
        sys_, depth=8, n_max=10, eps=F(1, 16), grid=F(1, 256)
    )
    estimate = rows[-1].estimate
    assert math.log(2) - 0.2 <= estimate <= math.log(2) + 0.05
    assert rows[-1].tail_bound == F(1, 2**8)


def reference_diagonal_counts(sys_, depth, n_max, eps, grid):
    """The separated counts of entropy_estimate_diagonal as first written:
    trajectories built point by point in Fractions, every pair of them
    compared for the first step at which they separate, then one predicate
    per n."""
    start_depth = depth if sys_.shift_like else depth + n_max - 1
    trajectories = []
    for k in range(int(1 / grid) + 1):
        p = reference_point_from_tip(sys_, start_depth, k * grid)
        traj = [p]
        for _ in range(n_max - 1):
            p = reference_apply_diagonal(sys_, p)
            traj.append(p)
        trajectories.append(traj)

    def first_separation(ti, tj):
        for step, (p, q) in enumerate(zip(ti, tj)):
            if any(
                abs(a - b) > eps
                for a, b in zip(p.coords[: depth + 1], q.coords[: depth + 1])
            ):
                return step
        return None

    m = len(trajectories)
    sep_step = {}
    for i in range(m):
        for j in range(i + 1, m):
            s = first_separation(trajectories[i], trajectories[j])
            if s is not None:
                sep_step[(i, j)] = s
    counts = []
    for n in range(1, n_max + 1):

        def separated(a, b, _eps, n=n):
            s = sep_step.get((min(a[0], b[0]), max(a[0], b[0])))
            return s is not None and s < n

        counts.append(reference_separated_count([(i,) for i in range(m)], eps, separated))
    return counts


@pytest.mark.parametrize(
    "sys_, depth, n_max, eps",
    [
        (DiagonalSystem.shift(tent(2)), 1, 6, F(1, 8)),
        (DiagonalSystem.shift(tent(2)), 1, 5, F(1, 10)),
        (DiagonalSystem.constant(tent(2), tent(3)), 3, 4, F(1, 16)),
    ],
)
def test_diagonal_counts_match_the_all_pairs_reference(sys_, depth, n_max, eps):
    grid = F(1, 64)
    rows = entropy_estimate_diagonal(sys_, depth, n_max, eps, grid)
    counts = [r.s_count for r in rows]
    assert counts == reference_diagonal_counts(sys_, depth, n_max, eps, grid)
    assert counts == sorted(counts) and counts[-1] > counts[0]


@pytest.mark.parametrize("eps, grid", [(F(0), F(1, 64)), (F(1, 16), F(0)), (F(1, 16), F(-1, 64))])
def test_diagonal_estimate_needs_positive_eps_and_grid(eps, grid):
    with pytest.raises(ValueError):
        entropy_estimate_diagonal(DiagonalSystem.shift(tent(2)), 3, 2, eps, grid)


# -- blockwise level analysis ----------------------------------------------------------


def test_appendix_pair_definitions_commute_through_levels():
    n_seq = (2, 5, 2, 5)
    f2, g2 = appendix_pair(2, n_seq, F(2))
    f3, g3 = appendix_pair(3, n_seq, F(2))
    assert map_equals(compose(f2, g3), compose(g2, f3))


def test_level_report_brackets_the_expected_entropy():
    n_seq = (2, 5, 2, 5)
    s = F(2)
    slack = math.log(6) / 5  # deepest branch level is 5
    for k in (1, 2, 3):
        rep = level_report(n_seq, s, k)
        expected = max(math.log(2), math.log(n_seq[k - 1]))
        assert rep.lower == pytest.approx(expected)
        assert rep.upper <= expected + slack + 1e-12
        # the first block certifies log s exactly
        first = rep.rows[0]
        assert first.lower == pytest.approx(math.log(2))
