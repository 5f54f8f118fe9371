"""Built-in map families and their exact algebraic identities."""

import math
from fractions import Fraction as F

import pytest

from plent.errors import ConstructionError, ParseError
from plent.plmap import CAP_BREAKPOINTS, compose, identity_map, map_equals, constant_slope
from plent.relation import (
    compose_rel,
    diagonal,
    graph_of,
    inverse_rel,
    rel_equals,
    rel_union,
)
from plent.families import (
    affine,
    appendix_pair,
    block_interval,
    block_rescale,
    fold_partner,
    middle_third_tilde,
    parse_family,
    plateau_map,
    shifted_fold,
    slope_map,
    tent,
)


def test_tent_values():
    t3 = tent(3)
    assert t3(F(0)) == 0 and t3(F(1, 3)) == 1 and t3(F(2, 3)) == 0 and t3(F(1)) == 1
    assert tent(4).lap_count() == 4


def test_shifted_fold_composed_with_partner_is_a_tent():
    for p in (3, 5, 7, 9):
        assert map_equals(compose(shifted_fold(p), fold_partner(p)), tent(p))


def test_fold_partner_of_three_is_the_identity():
    assert map_equals(fold_partner(3), identity_map())


def test_tent_through_inverse_fold_splits_into_smaller_tent_and_diagonal():
    for p in (5, 7, 9):
        lhs = compose_rel(
            graph_of(tent(p)), inverse_rel(graph_of(shifted_fold(p)))
        )
        rhs = rel_union(graph_of(tent((p - 1) // 2)), diagonal())
        assert rel_equals(lhs, rhs)


def test_plateau_map_absorbs_boundary_anchored_maps():
    r = plateau_map()
    for n in (3, 5):
        tilde = middle_third_tilde(tent(n))
        assert map_equals(compose(r, tilde), r)


def test_middle_third_tilde_anchors_endpoints():
    w = middle_third_tilde(tent(3))
    assert w(F(0)) == 0 and w(F(1)) == 1
    # the inner copy lives on the middle third
    assert w(F(1, 3)) == F(1, 3) and w(F(2, 3)) == F(2, 3)


def test_middle_third_tilde_requires_anchored_input():
    # tent(2) maps 1 to 0, so it cannot be glued continuously
    with pytest.raises(ConstructionError):
        middle_third_tilde(tent(2))


def test_affine():
    f = affine(F(1, 3), F(2, 3))
    assert f(F(0)) == F(1, 3) and f(F(1)) == F(2, 3)


def test_slope_map_has_constant_absolute_slope():
    for s in (F(3, 2), F(2), F(3)):
        assert constant_slope(slope_map(s)) == s


def test_sized_families_have_the_breakpoints_their_size_bound_counts():
    for n in (1, 2, 7):
        assert len(tent(n).breakpoints) == n + 1
    for p in (5, 7, 11):
        assert len(fold_partner(p).breakpoints) == p
    for s in (F(3, 2), 2, F(5, 2), 3, 7, F(101, 3)):
        assert len(slope_map(s).breakpoints) == 2 + 2 * math.ceil((F(s) - 1) / 2)


@pytest.mark.parametrize(
    "build, size",
    [
        (tent, CAP_BREAKPOINTS),
        (fold_partner, CAP_BREAKPOINTS + 1),
        (slope_map, CAP_BREAKPOINTS - F(1, 2)),
    ],
    ids=["tent", "fold_partner", "slope_map"],
)
def test_a_family_one_past_the_breakpoint_cap_is_refused_unbuilt(build, size):
    # each would have CAP_BREAKPOINTS + 1 or + 2 breakpoints
    with pytest.raises(ValueError, match="requires"):
        build(size)


def test_block_rescale_lands_in_its_block():
    blk = block_interval(2)
    f = block_rescale(2, tent(3))
    assert f.domain == blk
    assert blk.contains(f(blk.lo)) and blk.contains(f((blk.lo + blk.hi) / 2))


def test_appendix_pair_intertwines_consecutive_levels():
    n_seq = (2, 5, 2, 5)
    for k in (1, 2):
        f_k, g_k = appendix_pair(k, n_seq, F(2))
        f_k1, g_k1 = appendix_pair(k + 1, n_seq, F(2))
        assert map_equals(compose(f_k, g_k1), compose(g_k, f_k1))


@pytest.mark.parametrize(
    "spec",
    ["tent:3", "sfold:5", "gfold:7", "plateau", "id", "affine:1/3:2/3",
     "slope:3/2", "tilde:tent:3", "block:2:tent:3"],
)
def test_parse_family_accepts_known_specs(spec):
    parse_family(spec)  # must not raise


def test_parse_family_rejects_unknown_specs():
    with pytest.raises(ParseError):
        parse_family("mystery:7")


def test_parse_family_matches_constructors():
    assert map_equals(parse_family("tent:3"), tent(3))
    assert map_equals(parse_family("id"), identity_map())
    assert map_equals(parse_family("sfold:5"), shifted_fold(5))
