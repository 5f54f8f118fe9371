"""Branch families of iterated set-valued compositions."""

import hashlib
from fractions import Fraction as F

import pytest

from plent.errors import InvalidFamilyError, ResourceError
from plent.plmap import Interval
from plent.families import plateau_map, tent
from plent.relation import param_graph, rel_equals, rel_power
import plent.branch
from plent.branch import (
    branch_counts,
    branch_families,
    chain,
    initial_branches,
    next_family,
)


def test_initial_family_of_coprime_tents():
    fam = initial_branches(tent(3), tent(2))
    assert fam.level == 1
    assert len(fam) == 4


def test_initial_family_rejects_plateaus():
    with pytest.raises(InvalidFamilyError):
        initial_branches(plateau_map(), tent(2))


def test_initial_family_rejects_non_onto_maps():
    from plent.families import affine

    with pytest.raises(InvalidFamilyError):
        initial_branches(affine(F(0), F(1, 2)), tent(2))


def test_level_counts_for_3_2():
    rows = branch_counts(tent(3), tent(2), 8)
    assert [count for _, count, _ in rows] == [
        4, 14, 46, 146, 454, 1394, 4246, 12866,
    ]


def test_branch_counts_build_no_branch_objects(monkeypatch):
    def refuse(self):
        raise AssertionError("branch counts built Branch objects")

    monkeypatch.setattr(plent.branch._Lattice, "branches", refuse)
    rows = branch_counts(tent(5), tent(3), 4)
    assert [count for _, count, _ in rows] == [7, 41, 223, 1169]


def test_level_counts_respect_combinatorial_ceiling():
    for (f, g, n) in ((tent(3), tent(2), 3), (tent(5), tent(3), 5)):
        for k, count, _ in branch_counts(f, g, 4):
            assert count <= (k + 1) * n**k


def test_family_relation_equals_relation_power():
    base = param_graph(tent(3), tent(2))
    for fam in branch_families(tent(3), tent(2), 3):
        assert rel_equals(fam.relation(), rel_power(base, fam.level))


def test_chained_branch_projections():
    level1, level2 = branch_families(tent(2), tent(3), 2)

    def find(fam, dom, ran, kind):
        hits = [
            b for b in fam.branches
            if b.dom == dom and b.ran == ran and b.arc.kind == kind
        ]
        assert len(hits) == 1, (dom, ran, kind)
        return hits[0]

    # the four level-1 branches, identified by their projections
    find(level1, Interval(F(0), F(2, 3)), Interval(F(0), F(1)), "inc")
    find(level1, Interval(F(2, 3), F(1)), Interval(F(1, 2), F(1)), "dec")
    find(level1, Interval(F(2, 3), F(1)), Interval(F(0), F(1, 2)), "inc")
    find(level1, Interval(F(0), F(2, 3)), Interval(F(0), F(1)), "dec")

    # chaining the increasing full branch through the short decreasing
    # one, and the short increasing one back through the full branch
    find(level2, Interval(F(4, 9), F(2, 3)), Interval(F(1, 2), F(1)), "dec")
    find(level2, Interval(F(2, 3), F(1)), Interval(F(0), F(3, 4)), "inc")


def test_next_family_requires_level_one_base():
    fams = branch_families(tent(3), tent(2), 2)
    with pytest.raises(InvalidFamilyError):
        next_family(fams[1], fams[1])


def test_cap_raises_with_partial_result():
    with pytest.raises(ResourceError) as err:
        branch_families(tent(3), tent(2), 4, cap_arcs=20)
    assert err.value.partial is not None
    assert len(err.value.partial) > 20


@pytest.mark.parametrize("f, g, k_max, cap", [(3, 2, 4, 20), (3, 5, 6, 6100)])
def test_cap_fires_at_the_first_arc_over_the_cap(f, g, k_max, cap):
    with pytest.raises(ResourceError) as err:
        branch_families(tent(f), tent(g), k_max, cap_arcs=cap)
    assert len(err.value.partial) == cap + 1


def _reference_keys(f, g, k_max):
    """Arc keys of each level, chained pair by pair with `chain`."""
    level1 = initial_branches(f, g).branches
    fams = [level1]
    for _ in range(k_max - 1):
        out = {}
        for b in fams[-1]:
            for a in level1:
                c = chain(a, b)
                if c is not None:
                    out.setdefault(c.arc.key(), c)
        fams.append(tuple(out.values()))
    return [{b.arc.key() for b in fam} for fam in fams]


@pytest.mark.parametrize("f, g", [(3, 2), (2, 3), (5, 3), (3, 5), (4, 3)])
def test_lattice_families_equal_chained_reference(f, g):
    fams = branch_families(tent(f), tent(g), 4)
    want = _reference_keys(tent(f), tent(g), 4)
    assert [{b.arc.key() for b in fam.branches} for fam in fams] == want


@pytest.mark.parametrize(
    "f, g, k, digest",
    [
        (3, 2, 6, "53669281c0ecc1a4c3b1ad5d06b3f44000014267b96b450f2d1f0cbd3327f74c"),
        (3, 5, 5, "1c09376ae5849599663ed1ae7c69c391cbbdf8bbe458eead7359f01aef83626a"),
    ],
)
def test_branch_order_and_provenance_are_pinned(f, g, k, digest):
    fam = branch_families(tent(f), tent(g), k)[-1]
    pairs = repr([(b.arc.key(), b.provenance) for b in fam.branches])
    assert hashlib.sha256(pairs.encode()).hexdigest() == digest
