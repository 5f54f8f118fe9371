"""Branch families of iterated set-valued compositions."""

import hashlib
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from plent.blocks import unit_copy
from plent.errors import CertificationError, InvalidFamilyError, ResourceError
from plent.plmap import Interval
from plent.families import appendix_pair, block_interval, parse_family, plateau_map, tent
from plent.relation import _Lattice, param_graph, rel_power
import plent.branch
from plent.branch import (
    BranchFamily,
    _pack,
    _unpack,
    branch_counts,
    chain,
    initial_branches,
    next_family,
)


def _families(f, g, k_max):
    """The families of levels 1..k_max, every one kept."""
    fams = [initial_branches(f, g)]
    for _ in range(k_max - 1):
        fams.append(next_family(fams[0], fams[-1]))
    return fams


def _refuse(*args, **kwargs):
    raise AssertionError("branch counts chained arcs in Fractions")


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
    assert [b.base for b in rows] == [
        4, 14, 46, 146, 454, 1394, 4246, 12866,
    ]


def test_branch_counts_build_no_branch_objects(monkeypatch, maps_built):
    """Counting builds no map, so no arc, at any level: level 1 is read
    from the integer form of the curve and every later level is chained as
    integer keys."""
    f, g = tent(5), tent(3)
    maps_built.clear()
    monkeypatch.setattr(plent.branch, "chain", _refuse)
    rows = branch_counts(f, g, 4)
    assert [b.base for b in rows] == [7, 41, 223, 1169]
    assert maps_built == []


def test_branch_counts_peak_memory():
    """Packed families streamed two levels at a time: 154,063 arcs at
    level 7 peak below 22 MB of traced allocations.  The peak measured on
    Python 3.11 is 19.3 MB; the rest is a margin for other interpreters.
    It was 32.0 MB with tuple keys held in a set and a list, and 54 MB while
    every level and a provenance pair per arc were kept."""
    tracemalloc.start()
    try:
        rows = branch_counts(tent(5), tent(3), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[-1].base == 154_063
    assert peak < 22 * 10**6, f"peak {peak / 1e6:.1f} MB"


def test_level_counts_respect_combinatorial_ceiling():
    for (f, g, n) in ((tent(3), tent(2), 3), (tent(5), tent(3), 5)):
        for b in branch_counts(f, g, 4):
            assert b.base <= (b.k + 1) * n**b.k


def test_a_count_over_the_ceiling_raises_certification_error(monkeypatch):
    """A family larger than (k+1)*n^k means the recursion is broken; the
    count is refused as a certificate, with its level and size."""
    too_many = BranchFamily(2, _Lattice(1, 1, [(0, 1, i, i + 1) for i in range(28)]))
    monkeypatch.setattr(plent.branch, "next_family", lambda base, fam, cap_arcs=None: too_many)
    with pytest.raises(CertificationError, match="exceeds") as err:
        branch_counts(tent(3), tent(2), 2)  # the ceiling at k = 2 is 3 * 3**2 = 27
    assert (err.value.level, err.value.n) == (2, 28)


def test_family_relation_equals_relation_power():
    """For a strongly commuting pair the level-k family has exactly the
    arcs of the k-th relation power, as integer forms."""
    for f, g, k_max in [("tent:3", "tent:2", 6), ("gfold:5", "gfold:7", 4)]:
        f, g = parse_family(f), parse_family(g)
        base = param_graph(f, g)
        for fam in _families(f, g, k_max):
            power = rel_power(base, fam.level)._lattice
            assert (power.dx, power.dy, sorted(power.keys)) == (
                fam._lattice.dx, fam._lattice.dy, sorted(fam._lattice.keys)
            )


def test_chained_branch_projections(family_arcs):
    level1, level2 = _families(tent(2), tent(3), 2)

    def find(fam, dom, ran, kind):
        hits = [a for a in family_arcs(fam) if a.dom == dom and a.ran == ran and a.kind == kind]
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
    fams = _families(tent(3), tent(2), 2)
    with pytest.raises(InvalidFamilyError):
        next_family(fams[1], fams[1])


def test_cap_raises_with_partial_result():
    with pytest.raises(ResourceError) as err:
        branch_counts(tent(3), tent(2), 4, cap_arcs=20)
    assert err.value.partial is not None
    assert err.value.partial.level == 3
    assert len(err.value.partial) > 20


@pytest.mark.parametrize("f, g, k_max, cap", [(3, 2, 4, 20), (3, 5, 6, 6100)])
def test_cap_fires_at_the_first_arc_over_the_cap(f, g, k_max, cap):
    with pytest.raises(ResourceError) as err:
        branch_counts(tent(f), tent(g), k_max, cap_arcs=cap)
    assert len(err.value.partial) == cap + 1


def _points(lat):
    """Each key of an integer form as its breakpoints, in `Fraction`s."""
    return [
        [(F(x, lat.dx), F(y, lat.dy)) for x, y in zip(key[: len(key) // 2], key[len(key) // 2 :])]
        for key in lat.keys
    ]


def test_partial_of_a_mixed_family_is_the_first_arcs_met_on_their_least_lattice():
    """The cap keeps the cap + 1 arcs met first, in the order of the
    uncapped level, divided down to their own least common denominators."""
    f, g = parse_family("gfold:5"), parse_family("gfold:7")
    with pytest.raises(ResourceError) as err:
        branch_counts(f, g, 4, cap_arcs=50)
    partial = err.value.partial._lattice
    assert _points(partial) == _points(_families(f, g, err.value.partial.level)[-1]._lattice)[:51]
    assert math.gcd(partial.dx, *(v for k in partial.keys for v in k[: len(k) // 2])) == 1
    assert math.gcd(partial.dy, *(v for k in partial.keys for v in k[len(k) // 2 :])) == 1


@st.composite
def _keys_and_widths(draw):
    """A width and a key of values below it: 2 to 8 points, or a vertical
    arc or a point (x, x, lo, hi), zeros and width - 1 drawn often."""
    width = draw(st.integers(2, 2**70))
    value = st.one_of(st.just(0), st.just(width - 1), st.integers(0, width - 1))
    shape = draw(st.sampled_from(["arc", "vertical", "point"]))
    if shape == "arc":
        m = draw(st.integers(2, 8))
        return draw(st.lists(value, min_size=2 * m, max_size=2 * m).map(tuple)), width
    x, lo, hi = draw(value), draw(value), draw(value)
    lo, hi = min(lo, hi), max(lo, hi)
    return (x, x, lo, lo if shape == "point" else hi), width


@given(_keys_and_widths())
@settings(max_examples=500, deadline=None)
def test_a_packed_key_unpacks_to_itself(key_and_width):
    key, width = key_and_width
    assert _unpack(_pack(key, width), width) == key


def _reference_keys(f, g, k_max):
    """Arc keys of each level, chained pair by pair with `chain` in
    `Fraction`s from the strict arcs of the parameterized curve."""
    level1 = [arc for arc in param_graph(f, g).arcs if not arc.is_point()]
    fams = [level1]
    for _ in range(k_max - 1):
        out = {}
        for b in fams[-1]:
            for a in level1:
                c = chain(a, b)
                if c is not None:
                    out.setdefault(c.key(), c)
        fams.append(list(out.values()))
    return [{arc.key() for arc in fam} for fam in fams]


def _keys(fams, family_arcs):
    return [{arc.key() for arc in family_arcs(fam)} for fam in fams]


@pytest.mark.parametrize("f, g", [(3, 2), (2, 3), (5, 3), (3, 5), (4, 3)])
def test_lattice_families_equal_chained_reference(f, g, family_arcs):
    want = _reference_keys(tent(f), tent(g), 4)
    assert _keys(_families(tent(f), tent(g), 4), family_arcs) == want


@pytest.mark.parametrize(
    "f, g, k, digest",
    [
        (3, 2, 6, "141655e49b40987f35355529f4b5f8f291d17e8f8c5a274cdf1d19aebc109c49"),
        (3, 5, 5, "2966b76e468f66e82f26a6efe0325af8af987bf918a8a51a5047e24da3ddb91e"),
    ],
)
def test_sorted_level_keys_are_pinned(f, g, k, digest):
    """Each level's denominators and sorted key set, as the kernel built
    them when it also kept a provenance pair per arc."""
    levels = [
        (fam._lattice.dx, fam._lattice.dy, sorted(fam._lattice.keys))
        for fam in _families(tent(f), tent(g), k)
    ]
    assert hashlib.sha256(repr(levels).encode()).hexdigest() == digest


def _appendix_block(k, i):
    """Block i of the k-th pair of the dyadic-block system 2,5,2,5, s = 2,
    rescaled to [0,1]."""
    f, g = appendix_pair(k, [2, 5, 2, 5], 2, _check=False)
    return unit_copy(f, block_interval(i)), unit_copy(g, block_interval(i))


APPENDIX_BLOCKS = [(k, i) for k in (1, 2, 3) for i in range(1, k + 3)]


@pytest.mark.parametrize("k, i", APPENDIX_BLOCKS, ids=[f"k{k}-block{i}" for k, i in APPENDIX_BLOCKS])
def test_appendix_block_families_equal_chained_reference(k, i, family_arcs):
    f, g = _appendix_block(k, i)
    assert _keys(_families(f, g, 4), family_arcs) == _reference_keys(f, g, 4)


@pytest.mark.parametrize(
    "f, g", [("tent:3", "gfold:5"), ("gfold:5", "gfold:7"), ("gfold:7", "slope:3/2"), ("id", "gfold:7")]
)
def test_multi_breakpoint_families_equal_chained_reference(f, g, family_arcs):
    f, g = parse_family(f), parse_family(g)
    assert any(len(a.homeo.breakpoints) > 2 for a in family_arcs(initial_branches(f, g)))
    assert _keys(_families(f, g, 4), family_arcs) == _reference_keys(f, g, 4)


@pytest.mark.parametrize("f, g, cap", [("appendix", None, 100), ("gfold:5", "gfold:7", 50)])
def test_cap_of_a_mixed_family_fires_at_the_first_arc_over_it(f, g, cap):
    f, g = _appendix_block(2, 3) if f == "appendix" else (parse_family(f), parse_family(g))
    with pytest.raises(ResourceError) as err:
        branch_counts(f, g, 4, cap_arcs=cap)
    assert len(err.value.partial) == cap + 1


def test_appendix_block_counts_build_no_branch_objects_and_chain_nothing(monkeypatch, maps_built):
    f, g = _appendix_block(2, 3)
    maps_built.clear()
    monkeypatch.setattr(plent.branch, "chain", _refuse)
    rows = branch_counts(f, g, 4)
    assert [b.base for b in rows] == [7, 32, 157, 782]
    assert maps_built == []
