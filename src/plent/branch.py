"""Branch families: monotone arcs of iterated set-valued compositions.

For a pair of onto maps f, g the level-1 family is the arc decomposition
of the parameterized curve {(f(t), g(t))}.  Level k+1 arises by chaining a
level-k arc through a level-1 arc wherever range and domain overlap with
nonempty interior.  Arcs are deduplicated by canonical form (as point
sets) before counting, so the family size is a geometric invariant.

A level is held packed: each arc key on one lattice of the level, whatever
the number of breakpoints of its arc, is one int (`_pack`), kept in one dict
in the order first met, which deduplicates it.  The level is chained in
integers by the relation kernel (`_compose_keys`) from its integer form
(`_Lattice`), which is unpacked, and divided down to the least common
denominators, only for that.  Families are counts-only: a family keeps its
packed keys only, and `branch_counts` holds two levels at a time.  `chain`
composes two arcs in `Fraction`s, independently, as the kernel's reference.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import CertificationError, InvalidFamilyError, ResourceError
from .plmap import Bound, PLMap, UNIT, compose
from .relation import (
    INC,
    DEC,
    MonotoneArc,
    _compose_keys,
    _divided,
    _is_point,
    _kind,
    _Lattice,
    param_graph,
)

CAP_ARCS = 10**6  # the CLI's default cap on arcs per family; the library has none


class BranchFamily:
    """The level-k arcs, deduplicated as point sets.  Each arc key on one
    lattice (nx, ny) of the level is held as one int (`_pack`), in a dict in
    the order first met; the length is the family's count.  `_lattice` is
    its integer form: the keys unpacked in that order and divided down to
    the least common denominators (`_divided`)."""

    __slots__ = ("level", "_nx", "_ny", "_width", "_packed")

    def __init__(self, level: int, lattice: _Lattice):
        width = 1 + max(lattice.dx, lattice.dy, *map(max, lattice.keys))  # above every value
        self.level, self._nx, self._ny, self._width = level, lattice.dx, lattice.dy, width
        self._packed = dict.fromkeys(_pack(key, width) for key in lattice.keys)

    @classmethod
    def _of_packed(cls, level: int, nx: int, ny: int, width: int, packed: dict) -> "BranchFamily":
        fam = cls.__new__(cls)
        fam.level, fam._nx, fam._ny, fam._width, fam._packed = level, nx, ny, width, packed
        return fam

    def __len__(self) -> int:
        return len(self._packed)

    @property
    def _lattice(self) -> _Lattice:
        width = self._width
        return _divided([_unpack(p, width) for p in self._packed], self._nx, self._ny)


def _pack(key: tuple[int, ...], width: int) -> int:
    """The key v_0 ... v_{n-1}, every v < width, as p = 1, then p*width + v
    for each v: the leading 1 fixes the length."""
    p = 1
    for v in key:
        p = p * width + v
    return p


def _unpack(p: int, width: int) -> tuple[int, ...]:
    """The key that `_pack` made p of."""
    key = []
    while p > 1:
        p, v = divmod(p, width)
        key.append(v)
    key.reverse()
    return tuple(key)


def initial_branches(f: PLMap, g: PLMap) -> BranchFamily:
    """Level-1 family: the monotone arcs of {(f(t), g(t))}, from its integer form.

    Only strict arcs are representable as branches, so maps producing
    plateaus or verticals in the curve are rejected.  A point arc (a joint
    plateau of f and g) is skipped: its overlap with any domain has no
    interior, so it never chains.  Callers are expected to have checked
    strong commutation when they rely on the level-k family equalling the
    k-fold composition.
    """
    if f.range != UNIT or g.range != UNIT:
        raise InvalidFamilyError("branch families need onto maps of [0,1]")
    lat = param_graph(f, g)._lattice
    keys = [key for key in lat.keys if not _is_point(key)]
    if any(_kind(key) not in (INC, DEC) for key in keys):
        raise InvalidFamilyError(
            "parameterized curve has a flat or vertical arc; no branch family exists"
        )
    return BranchFamily(1, lat._replace(keys=keys))


def chain(a: MonotoneArc, b: MonotoneArc) -> Optional[MonotoneArc]:
    """The strict arc b o a where ran(a) meets dom(b) with nonempty
    interior; None when the overlap is empty or a point.  Composed in
    `Fraction`s, independently of the lattice kernel, as its reference."""
    z = a.ran.intersect(b.dom)
    if z is None or z.is_point():
        return None
    ends = sorted(a.homeo.inverse()(y) for y in z)
    return MonotoneArc.from_map(compose(b.homeo.restrict(*z), a.homeo.restrict(*ends)))


def next_family(
    base: BranchFamily, fam: BranchFamily, cap_arcs: int | None = None
) -> BranchFamily:
    """Level k+1 from the level-1 and level-k families, deduplicated.

    The relation kernel (`_compose_keys`) chains every level-k arc through
    every level-1 arc: the same chains of k+1 level-1 arcs as the other way
    round, each one whose whole chain maps an interval with interior.  Each
    key, on the kernel's lattice (nx, ny), is packed as it comes (`_pack`,
    width max(nx, ny) + 1) and kept the first time it is met, so int dedup
    is exactly point-set dedup.  Past `cap_arcs` arcs a ResourceError
    carries the cap_arcs + 1 met so far as a family of level k+1.
    """
    if base.level != 1:
        raise InvalidFamilyError("first argument must be the level-1 family")
    level = fam.level + 1
    nx, ny, keys = _compose_keys(base._lattice, fam._lattice)
    width = max(nx, ny) + 1
    limit = math.inf if cap_arcs is None else cap_arcs
    packed: dict = {}
    for key in keys:
        p = 1
        for v in key:  # `_pack`, inline: a call per key costs ~1 % of `branches-53`
            p = p * width + v
        if p not in packed:
            packed[p] = None
            if len(packed) > limit:
                partial = BranchFamily._of_packed(level, nx, ny, width, packed)
                raise ResourceError(f"branch family exceeds cap of {cap_arcs} arcs", partial=partial)
    return BranchFamily._of_packed(level, nx, ny, width, packed)


def branch_counts(
    f: PLMap, g: PLMap, k_max: int, cap_arcs: int | None = None
) -> list[Bound]:
    """The "certified" upper bounds (1/k) log |family_k| for k = 1..k_max.

    The levels are streamed: only the level-1 family and the latest one
    are held.  Checks the combinatorial ceiling |family_k| <= (k+1) * n^k,
    where n is the larger lap count; a violation means the recursion is
    broken, so it raises CertificationError, with the level and the count
    as `n`, rather than returning bad data.
    """
    n = max(f.lap_count(), g.lap_count())
    base = fam = initial_branches(f, g)
    rows = []
    for k in range(1, k_max + 1):
        if k > 1:
            fam = next_family(base, fam, cap_arcs=cap_arcs)
        count = len(fam)
        if count > (k + 1) * n**k:
            raise CertificationError(
                f"branch count {count} at level {k} exceeds ({k}+1)*{n}^{k}", level=k, n=count
            )
        rows.append(Bound(k, count, "certified"))
    return rows
