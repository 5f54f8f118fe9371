"""Branch families: monotone arcs of iterated set-valued compositions.

For a pair of onto maps f, g the level-1 family is the arc decomposition
of the parameterized curve {(f(t), g(t))}.  Level k+1 arises by chaining a
level-1 arc through a level-k arc wherever range and domain overlap with
nonempty interior.  Arcs are deduplicated by canonical form (as point
sets) before counting, so the family size is a geometric invariant.

When every arc is affine, as for all tent pairs, a family is held as
integer endpoints over one least common denominator per axis and chained
in integer arithmetic; its `Branch` objects are built only when asked for.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InvalidFamilyError, ResourceError
from .plmap import Interval, PLMap, UNIT, _on_lattice
from .relation import INC, DEC, MonotoneArc, PLRelation, _compose_strict, param_graph


@dataclass(frozen=True)
class Branch:
    """A strictly monotone arc together with how it was produced.

    ``provenance`` is None at level 1, else the pair (i, j): this branch is
    the chain of level-1 branch i through level-k branch j.
    """

    arc: MonotoneArc
    provenance: Optional[tuple[int, int]] = None

    @property
    def dom(self) -> Interval:
        return self.arc.dom

    @property
    def ran(self) -> Interval:
        return self.arc.ran


@dataclass(frozen=True)
class _Lattice:
    """All-affine arcs as integer endpoints over one denominator per axis.

    Arc n runs from (x0/dx, y0/dy) to (x1/dx, y1/dy), where
    (x0, x1, y0, y1) = keys[n] and x0 < x1.  dx and dy are the least common
    denominators of the family's x- and y-coordinates, so the keys are
    canonical: two arcs are equal as point sets exactly when their keys are.
    """

    dx: int
    dy: int
    keys: list[tuple[int, int, int, int]]
    provenance: list[Optional[tuple[int, int]]]

    def branches(self) -> tuple[Branch, ...]:
        dx, dy = self.dx, self.dy
        out = []
        for (x0, x1, y0, y1), prov in zip(self.keys, self.provenance):
            homeo = PLMap._from_canonical(
                (
                    (Fraction(x0, dx), Fraction(y0, dy)),
                    (Fraction(x1, dx), Fraction(y1, dy)),
                )
            )
            arc = MonotoneArc._trusted(INC if y1 > y0 else DEC, homeo)
            out.append(Branch(arc, prov))
        return tuple(out)


class BranchFamily:
    """The level-k branches, deduplicated as point sets.

    A family is given by its `Branch` objects or, when every arc is
    affine, by a `_Lattice`.  A lattice family builds its `branches` on
    first access; its length never builds them.
    """

    def __init__(
        self,
        level: int,
        branches: Sequence[Branch] = (),
        lattice: Optional[_Lattice] = None,
    ):
        self.level = level
        self._lattice = lattice
        self._branches = None if lattice is not None else tuple(branches)

    def __len__(self) -> int:
        if self._branches is None:
            return len(self._lattice.keys)
        return len(self._branches)

    @property
    def branches(self) -> tuple[Branch, ...]:
        if self._branches is None:
            self._branches = self._lattice.branches()
        return self._branches

    def relation(self) -> PLRelation:
        return PLRelation([b.arc for b in self.branches])


def initial_branches(f: PLMap, g: PLMap) -> BranchFamily:
    """Level-1 family: the monotone arcs of {(f(t), g(t))}.

    Only strict arcs are representable as branches, so maps producing
    plateaus or verticals in the curve are rejected.  Callers are expected
    to have checked strong commutation when they rely on the level-k
    family equalling the k-fold composition.
    """
    if f.range != UNIT or g.range != UNIT:
        raise InvalidFamilyError("branch families need onto maps of [0,1]")
    rel = param_graph(f, g)
    branches = []
    for arc in rel.arcs:
        if arc.kind not in (INC, DEC):
            raise InvalidFamilyError(
                "parameterized curve has a flat or vertical arc; "
                "no branch family exists"
            )
        branches.append(Branch(arc))
    return BranchFamily(1, tuple(branches))


def chain(a: Branch, b: Branch, provenance=None) -> Optional[Branch]:
    """Chain branch a through branch b where ran(a) meets dom(b) with
    nonempty interior; None when the overlap is empty or a point."""
    z = a.ran.intersect(b.dom)
    if z is None or z.is_point():
        return None
    return Branch(_compose_strict(a.arc.homeo, b.arc.homeo, z), provenance)


def _lattice_of(fam: BranchFamily) -> Optional[_Lattice]:
    """The family on its lattice, or None when some arc is not affine."""
    if fam._lattice is not None:
        return fam._lattice
    pts = [b.arc.homeo.breakpoints for b in fam.branches]
    if any(len(p) != 2 for p in pts):
        return None
    dx = math.lcm(*(x.denominator for p in pts for x, _ in p))
    dy = math.lcm(*(y.denominator for p in pts for _, y in p))
    keys = [
        (_on_lattice(x0, dx), _on_lattice(x1, dx), _on_lattice(y0, dy), _on_lattice(y1, dy))
        for (x0, y0), (x1, y1) in pts
    ]
    return _Lattice(dx, dy, keys, [b.provenance for b in fam.branches])


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator."""
    g = math.gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def _reduced(out: dict, nx: int, ny: int, level: int) -> BranchFamily:
    """The family of the keys in `out` over nx, ny, divided down to the
    least common denominators."""
    gx, gy = nx, ny
    for u, v, y0, y1 in out:
        if gx == 1 and gy == 1:
            break
        gx = math.gcd(gx, u, v)
        gy = math.gcd(gy, y0, y1)
    keys = list(out)
    if gx != 1 or gy != 1:
        keys = [(u // gx, v // gx, y0 // gy, y1 // gy) for u, v, y0, y1 in keys]
    lattice = _Lattice(nx // gx, ny // gy, keys, list(out.values()))
    return BranchFamily(level, lattice=lattice)


def _next_family_lattice(
    base: _Lattice, fam: _Lattice, level: int, cap_arcs: int | None
) -> BranchFamily:
    """Chain every level-1 arc through every level-k arc in integers.

    The overlap z runs on the shared axis (level-1 y, level-k x) over
    L = lcm(base.dy, fam.dx).  Level-1 arc a has inverse slope p_a/q_a and
    level-k arc b slope p_b/q_b, so over nx = lcm(base.dx, L*q_a ...) and
    ny = lcm(fam.dy, L*q_b ...) each chained endpoint is an exact integer,
    affine in the integer Z = z*L.  Keys are deduplicated over (nx, ny),
    then divided down to the level's least common denominators, which
    keeps them canonical: int dedup is exactly point-set dedup.
    """
    shared = math.lcm(base.dy, fam.dx)
    sa, sb = shared // base.dy, shared // fam.dx
    inv_a = [_ratio((x1 - x0) * base.dy, (y1 - y0) * base.dx) for x0, x1, y0, y1 in base.keys]
    slope_b = [_ratio((y1 - y0) * fam.dx, (x1 - x0) * fam.dy) for x0, x1, y0, y1 in fam.keys]
    nx = math.lcm(base.dx, *(shared * q for _, q in inv_a))
    ny = math.lcm(fam.dy, *(shared * q for _, q in slope_b))
    mx, my = nx // base.dx, ny // fam.dy
    # level-1 arc i maps Z on its range to x = u0 + Z*ca over nx
    lefts = []
    for i, ((x0, _, y0, y1), (p, q)) in enumerate(zip(base.keys, inv_a)):
        ca = nx // (shared * q) * p
        rlo, rhi = sorted((y0 * sa, y1 * sa))
        full = rlo <= 0 and rhi >= shared  # covers every possible domain
        lefts.append((i, x0 * mx - y0 * sa * ca, ca, rlo, rhi, full))
    limit = math.inf if cap_arcs is None else cap_arcs
    out: dict = {}
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for j, ((x0, x1, y0, y1), (p, q)) in enumerate(zip(fam.keys, slope_b)):
            # level-k arc j maps Z on its domain to y = w0 + Z*cb over ny
            cb = ny // (shared * q) * p
            blo, bhi = x0 * sb, x1 * sb
            w0, yb0, yb1 = y0 * my - blo * cb, y0 * my, y1 * my
            for i, u0, ca, rlo, rhi, full in lefts:
                if full:
                    zlo, zhi, w_lo, w_hi = blo, bhi, yb0, yb1
                else:
                    zlo = rlo if rlo > blo else blo
                    zhi = rhi if rhi < bhi else bhi
                    if zlo >= zhi:
                        continue
                    w_lo, w_hi = w0 + zlo * cb, w0 + zhi * cb
                u, v = u0 + zlo * ca, u0 + zhi * ca
                key = (u, v, w_lo, w_hi) if ca > 0 else (v, u, w_hi, w_lo)
                if key not in out:
                    out[key] = (i, j)
                    if len(out) > limit:
                        raise ResourceError(
                            f"branch family exceeds cap of {cap_arcs} arcs",
                            partial=_reduced(out, nx, ny, level),
                        )
        return _reduced(out, nx, ny, level)
    finally:
        if gc_was_on:
            gc.enable()


def next_family(
    base: BranchFamily, fam: BranchFamily, cap_arcs: int | None = None
) -> BranchFamily:
    """Level k+1 from the level-1 and level-k families, deduplicated."""
    if base.level != 1:
        raise InvalidFamilyError("first argument must be the level-1 family")
    lat_a, lat_b = _lattice_of(base), _lattice_of(fam)
    if lat_a is not None and lat_b is not None:
        return _next_family_lattice(lat_a, lat_b, fam.level + 1, cap_arcs)
    out: dict = {}
    for i, a in enumerate(base.branches):
        for j, b in enumerate(fam.branches):
            c = chain(a, b, provenance=(i, j))
            if c is not None:
                out.setdefault(c.arc.key(), c)
        if cap_arcs is not None and len(out) > cap_arcs:
            raise ResourceError(
                f"branch family exceeds cap of {cap_arcs} arcs",
                partial=BranchFamily(fam.level + 1, tuple(out.values())),
            )
    return BranchFamily(fam.level + 1, tuple(out.values()))


def branch_families(
    f: PLMap, g: PLMap, k_max: int, cap_arcs: int | None = None
) -> list[BranchFamily]:
    fams = [initial_branches(f, g)]
    for _ in range(k_max - 1):
        fams.append(next_family(fams[0], fams[-1], cap_arcs=cap_arcs))
    return fams


def branch_counts(
    f: PLMap, g: PLMap, k_max: int, cap_arcs: int | None = None
) -> list[tuple[int, int, float]]:
    """Rows (k, |family_k|, log|family_k| / k) for k = 1..k_max.

    Checks the combinatorial ceiling |family_k| <= (k+1) * n^k, where n is
    the larger lap count; a violation means the recursion is broken, so it
    raises rather than returning bad data.
    """
    n = max(f.lap_count(), g.lap_count())
    rows = []
    for fam in branch_families(f, g, k_max, cap_arcs=cap_arcs):
        count = len(fam)
        if count > (fam.level + 1) * n**fam.level:
            raise AssertionError(
                f"branch count {count} at level {fam.level} exceeds "
                f"({fam.level}+1)*{n}^{fam.level}"
            )
        rows.append((fam.level, count, math.log(count) / fam.level))
    return rows
