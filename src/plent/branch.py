"""Branch families: monotone arcs of iterated set-valued compositions.

For a pair of onto maps f, g the level-1 family is the arc decomposition
of the parameterized curve {(f(t), g(t))}.  Level k+1 arises by chaining a
level-1 arc through a level-k arc wherever range and domain overlap with
nonempty interior.  Arcs are deduplicated by canonical form (as point
sets) before counting, so the family size is a geometric invariant.

Every family is held as integer breakpoints over one least common
denominator per axis and chained in integer arithmetic, whatever the
number of breakpoints of its arcs; its `Branch` objects are built only
when asked for.
"""

from __future__ import annotations

import bisect
import gc
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvalidFamilyError, ResourceError
from .plmap import (
    Interval,
    PLMap,
    UNIT,
    _exact,
    _lattice_for,
    _merge_collinear,
    _scaled,
)
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
    """Strict PL arcs as integer breakpoints over one denominator per axis.

    Arc n has the breakpoints (x_i/dx, y_i/dy), where keys[n] is the flat
    tuple (x_0, ..., x_{m-1}, y_0, ..., y_{m-1}) with x increasing and no
    three consecutive points collinear.  dx and dy are the least common
    denominators of the family's x- and y-coordinates, so the keys are
    canonical: two arcs are equal as point sets exactly when their keys are.
    """

    dx: int
    dy: int
    keys: list[tuple[int, ...]]
    provenance: list[Optional[tuple[int, int]]]

    def branches(self) -> tuple[Branch, ...]:
        dx, dy = self.dx, self.dy
        out = []
        for key, prov in zip(self.keys, self.provenance):
            m = len(key) // 2
            homeo = PLMap._from_canonical(
                tuple((Fraction(x, dx), Fraction(y, dy)) for x, y in zip(key[:m], key[m:]))
            )
            arc = MonotoneArc._trusted(INC if key[-1] > key[m] else DEC, homeo)
            out.append(Branch(arc, prov))
        return tuple(out)


class BranchFamily:
    """The level-k branches, deduplicated as point sets and held on their
    `_Lattice`.  `branches` are built on first access; the length never
    builds them."""

    def __init__(self, level: int, lattice: _Lattice):
        self.level = level
        self._lattice = lattice
        self._branches: Optional[tuple[Branch, ...]] = None

    def __len__(self) -> int:
        return len(self._lattice.keys)

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
    plateaus or verticals in the curve are rejected.  A point arc (a joint
    plateau of f and g) is skipped: its overlap with any domain has no
    interior, so it never chains.  Callers are expected to have checked
    strong commutation when they rely on the level-k family equalling the
    k-fold composition.
    """
    if f.range != UNIT or g.range != UNIT:
        raise InvalidFamilyError("branch families need onto maps of [0,1]")
    pts = []
    for arc in param_graph(f, g).arcs:
        if arc.is_point():
            continue
        if arc.kind not in (INC, DEC):
            raise InvalidFamilyError(
                "parameterized curve has a flat or vertical arc; "
                "no branch family exists"
            )
        pts.append(arc.homeo.breakpoints)
    dx, xs = _scaled(*([x for x, _ in p] for p in pts))
    dy, ys = _scaled(*([y for _, y in p] for p in pts))
    keys = [tuple(kx + ky) for kx, ky in zip(xs, ys)]
    return BranchFamily(1, _Lattice(dx, dy, keys, [None] * len(keys)))


def chain(a: Branch, b: Branch, provenance=None) -> Optional[Branch]:
    """Chain branch a through branch b where ran(a) meets dom(b) with
    nonempty interior; None when the overlap is empty or a point."""
    z = a.ran.intersect(b.dom)
    if z is None or z.is_point():
        return None
    return Branch(_compose_strict(a.arc.homeo, b.arc.homeo, z), provenance)


def _slopes(key: tuple[int, ...], dx: int, dy: int) -> tuple[tuple[int, int], ...]:
    """Per segment of the arc with this key over (dx, dy), its slope as the
    ratio (num, den), not reduced; den > 0, because x increases along a
    key."""
    m = len(key) // 2
    return tuple(
        ((key[m + k + 1] - key[m + k]) * dx, (key[k + 1] - key[k]) * dy) for k in range(m - 1)
    )


def _on_shared_axis(ins, outs, slopes, s_in: int, m_out: int, shared: int, n_out: int):
    """An arc as a function of Z on the shared axis, with Z = ins*s_in and
    value outs*m_out over n_out: its breakpoints in Z, increasing, and per
    segment (w, c) with value w + Z*c, where c = n_out*num / (shared*den)
    for the segment's slope num/den."""
    pieces = []
    for k, (num, den) in enumerate(slopes):
        c = _exact(n_out * num, shared * den)
        pieces.append((outs[k] * m_out - ins[k] * s_in * c, c))
    zs = [v * s_in for v in ins]
    if zs[0] > zs[-1]:
        zs.reverse()
        pieces.reverse()
    return zs, pieces


def _value(zs: list[int], pieces: list[tuple[int, int]], z: int) -> int:
    w, c = pieces[min(bisect.bisect_right(zs, z), len(pieces)) - 1]
    return w + z * c


def _chained_key(za, fa, zb, fb, zlo: int, zhi: int) -> tuple[int, ...]:
    """The key of arc b after arc a over the overlap [zlo, zhi]: its
    breakpoints are the overlap's ends and the breakpoints of a and b
    inside it, x from a^{-1} and y from b, with collinear ones merged."""
    zs = sorted({zlo, zhi, *(z for z in za if zlo < z < zhi), *(z for z in zb if zlo < z < zhi)})
    pts = [(_value(za, fa, z), _value(zb, fb, z)) for z in zs]
    if pts[0][0] > pts[-1][0]:
        pts.reverse()
    pts = _merge_collinear(pts)
    return tuple(x for x, _ in pts) + tuple(y for _, y in pts)


def _reduced(out: dict, nx: int, ny: int, level: int) -> BranchFamily:
    """The family of the keys in `out` over nx, ny, divided down to the
    least common denominators."""
    gx, gy = nx, ny
    for key in out:
        if gx == 1 and gy == 1:
            break
        m = len(key) // 2
        gx, gy = math.gcd(gx, *key[:m]), math.gcd(gy, *key[m:])
    keys = list(out)
    if gx != 1 or gy != 1:
        keys = [
            tuple(v // gx for v in key[: len(key) // 2]) + tuple(v // gy for v in key[len(key) // 2 :])
            for key in keys
        ]
    return BranchFamily(level, _Lattice(nx // gx, ny // gy, keys, list(out.values())))


def _over_cap(out: dict, nx: int, ny: int, level: int, cap_arcs: int) -> ResourceError:
    return ResourceError(
        f"branch family exceeds cap of {cap_arcs} arcs", partial=_reduced(out, nx, ny, level)
    )


def next_family(
    base: BranchFamily, fam: BranchFamily, cap_arcs: int | None = None
) -> BranchFamily:
    """Level k+1 from the level-1 and level-k families, deduplicated.

    Every level-1 arc a is chained through every level-k arc b in
    integers.  The overlap runs on the shared axis (level-1 y, level-k x)
    as the integer Z = z*L, L = lcm(base.dy, fam.dx).  nx is the least
    multiple of base.dx on which every segment of every a^{-1} maps the
    integers Z to integers, and ny likewise for fam.dy and every segment
    of every b (`_lattice_for`).  So each chained breakpoint is an exact
    integer over (nx, ny), affine in Z segment by segment.  A pair of
    two-point arcs is chained in closed form, any other pair by
    `_chained_key`.  Keys are deduplicated over (nx, ny), then divided down
    to the level's least common denominators, which keeps them canonical:
    int dedup is exactly point-set dedup.
    """
    if base.level != 1:
        raise InvalidFamilyError("first argument must be the level-1 family")
    lat_a, lat_b = base._lattice, fam._lattice
    level = fam.level + 1
    shared = math.lcm(lat_a.dy, lat_b.dx)
    sa, sb = shared // lat_a.dy, shared // lat_b.dx
    # a^{-1} has the reciprocal slopes of a
    inv_a = [[(den, num) for num, den in _slopes(key, lat_a.dx, lat_a.dy)] for key in lat_a.keys]
    nx = _lattice_for(lat_a.dx, shared, (s for sl in inv_a for s in sl))
    ny = _lattice_for(
        lat_b.dy, shared, (s for key in lat_b.keys for s in _slopes(key, lat_b.dx, lat_b.dy))
    )
    mx, my = nx // lat_a.dx, ny // lat_b.dy
    rows = []
    for i, (key, sl) in enumerate(zip(lat_a.keys, inv_a)):
        m = len(key) // 2
        rows.append((i, *_on_shared_axis(key[m:], key[:m], sl, sa, mx, shared, nx)))
    # two-point level-1 arc i maps Z on its range to x = u0 + Z*ca over nx
    lefts = []
    for i, (rlo, rhi), ((u0, ca),) in (r for r in rows if len(r[1]) == 2):
        full = rlo <= 0 and rhi >= shared  # covers every possible domain
        lefts.append((i, u0, ca, rlo, rhi, full))
    bends = [r for r in rows if len(r[1]) > 2]
    limit = math.inf if cap_arcs is None else cap_arcs
    out: dict = {}
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for j, arc in enumerate(lat_b.keys):
            if len(arc) == 4:
                # two-point level-k arc j maps Z on its domain to y = w0 + Z*cb over ny
                x0, x1, y0, y1 = arc
                cb = _exact(ny * (y1 - y0) * lat_b.dx, shared * (x1 - x0) * lat_b.dy)
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
                            raise _over_cap(out, nx, ny, level, cap_arcs)
                general, zb, fb = bends, (blo, bhi), ((w0, cb),)
            else:
                m = len(arc) // 2
                sl = _slopes(arc, lat_b.dx, lat_b.dy)
                zb, fb = _on_shared_axis(arc[:m], arc[m:], sl, sb, my, shared, ny)
                general = rows
            for i, za, fa in general:
                zlo, zhi = max(za[0], zb[0]), min(za[-1], zb[-1])
                if zlo >= zhi:
                    continue
                key = _chained_key(za, fa, zb, fb, zlo, zhi)
                if key not in out:
                    out[key] = (i, j)
                    if len(out) > limit:
                        raise _over_cap(out, nx, ny, level, cap_arcs)
        return _reduced(out, nx, ny, level)
    finally:
        if gc_was_on:
            gc.enable()


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
