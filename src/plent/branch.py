"""Branch families: monotone arcs of iterated set-valued compositions.

For a pair of onto maps f, g the level-1 family is the arc decomposition
of the parameterized curve {(f(t), g(t))}.  Level k+1 arises by chaining a
level-1 arc through a level-k arc wherever range and domain overlap with
nonempty interior.  Arcs are deduplicated by canonical form (as point
sets) before counting, so the family size is a geometric invariant.

Every family is held in the integer form of a relation (`_Lattice`) and
chained in integer arithmetic, whatever the number of breakpoints of its
arcs.  Families are counts-only: a family keeps its arc keys and nothing
else, and `branch_counts` holds two levels at a time.  `chain` composes
two arcs in `Fraction`s, independently of the kernel, as its test reference.
"""

from __future__ import annotations

import gc
import math
from typing import Optional

from .errors import InvalidFamilyError, ResourceError
from .plmap import (
    PLMap,
    UNIT,
    _exact,
    _lattice_for,
    _merge_collinear,
    _pieces,
    _slopes,
    _sweep,
)
from .relation import (
    INC,
    DEC,
    MonotoneArc,
    _compose_strict,
    _divided,
    _is_point,
    _kind,
    _Lattice,
    param_graph,
)

CAP_ARCS = 10**6  # the CLI's default cap on arcs per family; the library has none


class BranchFamily:
    """The level-k arcs, deduplicated as point sets and held only as the
    keys of their `_Lattice`; the length is the family's count."""

    def __init__(self, level: int, lattice: _Lattice):
        self.level = level
        self._lattice = lattice

    def __len__(self) -> int:
        return len(self._lattice.keys)


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
    return _reduced(keys, lat.dx, lat.dy, 1)


def chain(a: MonotoneArc, b: MonotoneArc) -> Optional[MonotoneArc]:
    """The strict arc b o a where ran(a) meets dom(b) with nonempty
    interior; None when the overlap is empty or a point.  Composed in
    `Fraction`s, independently of the lattice kernel, as its reference."""
    z = a.ran.intersect(b.dom)
    if z is None or z.is_point():
        return None
    return _compose_strict(a.homeo, b.homeo, z)


def _chained_key(za, fa, zb, fb, zlo: int, zhi: int) -> tuple[int, ...]:
    """The key of arc b after arc a over the overlap [zlo, zhi]: its
    breakpoints are the overlap's ends and the breakpoints of a and b
    inside it, x from a^{-1} and y from b, with collinear ones merged."""
    zs = sorted({zlo, zhi, *(z for z in za if zlo < z < zhi), *(z for z in zb if zlo < z < zhi)})
    pts = list(zip(_sweep(za, fa, zs), _sweep(zb, fb, zs)))
    if pts[0][0] > pts[-1][0]:
        pts.reverse()
    pts = _merge_collinear(pts)
    return tuple(x for x, _ in pts) + tuple(y for _, y in pts)


def _reduced(out: list, nx: int, ny: int, level: int) -> BranchFamily:
    """The family of the keys in `out` over nx, ny, divided down to the
    least common denominators."""
    return BranchFamily(level, _divided(out, nx, ny))


def _over_cap(out: list, nx: int, ny: int, level: int, cap_arcs: int) -> ResourceError:
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
    int dedup is exactly point-set dedup.  Only the keys are kept, in the
    order first met (a `set` alone would hand the next level its keys in
    hash order, scattered in memory), and not the pair that produced them.
    """
    if base.level != 1:
        raise InvalidFamilyError("first argument must be the level-1 family")
    lat_a, lat_b = base._lattice, fam._lattice
    level = fam.level + 1
    shared = math.lcm(lat_a.dy, lat_b.dx)
    sa, sb = shared // lat_a.dy, shared // lat_b.dx
    # every key as (x's, y's); a^{-1} is a with the two swapped
    halves_a = [(k[: len(k) // 2], k[len(k) // 2 :]) for k in lat_a.keys]
    halves_b = ((k[: len(k) // 2], k[len(k) // 2 :]) for k in lat_b.keys)
    inv_slopes = [_slopes(ys, xs, lat_a.dy, lat_a.dx) for xs, ys in halves_a]
    nx = _lattice_for(lat_a.dx, shared, (s for sl in inv_slopes for s in sl))
    b_slopes = (s for xs, ys in halves_b for s in _slopes(xs, ys, lat_b.dx, lat_b.dy))
    ny = _lattice_for(lat_b.dy, shared, b_slopes)
    mx, my = nx // lat_a.dx, ny // lat_b.dy
    rows = [_pieces([y * sa for y in ys], [x * mx for x in xs]) for xs, ys in halves_a]
    # a two-point level-1 arc maps Z on its range to x = u0 + Z*ca over nx
    lefts = []
    for (rlo, rhi), ((u0, ca),) in (r for r in rows if len(r[0]) == 2):
        full = rlo <= 0 and rhi >= shared  # covers every possible domain
        lefts.append((u0, ca, rlo, rhi, full))
    bends = [r for r in rows if len(r[0]) > 2]
    limit = math.inf if cap_arcs is None else cap_arcs
    seen: set = set()
    out: list = []
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for arc in lat_b.keys:
            if len(arc) == 4:
                # a two-point level-k arc maps Z on its domain to y = w0 + Z*cb over ny
                x0, x1, y0, y1 = arc
                cb = _exact(ny * (y1 - y0) * lat_b.dx, shared * (x1 - x0) * lat_b.dy)
                blo, bhi = x0 * sb, x1 * sb
                w0, yb0, yb1 = y0 * my - blo * cb, y0 * my, y1 * my
                for u0, ca, rlo, rhi, full in lefts:
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
                    if key not in seen:
                        seen.add(key)
                        out.append(key)
                        if len(out) > limit:
                            raise _over_cap(out, nx, ny, level, cap_arcs)
                general, zb, fb = bends, (blo, bhi), ((w0, cb),)
            else:
                m = len(arc) // 2
                zb, fb = _pieces([x * sb for x in arc[:m]], [y * my for y in arc[m:]])
                general = rows
            for za, fa in general:
                zlo, zhi = max(za[0], zb[0]), min(za[-1], zb[-1])
                if zlo >= zhi:
                    continue
                key = _chained_key(za, fa, zb, fb, zlo, zhi)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
                    if len(out) > limit:
                        raise _over_cap(out, nx, ny, level, cap_arcs)
        return _reduced(out, nx, ny, level)
    finally:
        if gc_was_on:
            gc.enable()


def branch_counts(
    f: PLMap, g: PLMap, k_max: int, cap_arcs: int | None = None
) -> list[tuple[int, int, float]]:
    """Rows (k, |family_k|, log|family_k| / k) for k = 1..k_max.

    The levels are streamed: only the level-1 family and the latest one
    are held.  Checks the combinatorial ceiling |family_k| <= (k+1) * n^k,
    where n is the larger lap count; a violation means the recursion is
    broken, so it raises rather than returning bad data.
    """
    n = max(f.lap_count(), g.lap_count())
    base = fam = initial_branches(f, g)
    rows = []
    for k in range(1, k_max + 1):
        if k > 1:
            fam = next_family(base, fam, cap_arcs=cap_arcs)
        count = len(fam)
        if count > (k + 1) * n**k:
            raise AssertionError(f"branch count {count} at level {k} exceeds ({k}+1)*{n}^{k}")
        rows.append((k, count, math.log(count) / k))
    return rows
