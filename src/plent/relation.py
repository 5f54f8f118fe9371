"""Set-valued relations on [0,1] given by finite unions of monotone arcs.

An arc is one of:

* ``inc``/``dec`` -- the graph of a strictly monotone PL homeomorphism
  between two nondegenerate subintervals,
* ``hor`` -- a horizontal segment (constant map over a nondegenerate
  domain interval),
* ``ver`` -- a vertical segment: a single x with an interval of y-values.
  When the interval is degenerate the arc is a single point, so the model
  is closed under composition: a degenerate overlap yields a point.

Two relations are equal when they are equal as subsets of the unit
square; ``rel_equals`` compares their maximal segments on one integer
lattice, so the particular arc decomposition does not matter.  A
relation's state is its integer form (`_Lattice`), which one builder makes
from integer arc keys, those of a curve (`param_graph`, `graph_of`), a
composition, an inverse or of given `MonotoneArc`s; an arc's kind is read
from its key.  One integer kernel, `_compose_keys`, composes
relations (`compose_rel`, `rel_power`) and branch families
(`branch.next_family`), building no `PLMap` or `MonotoneArc`: it only
emits the keys it meets, and each caller deduplicates them, `compose_rel`
as tuples and `next_family` as packed ints.  Unions, fibers, equality, the
level-1 branch family and the horseshoe kernels read only the integer
form; `arcs` is a view of it, built on first access.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import CompositionError, UnsupportedRelationError
from .plmap import (
    Interval,
    PLMap,
    RatLike,
    _exact,
    _lattice_for,
    _make_checked,
    _merge_collinear,
    _merged,
    _on_curve,
    _pieces,
    _scaled,
    _slopes,
    _sweep,
    _value,
    as_rat,
    compose,
    map_equals,
)

INC = "inc"
DEC = "dec"
HOR = "hor"
VER = "ver"


class _MonotoneArc(NamedTuple):
    kind: str
    homeo: Optional[PLMap]  # inc / dec / hor
    x: Optional[Fraction]  # ver
    ys: Optional[Interval]  # ver


class MonotoneArc(_MonotoneArc):
    __slots__ = ()

    def __new__(cls, kind: str, homeo=None, x=None, ys=None):
        if kind in (INC, DEC, HOR):
            if homeo is None or x is not None or ys is not None:
                raise ValueError("non-vertical arcs are defined by a PL map only")
            signs = set(homeo.slope_signs())
            want = {INC: {1}, DEC: {-1}, HOR: {0}}[kind]
            if signs != want:
                raise ValueError(f"arc kind {kind} inconsistent with map slopes")
        elif kind == VER:
            if homeo is not None or x is None or ys is None:
                raise ValueError("vertical arcs need x and a y-interval")
        else:
            raise ValueError(f"unknown arc kind {kind!r}")
        return tuple.__new__(cls, (kind, homeo, x, ys))

    _make = classmethod(_make_checked)

    @staticmethod
    def _trusted(kind: str, homeo: PLMap) -> "MonotoneArc":
        # fast path for callers that already know the arc kind; skips
        # the slope-sign consistency validation
        return tuple.__new__(MonotoneArc, (kind, homeo, None, None))

    @staticmethod
    def from_map(piece: PLMap) -> "MonotoneArc":
        signs = set(piece.slope_signs())
        if signs == {1}:
            return MonotoneArc(INC, homeo=piece)
        if signs == {-1}:
            return MonotoneArc(DEC, homeo=piece)
        if signs == {0}:
            return MonotoneArc(HOR, homeo=piece)
        raise ValueError("piece is not monotone of a single kind")

    @staticmethod
    def vertical(x: RatLike, ys: Interval) -> "MonotoneArc":
        """The segment {x} x ys; a point when ys is degenerate."""
        return MonotoneArc(VER, x=as_rat(x), ys=ys)

    def is_point(self) -> bool:
        return self.kind == VER and self.ys.is_point()

    @property
    def dom(self) -> Interval:
        if self.kind == VER:
            return Interval(self.x, self.x)
        return self.homeo.domain

    @property
    def ran(self) -> Interval:
        if self.kind == VER:
            return self.ys
        return self.homeo.range

    def key(self):
        if self.kind == VER:
            return (VER, self.x, self.ys.lo, self.ys.hi)
        return (self.kind, self.homeo.breakpoints)

    def image(self, xs: Interval) -> Optional[Interval]:
        """Image of {x in xs} under the arc, as an interval (or None)."""
        if self.kind == VER:
            return self.ys if xs.contains(self.x) else None
        sub = self.dom.intersect(xs)
        if sub is None:
            return None
        a, b = self.homeo(sub.lo), self.homeo(sub.hi)
        return Interval(min(a, b), max(a, b))


class _Lattice(NamedTuple):
    """PL arcs as integer breakpoints over one denominator per axis.

    Arc n has the breakpoints (x_i/dx, y_i/dy), where keys[n] is the flat
    tuple (x_0, ..., x_{m-1}, y_0, ..., y_{m-1}) with x increasing and no
    three consecutive points collinear; a vertical arc or a point is
    (x, x, lo, hi).  dx and dy are the least common denominators of the
    arcs' x's and y's, so two arcs are equal exactly when their keys are.
    """

    dx: int
    dy: int
    keys: list[tuple[int, ...]]


def _kind(key: tuple[int, ...]) -> str:
    """The kind of the arc with this `_Lattice` key: vertical when its x's
    are equal (a point when its y's are too), else by its first and last y."""
    m = len(key) // 2
    if key[0] == key[m - 1]:
        return VER
    if key[m] == key[-1]:
        return HOR
    return DEC if key[m] > key[-1] else INC


def _is_point(key: tuple[int, ...]) -> bool:
    return len(key) == 4 and key[0] == key[1] and key[2] == key[3]


def _divided(keys: list, nx: int, ny: int) -> _Lattice:
    """The keys over (nx, ny) divided down to the least common denominators."""
    gx, gy = nx, ny
    for key in keys:
        if gx == 1 and gy == 1:
            break
        m = len(key) // 2
        gx, gy = math.gcd(gx, *key[:m]), math.gcd(gy, *key[m:])
    if gx != 1 or gy != 1:
        keys = [
            tuple([v // gx for v in key[: len(key) // 2]] + [v // gy for v in key[len(key) // 2 :]])
            for key in keys
        ]
    return _Lattice(nx // gx, ny // gy, keys)


def _relation_lattice(keys: list, nx: int, ny: int) -> _Lattice:
    """A relation's integer form from arc keys over (nx, ny): deduplicated,
    divided down (`_divided`) and sorted by (dom.lo, dom.hi, ran.lo,
    ran.hi, kind), ties in order of first appearance."""
    keys = list(dict.fromkeys(keys))
    if not keys:
        raise ValueError("a relation needs at least one arc")

    def sort_key(key):  # a monotone arc attains its range at its ends
        m = len(key) // 2
        y0, y1 = key[m], key[-1]
        return key[0], key[m - 1], min(y0, y1), max(y0, y1), _kind(key)

    lat = _divided(keys, nx, ny)
    return lat._replace(keys=sorted(lat.keys, key=sort_key))


def _arcs_of(lat: _Lattice) -> tuple[MonotoneArc, ...]:
    """The arcs of an integer form, with one `Fraction` per distinct
    coordinate, shared by every arc through it."""
    xq = {x: Fraction(x, lat.dx) for x in {x for k in lat.keys for x in k[: len(k) // 2]}}
    yq = {y: Fraction(y, lat.dy) for y in {y for k in lat.keys for y in k[len(k) // 2 :]}}
    arcs = []
    for key in lat.keys:
        kind = _kind(key)
        if kind == VER:
            arcs.append(MonotoneArc.vertical(xq[key[0]], Interval(yq[key[2]], yq[key[3]])))
        else:
            m = len(key) // 2
            pts = tuple(zip(map(xq.__getitem__, key[:m]), map(yq.__getitem__, key[m:])))
            arcs.append(MonotoneArc._trusted(kind, PLMap._from_canonical(pts)))
    return tuple(arcs)


def _from_lattice(lat: _Lattice) -> "PLRelation":
    """The relation of an integer form that `_relation_lattice` built."""
    rel = PLRelation.__new__(PLRelation)
    object.__setattr__(rel, "_lattice", lat)
    object.__setattr__(rel, "_arcs", None)
    return rel


def _drop_covered_points(keys: list) -> list:
    """The keys, less every point key that lies on a non-point key: the
    non-point keys first, then the points left, each group in order.  Each
    segment tests, in integers, only the points whose x it spans."""
    ys_at: dict = {}
    for x, _, y, _ in filter(_is_point, keys):
        ys_at.setdefault(x, set()).add(y)
    xs = sorted(ys_at)
    solid = [key for key in keys if not _is_point(key)]
    covered = set()
    for key in solid:
        m = len(key) // 2
        for px, qx, py, qy in zip(key[: m - 1], key[1:m], key[m:-1], key[m + 1 :]):
            lo, hi = min(py, qy), max(py, qy)
            for x in xs[bisect_left(xs, px) : bisect_right(xs, qx)]:
                for y in ys_at[x]:
                    if lo <= y <= hi and (y - py) * (qx - px) == (qy - py) * (x - px):
                        covered.add((x, y))
    return solid + [key for key in filter(_is_point, keys) if (key[0], key[2]) not in covered]


class PLRelation:
    """Finite union of monotone arcs, with set-level equality semantics.

    Its state is its integer form (`_Lattice`), also when built from
    arcs; `arcs` is the view of it as `MonotoneArc`s, built on first
    access and then kept.
    """

    __slots__ = ("_lattice", "_arcs")

    def __init__(self, arcs: Iterable[MonotoneArc]):
        cols = [  # each arc's x's and y's
            ((a.x, a.x), a.ys) if a.kind == VER else tuple(zip(*a.homeo.breakpoints))
            for a in arcs
        ]
        dx, xs = _scaled(*(x for x, _ in cols))
        dy, ys = _scaled(*(y for _, y in cols))
        lat = _relation_lattice([(*x, *y) for x, y in zip(xs, ys)], dx, dy)
        object.__setattr__(self, "_lattice", lat)
        object.__setattr__(self, "_arcs", None)

    def __setattr__(self, *a):
        raise AttributeError("PLRelation is immutable")

    def __reduce__(self):
        return _from_lattice, (self._lattice,)

    def __repr__(self) -> str:
        return f"PLRelation({len(self._lattice.keys)} arcs)"

    @property
    def arcs(self) -> tuple[MonotoneArc, ...]:
        arcs = self._arcs
        if arcs is None:
            arcs = _arcs_of(self._lattice)
            object.__setattr__(self, "_arcs", arcs)
        return arcs


def _segments(lat: _Lattice, nx: int, ny: int) -> frozenset:
    """The point set of an integer form as its maximal straight segments
    over (nx, ny), multiples of its own, a complete invariant of it: a
    point on another arc is dropped (`_drop_covered_points`), every segment
    goes to its line a*x + b*y = c, reduced, with its x-span (its y-span on
    a vertical line, a point's included), and each line's spans are merged."""
    sx, sy = nx // lat.dx, ny // lat.dy
    spans: dict = {}
    for key in _drop_covered_points(lat.keys):
        m = len(key) // 2
        xs, ys = [v * sx for v in key[:m]], [v * sy for v in key[m:]]
        for px, qx, py, qy in zip(xs, xs[1:], ys, ys[1:]):
            if px == qx:  # x's increase along a key, and y's along a vertical one
                spans.setdefault((1, 0, px), []).append((py, qy))
            else:
                g = math.gcd(qx - px, qy - py)
                a, b = (qy - py) // g, (px - qx) // g
                spans.setdefault((a, b, a * px + b * py), []).append((px, qx))
    return frozenset((line, tuple(_merged(s))) for line, s in spans.items())


def rel_equals(r: PLRelation, s: PLRelation) -> bool:
    """Equality as subsets of the unit square: the same maximal segments
    (`_segments`) on the lattice of both."""
    nx, ny = math.lcm(r._lattice.dx, s._lattice.dx), math.lcm(r._lattice.dy, s._lattice.dy)
    return _segments(r._lattice, nx, ny) == _segments(s._lattice, nx, ny)


def rel_union(*relations: PLRelation) -> PLRelation:
    """The union of the relations: the keys of all of them, each put on
    the lattice (nx, ny) of the least common multiples of their own."""
    nx = math.lcm(*(rel._lattice.dx for rel in relations))
    ny = math.lcm(*(rel._lattice.dy for rel in relations))
    keys = []
    for dx, dy, own in (rel._lattice for rel in relations):
        sx, sy = nx // dx, ny // dy
        keys += [
            tuple([v * sx for v in k[: len(k) // 2]] + [v * sy for v in k[len(k) // 2 :]])
            for k in own
        ]
    return _from_lattice(_relation_lattice(keys, nx, ny))


def graph_of(f: PLMap) -> PLRelation:
    """The graph {(t, f(t))} of a PL map, split into its monotone laps: the
    curve of param_graph(identity_map(f.domain), f), with t as its own x."""
    d, (ts,) = _scaled([x for x, _ in f.breakpoints])
    return _curve(d, ts, *_on_curve(f, d, ts))


def diagonal() -> PLRelation:
    return graph_of(PLMap([(0, 0), (1, 1)]))


def inverse_rel(rel: PLRelation) -> PLRelation:
    """The relation {(y, x) : (x, y) in rel}: each key with its halves
    swapped, or reversed whole where the arc decreases, so that its x's
    increase."""
    dx, dy, keys = rel._lattice
    swapped = [k[::-1] if _kind(k) == DEC else k[len(k) // 2 :] + k[: len(k) // 2] for k in keys]
    return _from_lattice(_relation_lattice(swapped, dy, dx))


def param_graph(f: PLMap, g: PLMap) -> PLRelation:
    """The parameterized curve {(f(t), g(t)) : t in dom}.

    This equals the graph of g o f^{-1} as a point set whenever f is onto
    its range; the arcs come out already split into monotone pieces.  Both
    maps are evaluated in integers at the union of their breakpoints, put
    on one lattice 1/d, and each piece between joint lap boundaries (where
    the slope sign of f or g changes) becomes the integer key of one arc
    through those points.  No arc is built until `arcs` is read.
    """
    if f.domain != g.domain:
        raise CompositionError("parameterized graph needs maps with equal domains")
    d, (fts, gts) = _scaled([x for x, _ in f.breakpoints], [x for x, _ in g.breakpoints])
    ts = sorted({*fts, *gts})
    return _curve(*_on_curve(f, d, ts), *_on_curve(g, d, ts))


def _curve(nx: int, xs: list[int], ny: int, ys: list[int]) -> PLRelation:
    """The relation of the curve through the points (xs[i]/nx, ys[i]/ny),
    one arc per piece between joint lap boundaries (see `param_graph`)."""
    # (slope sign of x, of y) per piece between consecutive points
    signs = [
        ((x1 > x0) - (x1 < x0), (y1 > y0) - (y1 < y0))
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])
    ]
    keys = []
    start = 0
    for end in range(1, len(xs)):
        if end < len(signs) and signs[end] == signs[end - 1]:
            continue
        x0, x1, y0, y1 = xs[start], xs[end], ys[start], ys[end]
        if x0 == x1:  # a point when g is flat too
            keys.append((x0, x0, min(y0, y1), max(y0, y1)))
        else:
            # f is strictly monotone on the piece and g monotone, so the
            # points are an arc once ordered by x
            pts = list(zip(xs[start : end + 1], ys[start : end + 1]))
            if x1 < x0:
                pts.reverse()
            pts = _merge_collinear(pts)
            keys.append(tuple(x for x, _ in pts) + tuple(y for _, y in pts))
        start = end
    return _from_lattice(_relation_lattice(keys, nx, ny))


def fiber_intervals(rel: PLRelation, x: RatLike) -> list[Interval]:
    """The fiber {y : (x, y) in rel} as merged, possibly degenerate,
    intervals, read from the keys of the arcs that span x: x goes on the
    lattice 1/L, L = lcm(dx, den x), and y on the least multiple of dy on
    which every one of their slopes maps 1/L to integers (`_lattice_for`)."""
    num, den = as_rat(x).as_integer_ratio()
    dx, dy, keys = rel._lattice
    halves = [  # of the keys whose x-span holds x = num/den
        (k[: len(k) // 2], k[len(k) // 2 :])
        for k in keys
        if k[0] * den <= num * dx <= k[len(k) // 2 - 1] * den
    ]
    lx = math.lcm(dx, den)
    sx, z = lx // dx, num * (lx // den)
    ny = _lattice_for(dy, lx, (s for xs, ys in halves for s in _slopes(xs, ys, dx, dy) if s[1]))
    my = ny // dy
    spans = []
    for xs, ys in halves:
        if xs[0] == xs[-1]:  # a vertical arc or a point
            spans.append((ys[0] * my, ys[-1] * my))
        else:
            y = _value(*_pieces([v * sx for v in xs], [v * my for v in ys]), z)
            spans.append((y, y))
    return [Interval(Fraction(lo, ny), Fraction(hi, ny)) for lo, hi in _merged(spans)]


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


def _rises(keys: Iterable[tuple[int, ...]]) -> set[tuple[int, int]]:
    """The distinct (rise in x, rise in y) of the segments of the keys."""
    return {
        (k[i + 1] - k[i], k[m + i + 1] - k[m + i])
        for k in keys
        for m in [len(k) // 2]
        for i in range(m - 1)
    }


def _compose_keys(
    outer: _Lattice, inner: _Lattice, degenerate: list | None = None
) -> tuple[int, int, Iterator[tuple[int, ...]]]:
    """The arcs of outer o inner as keys over (nx, ny), the one kernel that
    composes relations and branch families: nx, ny and an iterator over the
    keys, in the order met, repeats included (its callers deduplicate).

    Each inner arc a, in order, meets each outer arc b, in order, on the
    shared axis as the integer Z = z*L, L = lcm(inner.dy, outer.dx).  nx is
    the least multiple of inner.dx on which every segment of every a^{-1}
    maps the integers Z to integers, ny likewise for outer.dy and b
    (`_lattice_for`).  A strictly monotone a over an overlap with interior
    gives one arc, in closed form when a and b have two points each, else by
    `_chained_key`.  The arc of every other overlap goes to the list
    `degenerate`, if given, as the iterator meets it.
    """
    shared = math.lcm(inner.dy, outer.dx)
    si, so = shared // inner.dy, shared // outer.dx
    # the slopes of every a^{-1} and every b; a vertical segment has no
    # finite slope (den 0) and maps no Z range
    inv_slopes = ((rx * inner.dy, ry * inner.dx) for rx, ry in _rises(inner.keys) if ry)
    nx = _lattice_for(inner.dx, shared, inv_slopes)
    slopes = ((ry * outer.dx, rx * outer.dy) for rx, ry in _rises(outer.keys) if rx)
    ny = _lattice_for(outer.dy, shared, slopes)
    halves = [(k[: len(k) // 2], k[len(k) // 2 :]) for k in outer.keys]
    mx, my = nx // inner.dx, ny // outer.dy
    # each b as (lo, hi, w0, cb, zs, pieces, wlo, whi) on Z: y = w0 + Z*cb,
    # wlo at lo and whi at hi, when b has one piece, else w0 is None; a
    # vertical b has no zs and its y-span as pieces
    rows = []
    for xs, ys in halves:
        if xs[0] == xs[-1]:
            span = (ys[0] * my, ys[-1] * my)
            rows.append((xs[0] * so, xs[0] * so, None, None, None, span, None, None))
        else:
            yb = [y * my for y in ys]
            zb, fb = _pieces([x * so for x in xs], yb)
            one = fb[0] if len(fb) == 1 else (None, None)
            rows.append((zb[0], zb[-1], *one, zb, fb, yb[0], yb[-1]))
    cnum, cden = nx * inner.dy, shared * inner.dx

    def met():
        for arc in inner.keys:
            straight = len(arc) == 4
            if straight:
                x0, x1, y0, y1 = arc
                if x0 == x1 or y0 == y1:  # a vertical arc, a point or a horizontal arc
                    for row in rows if degenerate is not None else ():
                        lo, hi = max(y0 * si, row[0]), min(y1 * si, row[1])
                        if lo <= hi:
                            degenerate.append(_flat_key(x0 * mx, x1 * mx, row, lo, hi, nx, ny))
                    continue
                # a^{-1} maps Z on a's range to x = u0 + Z*ca over nx, xlo at
                # alo and xhi at ahi
                ca = _exact(cnum * (x1 - x0), cden * (y1 - y0))
                xlo, xhi = x0 * mx, x1 * mx
                alo, ahi = y0 * si, y1 * si
                u0 = xlo - alo * ca
                if ca < 0:
                    alo, ahi, xlo, xhi = ahi, alo, xhi, xlo
                za, fa = (alo, ahi), ((u0, ca),)
            else:
                m = len(arc) // 2
                za, fa = _pieces([y * si for y in arc[m:]], [x * mx for x in arc[:m]])
                alo, ahi = za[0], za[-1]
            for row in rows:
                blo, bhi, w0, cb, zb, fb, wlo, whi = row
                zlo = alo if alo > blo else blo
                zhi = ahi if ahi < bhi else bhi
                if zlo >= zhi:
                    if degenerate is not None and zlo == zhi:
                        (x,) = _sweep(za, fa, (zlo,))
                        degenerate.append(_flat_key(x, x, row, zlo, zlo, nx, ny))
                    continue
                if straight and w0 is not None:
                    # each end of the overlap is an end of a's range or of b's
                    # domain, so the key shares the ends' ints a and b hold
                    u = xlo if zlo == alo else u0 + zlo * ca
                    v = xhi if zhi == ahi else u0 + zhi * ca
                    w = wlo if zlo == blo else w0 + zlo * cb
                    z = whi if zhi == bhi else w0 + zhi * cb
                    yield (u, v, w, z) if ca > 0 else (v, u, z, w)
                else:
                    yield _chained_key(za, fa, zb, fb, zlo, zhi)

    return nx, ny, met()


def _flat_key(u: int, v: int, row: tuple, lo: int, hi: int, nx: int, ny: int) -> tuple[int, ...]:
    """The arc of a degenerate overlap [lo, hi] on the shared axis, with
    x-span X = [u, v] over nx and Y the y-span of the outer arc `row` on it:
    a point X gives the vertical X x Y, a point Y the horizontal X x Y, and
    a rectangle (a horizontal arc into a vertical one) is outside the model."""
    if row[4] is None:
        ylo, yhi = row[5]
    else:
        ylo, yhi = sorted(_sweep(row[4], row[5], (lo, hi)))
    if u == v or ylo == yhi:
        return (u, u, ylo, yhi) if u == v else (u, v, ylo, ylo)
    xs, ys = (Fraction(u, nx), Fraction(v, nx)), (Fraction(ylo, ny), Fraction(yhi, ny))
    raise UnsupportedRelationError(
        f"composition produces a full rectangle ([{xs[0]}, {xs[1]}] x [{ys[0]}, {ys[1]}]); "
        "rectangle fibers are outside the finite-arc model"
    )


def compose_rel(s: PLRelation, r: PLRelation) -> PLRelation:
    """The relation s o r = {(x, z) : exists y, (x,y) in r and (y,z) in s},
    every point kept: a degenerate overlap gives a point arc, dropped only
    when it lies on another arc of the result (`_drop_covered_points`)."""
    degenerate: list = []
    nx, ny, keys = _compose_keys(s._lattice, r._lattice, degenerate)
    keys = list(keys)  # running the kernel fills `degenerate`
    keys = _drop_covered_points(keys + degenerate)
    if not keys:
        raise CompositionError("composition of relations is empty")
    return _from_lattice(_relation_lattice(keys, nx, ny))


def rel_power(rel: PLRelation, k: int) -> PLRelation:
    if k < 1:
        raise ValueError("k must be >= 1")
    acc = rel
    for _ in range(k - 1):
        acc = compose_rel(rel, acc)
    return acc


def commutes(f: PLMap, g: PLMap) -> bool:
    """Exact equality f o g = g o f."""
    return map_equals(compose(f, g), compose(g, f))


def strong_commutation_relations(
    f: PLMap, g: PLMap
) -> tuple[bool, PLRelation, PLRelation]:
    """Compare g o f^{-1} with f^{-1} o g as relations.

    Returns (equal, g o f^{-1}, f^{-1} o g); the two relations serve as the
    witness when they differ.
    """
    finv = inverse_rel(graph_of(f))
    lhs = compose_rel(graph_of(g), finv)
    rhs = compose_rel(finv, graph_of(g))
    return rel_equals(lhs, rhs), lhs, rhs


def strongly_commutes(f: PLMap, g: PLMap) -> bool:
    return strong_commutation_relations(f, g)[0]
