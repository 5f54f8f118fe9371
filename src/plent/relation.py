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
square; ``rel_equals`` compares canonical segment decompositions, so the
particular arc decomposition does not matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import CompositionError, UnsupportedRelationError
from .plmap import (
    Interval,
    PLMap,
    RatLike,
    _merge_collinear,
    _on_curve,
    _scaled,
    as_rat,
    compose,
    map_equals,
    merge_intervals,
)

INC = "inc"
DEC = "dec"
HOR = "hor"
VER = "ver"


@dataclass(frozen=True)
class MonotoneArc:
    kind: str
    homeo: Optional[PLMap] = None  # inc / dec / hor
    x: Optional[Fraction] = None  # ver
    ys: Optional[Interval] = None  # ver

    def __post_init__(self):
        if self.kind in (INC, DEC, HOR):
            if self.homeo is None or self.x is not None or self.ys is not None:
                raise ValueError("non-vertical arcs are defined by a PL map only")
            signs = set(self.homeo.slope_signs())
            want = {INC: {1}, DEC: {-1}, HOR: {0}}[self.kind]
            if signs != want:
                raise ValueError(f"arc kind {self.kind} inconsistent with map slopes")
        elif self.kind == VER:
            if self.homeo is not None or self.x is None or self.ys is None:
                raise ValueError("vertical arcs need x and a y-interval")
        else:
            raise ValueError(f"unknown arc kind {self.kind!r}")

    @staticmethod
    def _trusted(kind: str, homeo: PLMap) -> "MonotoneArc":
        # fast path for callers that already know the arc kind; skips
        # the slope-sign consistency validation
        arc = object.__new__(MonotoneArc)
        object.__setattr__(arc, "kind", kind)
        object.__setattr__(arc, "homeo", homeo)
        object.__setattr__(arc, "x", None)
        object.__setattr__(arc, "ys", None)
        return arc

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

    def segments(self) -> list[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]]:
        """The arc as straight 2-D segments between consecutive breakpoints."""
        if self.kind == VER:
            return [((self.x, self.ys.lo), (self.x, self.ys.hi))]
        bps = self.homeo.breakpoints
        return [(bps[i], bps[i + 1]) for i in range(len(bps) - 1)]

    def inverse(self) -> "MonotoneArc":
        if self.kind == VER:
            if self.is_point():
                return MonotoneArc.vertical(self.ys.lo, self.dom)
            # vertical becomes the constant map ys -> x
            return MonotoneArc(
                HOR, homeo=PLMap([(self.ys.lo, self.x), (self.ys.hi, self.x)])
            )
        if self.kind == HOR:
            value = self.homeo.breakpoints[0][1]
            return MonotoneArc.vertical(value, self.homeo.domain)
        return MonotoneArc.from_map(self.homeo.inverse())

    def fiber(self, x: Fraction) -> Optional[Interval]:
        """The set of y with (x, y) on the arc, or None."""
        if self.kind == VER:
            return self.ys if x == self.x else None
        if self.dom.contains(x):
            y = self.homeo(x)
            return Interval(y, y)
        return None

    def image(self, xs: Interval) -> Optional[Interval]:
        """Image of {x in xs} under the arc, as an interval (or None)."""
        if self.kind == VER:
            return self.ys if xs.contains(self.x) else None
        sub = self.dom.intersect(xs)
        if sub is None:
            return None
        a, b = self.homeo(sub.lo), self.homeo(sub.hi)
        return Interval(min(a, b), max(a, b))


def _ends(arc: MonotoneArc) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The first and last points of the arc, x increasing: (x0, x1, y0, y1).
    A monotone arc attains its range at its ends."""
    if arc.kind == VER:
        return arc.x, arc.x, arc.ys.lo, arc.ys.hi
    (x0, y0), (x1, y1) = arc.homeo.breakpoints[0], arc.homeo.breakpoints[-1]
    return x0, x1, y0, y1


class PLRelation:
    """Finite union of monotone arcs, with set-level equality semantics."""

    __slots__ = ("arcs", "_canon")

    def __init__(self, arcs: Iterable[MonotoneArc]):
        seen = {}
        for arc in arcs:
            seen.setdefault(arc.key(), arc)
        if not seen:
            raise ValueError("a relation needs at least one arc")
        # sorted by (dom.lo, dom.hi, ran.lo, ran.hi, kind), compared as ints
        # over one common denominator
        unique = list(seen.values())
        _, (x0s, x1s, y0s, y1s) = _scaled(*zip(*map(_ends, unique)))
        keys = [
            (x0, x1, min(y0, y1), max(y0, y1), arc.kind)
            for x0, x1, y0, y1, arc in zip(x0s, x1s, y0s, y1s, unique)
        ]
        order = sorted(range(len(unique)), key=keys.__getitem__)
        object.__setattr__(self, "arcs", tuple(unique[i] for i in order))
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, *a):
        raise AttributeError("PLRelation is immutable")

    def __repr__(self) -> str:
        return f"PLRelation({len(self.arcs)} arcs)"

    def canonical_segments(self):
        """The relation as a canonical set of maximal straight segments.

        Segments are grouped by the line they lie on and merged into
        maximal pieces, and a point arc lying on another arc is dropped, so
        this is a complete invariant of the point set.
        """
        canon = object.__getattribute__(self, "_canon")
        if canon is not None:
            return canon
        solid = [arc for arc in self.arcs if not arc.is_point()]
        points = [
            p
            for p in self.arcs
            if p.is_point()
            and not any((fib := a.fiber(p.x)) is not None and fib.contains(p.ys.lo) for a in solid)
        ]
        by_line: dict[tuple, list[Interval]] = {}
        for arc in solid + points:
            for (px, py), (qx, qy) in arc.segments():
                if px == qx:
                    key = ("v", px)
                    span = Interval(min(py, qy), max(py, qy))
                else:
                    slope = (qy - py) / (qx - px)
                    key = ("s", slope, py - slope * px)
                    span = Interval(min(px, qx), max(px, qx))
                by_line.setdefault(key, []).append(span)
        canon = frozenset(
            (key, tuple(merge_intervals(spans))) for key, spans in by_line.items()
        )
        object.__setattr__(self, "_canon", canon)
        return canon


def rel_equals(r: PLRelation, s: PLRelation) -> bool:
    """Equality as subsets of the unit square."""
    return r.canonical_segments() == s.canonical_segments()


def rel_union(*relations: PLRelation) -> PLRelation:
    return PLRelation([arc for rel in relations for arc in rel.arcs])


def graph_of(f: PLMap) -> PLRelation:
    """The graph of a PL map, split into its monotone laps."""
    return PLRelation([MonotoneArc.from_map(lap) for lap in f.laps()])


def diagonal() -> PLRelation:
    return graph_of(PLMap([(0, 0), (1, 1)]))


def inverse_rel(rel: PLRelation) -> PLRelation:
    return PLRelation([arc.inverse() for arc in rel.arcs])


def param_graph(f: PLMap, g: PLMap) -> PLRelation:
    """The parameterized curve {(f(t), g(t)) : t in dom}.

    This equals the graph of g o f^{-1} as a point set whenever f is onto
    its range; the arcs come out already split into monotone pieces.  Both
    maps are evaluated in integers at the union of their breakpoints, put
    on one lattice 1/d, and each piece between joint lap boundaries (where
    the slope sign of f or g changes) becomes one arc through those points.
    """
    if f.domain != g.domain:
        raise CompositionError("parameterized graph needs maps with equal domains")
    d, (fts, gts) = _scaled([x for x, _ in f.breakpoints], [x for x, _ in g.breakpoints])
    ts = sorted({*fts, *gts})
    nx, xs = _on_curve(f, d, ts)
    ny, ys = _on_curve(g, d, ts)
    # (slope sign of f, of g) per piece between consecutive ts
    signs = [
        ((x1 > x0) - (x1 < x0), (y1 > y0) - (y1 < y0))
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])
    ]
    # one Fraction per distinct coordinate, shared by every arc through it
    xq = {x: Fraction(x, nx) for x in set(xs)}
    yq = {y: Fraction(y, ny) for y in set(ys)}
    arcs: list[MonotoneArc] = []
    start = 0
    for end in range(1, len(ts)):
        if end < len(signs) and signs[end] == signs[end - 1]:
            continue
        x0, x1, y0, y1 = xs[start], xs[end], ys[start], ys[end]
        if x0 == x1:  # a point when g is flat too
            span = Interval(yq[min(y0, y1)], yq[max(y0, y1)])
            arcs.append(MonotoneArc.vertical(xq[x0], span))
        else:
            # f is strictly monotone on the piece and g monotone, so the
            # points are a valid map once ordered by x
            pts = list(zip(xs[start : end + 1], ys[start : end + 1]))
            if x1 < x0:
                pts.reverse()
            kind = HOR if y0 == y1 else INC if (x1 > x0) == (y1 > y0) else DEC
            homeo = tuple((xq[x], yq[y]) for x, y in _merge_collinear(pts))
            arcs.append(MonotoneArc._trusted(kind, PLMap._from_canonical(homeo)))
        start = end
    return PLRelation(arcs)


def fiber_intervals(rel: PLRelation, x: RatLike) -> list[Interval]:
    """The fiber {y : (x, y) in rel} as merged, possibly degenerate,
    intervals."""
    x = as_rat(x)
    return merge_intervals(
        fib for arc in rel.arcs if (fib := arc.fiber(x)) is not None
    )


def _compose_strict(r: PLMap, s: PLMap, overlap: Interval) -> MonotoneArc:
    """The arc of s o r over `overlap`, the nondegenerate intersection of
    the range of the strictly monotone r with the domain of s."""
    rinv = r.inverse()
    xa, xb = rinv(overlap.lo), rinv(overlap.hi)
    rp = r.restrict(min(xa, xb), max(xa, xb))
    return MonotoneArc.from_map(compose(s.restrict(overlap.lo, overlap.hi), rp))


def _compose_pair(r: MonotoneArc, s: MonotoneArc) -> Optional[MonotoneArc]:
    """The arc of s o r, or None when ran(r) misses dom(s).

    With O = ran(r) & dom(s), X = r^-1(O) and Z = s(O): a point X gives the
    vertical X x Z, a point Z the horizontal over X; a point O with both
    nondegenerate would be the rectangle X x Z, outside the model.
    """
    overlap = r.ran.intersect(s.dom)
    if overlap is None:
        return None
    xs, zs = r.inverse().image(overlap), s.image(overlap)
    if xs.is_point():
        return MonotoneArc.vertical(xs.lo, zs)
    if zs.is_point():
        return MonotoneArc(HOR, homeo=PLMap([(xs.lo, zs.lo), (xs.hi, zs.lo)]))
    if overlap.is_point():
        raise UnsupportedRelationError(
            f"composition produces a full rectangle ([{xs.lo}, {xs.hi}] x [{zs.lo}, {zs.hi}]); "
            "rectangle fibers are outside the finite-arc model"
        )
    return _compose_strict(r.homeo, s.homeo, overlap)


def compose_rel(s: PLRelation, r: PLRelation) -> PLRelation:
    """The relation s o r = {(x, z) : exists y, (x,y) in r and (y,z) in s},
    every point kept: a degenerate overlap gives a point arc."""
    arcs = []
    for ra in r.arcs:
        for sa in s.arcs:
            arc = _compose_pair(ra, sa)
            if arc is not None:
                arcs.append(arc)
    if not arcs:
        raise CompositionError("composition of relations is empty")
    return PLRelation(arcs)


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
