"""Exact piecewise-linear self-maps of the unit interval.

Maps hold their breakpoints as `fractions.Fraction`.  Composition runs in
integer arithmetic: the breakpoints of both maps are put on integer
lattices, one per axis, chosen so that every breakpoint and value of the
result is an exact integer, and the `Fraction` map is built once at the
end.  An integer PL curve has one form: `_pieces` gives its breakpoints
and an integer (w, c) per segment, with value w + z*c, and `_sweep`
reads it at increasing points (`_value` at one).  The private helpers
that other modules import are those three, the lattice helpers
(`_on_lattice`, `_scaled`, `_slopes`, `_lattice_for`, `_exact`),
`_on_curve`, `_merge_collinear`, `_merged` (the union of closed spans),
`_iterates` (the one routine of map iterates) and the records'
`_make_checked`; none defines its own.  Every certified
entropy value of the package is a `Bound`, (1/k) log base held exactly,
and `at_most` is the one comparison of two; the only floats are the
lap-growth estimates at the very end, logarithms of exact integers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import (
    CompositionError,
    DomainError,
    HomeomorphismError,
    ResourceError,
)

RatLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)
CAP_BREAKPOINTS = 10**6  # the default cap on breakpoints per map


def as_rat(value: RatLike) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass a Fraction")
    return Fraction(value)


def _make_checked(cls, iterable):
    """`_make` of a record class that checks its fields: it builds through
    the checking constructor, and so does `_replace`, which calls it."""
    return cls(*iterable)


class _Interval(NamedTuple):
    lo: Fraction
    hi: Fraction


class Interval(_Interval):
    """Closed subinterval of [0,1]. Degenerate (lo == hi) intervals are
    allowed and stand for single points."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction):
        if not (ZERO <= lo <= hi <= ONE):
            raise ValueError(f"not a subinterval of [0,1]: [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    _make = classmethod(_make_checked)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)


def _merged(spans: Iterable[tuple]) -> list[tuple]:
    """Union of closed spans (lo, hi), of any ordered type, as a sorted
    list of maximal ones."""
    out: list[tuple] = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return out


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Union of closed intervals as a sorted list of maximal components."""
    return [Interval(lo, hi) for lo, hi in _merged(intervals)]


UNIT = Interval(ZERO, ONE)


class PLMap:
    """A continuous piecewise-linear map given by its breakpoints.

    Breakpoints are an ordered tuple of (x, y) pairs with strictly
    increasing x.  The constructor canonicalizes: consecutive collinear
    segments are merged, so structural equality of breakpoint tuples is
    equality of maps with equal domains.
    """

    __slots__ = ("breakpoints",)

    def __init__(self, points: Iterable[tuple[RatLike, RatLike]]):
        pts = [(as_rat(x), as_rat(y)) for x, y in points]
        if len(pts) < 2:
            raise ValueError("a PL map needs at least two breakpoints")
        for x, y in pts:
            if not (ZERO <= x <= ONE and ZERO <= y <= ONE):
                raise ValueError(f"breakpoint ({x}, {y}) outside the unit square")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if x0 >= x1:
                raise ValueError("breakpoint x-coordinates must strictly increase")
        object.__setattr__(self, "breakpoints", tuple(_merge_collinear(pts)))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("PLMap is immutable")

    def __reduce__(self):
        return PLMap, (self.breakpoints,)

    @classmethod
    def _from_canonical(cls, pts: tuple) -> "PLMap":
        # trusted fast path: pts must already be validated and merged
        obj = cls.__new__(cls)
        object.__setattr__(obj, "breakpoints", pts)
        return obj

    def __eq__(self, other) -> bool:
        return isinstance(other, PLMap) and self.breakpoints == other.breakpoints

    def __hash__(self) -> int:
        return hash(self.breakpoints)

    def __repr__(self) -> str:
        pts = ", ".join(f"({x},{y})" for x, y in self.breakpoints)
        return f"PLMap[{pts}]"

    # -- basic geometry ----------------------------------------------------

    @property
    def domain(self) -> Interval:
        return Interval(self.breakpoints[0][0], self.breakpoints[-1][0])

    @property
    def range(self) -> Interval:
        ys = [y for _, y in self.breakpoints]
        return Interval(min(ys), max(ys))

    def segments(self):
        """Yield (x0, y0, x1, y1, slope) over the linear pieces."""
        for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:]):
            yield x0, y0, x1, y1, (y1 - y0) / (x1 - x0)

    def __call__(self, x: RatLike) -> Fraction:
        x = as_rat(x)
        pts = self.breakpoints
        if not (pts[0][0] <= x <= pts[-1][0]):
            raise DomainError(f"{x} outside domain [{pts[0][0]}, {pts[-1][0]}]")
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= x:
                lo = mid
            else:
                hi = mid
        x0, y0 = pts[lo]
        x1, y1 = pts[lo + 1]
        if x == x0:
            return y0
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    # -- structure ---------------------------------------------------------

    def slope_signs(self) -> list[int]:
        return [_sign(s) for *_rest, s in self.segments()]

    def is_strictly_monotone(self) -> bool:
        signs = set(self.slope_signs())
        return signs == {1} or signs == {-1}

    def is_increasing(self) -> bool:
        return set(self.slope_signs()) == {1}

    def is_constant(self) -> bool:
        return set(self.slope_signs()) == {0}

    def lap_boundaries(self) -> list[Fraction]:
        """x-coordinates that separate maximal runs of constant slope sign,
        including the two domain endpoints.  A plateau is its own run, so
        both of its endpoints appear."""
        pts = self.breakpoints
        bounds = [pts[0][0]]
        signs = self.slope_signs()
        for i in range(1, len(signs)):
            if signs[i] != signs[i - 1]:
                bounds.append(pts[i][0])
        bounds.append(pts[-1][0])
        return bounds

    def lap_count(self) -> int:
        return len(self.lap_boundaries()) - 1

    def critical_points(self) -> list[Fraction]:
        """Interior lap boundaries.  Both endpoints of a plateau count."""
        return self.lap_boundaries()[1:-1]

    def laps(self) -> list["PLMap"]:
        b = self.lap_boundaries()
        return [self.restrict(a, c) for a, c in zip(b, b[1:])]

    # -- pieces and inverses -------------------------------------------------

    def restrict(self, a: RatLike, b: RatLike) -> "PLMap":
        a, b = as_rat(a), as_rat(b)
        if not (self.domain.lo <= a < b <= self.domain.hi):
            raise DomainError(f"[{a}, {b}] not a nondegenerate subinterval of the domain")
        xs = [x for x, _ in self.breakpoints]
        lo = bisect_right(xs, a)
        hi = bisect_left(xs, b)
        pts = [(a, self(a))]
        pts += self.breakpoints[lo:hi]
        pts.append((b, self(b)))
        return PLMap(pts)

    def inverse(self) -> "PLMap":
        if not self.is_strictly_monotone():
            raise HomeomorphismError("only strictly monotone maps are invertible")
        pts = [(y, x) for x, y in self.breakpoints]
        if not self.is_increasing():
            pts.reverse()
        return PLMap(pts)

    def preimage(self, y: RatLike) -> list[Interval]:
        """Full preimage of a value as a sorted list of disjoint closed
        intervals (points appear as degenerate intervals)."""
        y = as_rat(y)
        hits: list[Interval] = []
        for x0, y0, x1, y1, slope in self.segments():
            if slope == 0:
                if y0 == y:
                    hits.append(Interval(x0, x1))
            elif min(y0, y1) <= y <= max(y0, y1):
                x = x0 + (y - y0) / slope
                hits.append(Interval(x, x))
        return merge_intervals(hits)


def _merge_collinear(pts):
    out = [pts[0]]
    for p in pts[1:]:
        while len(out) >= 2:
            (ax, ay), (bx, by) = out[-2], out[-1]
            # drop b if a, b, p are collinear
            if (by - ay) * (p[0] - bx) == (p[1] - by) * (bx - ax):
                out.pop()
            else:
                break
        out.append(p)
    return out


def _sign(v: Fraction) -> int:
    return (v > 0) - (v < 0)


def _on_lattice(q: Fraction, d: int) -> int:
    """q on the integer lattice 1/d: q*d, which must be an integer; a
    remainder raises, it never rounds."""
    num, den = q.as_integer_ratio()
    if d % den:
        raise ArithmeticError(f"{q} is off the integer lattice 1/{d}")
    return num * (d // den)


def _scaled(*seqs: Sequence[Fraction]) -> tuple[int, list[list[int]]]:
    """The rationals of every sequence on one integer lattice 1/d, d the
    least common denominator of them all: (d, one int list per sequence)."""
    d = math.lcm(*{q.denominator for seq in seqs for q in seq})
    return d, [[_on_lattice(q, d) for q in seq] for seq in seqs]


def _slopes(xs: Sequence[int], ys: Sequence[int], dx: int, dy: int) -> list[tuple[int, int]]:
    """Per segment of the PL curve through (xs[i]/dx, ys[i]/dy), its slope
    as the ratio (num, den), not reduced."""
    return [((ys[k + 1] - ys[k]) * dx, (xs[k + 1] - xs[k]) * dy) for k in range(len(xs) - 1)]


def _lattice_for(d: int, shared: int, slopes) -> int:
    """The least multiple of d on which every slope num/den, taken from the
    shared lattice 1/shared, maps integers to integers; each distinct
    (num, den) pair is reduced once."""
    return math.lcm(d, *(shared * den // math.gcd(num, shared * den) for num, den in set(slopes)))


def _exact(num: int, den: int) -> int:
    """num/den, which must be an integer: a remainder raises, it never
    rounds."""
    quo, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("value is off the integer lattice")
    return quo


def _pieces(zs: Sequence[int], vs: Sequence[int]) -> tuple[Sequence[int], list[tuple[int, int]]]:
    """The integer PL curve through (zs[i], vs[i]), zs strictly monotone
    either way, as a function of z: its breakpoints, increasing, and per
    segment (w, c) with value w + z*c.  The rise c per unit of z must be an
    integer, checked once per segment: a remainder raises, it never rounds."""
    pieces = []
    for k in range(len(zs) - 1):
        c = _exact(vs[k + 1] - vs[k], zs[k + 1] - zs[k])
        pieces.append((vs[k] - zs[k] * c, c))
    if zs[0] > zs[-1]:
        return zs[::-1], pieces[::-1]
    return zs, pieces


def _value(zs: Sequence[int], pieces: list[tuple[int, int]], z: int) -> int:
    """The value at one z, inside [zs[0], zs[-1]], of the `_pieces`
    function (zs, pieces)."""
    w, c = pieces[min(bisect_right(zs, z), len(pieces)) - 1]
    return w + z * c


def _sweep(zs: Sequence[int], pieces: list[tuple[int, int]], points: Iterable[int]) -> list[int]:
    """The values at the increasing points, all inside [zs[0], zs[-1]], of
    the `_pieces` function (zs, pieces), with a cursor that only moves right."""
    out = []
    k = 0
    for z in points:
        while zs[k + 1] < z:
            k += 1
        w, c = pieces[k]
        out.append(w + z * c)
    return out


def _on_curve(m: PLMap, d: int, col: list[int]) -> tuple[int, list[int]]:
    """m at every entry of the column, on a lattice 1/d that holds m's
    breakpoints, in one integer sweep over its sorted distinct values:
    (n, the values over n in column order), n the least multiple of the
    denominators of m's values on which every slope of m maps 1/d to
    integers.  An entry off m's domain raises DomainError."""
    pts = m.breakpoints
    mts = [_on_lattice(x, d) for x, _ in pts]
    ts = sorted(set(col))
    if ts and not (mts[0] <= ts[0] and ts[-1] <= mts[-1]):
        off = ts[0] if ts[0] < mts[0] else ts[-1]
        raise DomainError(f"{Fraction(off, d)} outside domain [{pts[0][0]}, {pts[-1][0]}]")
    dy, (ys,) = _scaled([y for _, y in pts])
    n = _lattice_for(dy, d, _slopes(mts, ys, d, dy))
    image = dict(zip(ts, _sweep(*_pieces(mts, [y * (n // dy) for y in ys]), ts)))
    return n, [image[t] for t in col]


def identity_map(interval: Interval = UNIT) -> PLMap:
    if interval.is_point():
        raise ValueError("identity needs a nondegenerate interval")
    return PLMap([(interval.lo, interval.lo), (interval.hi, interval.hi)])


def constant_map(interval: Interval, value: RatLike) -> PLMap:
    return PLMap([(interval.lo, value), (interval.hi, value)])


def compose(f: PLMap, g: PLMap, cap_breakpoints: int | None = None) -> PLMap:
    """f after g (x -> f(g(x))), exact, in integer arithmetic.

    g's x-coordinates lie on 1/gx, g's values and f's nodes on one shared
    lattice 1/shared, f's values on 1/fy.  The breakpoints of f o g are g's own
    and, on every sloped segment of g, the preimages of the nodes of f
    strictly inside its range, where the value is the node's value; so f
    is read only at g's values and at its own nodes, in one sweep
    (`_on_curve`).  The result lies on (1/nx, 1/ny), the least multiples of
    gx and fy on which every inverse slope of g and every slope of f maps
    the integers of 1/shared to integers (`_lattice_for`): every coordinate
    is an exact integer, a remainder raises.
    """
    gpts, fpts = g.breakpoints, f.breakpoints
    gx, (gxs,) = _scaled([x for x, _ in gpts])
    shared, (gus, fus) = _scaled([y for _, y in gpts], [x for x, _ in fpts])
    if not (fus[0] <= min(gus) and max(gus) <= fus[-1]):
        raise CompositionError(
            f"range {g.range} of inner map not contained in domain {f.domain} of outer map"
        )
    ny, vals = _on_curve(f, shared, gus + fus)
    gvals, fvals = vals[: len(gus)], vals[len(gus) :]  # f at g's values, at f's nodes
    gsteps = [(gxs[k + 1] - gxs[k], gus[k + 1] - gus[k]) for k in range(len(gxs) - 1)]
    ginv = [s for s in _slopes(gus, gxs, shared, gx) if s[1]]  # slopes of g's inverse, no flat ones
    nx = _lattice_for(gx, shared, ginv)
    mx = nx // gx
    xs, ys = [], []
    for x0, u0, y0, (dx, du) in zip(gxs, gus, gvals, gsteps):
        xs.append(x0 * mx)
        ys.append(y0)
        if not du:
            continue
        c = _exact(mx * dx, du)
        if du > 0:
            nodes = range(bisect_right(fus, u0), bisect_left(fus, u0 + du))
        else:
            nodes = range(bisect_left(fus, u0) - 1, bisect_right(fus, u0 + du) - 1, -1)
        for j in nodes:
            xs.append(x0 * mx + (fus[j] - u0) * c)
            ys.append(fvals[j])
    xs.append(gxs[-1] * mx)
    ys.append(gvals[-1])
    if cap_breakpoints is not None and len(xs) > cap_breakpoints:
        raise ResourceError(
            f"composition would have {len(xs)} breakpoints (cap {cap_breakpoints})"
        )
    if not (0 <= xs[0] and xs[-1] <= nx and 0 <= min(ys) and max(ys) <= ny) or any(
        a >= b for a, b in zip(xs, xs[1:])
    ):
        raise ValueError("composed breakpoints leave the unit square or are not increasing")
    pts = _merge_collinear(list(zip(xs, ys)))
    yq = {y: Fraction(y, ny) for _, y in pts}  # one Fraction per distinct value
    return PLMap._from_canonical(tuple((Fraction(x, nx), yq[y]) for x, y in pts))


def _iterates(f: PLMap, cap_breakpoints: int | None = None) -> Iterator[PLMap]:
    """f, f^2, f^3, ...: each iterate is one `compose` of f after the one
    before, capped at `cap_breakpoints`, and is built only when it is asked
    for.  A map that does not send its domain into itself raises at the call."""
    if not f.domain.contains_interval(f.range):
        raise CompositionError("map does not send its domain into itself")
    return accumulate(repeat(f), lambda fk, _: compose(f, fk, cap_breakpoints=cap_breakpoints))


def iterate(f: PLMap, k: int, cap_breakpoints: int | None = None) -> PLMap:
    """k-fold composition of f with itself (k >= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return next(islice(_iterates(f, cap_breakpoints), k - 1, None))


def map_equals(f: PLMap, g: PLMap) -> bool:
    """Exact equality of maps (same domain, same values everywhere)."""
    return f.breakpoints == g.breakpoints


_Bound = NamedTuple("_Bound", [("k", int), ("base", Fraction), ("kind", str), ("evidence", object)])
_KINDS = ("exact", "certified", "theorem")


class Bound(_Bound):
    """(1/k) log base, exact: an integer k >= 1 and a rational base >= 1.
    `kind` is "exact" (an entropy in closed form), "certified" (a bound
    with a checked witness: a horseshoe, as `evidence`, or a branch count)
    or "theorem" (a bracket's target).  Only `at_most` compares two."""

    __slots__ = ()

    def __new__(cls, k: int, base: RatLike, kind: str, evidence=None):
        base = as_rat(base)
        if not isinstance(k, int) or k < 1 or base < 1 or kind not in _KINDS:
            raise ValueError(f"not a bound (1/k) log base: k={k!r}, base={base}, kind={kind!r}")
        return tuple.__new__(cls, (k, base, kind, evidence))

    _make = classmethod(_make_checked)


def at_most(a: Bound, b: Bound, gap: int = 1) -> bool:
    """Whether (1/a.k) log a.base <= (1/b.k) log b.base + (1/a.k) log gap,
    decided exactly as a.base^b.k <= gap^b.k * b.base^a.k."""
    return a.base**b.k <= gap**b.k * b.base**a.k


class LapGrowth(NamedTuple):
    """Lap-count entropy data: terms[n-1] = log(lap_count(f^n) - 1) / n for
    n = 1..n_max, or 0.0 when lap_count(f^n) <= 2; `exact` is the entropy as
    an "exact" `Bound` when the map has constant absolute slope, else None."""

    terms: tuple[float, ...]
    exact: Optional[Bound]


def constant_slope(f: PLMap) -> Optional[Fraction]:
    """The common |slope| if the map has one, else None."""
    slopes = {abs(s) for *_r, s in f.segments()}
    if len(slopes) == 1:
        return slopes.pop()
    return None


def entropy_lap_growth(
    f: PLMap, n_max: int, cap_breakpoints: int = CAP_BREAKPOINTS
) -> LapGrowth:
    """Entropy estimates from the growth rate of lap counts.

    When f has constant absolute slope s, the entropy is exactly
    log max(1, s) and is reported in `exact` without iterating.
    """
    maps = _iterates(f, cap_breakpoints)
    s = constant_slope(f)
    exact = None if s is None else Bound(1, max(s, ONE), "exact")
    terms: list[float] = []
    try:
        for n, g in zip(range(1, n_max + 1), maps):
            growth = g.lap_count() - 1
            terms.append(math.log(growth) / n if growth > 1 else 0.0)
    except ResourceError as err:
        raise ResourceError(
            str(err), partial=LapGrowth(tuple(terms), exact), partial_size=len(terms)
        ) from err
    return LapGrowth(tuple(terms), exact)
