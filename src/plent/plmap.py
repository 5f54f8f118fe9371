"""Exact piecewise-linear self-maps of the unit interval.

Maps hold their breakpoints as `fractions.Fraction`.  Composition runs in
integer arithmetic: the breakpoints of both maps are put on integer
lattices, one per axis, chosen so that every breakpoint and value of the
result is an exact integer, and the `Fraction` map is built once at the
end.  The lattice helpers here (`_scaled`, `_lattice_for`, `_exact`,
`_lattice_sweep`) serve the parameterized curve, the branch kernel and
horseshoe verification too.  Nothing in this module touches floating
point except the entropy estimates at the very end, which report
logarithms of exactly computed integers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    CompositionError,
    DomainError,
    HomeomorphismError,
    ResourceError,
)

RatLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rat(value: RatLike) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; pass a Fraction")
    return Fraction(value)


@dataclass(frozen=True, order=True)
class Interval:
    """Closed subinterval of [0,1]. Degenerate (lo == hi) intervals are
    allowed and stand for single points."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (ZERO <= self.lo <= self.hi <= ONE):
            raise ValueError(f"not a subinterval of [0,1]: [{self.lo}, {self.hi}]")

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


def merge_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Union of closed intervals as a sorted list of maximal components."""
    items = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
    out: list[Interval] = []
    for iv in items:
        if out and iv.lo <= out[-1].hi:
            if iv.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return out


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

    # -- calculus ------------------------------------------------------------


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
    """q on the integer lattice 1/d: its numerator over d, which must be a
    multiple of q's denominator."""
    return q.numerator * (d // q.denominator)


def _scaled(*seqs: Sequence[Fraction]) -> tuple[int, list[list[int]]]:
    """The rationals of every sequence on one integer lattice 1/d, d the
    least common denominator of them all: (d, one int list per sequence)."""
    d = math.lcm(*(q.denominator for seq in seqs for q in seq))
    return d, [[q.numerator * (d // q.denominator) for q in seq] for seq in seqs]


def _lattice_for(d: int, shared: int, slopes) -> int:
    """The least multiple of d on which every slope num/den, taken from the
    shared lattice 1/shared, maps integers to integers."""
    return math.lcm(d, *(shared * den // math.gcd(num, shared * den) for num, den in slopes))


def _exact(num: int, den: int) -> int:
    """num/den, which must be an integer: a remainder raises, it never
    rounds."""
    quo, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("value is off the integer lattice")
    return quo


def _lattice_sweep(xs: list[int], ys: list[int], points: list[int]) -> list[int]:
    """Exact values at the increasing points (all inside [xs[0], xs[-1]]) of
    the PL map through (xs[i], ys[i]); the lattice must make each an
    integer, a remainder raises."""
    out = []
    j = 1
    for x in points:
        while xs[j] < x:
            j += 1
        x0, y0 = xs[j - 1], ys[j - 1]
        q, r = divmod((ys[j] - y0) * (x - x0), xs[j] - x0)
        if r:
            raise ArithmeticError("value is off the integer lattice")
        out.append(y0 + q)
    return out


def _on_curve(m: PLMap, d: int, ts: list[int]) -> tuple[int, list[int]]:
    """m at every t of the increasing ts, on a lattice 1/d that holds m's
    breakpoints, in one integer sweep: (n, the values over n), n the least
    multiple of the denominators of m's values on which every slope of m
    maps 1/d to integers.  A t off m's domain raises DomainError."""
    pts = m.breakpoints
    mts = [_exact(x.numerator * d, x.denominator) for x, _ in pts]
    if ts and not (mts[0] <= ts[0] and ts[-1] <= mts[-1]):
        off = ts[0] if ts[0] < mts[0] else ts[-1]
        raise DomainError(f"{Fraction(off, d)} outside domain [{pts[0][0]}, {pts[-1][0]}]")
    dy, (ys,) = _scaled([y for _, y in pts])
    n = _lattice_for(
        dy, d, (((y1 - y0) * d, (t1 - t0) * dy) for t0, t1, y0, y1 in zip(mts, mts[1:], ys, ys[1:]))
    )
    return n, _lattice_sweep(mts, [y * (n // dy) for y in ys], ts)


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
    is evaluated only at g's breakpoints.  The result lies on (1/nx, 1/ny),
    the least multiples of gx and fy on which every inverse slope of g and
    every slope of f maps the integers of 1/shared to integers (`_lattice_for`):
    every coordinate is an exact integer, a remainder raises.
    """
    gpts, fpts = g.breakpoints, f.breakpoints
    gx, (gxs,) = _scaled([x for x, _ in gpts])
    shared, (gus, fus) = _scaled([y for _, y in gpts], [x for x, _ in fpts])
    fy, (fys,) = _scaled([y for _, y in fpts])
    if not (fus[0] <= min(gus) and max(gus) <= fus[-1]):
        raise CompositionError(
            f"range {g.range} of inner map not contained in domain {f.domain} of outer map"
        )
    gsteps = [(gxs[k + 1] - gxs[k], gus[k + 1] - gus[k]) for k in range(len(gxs) - 1)]
    fsteps = [(fus[j + 1] - fus[j], fys[j + 1] - fys[j]) for j in range(len(fus) - 1)]
    nx = _lattice_for(gx, shared, ((dx * shared, du * gx) for dx, du in gsteps if du))
    ny = _lattice_for(fy, shared, ((dy * shared, du * fy) for du, dy in fsteps))
    mx, my = nx // gx, ny // fy
    fcs = [_exact(my * dy, du) for du, dy in fsteps]
    last = len(fus) - 2

    def f_at(u: int) -> int:
        j = min(bisect_right(fus, u) - 1, last)
        return fys[j] * my + (u - fus[j]) * fcs[j]

    xs, ys = [], []
    for x0, u0, (dx, du) in zip(gxs, gus, gsteps):
        xs.append(x0 * mx)
        ys.append(f_at(u0))
        if not du:
            continue
        c = _exact(mx * dx, du)
        if du > 0:
            nodes = range(bisect_right(fus, u0), bisect_left(fus, u0 + du))
        else:
            nodes = range(bisect_left(fus, u0) - 1, bisect_right(fus, u0 + du) - 1, -1)
        for j in nodes:
            xs.append(x0 * mx + (fus[j] - u0) * c)
            ys.append(fys[j] * my)
    xs.append(gxs[-1] * mx)
    ys.append(f_at(gus[-1]))
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


def iterate(f: PLMap, k: int, cap_breakpoints: int | None = None) -> PLMap:
    """k-fold composition of f with itself (k >= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not f.domain.contains_interval(f.range):
        raise CompositionError("map does not send its domain into itself")
    acc = f
    for _ in range(k - 1):
        acc = compose(f, acc, cap_breakpoints=cap_breakpoints)
    return acc


def map_equals(f: PLMap, g: PLMap) -> bool:
    """Exact equality of maps (same domain, same values everywhere)."""
    return f.breakpoints == g.breakpoints


@dataclass(frozen=True)
class LapGrowth:
    """Lap-count entropy data: terms[n-1] = log(laps(f^{n+1}) - 1) / n ...

    `terms` holds (1/n) * log(lap_count(f^n) - 1) for n = 1..n_max, with a
    term of 0.0 whenever lap_count(f^n) <= 2.  `exact` is the exactly known
    entropy when the map has constant absolute slope, else None.
    """

    terms: tuple[float, ...]
    exact: Optional[float]


def constant_slope(f: PLMap) -> Optional[Fraction]:
    """The common |slope| if the map has one, else None."""
    slopes = {abs(s) for *_r, s in f.segments()}
    if len(slopes) == 1:
        return slopes.pop()
    return None


def entropy_lap_growth(
    f: PLMap, n_max: int, cap_breakpoints: int = 10**6
) -> LapGrowth:
    """Entropy estimates from the growth rate of lap counts.

    When f has constant absolute slope s, the entropy is exactly
    max(0, log s) and is reported in `exact` without iterating.
    """
    if not f.domain.contains_interval(f.range):
        raise CompositionError("map does not send its domain into itself")
    s = constant_slope(f)
    exact = None
    if s is not None:
        exact = math.log(s) if s > 1 else 0.0
    terms: list[float] = []
    g = f
    for n in range(1, n_max + 1):
        try:
            if n > 1:
                g = compose(f, g, cap_breakpoints=cap_breakpoints)
        except ResourceError as err:
            raise ResourceError(
                str(err), partial=LapGrowth(tuple(terms), exact)
            ) from err
        growth = g.lap_count() - 1
        terms.append(math.log(growth) / n if growth > 1 else 0.0)
    return LapGrowth(tuple(terms), exact)
