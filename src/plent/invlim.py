"""Truncated inverse limits and diagonal maps.

A truncated point of depth d is a tuple (x_0, ..., x_d) with
f_i(x_i) = x_{i-1} for the bonding maps f_i.  A diagonal system adds maps
g_i satisfying g_i o f_{i+1} = f_i o g_{i+1}; the induced diagonal map
drops one coordinate per application:

    Psi(x)_i = g_{i+1}(x_{i+1}).

Diagonal steps run in integer arithmetic on a batch of points of one
depth, held column by column on one lattice 1/d (a multiple of every
breakpoint x-denominator of the system's maps).  Each map is evaluated on
a whole column with one sweep (`_on_curve`), every image is re-checked
against the bonding maps the same way, and the lattice grows wherever a
map's slopes need it.  `point_from_tip`, `validate_point` and
`apply_diagonal` are one-point calls of that kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import CompositionError, DepthExhaustedError, LiftingError
from .plmap import PLMap, _make_checked, _on_curve, _scaled, as_rat, compose, map_equals
from .relation import PLRelation, param_graph
from .entropy import _close_pairs, _grid_points, _separated, separated_count


class _TruncatedPoint(NamedTuple):
    coords: tuple[Fraction, ...]  # (x_0, ..., x_depth)


class TruncatedPoint(_TruncatedPoint):
    __slots__ = ()

    def __new__(cls, coords: tuple[Fraction, ...]):
        if not coords:
            raise ValueError("a truncated point needs at least coordinate x_0")
        return tuple.__new__(cls, (coords,))

    _make = classmethod(_make_checked)

    @property
    def depth(self) -> int:
        return len(self.coords) - 1


# A batch of truncated points of one depth: (d, cols), coordinate x_i of
# point j is cols[i][j] / d.
Batch = tuple[int, list[list[int]]]


def _point(batch: Batch, j: int) -> TruncatedPoint:
    d, cols = batch
    return TruncatedPoint(tuple(Fraction(col[j], d) for col in cols))


class DiagonalSystem:
    """Bonding maps f_i and diagonal maps g_i, both indexed from 1, as
    finite data: pairs[i-1] = (f_i, g_i), and the last pair repeats."""

    def __init__(self, pairs: Sequence[tuple[PLMap, PLMap]], shift_like: bool = False):
        self.pairs = tuple((f, g) for f, g in pairs)
        if not self.pairs:
            raise ValueError("a diagonal system needs at least one pair (f_1, g_1)")
        # every batch lattice is a multiple of this, so each map can be
        # evaluated on it
        self._xden = math.lcm(
            *(x.denominator for pair in self.pairs for m in pair for x, _ in m.breakpoints)
        )
        # shift-like systems act as (x_0, ..., x_d) -> (f(x_0), x_0, ...,
        # x_{d-1}): the diagonal image's deepest coordinate is already
        # determined, so applying the map does not lose depth
        self.shift_like = shift_like

    def _pair(self, i: int) -> tuple[PLMap, PLMap]:
        if i < 1:
            raise ValueError(f"levels are indexed from 1, got {i}")
        return self.pairs[min(i, len(self.pairs)) - 1]

    def bonding(self, i: int) -> PLMap:
        return self._pair(i)[0]

    def diagonal_maps(self, i: int) -> PLMap:
        return self._pair(i)[1]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(f: PLMap, g: PLMap) -> "DiagonalSystem":
        return DiagonalSystem([(f, g)])

    @staticmethod
    def shift(f: PLMap) -> "DiagonalSystem":
        """The natural-extension shift on the inverse limit with constant
        bonding map f.  As a diagonal system the maps are g_i = f o f
        (one application moves every thread one step along f); the image's
        deepest coordinate equals the old x_{depth-1}, so truncated points
        keep their depth."""
        return DiagonalSystem([(f, compose(f, f))], shift_like=True)

    # -- structure ----------------------------------------------------------

    def validate_point(self, p: TruncatedPoint) -> None:
        self._check(self._single(p))

    def point_from_tip(self, depth: int, tip: Fraction) -> TruncatedPoint:
        """Depth-d point determined by its deepest coordinate."""
        d, (tips,) = _scaled([as_rat(tip)])
        return _point(self._push_down(d, tips, depth), 0)

    # -- the integer kernel ---------------------------------------------------

    def _rescaled(self, cols: Sequence[tuple[int, list[int]]]) -> Batch:
        """Columns, each on its own lattice 1/n, on one lattice 1/d: the lcm
        of theirs and of the maps' breakpoint x-denominators."""
        d = math.lcm(self._xden, *(n for n, _ in cols))
        return d, [col if n == d else [v * (d // n) for v in col] for n, col in cols]

    def _single(self, p: TruncatedPoint) -> Batch:
        """The batch of the one point p."""
        d, (coords,) = _scaled(p.coords)
        return self._rescaled([(d, [v]) for v in coords])

    def _push_down(self, d: int, tips: list[int], depth: int) -> Batch:
        """The depth-`depth` points with deepest coordinates tips (on 1/d):
        x_{i-1} = f_i(x_i), one sweep of f_i per level."""
        d, cols = self._rescaled([(d, tips)])
        for i in range(depth, 0, -1):
            top = _on_curve(self.bonding(i), d, cols[0])
            d, cols = self._rescaled([top] + [(d, col) for col in cols])
        return d, cols

    def _check(self, batch: Batch) -> None:
        """f_i(x_i) = x_{i-1} exactly, for every level of every point, one
        sweep of f_i per level; a broken thread raises CompositionError."""
        d, cols = batch
        for i in range(1, len(cols)):
            n, images = _on_curve(self.bonding(i), d, cols[i])
            m = math.lcm(n, d)
            a, b = m // n, m // d
            for x, y, prev in zip(cols[i], images, cols[i - 1]):
                if y * a != prev * b:
                    raise CompositionError(
                        f"bonding inconsistency at level {i}: "
                        f"f_{i}({Fraction(x, d)}) != {Fraction(prev, d)}"
                    )

    def _step(self, batch: Batch) -> Batch:
        """One application of the diagonal map to every point of the batch,
        one sweep of g_{i+1} per level, bonding re-verified exactly.
        Generic systems lose one level per application; shift-like systems
        keep their depth because the image's deepest coordinate is the old
        next-to-deepest one."""
        d, cols = batch
        depth = len(cols) - 1
        if depth == 0:
            raise DepthExhaustedError("cannot apply the diagonal map at depth 0")
        images = [_on_curve(self.diagonal_maps(i + 1), d, cols[i + 1]) for i in range(depth)]
        if self.shift_like:
            images.append((d, cols[depth - 1]))
        out = self._rescaled(images)
        self._check(out)
        return out


def check_diagonal_compat(sys: DiagonalSystem, depth: int) -> bool:
    return first_incompatible_level(sys, depth) is None


def first_incompatible_level(sys: DiagonalSystem, depth: int) -> Optional[int]:
    """Smallest i <= depth with g_i o f_{i+1} != f_i o g_{i+1}, else None.
    Levels past len(sys.pairs) repeat the check at the last pair."""
    for i in range(1, min(depth, len(sys.pairs)) + 1):
        lhs = compose(sys.diagonal_maps(i), sys.bonding(i + 1))
        rhs = compose(sys.bonding(i), sys.diagonal_maps(i + 1))
        if not map_equals(lhs, rhs):
            return i
    return None


def psi_component(sys: DiagonalSystem, i: int) -> PLRelation:
    """The set-valued coordinate action at level i: the curve
    {(f_{i+1}(t), g_{i+1}(t))}, i.e. g_{i+1} o f_{i+1}^{-1}."""
    return param_graph(sys.bonding(i + 1), sys.diagonal_maps(i + 1))


def apply_diagonal(sys: DiagonalSystem, p: TruncatedPoint) -> TruncatedPoint:
    """One step of the diagonal map, with bonding consistency re-verified
    exactly (see `DiagonalSystem._step`)."""
    return _point(sys._step(sys._single(p)), 0)


def _solve_pair(
    f: PLMap, g: PLMap, a: Fraction, b: Fraction
) -> Optional[Fraction]:
    """Smallest y with f(y) = a and g(y) = b, or None."""
    candidates = []
    for iv in f.preimage(a):
        if iv.is_point():
            if g(iv.lo) == b:
                candidates.append(iv.lo)
        else:
            sub = g.restrict(iv.lo, iv.hi)
            for jv in sub.preimage(b):
                candidates.append(jv.lo)
    return min(candidates) if candidates else None


def lift_orbit(
    sys: DiagonalSystem,
    level: int,
    orbit: Sequence[Fraction],
    depth: int,
) -> TruncatedPoint:
    """Lift an orbit of the level-`level` coordinate relation to a single
    truncated point whose diagonal iterates project onto it.

    orbit[k] must satisfy orbit[k+1] in g_{level+1}(f_{level+1}^{-1}(orbit[k])).
    The lift solves, diagonal by diagonal, f(y) = previous thread value and
    g(y) = next column value; when some cell has no solution the system
    cannot realize the orbit and a LiftingError reports the level at which
    the obstruction occurs.
    """
    orbit = [as_rat(x) for x in orbit]
    n = len(orbit)
    if n < 1:
        raise ValueError("empty orbit")
    need = level + n - 1
    if depth < need:
        raise ValueError(f"depth {depth} too shallow; need at least {need}")
    # rows[j][k] = coordinate at level `level + j` of the k-th iterate
    rows: list[list[Fraction]] = [list(orbit)]
    for j in range(1, n):
        prev = rows[j - 1]
        f = sys.bonding(level + j)
        g = sys.diagonal_maps(level + j)
        row = []
        for k in range(n - j):
            y = _solve_pair(f, g, prev[k], prev[k + 1])
            if y is None:
                raise LiftingError(
                    f"orbit step {k} cannot be lifted through level {level + j}: "
                    f"no y with f_{level + j}(y) = {prev[k]} and "
                    f"g_{level + j}(y) = {prev[k + 1]}",
                    level=level + j,
                )
            row.append(y)
        rows.append(row)
    # assemble the initial point: x_{level + j} = rows[j][0], push down to
    # x_0 through the bonding maps, extend upward by smallest preimages
    coords = [rows[j][0] for j in range(n)]
    for i in range(level, 0, -1):
        coords.insert(0, sys.bonding(i)(coords[0]))
    while len(coords) - 1 < depth:
        i = len(coords)
        pre = sys.bonding(i).preimage(coords[-1])
        if not pre:
            raise LiftingError(
                f"no preimage at level {i} while deepening the lift", level=i
            )
        coords.append(pre[0].lo)
    point = TruncatedPoint(tuple(coords))
    sys.validate_point(point)
    return point


class DiagonalEstimateRow(NamedTuple):
    n: int
    eps: Fraction
    s_count: int
    estimate: float
    tail_bound: Fraction


def entropy_estimate_diagonal(
    sys: DiagonalSystem,
    depth: int,
    n_max: int,
    eps: Fraction,
    grid: Fraction,
) -> list[DiagonalEstimateRow]:
    """Separated-orbit entropy estimates for the diagonal map.

    Initial points are grid-generated: the deepest coordinate runs over
    the grid and is pushed forward through the bonding maps.  Shift-like
    systems start at the given depth; generic systems start at depth
    depth + n_max - 1, so that after n_max - 1 applications every iterate
    still has `depth` comparable coordinates.

    Two trajectories are separated when at some time step some one of the
    first `depth` coordinates differs by more than eps.  Coordinate-wise
    comparison gives a metric uniformly equivalent to the weighted-sum
    truncated metric, hence the same entropy, but does not damp deep
    coordinates by 2^-i, which at desk scale would blind the estimator to
    everything below coordinate ~log2(1/eps).  The ignored tail is bounded
    by 2^-depth, reported per row.

    The counts run on the batch's integer columns.  Trajectories close for
    n steps are close for n - 1, so the closeness graph of step n keeps
    the edges of step n - 1's graph whose step-n coordinates are within
    eps; only step 1's graph is built by a neighbour search.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    eps = as_rat(eps)
    start_depth = depth if sys.shift_like else depth + n_max - 1
    d, (tips,) = _scaled(_grid_points(as_rat(grid)))
    batch = sys._push_down(d, tips, start_depth)

    rows = []
    tail = Fraction(1, 2**depth)
    for n in range(1, n_max + 1):
        if n > 1:
            batch = sys._step(batch)
        d, cols = batch
        # step n's coordinates and eps on one lattice 1/m, eps as e/m
        m = math.lcm(d, eps.denominator)
        e = eps.numerator * (m // eps.denominator)
        cols = [[v * (m // d) for v in col] for col in cols[: depth + 1]]
        if n == 1:
            # the first count is the public one, which also rejects eps <= 0;
            # the graph that later steps refine is built beside it
            points = list(zip(*cols))
            count = separated_count(points, e)
            adj = _close_pairs(points, e)
        else:
            adj = [
                {j for j in near if all(abs(col[i] - col[j]) <= e for col in cols)}
                for i, near in enumerate(adj)
            ]
            count = _separated(adj)
        rows.append(
            DiagonalEstimateRow(
                n, eps, count, math.log(count) / n if count > 1 else 0.0, tail
            )
        )
    return rows
