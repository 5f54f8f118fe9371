"""Entropy estimation and certification for set-valued relations.

Three independent routes live here:

* orbit enumeration with (n, eps)-separated / spanning counts,
* certified horseshoes (exact cross-coverage of disjoint intervals),
* the bracket pipeline squeezing the entropy of a parameterized curve
  between horseshoe lower bounds and branch-count upper bounds.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Iterator, Optional, Sequence

from .branch import branch_counts
from .errors import CompositionError, ResourceError
from .plmap import Interval, _lattice_sweep, _on_lattice, _scaled, as_rat, compose
from .relation import (
    VER,
    PLRelation,
    fiber_intervals,
    param_graph,
    strongly_commutes,
)


# ---------------------------------------------------------------------------
# orbit enumeration


@dataclass(frozen=True)
class OrbitSet:
    n: int
    grid: Fraction
    orbits: tuple[tuple[Fraction, ...], ...]


def _grid_points(grid: Fraction) -> list[Fraction]:
    """The multiples of grid in [0, 1]; grid must be positive."""
    if grid <= 0:
        raise ValueError("grid must be positive")
    return [k * grid for k in range(math.floor(1 / grid) + 1)]


def _successors(rel: PLRelation, x: Fraction, grid: Fraction) -> list[Fraction]:
    """Exact points reachable from x in one step: isolated fiber points,
    interval-fiber endpoints, and grid multiples inside interval fibers."""
    out = set()
    for iv in fiber_intervals(rel, x):
        out.add(iv.lo)
        out.add(iv.hi)
        if not iv.is_point():
            k = math.ceil(iv.lo / grid)
            v = k * grid
            while v <= iv.hi:
                out.add(v)
                v += grid
    return sorted(out)


def enumerate_orbits(
    rel: PLRelation, n: int, grid: Fraction, cap_orbits: int = 200_000
) -> OrbitSet:
    """All length-n orbits of the relation starting on the grid.

    Every consecutive pair of an orbit is exactly a member of the relation;
    interval fibers are sampled at their endpoints and interior grid
    multiples, so membership is exact even though the set is finite.
    """
    grid = as_rat(grid)
    starts = _grid_points(grid)
    succ_cache: dict[Fraction, list[Fraction]] = {}

    def successors(x: Fraction) -> list[Fraction]:
        if x not in succ_cache:
            succ_cache[x] = _successors(rel, x, grid)
        return succ_cache[x]

    def expand(start: Fraction) -> list[tuple[Fraction, ...]]:
        frontier = [(start,)]
        for _ in range(n - 1):
            nxt = []
            for orbit in frontier:
                for y in successors(orbit[-1]):
                    nxt.append(orbit + (y,))
                    if len(nxt) > cap_orbits:
                        raise ResourceError(
                            f"orbit count exceeds cap {cap_orbits}",
                            partial=OrbitSet(n, grid, tuple(nxt)),
                        )
            frontier = nxt
        return frontier

    orbits: list[tuple[Fraction, ...]] = []
    for start in starts:
        orbits.extend(expand(start))
        if len(orbits) > cap_orbits:
            raise ResourceError(
                f"orbit count exceeds cap {cap_orbits}",
                partial=OrbitSet(n, grid, tuple(orbits)),
            )
    return OrbitSet(n, grid, tuple(orbits))


# ---------------------------------------------------------------------------
# separated / spanning counts


# largest closeness-graph component whose independent set is searched exactly
_EXACT_COMPONENT = 24


def _closeness(points: Sequence[Sequence[Fraction]], eps: Fraction) -> list[set[int]]:
    """adj[i]: every j != i with |points[i][k] - points[j][k]| <= eps for
    every coordinate k, the closeness graph of the sup norm.

    A fixed-radius neighbour search (Bentley 1975) on one integer lattice
    1/D, D the lcm of every denominator: points are bucketed by
    floor(x_k / eps) on their first (at most three) coordinates, and two
    close points lie in the same or neighbouring cells, so only those pairs
    are compared, exactly, over all coordinates.
    """
    eps = as_rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = math.lcm(eps.denominator, *{x.denominator for p in points for x in p})
    e = _on_lattice(eps, d)
    lattice = [[_on_lattice(x, d) for x in p] for p in points]
    k = min(3, *map(len, lattice)) if lattice else 0
    cells: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(lattice):
        cells.setdefault(tuple(v // e for v in p[:k]), []).append(i)
    # each unordered pair of neighbouring cells once: the cell itself and
    # the offsets that are lexicographically positive
    offsets = [o for o in product((-1, 0, 1), repeat=k) if o > (0,) * k]
    adj: list[set[int]] = [set() for _ in points]

    def link(i: int, js) -> None:
        p = lattice[i]
        for j in js:
            if all(abs(a - b) <= e for a, b in zip(p, lattice[j])):
                adj[i].add(j)
                adj[j].add(i)

    for key, members in cells.items():
        for at, i in enumerate(members):
            link(i, members[at + 1 :])
        for o in offsets:
            other = cells.get(tuple(c + dc for c, dc in zip(key, o)))
            if other:
                for i in members:
                    link(i, other)
    return adj


def _max_independent(nodes: list[int], adj: list[set[int]]) -> int:
    """Exact maximum independent set size (branch and bound)."""
    if not nodes:
        return 0
    v = max(nodes, key=lambda u: len(adj[u] & set(nodes)))
    live = set(nodes)
    neighbors = adj[v] & live
    if not neighbors:
        # v is isolated among the remaining nodes
        rest = [u for u in nodes if u != v]
        return 1 + _max_independent(rest, adj)
    with_v = [u for u in nodes if u != v and u not in neighbors]
    without_v = [u for u in nodes if u != v]
    return max(1 + _max_independent(with_v, adj), _max_independent(without_v, adj))


def separated_count(points: Sequence[Sequence[Fraction]], eps: Fraction) -> int:
    """Largest number of pairwise eps-separated points (sup norm).

    Exact (max independent set of the closeness graph) on every connected
    component of at most `_EXACT_COMPONENT` points; larger components fall
    back to a greedy packing, which still yields a valid lower bound.
    """
    adj = _closeness(points, eps)
    seen = set()
    total = 0
    for start in range(len(points)):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        if len(comp) <= _EXACT_COMPONENT:
            total += _max_independent(comp, adj)
        else:
            blocked: set[int] = set()
            for u in sorted(comp):
                if u not in blocked:
                    total += 1
                    blocked |= adj[u]
    return total


def spanning_count(
    points: Sequence[Sequence[Fraction]],
    eps: Fraction,
    exact_cap: int = 16,
) -> int:
    """Smallest subset within eps of every point (exact set cover for at
    most `exact_cap` points, greedy upper bound beyond)."""
    adj = _closeness(points, eps)
    n = len(points)
    covers = [a | {i} for i, a in enumerate(adj)]
    if n <= exact_cap:
        for size in range(1, n + 1):
            for subset in combinations(range(n), size):
                hit = set()
                for i in subset:
                    hit |= covers[i]
                if len(hit) == n:
                    return size
        return n
    # lazy greedy: gains only shrink, so an entry whose stored gain is
    # still current is the largest gain, and the smallest index among ties
    uncovered = set(range(n))
    heap = [(-len(c), i) for i, c in enumerate(covers)]
    heapq.heapify(heap)
    count = 0
    while uncovered:
        neg_gain, i = heapq.heappop(heap)
        gain = len(covers[i] & uncovered)
        if gain != -neg_gain:
            heapq.heappush(heap, (-gain, i))
            continue
        uncovered -= covers[i]
        count += 1
    return count


@dataclass(frozen=True)
class EstimateRow:
    n: int
    eps: Fraction
    grid: Fraction
    s_count: int
    r_count: int
    estimate: float


def entropy_estimate(
    rel: PLRelation,
    eps_schedule: Sequence[Fraction],
    n_max: int,
    grid: Fraction,
    cap_orbits: int = 200_000,
) -> list[EstimateRow]:
    """Orbit-growth entropy table: one row per (n, eps), with the
    separated-count estimate (1/n) log s and the spanning count alongside."""
    rows = []
    for n in range(1, n_max + 1):
        orbits = enumerate_orbits(rel, n, grid, cap_orbits=cap_orbits).orbits
        for eps in eps_schedule:
            eps = as_rat(eps)
            s = separated_count(orbits, eps)
            r = spanning_count(orbits, eps, exact_cap=0)  # greedy on big sets
            rows.append(EstimateRow(n, eps, as_rat(grid), s, r, math.log(s) / n if s > 1 else 0.0))
    return rows


# ---------------------------------------------------------------------------
# horseshoes


@dataclass(frozen=True)
class HorseshoeCert:
    """N pairwise disjoint intervals whose union lies in the image of each
    one; verified exactly, so log N is a true entropy lower bound."""

    intervals: tuple[Interval, ...]

    @property
    def n(self) -> int:
        return len(self.intervals)

    @property
    def bound(self) -> float:
        return math.log(self.n)


def _lattice(rel: PLRelation, ivs: Sequence[Interval]) -> int:
    """One denominator D for the whole check: a multiple of every interval
    endpoint's and breakpoint's denominator and of den(slope) * Dx for every
    arc segment, where Dx is the lcm of the x-denominators.  So the value of
    a segment at any x-lattice point, y0 + slope * (a - x0), is on 1/D."""
    xden = {v.denominator for iv in ivs for v in (iv.lo, iv.hi)}
    yden = set()
    slope_den = set()
    for arc in rel.arcs:
        if arc.kind == VER:
            xden.add(arc.x.denominator)
            yden.update((arc.ys.lo.denominator, arc.ys.hi.denominator))
            continue
        bps = arc.homeo.breakpoints
        dx, (xs,) = _scaled([x for x, _ in bps])
        dy, (ys,) = _scaled([y for _, y in bps])
        xden.add(dx)
        yden.add(dy)
        # the slope (y1 - y0) dx / ((x1 - x0) dy) in lowest terms
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            den = (x1 - x0) * dy
            slope_den.add(den // math.gcd((y1 - y0) * dx, den))
    return math.lcm(math.lcm(*xden) * math.lcm(*slope_den), *yden)


def verify_horseshoe(rel: PLRelation, intervals: Sequence[Interval]) -> bool:
    """Exact check: intervals pairwise disjoint and nondegenerate, and every
    interval's image under the relation covers their union.

    The check runs in integer arithmetic on one lattice 1/D (see
    `_lattice`) on which every endpoint involved lies exactly.
    """
    ivs = sorted(intervals, key=lambda iv: iv.lo)
    if len(ivs) < 2 or any(iv.is_point() for iv in ivs):
        return False
    for a, b in zip(ivs, ivs[1:]):
        if a.hi >= b.lo:
            return False
    d = _lattice(rel, ivs)
    los = [_on_lattice(iv.lo, d) for iv in ivs]
    his = [_on_lattice(iv.hi, d) for iv in ivs]
    n = len(ivs)
    # bucket each arc's image by the source intervals its domain meets;
    # one pass over the arcs instead of one per source interval
    images: list[list[tuple[int, int]]] = [[] for _ in ivs]
    for arc in rel.arcs:
        if arc.kind == VER:
            x = _on_lattice(arc.x, d)
            i = bisect_right(los, x) - 1
            if i >= 0 and x <= his[i]:
                images[i].append((_on_lattice(arc.ys.lo, d), _on_lattice(arc.ys.hi, d)))
            continue
        bps = arc.homeo.breakpoints
        xs = [_on_lattice(x, d) for x, _ in bps]
        ys = [_on_lattice(y, d) for _, y in bps]
        a, b = xs[0], xs[-1]
        # the sources meeting [a, b] are i..j-1; sweep the arc once over
        # their endpoints, clipped to [a, b]
        i = bisect_left(his, a)
        j = bisect_right(los, b)
        if i == j:
            continue
        ends = [v for k in range(i, j) for v in (los[k], his[k])]
        ends[0] = max(ends[0], a)
        ends[-1] = min(ends[-1], b)
        vals = _lattice_sweep(xs, ys, ends)
        for k, ya, yb in zip(range(i, j), vals[::2], vals[1::2]):
            images[k].append((ya, yb) if ya <= yb else (yb, ya))
    # every target lies in at most one merged component, so the targets
    # are covered iff the per-component counts of targets inside sum to n
    for imgs in images:
        if not imgs:
            return False
        imgs.sort()
        covered = 0
        lo, hi = imgs[0]
        for ylo, yhi in imgs:
            if ylo > hi:
                covered += max(0, bisect_right(his, hi) - bisect_left(los, lo))
                lo, hi = ylo, yhi
            elif yhi > hi:
                hi = yhi
        covered += max(0, bisect_right(his, hi) - bisect_left(los, lo))
        if covered != n:
            return False
    return True


def _subdivision_patterns(j: Interval, n: int):
    """Candidate n-interval patterns inside the base interval j."""
    w = j.length
    # odd pieces of a (2n-1)-fold equal subdivision
    step = w / (2 * n - 1)
    yield tuple(
        Interval(j.lo + 2 * i * step, j.lo + (2 * i + 1) * step) for i in range(n)
    )
    # n near-laps with shrinking margins; several scales, both orientations
    for scale in (1, 4, 16):
        alpha = w / (2 * n**2 * scale)
        lap = w / n
        for beta in (alpha, alpha / (4 * n), w / (4 * n**3 * scale)):
            delta = min(alpha, beta) / (2 * n)
            ivs = []
            ok = True
            for i in range(n):
                lo = j.lo + i * lap + (alpha if i == 0 else delta)
                hi = j.lo + (i + 1) * lap - (beta if i == n - 1 else delta)
                if lo >= hi:
                    ok = False
                    break
                ivs.append(Interval(lo, hi))
            if ok:
                yield tuple(ivs)
                yield tuple(
                    Interval(j.lo + (j.hi - iv.hi), j.lo + (j.hi - iv.lo))
                    for iv in reversed(ivs)
                )


def _base_intervals(rel: PLRelation) -> Iterator[Interval]:
    """Base intervals for the pattern search, longest first: the hull of the
    structural points, then every other pair of them (at most 42 points).
    The pairs are only built if the search gets past the hull."""
    points = set()
    for arc in rel.arcs:
        if arc.kind == VER:
            points.add(arc.x)
        else:
            points.update(x for x, _ in arc.homeo.breakpoints)
    pts = sorted(points)
    hull = Interval(pts[0], pts[-1])
    yield hull
    if len(pts) <= 42:
        pairs = [Interval(a, b) for a, b in combinations(pts, 2)]
        pairs.sort(key=lambda iv: -iv.length)
        yield from (iv for iv in pairs if iv != hull)


def find_horseshoe(rel: PLRelation, n: int) -> Optional[HorseshoeCert]:
    """Search for an n-horseshoe of the relation (n >= 2).

    Candidate interval patterns are generated inside structurally meaningful
    base intervals; every candidate is verified exactly, so a returned
    certificate is always sound.  None means the search failed, not that no
    horseshoe exists.
    """
    if n < 2:
        raise ValueError("a horseshoe needs at least 2 intervals")
    for base in _base_intervals(rel):
        for pattern in _subdivision_patterns(base, n):
            if verify_horseshoe(rel, pattern):
                return HorseshoeCert(tuple(pattern))
    return None


@dataclass(frozen=True)
class IterateBound:
    k: int
    n: int
    bound: float  # (1/k) log n
    cert: HorseshoeCert


def iterate_horseshoe_bound(
    k_max: int,
    power: Callable[[int], PLRelation],
    *,
    candidates: Callable[[int], Sequence[int]],
) -> list[IterateBound]:
    """Certified lower bounds (1/k) log N_k from horseshoes of the k-th
    composition power.

    `power(k)` forms the k-th power, for k = 1, 2, ... in turn (e.g.
    parameterized graphs of iterated maps when the pair strongly commutes,
    or `rel_power`).  `candidates` supplies the horseshoe sizes to try at
    each k, in order; the first one found is kept.
    """
    out = []
    for k in range(1, k_max + 1):
        rk = power(k)
        for n in candidates(k):
            if n < 2:
                continue
            cert = find_horseshoe(rk, n)
            if cert is not None:
                out.append(IterateBound(k, n, math.log(n) / k, cert))
                break
    return out


# ---------------------------------------------------------------------------
# the bracket pipeline


@dataclass(frozen=True)
class BracketReport:
    n: int
    m: int
    target: float  # log max(n, m)
    lower: tuple[tuple[int, float], ...]  # (k, certified lower bound)
    upper: tuple[tuple[int, float], ...]  # (k, branch-count upper bound)
    counts: tuple[tuple[int, int], ...]  # (k, |family_k|)
    certs: tuple[IterateBound, ...]


def bracket_theorem_main(
    n: int,
    m: int,
    k_max: int,
    cap_arcs: int | None = None,
    cap_breakpoints: int | None = None,
) -> BracketReport:
    """Squeeze the entropy of the curve {(T_m(t), T_n(t))} around log max(n,m).

    Lower bounds come from exactly verified floor((max^k + 1)/2)-horseshoes
    of the iterated curve; upper bounds from deduplicated branch counts.
    The two must bracket the target with the (log(k+1))/k gap at every k.
    The k-th curve is built from the (k-1)-th iterates, one `compose` per
    map, each capped at `cap_breakpoints`.
    """
    if math.gcd(n, m) != 1:
        raise CompositionError("tent parameters must be coprime")
    from .families import tent  # local import to avoid a cycle

    f, g = tent(m), tent(n)
    if not strongly_commutes(f, g):
        raise CompositionError("tent pair unexpectedly fails strong commutation")
    big = max(n, m)
    target = math.log(big)

    fk, gk = f, g

    def power(k: int) -> PLRelation:
        # called for k = 1, 2, ... in turn, so (fk, gk) holds the (k-1)-th
        # iterates and only the latest pair is kept
        nonlocal fk, gk
        if k > 1:
            fk = compose(f, fk, cap_breakpoints=cap_breakpoints)
            gk = compose(g, gk, cap_breakpoints=cap_breakpoints)
        return param_graph(fk, gk)

    certs = iterate_horseshoe_bound(k_max, power, candidates=lambda k: [(big**k + 1) // 2])
    if len(certs) != k_max:
        raise AssertionError("horseshoe certification failed at some level")
    rows = branch_counts(f, g, k_max, cap_arcs=cap_arcs)
    lower = tuple((c.k, c.bound) for c in certs)
    upper = tuple((k, h) for k, _cnt, h in rows)
    counts = tuple((k, cnt) for k, cnt, _h in rows)
    for (k, lo), (_, hi) in zip(lower, upper):
        if not (lo <= target + 1e-12 and target <= hi + 1e-12):
            raise AssertionError(f"bracket violated at k={k}: {lo} .. {target} .. {hi}")
        if hi > target + math.log(k + 1) / k + 1e-12:
            raise AssertionError(f"upper bound misses the (log(k+1))/k gap at k={k}")
    return BracketReport(n, m, target, lower, upper, counts, tuple(certs))
