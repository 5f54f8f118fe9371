"""Entropy estimation and certification for set-valued relations.

Three independent routes live here:

* orbit enumeration with (n, eps)-separated / spanning counts,
* certified horseshoes (exact cross-coverage of disjoint intervals),
* the bracket pipeline squeezing the entropy of a parameterized curve
  between horseshoe and branch-count `Bound`s, compared by `at_most`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .branch import branch_counts
from .errors import CertificationError, CompositionError, ResourceError
from .plmap import (
    Bound, Interval, _exact, _lattice_for, _on_lattice, _pieces, _scaled, _slopes, _sweep, as_rat,
    at_most, compose,
)
from .relation import (
    DEC,
    INC,
    VER,
    PLRelation,
    _kind,
    fiber_intervals,
    param_graph,
    strongly_commutes,
)


# ---------------------------------------------------------------------------
# orbit enumeration


CAP_ORBITS = 200_000  # the default cap on orbits per length


class OrbitSet(NamedTuple):
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


def _orbit_levels(
    rel: PLRelation, n: int, grid: Fraction, cap_orbits: int
) -> Iterator[tuple[list[tuple[Fraction, ...]], list[int]]]:
    """The orbits of lengths 1..n, level by level: (orbits, starts), where
    the children of orbit p of the level before (the one empty orbit, for
    length 1) are orbits[starts[p]:starts[p + 1]], their last coordinates
    increasing.  A level of more than cap_orbits orbits raises, checked
    after each parent's children."""
    grid = as_rat(grid)
    # successors keyed by an orbit's last coordinate, as a 0- or 1-tuple:
    # the empty orbit's are the grid points
    succ: dict[tuple[Fraction, ...], list[Fraction]] = {(): _grid_points(grid)}
    level: list[tuple[Fraction, ...]] = [()]
    for m in range(1, n + 1):
        nxt: list[tuple[Fraction, ...]] = []
        starts = [0]
        for orbit in level:
            ys = succ.get(orbit[-1:])
            if ys is None:
                ys = succ[orbit[-1:]] = _successors(rel, orbit[-1], grid)
            nxt.extend(orbit + (y,) for y in ys)
            starts.append(len(nxt))
            if len(nxt) > cap_orbits:
                raise ResourceError(
                    f"orbit count exceeds cap {cap_orbits}",
                    partial=OrbitSet(m, grid, tuple(nxt)),
                )
        level = nxt
        yield level, starts


def enumerate_orbits(
    rel: PLRelation, n: int, grid: Fraction, cap_orbits: int = CAP_ORBITS
) -> OrbitSet:
    """All length-n orbits of the relation starting on the grid (n >= 1),
    the last level of the orbit extension that `entropy_estimate` counts.

    Every consecutive pair of an orbit is exactly a member of the relation;
    interval fibers are sampled at their endpoints and interior grid
    multiples, so membership is exact even though the set is finite.
    """
    if n < 1:
        raise ValueError("orbits have length n >= 1")
    for orbits, _ in _orbit_levels(rel, n, grid, cap_orbits):
        pass
    return OrbitSet(n, as_rat(grid), tuple(orbits))


# ---------------------------------------------------------------------------
# separated / spanning counts


# largest closeness-graph component whose independent set is searched exactly
_EXACT_COMPONENT = 24


def _closeness(points: Sequence[Sequence[Fraction]], eps: Fraction) -> list[set[int]]:
    """adj[i]: every j != i with |points[i][k] - points[j][k]| <= eps for
    every coordinate k, the closeness graph of the sup norm; the points and
    eps go on one integer lattice 1/D, D the lcm of every denominator, and
    `_close_pairs` builds the graph there."""
    eps = as_rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    _, ([e], *lattice) = _scaled([eps], *points)
    return _close_pairs(lattice, e)


def _close_pairs(lattice: Sequence[Sequence[int]], e: int) -> list[set[int]]:
    """The sup-norm closeness graph of integer points at distance e.

    A fixed-radius neighbour search (Bentley 1975): points are bucketed by
    floor(x_k / e) on their first (at most three) coordinates, and two
    close points lie in the same or neighbouring cells, so only those pairs
    are compared, exactly, over all coordinates.
    """
    k = min(3, *map(len, lattice)) if lattice else 0
    cells: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(lattice):
        cells.setdefault(tuple(v // e for v in p[:k]), []).append(i)
    # each unordered pair of neighbouring cells once: the cell itself and
    # the offsets that are lexicographically positive
    offsets = [o for o in product((-1, 0, 1), repeat=k) if o > (0,) * k]
    adj: list[set[int]] = [set() for _ in lattice]

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


def _child_closeness(
    adj: list[set[int]], starts: list[int], vals: list[int], e: int
) -> list[set[int]]:
    """The closeness graph of one orbit level from the graph adj of the
    level before.  Two orbits are close iff their parents are equal or
    close and their last coordinates are within e, so each child is
    compared, on its last coordinate only, with the children of its parent
    and of its parent's neighbours.  The children of parent p are
    vals[starts[p]:starts[p + 1]] (last coordinates on one integer lattice
    with e), increasing, so the close ones form one bisected range."""
    out: list[set[int]] = [set() for _ in vals]
    for p, near in enumerate(adj):
        kids = range(starts[p], starts[p + 1])
        # each unordered pair of parents once, and each parent with itself
        for q in (p, *(q for q in near if q > p)):
            lo, hi = starts[q], starts[q + 1]
            for c in kids:
                v = vals[c]
                for j in range(bisect_left(vals, v - e, lo, hi), bisect_right(vals, v + e, lo, hi)):
                    if j != c:
                        out[c].add(j)
                        out[j].add(c)
    return out


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
    back to a greedy packing, which still yields a valid lower bound.  The
    estimate tables count with the same body, `_separated`, on closeness
    graphs that they refine from one orbit length to the next.
    """
    return _separated(_closeness(points, eps))


def _separated(adj: list[set[int]]) -> int:
    """`separated_count` on the closeness graph adj."""
    seen = set()
    total = 0
    for start in range(len(adj)):
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
    return _spanning(_closeness(points, eps), exact_cap)


def _spanning(adj: list[set[int]], exact_cap: int) -> int:
    """`spanning_count` on the closeness graph adj."""
    n = len(adj)
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


class EstimateRow(NamedTuple):
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
    cap_orbits: int = CAP_ORBITS,
) -> list[EstimateRow]:
    """Orbit-growth entropy table: one row per (n, eps), with the
    separated-count estimate (1/n) log s and the spanning count alongside.

    The orbits of each length n are extended from those of length n - 1
    (see `enumerate_orbits`), and each eps's closeness graph from the one
    of length n - 1 (`_child_closeness`); both counts read that one graph.
    """
    grid = as_rat(grid)
    eps_list = [as_rat(eps) for eps in eps_schedule]
    if any(eps <= 0 for eps in eps_list):
        raise ValueError("eps must be positive")
    graphs: list[list[set[int]]] = [[set()] for _ in eps_list]  # the empty orbit
    rows = []
    for n, (orbits, starts) in enumerate(_orbit_levels(rel, n_max, grid, cap_orbits), 1):
        _, (es, vals) = _scaled(eps_list, [orbit[-1] for orbit in orbits])
        graphs = [_child_closeness(adj, starts, vals, e) for adj, e in zip(graphs, es)]
        for eps, adj in zip(eps_list, graphs):
            s = _separated(adj)
            r = _spanning(adj, exact_cap=0)  # a greedy upper bound on every set
            rows.append(EstimateRow(n, eps, grid, s, r, math.log(s) / n if s > 1 else 0.0))
    return rows


# ---------------------------------------------------------------------------
# horseshoes


class HorseshoeCert(NamedTuple):
    """N pairwise disjoint intervals whose union lies in the image of each
    one; verified exactly, so log N is a true entropy lower bound."""

    intervals: tuple[Interval, ...]

    @property
    def n(self) -> int:
        return len(self.intervals)


def _lattice(rel: PLRelation, ivs: Sequence[Interval]) -> tuple[int, int]:
    """The two lattices of the check, (D, Dx).  Dx is the lcm of the
    relation's x-lattice and the interval endpoints' denominators.  D is a
    multiple of Dx and of the relation's y-lattice on which every arc
    segment's slope maps the x-lattice 1/Dx to integers.  So a segment's
    rise per 1/Dx step is an integer on 1/D, and so is its value at any
    x-lattice point."""
    rx, ry, keys = rel._lattice
    dx = math.lcm(rx, *(v.denominator for iv in ivs for v in iv))
    curves = (k for k in keys if _kind(k) != VER)
    slopes = (s for k in curves for s in _slopes(k[: len(k) // 2], k[len(k) // 2 :], rx, ry))
    return _lattice_for(math.lcm(dx, ry), dx, slopes), dx


def _covers(imgs: list[tuple[int, int]], los: list[int], his: list[int]) -> bool:
    """Whether the images (lo, hi) of one source cover every target: each
    target lies in at most one merged component, so they are covered iff
    the per-component counts of targets inside sum to their number."""
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
    return covered == len(los)


def verify_horseshoe(rel: PLRelation, intervals: Sequence[Interval]) -> bool:
    """Exact check: intervals pairwise disjoint and nondegenerate, and every
    interval's image under the relation covers their union.

    It runs in integers on two lattices (`_lattice`): x on 1/Dx, y and the
    targets on 1/D; only the interval endpoints are converted.  The arcs are
    read in one sweep by the left end x0 of their x-span.  Each that meets a
    source is put in `_pieces` form, which checks once per segment that it
    rises by an integer per 1/Dx step (a remainder raises ArithmeticError,
    nothing is rounded), and `_sweep` reads it at the source endpoints,
    clipped to its domain.  A source holds one image (lo, hi) per arc read
    so far that meets it.  Before an arc is read, each source ending left of
    its x0 is finished: no later arc meets it, so its images are counted
    (`_covers`) and dropped, and the first one left uncovered returns False.
    """
    ivs = sorted(intervals, key=lambda iv: iv.lo)
    if len(ivs) < 2 or any(iv.is_point() for iv in ivs):
        return False
    for a, b in zip(ivs, ivs[1:]):
        if a.hi >= b.lo:
            return False
    d, dx = _lattice(rel, ivs)
    # the source endpoints on 1/dx, lo and hi interleaved; as targets on 1/d
    ends = [_on_lattice(v, dx) for iv in ivs for v in iv]
    xlos, xhis = ends[::2], ends[1::2]
    up = d // dx
    los, his = [v * up for v in xlos], [v * up for v in xhis]
    mx, my = dx // rel._lattice.dx, _exact(d, rel._lattice.dy)
    images: list = [[] for _ in ivs]  # a finished source's is None
    done = 0  # the sources before it are finished
    for key in sorted(rel._lattice.keys, key=itemgetter(0)):
        m = len(key) // 2
        x0, x1 = key[0] * mx, key[m - 1] * mx
        while done < len(ivs) and xhis[done] < x0:
            if not _covers(images[done], los, his):
                return False
            images[done] = None
            done += 1
        # the sources meeting [x0, x1] are i..j-1
        i, j = bisect_left(xhis, x0), bisect_right(xlos, x1)
        if i == j:
            continue
        kind = _kind(key)
        if kind == VER:
            images[i].append((key[2] * my, key[3] * my))
            continue
        # their endpoints, clipped to [x0, x1], in increasing order
        pts = ends[2 * i : 2 * j]
        pts[0], pts[-1] = max(pts[0], x0), min(pts[-1], x1)
        vals = _sweep(*_pieces([x * mx for x in key[:m]], [y * my for y in key[m:]]), pts)
        # a monotone arc maps each source's (lo, hi) in order or reversed
        pairs = zip(vals[1::2], vals[::2]) if kind == DEC else zip(vals[::2], vals[1::2])
        for img, pair in zip(images[i:j], pairs):
            img.append(pair)
    return all(_covers(imgs, los, his) for imgs in images[done:])


def _subdivision_patterns(j: Interval, n: int):
    """Candidate n-interval patterns inside the base interval j."""
    # odd pieces of a (2n-1)-fold equal subdivision, one Fraction per end
    d, ((lo, hi),) = _scaled(j)
    ends = [Fraction(lo * (2 * n - 1) + i * (hi - lo), d * (2 * n - 1)) for i in range(2 * n)]
    yield tuple(Interval(ends[2 * i], ends[2 * i + 1]) for i in range(n))
    w = j.length
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


def _crossings(rel: PLRelation, pts: list[int]) -> dict[tuple[int, int], int]:
    """The lap crossings of each base T = [pts[i], pts[j]], i < j, that an
    arc crosses, keyed (i, j): the largest number of pairwise disjoint
    preimages arc^-1(T) & T over the inc/dec arcs whose image over T covers
    T; preimages that only touch count as disjoint, as the laps of a tent
    do.  Such an arc takes both ends of T at points of T, so only inverses
    are evaluated: in one sweep per arc over the points in its range.  The
    points, increasing integers on the relation's x-lattice, and its arcs go
    on one lattice 1/d, and the inverses' values on 1/(d*m), on which every
    inverse slope maps 1/d to integers."""
    rx, ry, keys = rel._lattice
    d = math.lcm(rx, ry)
    ps = [p * (d // rx) for p in pts]
    inverses = [  # (ys, xs) of each arc
        ([y * (d // ry) for y in k[len(k) // 2 :]], [x * (d // rx) for x in k[: len(k) // 2]])
        for k in keys
        if _kind(k) in (INC, DEC)
    ]
    m = _lattice_for(d, d, (s for ys, xs in inverses for s in _slopes(ys, xs, d, d))) // d
    pms = [p * m for p in ps]  # the points on 1/(d*m), to compare values with
    spans: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ys, xs in inverses:
        zs, pieces = _pieces(ys, [x * m for x in xs])
        lo, hi = bisect_left(ps, zs[0]), bisect_right(ps, zs[-1])
        back = _sweep(zs, pieces, ps[lo:hi])
        for i, a in enumerate(back, lo):
            if a < pms[i]:
                continue
            for j, b in enumerate(back[i - lo + 1 :], i + 1):
                if a <= pms[j] and pms[i] <= b <= pms[j]:
                    spans.setdefault((i, j), []).append((max(a, b), min(a, b)))
    # the most preimages with disjoint interiors, all inside T: greedily by
    # right end (interval scheduling)
    counts = {}
    for (i, j), ivs in spans.items():
        ivs.sort()
        count, end = 0, pms[i]
        for right, left in ivs:
            if left >= end:
                count, end = count + 1, right
        counts[i, j] = count
    return counts


def _base_intervals(rel: PLRelation) -> Iterator[Interval]:
    """Base intervals for the pattern search: the hull of the structural
    points, then every other pair of them (at most 42 points), those whose
    strict arcs cross them most often first (`_crossings`), ties longest
    first, all read from the relation's integer form.  The hull comes from
    each arc's first and last x; the sorted points, the pairs and their
    crossings are only computed if the search gets past the hull."""
    dx, _, keys = rel._lattice
    lo, hi = min(key[0] for key in keys), max(key[len(key) // 2 - 1] for key in keys)
    yield Interval(Fraction(lo, dx), Fraction(hi, dx))
    pts = sorted({x for key in keys for x in key[: len(key) // 2]})
    last = len(pts) - 1
    if len(pts) <= 42:
        crossings = _crossings(rel, pts)
        pairs = sorted(
            combinations(range(len(pts)), 2),
            key=lambda ij: (-crossings.get(ij, 0), pts[ij[0]] - pts[ij[1]]),
        )
        qs = [Fraction(p, dx) for p in pts]
        yield from (Interval(qs[i], qs[j]) for i, j in pairs if (i, j) != (0, last))


def find_horseshoe(rel: PLRelation, n: int) -> Optional[HorseshoeCert]:
    """Search for an n-horseshoe of the relation (n >= 2).

    Candidate interval patterns are generated inside structurally meaningful
    base intervals (`_base_intervals`): the hull first, then the bases that
    the relation's laps cross most often.  The order only decides which
    certificate is found first, never whether one is; every candidate is
    verified exactly, so a returned certificate is always sound.  None
    means the search failed, not that no horseshoe exists.
    """
    if n < 2:
        raise ValueError("a horseshoe needs at least 2 intervals")
    for base in _base_intervals(rel):
        for pattern in _subdivision_patterns(base, n):
            if verify_horseshoe(rel, pattern):
                return HorseshoeCert(tuple(pattern))
    return None


def iterate_horseshoe_bound(
    k_max: int,
    power: Callable[[int], PLRelation],
    *,
    candidates: Callable[[int], Sequence[int]],
) -> list[Bound]:
    """Certified lower bounds (1/k) log N_k from horseshoes of the k-th
    composition power, as `Bound`s with their `HorseshoeCert`s as evidence.

    `power(k)` forms the k-th power, for k = 1, 2, ... in turn (e.g.
    parameterized graphs of iterated maps when the pair strongly commutes,
    or `rel_power`).  `candidates` supplies the horseshoe sizes to try at
    each k, in order; the first one found is kept.  A size below 2 raises
    ValueError, before its level's power is formed.  The first level where
    none is found ends the run, before its next power is formed: the
    bounds returned are those of the levels below it.
    """
    out = []
    for k in range(1, k_max + 1):
        sizes = candidates(k)
        if any(n < 2 for n in sizes):
            raise ValueError(f"a horseshoe needs at least 2 intervals, got {min(sizes)} at k={k}")
        rk = power(k)
        for n in sizes:
            cert = find_horseshoe(rk, n)
            if cert is not None:
                out.append(Bound(k, n, "certified", cert))
                break
        else:
            break
    return out


# ---------------------------------------------------------------------------
# the bracket pipeline


class BracketReport(NamedTuple):
    n: int
    m: int
    target: Bound  # log max(n, m)
    lower: tuple[Bound, ...]  # per k, (1/k) log N_k of an N_k-horseshoe
    upper: tuple[Bound, ...]  # per k, (1/k) log |family_k|


def bracket_theorem_main(
    n: int,
    m: int,
    k_max: int,
    cap_arcs: int | None = None,
    cap_breakpoints: int | None = None,
) -> BracketReport:
    """Squeeze the entropy of the curve {(T_m(t), T_n(t))} around log max(n,m).

    Lower bounds come from exactly verified floor((max^k + 1)/2)-horseshoes
    of the iterated curve, upper bounds from deduplicated branch counts, and
    `at_most` checks N_k <= max^k <= |family_k| <= (k+1) max^k at every k.
    The k-th curve is built from the (k-1)-th iterates, one `compose` per
    map, each capped at `cap_breakpoints`.  The first level without a
    horseshoe raises CertificationError, before the next curve is built, and
    so does a horseshoe or a branch count that misses the bracket, or a
    count past its gap, with the size at fault as `n`.
    """
    if math.gcd(n, m) != 1:
        raise CompositionError("tent parameters must be coprime")
    from .families import tent  # local import to avoid a cycle

    f, g = tent(m), tent(n)
    if not strongly_commutes(f, g):
        raise CompositionError("tent pair unexpectedly fails strong commutation")
    big = max(n, m)
    target = Bound(1, big, "theorem")

    fk, gk = f, g

    def power(k: int) -> PLRelation:
        # called for k = 1, 2, ... in turn, so (fk, gk) holds the (k-1)-th
        # iterates and only the latest pair is kept
        nonlocal fk, gk
        if k > 1:
            fk = compose(f, fk, cap_breakpoints=cap_breakpoints)
            gk = compose(g, gk, cap_breakpoints=cap_breakpoints)
        return param_graph(fk, gk)

    def size(k: int) -> int:
        return (big**k + 1) // 2

    lower = tuple(iterate_horseshoe_bound(k_max, power, candidates=lambda k: [size(k)]))
    if len(lower) < k_max:
        k = len(lower) + 1
        raise CertificationError(
            f"no {size(k)}-horseshoe found at level k={k}", level=k, n=size(k)
        )
    upper = tuple(branch_counts(f, g, k_max, cap_arcs=cap_arcs))
    for lo, hi in zip(lower, upper):
        k = hi.k
        at_fault = hi if at_most(lo, target) else lo  # the horseshoe past the target
        if at_fault is lo or not at_most(target, hi):
            miss = f"bracket violated at k={k}: {lo.base} .. {big}^{k} .. {hi.base}"
        elif not at_most(hi, target, gap=k + 1):
            miss = f"upper bound misses the (log(k+1))/k gap at k={k}"
        else:
            continue
        raise CertificationError(miss, level=k, n=at_fault.base.numerator)
    return BracketReport(n, m, target, lower, upper)
