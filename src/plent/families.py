"""Named piecewise-linear map families.

Every constructor returns an exact, canonical PLMap.  Constructors with a
defining identity check it at build time and raise ConstructionError on
failure, so a wrong table of breakpoints cannot propagate silently.  A
family sized by its parameter refuses a map over `CAP_BREAKPOINTS` breakpoints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ConstructionError, ParseError
from .plmap import (
    CAP_BREAKPOINTS,
    Interval,
    PLMap,
    RatLike,
    as_rat,
    compose,
    identity_map,
    map_equals,
)


def tent(n: int) -> PLMap:
    """The n-fold tent map: n laps of slope +-n, alternating 0 and 1."""
    if not 1 <= n < CAP_BREAKPOINTS:
        raise ValueError(f"tent requires 1 <= n < {CAP_BREAKPOINTS}")
    return PLMap([(Fraction(i, n), Fraction(i % 2)) for i in range(n + 1)])


def shifted_fold(p: int) -> PLMap:
    """Three-lap map S_p with S_p o G_p = T_p; fixes 0 and 1."""
    if p < 3 or p % 2 == 0:
        raise ValueError("shifted_fold requires odd p >= 3")
    return PLMap(
        [
            (0, 0),
            (Fraction(p - 1, 2 * p), 1),
            (Fraction(p - 1, p), 0),
            (1, 1),
        ]
    )


def fold_partner(p: int) -> PLMap:
    """The companion map G_p with S_p o G_p = T_p; G_3 is the identity."""
    if not 3 <= p < CAP_BREAKPOINTS or p % 2 == 0:
        raise ValueError(f"fold_partner requires odd p, 3 <= p < {CAP_BREAKPOINTS}")
    pts: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
    pts.append((Fraction(2, p), Fraction(p - 1, p)))
    for j in range(3, p):
        pts.append((Fraction(j, p), Fraction(1) if j % 2 else Fraction(p - 1, p)))
    pts.append((Fraction(1), Fraction(1)))
    g = PLMap(pts)
    if not map_equals(compose(shifted_fold(p), g), tent(p)):
        raise ConstructionError(f"fold_partner({p}) failed its defining identity")
    return g


def plateau_map() -> PLMap:
    """Onto, non-open map R: rises to 1/2, flat on the middle third, rises on."""
    return PLMap([(0, 0), (Fraction(1, 3), Fraction(1, 2)),
                  (Fraction(2, 3), Fraction(1, 2)), (1, 1)])


def affine(a: RatLike, b: RatLike) -> PLMap:
    """The affine map of [0,1] onto [min(a,b), max(a,b)] sending 0 -> a, 1 -> b."""
    a, b = as_rat(a), as_rat(b)
    if a == b:
        raise ValueError("affine image must be nondegenerate")
    return PLMap([(0, a), (1, b)])


def middle_third_tilde(w: PLMap) -> PLMap:
    """Extend a map fixing 0 and 1 by identity: a rescaled copy of w acts on
    [1/3, 2/3], the rest of [0,1] is fixed pointwise."""
    if w.domain != Interval(Fraction(0), Fraction(1)):
        raise ConstructionError("tilde extension needs a map defined on [0,1]")
    if w(0) != 0 or w(1) != 1:
        raise ConstructionError("tilde extension needs w(0) = 0 and w(1) = 1")
    third = Fraction(1, 3)
    pts = [(Fraction(0), Fraction(0))]
    pts += [(third + x / 3, third + y / 3) for x, y in w.breakpoints]
    pts.append((Fraction(1), Fraction(1)))
    return PLMap(pts)


def block_interval(i: int) -> Interval:
    """The i-th dyadic block B_i = [1 - 2^(1-i), 1 - 2^(-i)], i >= 1."""
    if i < 1:
        raise ValueError("blocks are indexed from 1")
    return Interval(1 - Fraction(1, 2 ** (i - 1)), 1 - Fraction(1, 2**i))


def block_rescale(i: int, w: PLMap) -> PLMap:
    """A copy of w (a self-map of [0,1]) acting on the dyadic block B_i."""
    if w.domain != Interval(Fraction(0), Fraction(1)):
        raise ConstructionError("block rescale needs a map defined on [0,1]")
    blk = block_interval(i)
    a, wd = blk.lo, blk.length
    return PLMap([(a + wd * x, a + wd * y) for x, y in w.breakpoints])


def slope_map(s: RatLike) -> PLMap:
    """A zigzag from (0,0) to (1,1) with constant absolute slope s >= 1.

    Goes straight up, then folds in up/down pairs until the total variation
    equals s; its entropy is therefore exactly max(0, log s).
    """
    s = as_rat(s)
    if not 1 <= s <= CAP_BREAKPOINTS - 1:  # 2 + 2*ceil((s-1)/2) breakpoints
        raise ValueError(f"slope_map requires 1 <= s <= {CAP_BREAKPOINTS - 1}")
    if s == 1:
        return identity_map()
    # net rise 1, total variation s: the folds contribute (s-1)/2 each way
    moves = [Fraction(1)]
    remaining = (s - 1) / 2
    while remaining > 0:
        d = min(Fraction(1), remaining)
        moves += [-d, d]
        remaining -= d
    pts = [(Fraction(0), Fraction(0))]
    x = y = Fraction(0)
    for dy in moves:
        x += abs(dy) / s
        y += dy
        pts.append((x, y))
    return PLMap(pts)


def _assemble(blocks: Sequence[PLMap]) -> PLMap:
    """Concatenate maps on contiguous domains into one PLMap."""
    pts = list(blocks[0].breakpoints)
    for piece in blocks[1:]:
        if piece.breakpoints[0] != pts[-1]:
            raise ConstructionError("assembled pieces must chain continuously")
        pts.extend(piece.breakpoints[1:])
    return PLMap(pts)


def _identity_on(a: Fraction, b: Fraction) -> PLMap:
    return PLMap([(a, a), (b, b)])


def appendix_pair(
    k: int, n_seq: Sequence[int], s: RatLike, _check: bool = True
) -> tuple[PLMap, PLMap]:
    """The k-th bonding/diagonal pair (f_k, g_k) of the dyadic-block system.

    g_k carries, block by block: the constant-slope zigzag of slope s, then
    the fold partners of the odd tents 2*n_i + 1, then the tent block
    2*n_k + 1, then the plateau map; identity beyond.  f_k is the identity
    up to block k, then the shifted fold of the same tent, the plateau map,
    and identity beyond.  By construction f_k o g_{k+1} = g_k o f_{k+1},
    which is verified here whenever n_seq is long enough to build the next
    pair.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(n_seq) < k:
        raise ValueError("n_seq must provide at least k entries")
    if any(n < 2 for n in n_seq):
        raise ValueError("tent parameters must satisfy n >= 2")
    s = as_rat(s)

    g_blocks = [block_rescale(1, slope_map(s))]
    for i in range(1, k):
        g_blocks.append(
            block_rescale(i + 1, middle_third_tilde(fold_partner(2 * n_seq[i - 1] + 1)))
        )
    g_blocks.append(block_rescale(k + 1, middle_third_tilde(tent(2 * n_seq[k - 1] + 1))))
    g_blocks.append(block_rescale(k + 2, plateau_map()))
    tail = block_interval(k + 2).hi
    g_blocks.append(_identity_on(tail, Fraction(1)))
    g = _assemble(g_blocks)

    f_blocks = [_identity_on(Fraction(0), block_interval(k).hi)]
    f_blocks.append(
        block_rescale(k + 1, middle_third_tilde(shifted_fold(2 * n_seq[k - 1] + 1)))
    )
    f_blocks.append(block_rescale(k + 2, plateau_map()))
    f_blocks.append(_identity_on(tail, Fraction(1)))
    f = _assemble(f_blocks)

    if _check and len(n_seq) >= k + 1:
        f_next, g_next = appendix_pair(k + 1, n_seq, s, _check=False)
        if not map_equals(compose(f, g_next), compose(g, f_next)):
            raise ConstructionError(
                f"appendix pair {k}: f_k o g_(k+1) != g_k o f_(k+1)"
            )
    return f, g


def parse_family(spec: str) -> PLMap:
    """Build a map from a compact CLI spec string.

    Examples: ``tent:3``, ``sfold:5``, ``gfold:7``, ``plateau``, ``id``,
    ``affine:1/3:2/3``, ``slope:3/2``, ``tilde:tent:3``, ``block:2:tent:3``.
    """
    head, _, rest = spec.partition(":")
    if head == "tent":
        return tent(int(rest))
    if head == "sfold":
        return shifted_fold(int(rest))
    if head == "gfold":
        return fold_partner(int(rest))
    if head == "plateau":
        return plateau_map()
    if head in ("id", "identity"):
        return identity_map()
    if head == "affine":
        a, _, b = rest.partition(":")
        return affine(Fraction(a), Fraction(b))
    if head == "slope":
        return slope_map(Fraction(rest))
    if head == "tilde":
        return middle_third_tilde(parse_family(rest))
    if head == "block":
        i, _, inner = rest.partition(":")
        return block_rescale(int(i), parse_family(inner))
    raise ParseError(f"unknown map spec {spec!r}")
