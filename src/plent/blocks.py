"""Per-block entropy analysis of dyadic-block diagonal systems.

The block-assembled pairs (f_k, g_k) act independently on each dyadic
block B_i, so the coordinate relation psi_k = g_k o f_k^{-1} decomposes
blockwise.  Each block is rescaled to [0,1] and analyzed on its own, its
bounds exact `Bound`s: the lower one is an "exact" log s when the block
relation is a single-valued map of constant absolute slope s, else a
"certified" log N with an exactly verified N-horseshoe as evidence, or
None; the upper one is (1/k) log of the block's deduplicated branch count.
"""

from __future__ import annotations

from functools import lru_cache
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .branch import branch_counts
from .entropy import find_horseshoe
from .families import appendix_pair, block_interval
from .invlim import DiagonalSystem
from .plmap import Bound, Interval, PLMap, RatLike, as_rat, compose, constant_slope
from .relation import param_graph


@lru_cache(maxsize=32)
def _pair(k: int, n_seq: tuple[int, ...], s: Fraction) -> tuple[PLMap, PLMap]:
    """`appendix_pair` without its self check, built once per argument:
    `appendix_system` and `level_report` share it, and maps are immutable."""
    return appendix_pair(k, n_seq, s, _check=False)


def appendix_system(n_seq: Sequence[int], s: RatLike) -> DiagonalSystem:
    """The diagonal system with bonding f_i and diagonal g_i from the
    block-assembled pairs; valid to depth len(n_seq)."""
    s, n_seq = as_rat(s), tuple(n_seq)
    return DiagonalSystem([_pair(k, n_seq, s) for k in range(1, len(n_seq) + 1)])


def unit_copy(f: PLMap, block: Interval) -> PLMap:
    """The restriction of f to an invariant block, rescaled to [0,1]."""
    piece = f.restrict(block.lo, block.hi)
    if not block.contains_interval(piece.range):
        raise ValueError(f"{block} is not invariant under the map")
    w = block.length
    return PLMap([((x - block.lo) / w, (y - block.lo) / w) for x, y in piece.breakpoints])


class BlockRow(NamedTuple):
    block: int
    interval: Interval
    lower: Optional[Bound]  # None when no certificate was found
    upper: Bound  # (1/k_b) log |M_(k_b)| on the block


class LevelReport(NamedTuple):
    k: int
    n_k: int
    rows: tuple[BlockRow, ...]


def _block_lower(fb: PLMap, gb: PLMap, horseshoe_n: Optional[int]) -> Optional[Bound]:
    if fb.is_strictly_monotone():
        # single-valued block: g o f^{-1} is an honest PL map
        s = constant_slope(compose(gb, fb.inverse()))
        if s is not None and s >= 1:
            return Bound(1, s, "exact")
    if horseshoe_n is not None and horseshoe_n >= 2:
        cert = find_horseshoe(param_graph(fb, gb), horseshoe_n)
        if cert is not None:
            return Bound(1, cert.n, "certified", cert)
    return None


def level_report(
    n_seq: Sequence[int], s: RatLike, k: int, k_branch: int = 5, cap_arcs: int | None = None
) -> LevelReport:
    """Certified bounds for every block of psi_k = g_k o f_k^{-1}.

    The tent block (block k+1) is probed for a horseshoe of exactly
    n_seq[k-1] intervals; single-valued constant-slope blocks (in
    particular block 1, carrying the slope-s zigzag) get the exact log s
    certificate instead, since a strict horseshoe of a single-valued
    N-lap map certifies at best log(N-1) at any finite stage.  cap_arcs
    caps every block's branch family, as in `branch_counts`.
    """
    f_k, g_k = _pair(k, tuple(n_seq), as_rat(s))
    n_k = n_seq[k - 1]
    rows = []
    for i in range(1, k + 3):
        blk = block_interval(i)
        fb = unit_copy(f_k, blk)
        gb = unit_copy(g_k, blk)
        lower = _block_lower(fb, gb, n_k if i == k + 1 else None)
        rows.append(BlockRow(i, blk, lower, branch_counts(fb, gb, k_branch, cap_arcs=cap_arcs)[-1]))
    return LevelReport(k, n_k, tuple(rows))
