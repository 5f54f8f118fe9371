"""Exact piecewise-linear interval maps, set-valued relations, and
entropy bounds for diagonal maps on truncated inverse limit spaces."""

from .plmap import (
    Bound,
    Interval,
    LapGrowth,
    PLMap,
    as_rat,
    at_most,
    compose,
    constant_slope,
    entropy_lap_growth,
    identity_map,
    iterate,
    map_equals,
)
from .relation import (
    MonotoneArc,
    PLRelation,
    commutes,
    compose_rel,
    diagonal,
    fiber_intervals,
    graph_of,
    inverse_rel,
    param_graph,
    rel_equals,
    rel_power,
    rel_union,
    strongly_commutes,
)
from .branch import (
    BranchFamily,
    branch_counts,
    initial_branches,
    next_family,
)
from .entropy import (
    BracketReport,
    HorseshoeCert,
    OrbitSet,
    bracket_theorem_main,
    entropy_estimate,
    enumerate_orbits,
    find_horseshoe,
    iterate_horseshoe_bound,
    separated_count,
    spanning_count,
    verify_horseshoe,
)
from .families import (
    affine,
    appendix_pair,
    block_rescale,
    fold_partner,
    middle_third_tilde,
    parse_family,
    plateau_map,
    shifted_fold,
    slope_map,
    tent,
)
from .invlim import (
    DiagonalSystem,
    TruncatedPoint,
    apply_diagonal,
    check_diagonal_compat,
    entropy_estimate_diagonal,
    first_incompatible_level,
    lift_orbit,
    psi_component,
)
from .blocks import appendix_system, level_report

__all__ = [name for name in dir() if not name.startswith("_")]
