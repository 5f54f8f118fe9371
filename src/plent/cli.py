"""Batch experiment driver.

Each subcommand reproduces one of the library's tables or certificates,
writes machine-readable artifacts to --out, and exits 0 only when every
embedded assertion holds.  A JSON config file supplies defaults; explicit
flags override it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import serialize
from .blocks import appendix_system, level_report
from .branch import CAP_ARCS, branch_counts
from .entropy import (
    CAP_ORBITS,
    bracket_theorem_main,
    entropy_estimate,
    find_horseshoe,
    verify_horseshoe,
)
from .families import parse_family, tent
from .invlim import DiagonalSystem, check_diagonal_compat, entropy_estimate_diagonal
from .plmap import CAP_BREAKPOINTS, Bound, PLMap, at_most, entropy_lap_growth
from .relation import (
    PLRelation,
    compose_rel,
    graph_of,
    inverse_rel,
    param_graph,
    rel_power,
    strong_commutation_relations,
)


def _positive_rat(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive rational such as 1/16, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _horseshoe_size(text: str) -> int:
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"a horseshoe needs at least 2 intervals, got {text!r}")
    return value


def _slope(text: str) -> Fraction:
    value = _positive_rat(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"--s must be at least 1, got {text!r}")
    return value


def _positive_rat_list(text: str) -> list[Fraction]:
    return [_positive_rat(t) for t in text.split(",")]


def _tent_params(text: str) -> list[int]:
    values = [_positive_int(t) for t in text.split(",")]
    if min(values) < 2:
        raise argparse.ArgumentTypeError(f"each entry of --nseq must be at least 2, got {text!r}")
    return values


# a --f or --g value: the spec as given, and the map it parses to
_MapSpec = NamedTuple("_MapSpec", [("text", str), ("map", PLMap)])


def _map_spec(text: str) -> _MapSpec:
    try:
        return _MapSpec(text, parse_family(text))
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(f"invalid map spec {text!r}: {err}") from None


def _build_relation(args) -> PLRelation:
    f = args.f.map
    if args.mode == "graph":
        rel = graph_of(f)
    elif args.mode == "param":
        rel = param_graph(f, args.g.map)
    else:  # invcomp; argparse checks --mode against its choices
        rel = compose_rel(inverse_rel(graph_of(f)), graph_of(args.g.map))
    if args.power > 1:
        rel = rel_power(rel, args.power)
    return rel


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(serialize.dumps(payload) + "\n")


def _log(bound: Bound) -> float:
    """The float that an artifact prints for the exact (1/k) log base."""
    return math.log(bound.base) / bound.k


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_commute_check(args) -> int:
    equal, lhs, rhs = strong_commutation_relations(args.f.map, args.g.map)
    out = _out_dir(args)
    _write_json(
        out / "commute.json",
        {
            "f": args.f.text,
            "g": args.g.text,
            "strongly_commutes": equal,
            "g_after_f_inverse": serialize.relation_to_json(lhs),
            "f_inverse_after_g": serialize.relation_to_json(rhs),
        },
    )
    return 0 if equal else 1


def cmd_branches(args) -> int:
    f = args.f.map if args.f else tent(args.m)
    g = args.g.map if args.g else tent(args.n)
    rows = branch_counts(f, g, args.kmax, cap_arcs=args.cap_arcs)
    _write_csv(
        _out_dir(args) / "branches.csv",
        ["k", "count", "log_growth"],
        [(b.k, b.base.numerator, f"{_log(b):.10f}") for b in rows],
    )
    return 0


def cmd_horseshoe(args) -> int:
    rel = _build_relation(args)
    cert = find_horseshoe(rel, args.n)
    out = _out_dir(args)
    if cert is None:
        _write_json(out / "horseshoe.json", {"found": False, "n": args.n})
        return 1
    ok = verify_horseshoe(rel, cert.intervals)
    _write_json(
        out / "horseshoe.json",
        {
            "found": True,
            "n": cert.n,
            "bound": math.log(cert.n),
            "reverified": ok,
            "intervals": [
                [serialize.rat_to_json(iv.lo), serialize.rat_to_json(iv.hi)]
                for iv in cert.intervals
            ],
        },
    )
    return 0 if ok else 1


def cmd_bracket(args) -> int:
    report = bracket_theorem_main(
        args.n, args.m, args.kmax, cap_arcs=args.cap_arcs, cap_breakpoints=args.cap_breakpoints
    )
    _write_json(
        _out_dir(args) / "bracket.json",
        {
            "n": report.n,
            "m": report.m,
            "target": _log(report.target),
            "lower": [[b.k, _log(b)] for b in report.lower],
            "upper": [[b.k, _log(b)] for b in report.upper],
            "counts": [[b.k, b.base.numerator] for b in report.upper],
            "certs": [{"k": b.k, "n": b.base.numerator, "bound": _log(b)} for b in report.lower],
        },
    )
    return 0


def cmd_entropy_map(args) -> int:
    growth = entropy_lap_growth(args.f.map, args.nmax, cap_breakpoints=args.cap_breakpoints)
    rows = [(i + 1, f"{t:.10f}") for i, t in enumerate(growth.terms)]
    out = _out_dir(args)
    _write_csv(out / "lap_growth.csv", ["n", "estimate"], rows)
    exact = None if growth.exact is None else _log(growth.exact)
    _write_json(out / "lap_growth.json", {"exact": exact, "terms": list(growth.terms)})
    return 0


def cmd_entropy_rel(args) -> int:
    rel = _build_relation(args)
    rows = entropy_estimate(rel, args.eps, args.nmax, args.grid, cap_orbits=args.cap_orbits)
    _write_csv(
        _out_dir(args) / "entropy_rel.csv",
        ["n", "eps", "grid", "s_count", "r_count", "estimate"],
        [
            (r.n, str(r.eps), str(r.grid), r.s_count, r.r_count, f"{r.estimate:.10f}")
            for r in rows
        ],
    )
    return 0


def cmd_invlim(args) -> int:
    if args.system == "shift":
        sys_ = DiagonalSystem.shift(args.f.map)
    else:
        sys_ = DiagonalSystem.constant(args.f.map, args.g.map)
    if not check_diagonal_compat(sys_, args.depth):
        _write_json(_out_dir(args) / "failure.json", {"error": "incompatible diagonal system"})
        return 1
    rows = entropy_estimate_diagonal(sys_, args.depth, args.nmax, args.eps, args.grid)
    _write_csv(
        _out_dir(args) / "invlim.csv",
        ["n", "eps", "s_count", "estimate", "tail_bound"],
        [(r.n, str(r.eps), r.s_count, f"{r.estimate:.10f}", str(r.tail_bound)) for r in rows],
    )
    return 0


def cmd_appendix(args) -> int:
    sys_ = appendix_system(args.nseq, args.s)
    compat = check_diagonal_compat(sys_, min(args.kmax, len(args.nseq) - 1))
    rows = []
    ok = compat
    for k in range(1, args.kmax + 1):
        rep = level_report(args.nseq, args.s, k, k_branch=args.kbranch, cap_arcs=args.cap_arcs)
        target = Bound(1, max(args.s, rep.n_k), "theorem")
        ok = ok and any(r.lower is not None and at_most(target, r.lower) for r in rep.rows)
        ok = ok and all(at_most(r.upper, target, gap=r.upper.k + 1) for r in rep.rows)
        for r in rep.rows:
            kind, lower = "none", 0.0
            if r.lower is not None:
                kind = "constant-slope" if r.lower.kind == "exact" else "horseshoe"
                lower = _log(r.lower)
            rows.append(
                (k, rep.n_k, r.block, kind, f"{lower:.10f}", f"{_log(r.upper):.10f}", r.upper.k)
            )
    out = _out_dir(args)
    _write_csv(
        out / "appendix.csv",
        ["k", "n_k", "block", "lower_kind", "lower", "upper", "k_branch"],
        rows,
    )
    _write_json(out / "appendix.json", {"compatible": compat, "bounds_ok": ok})
    return 0 if ok else 1


CAPS = {
    "breakpoints": (CAP_BREAKPOINTS, "breakpoints per composed map"),
    "orbits": (CAP_ORBITS, "orbits enumerated"),
    "arcs": (CAP_ARCS, "arcs per branch family; a family costs about 210 bytes per arc at its peak"),
}


def _add_common(p: argparse.ArgumentParser, *caps: str) -> None:
    """The flags every subcommand takes, and the `--cap-*` flags of the
    caps (keys of CAPS) that it reads; the parser itself is kept in the
    namespace so that usage errors found after parsing print its usage."""
    p.add_argument("--out", default="plent-out", help="artifact directory")
    p.add_argument("--config", default=None, help="JSON config file with defaults")
    for cap in caps:
        default, what = CAPS[cap]
        p.add_argument(f"--cap-{cap}", type=_positive_int, default=default, help=what)
    p.set_defaults(parser=p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plent")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("commute-check", help="strong-commutation test with witness")
    p.add_argument("--f", type=_map_spec, required=True)
    p.add_argument("--g", type=_map_spec, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_commute_check)

    p = sub.add_parser("branches", help="branch family counts")
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--m", type=_positive_int, default=None)
    p.add_argument("--f", type=_map_spec, default=None)
    p.add_argument("--g", type=_map_spec, default=None)
    p.add_argument("--kmax", type=_positive_int, default=6)
    _add_common(p, "arcs")
    p.set_defaults(fn=cmd_branches)

    p = sub.add_parser("horseshoe", help="search for an exact horseshoe certificate")
    p.add_argument("--f", type=_map_spec, required=True)
    p.add_argument("--g", type=_map_spec, default=None)
    p.add_argument("--mode", choices=["graph", "param", "invcomp"], default="param")
    p.add_argument("--power", type=_positive_int, default=1)
    p.add_argument("--n", type=_horseshoe_size, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_horseshoe)

    p = sub.add_parser("bracket", help="entropy bracket for a coprime tent pair")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--kmax", type=_positive_int, default=6)
    _add_common(p, "arcs", "breakpoints")
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("entropy-map", help="lap-growth entropy of a PL map")
    p.add_argument("--f", type=_map_spec, required=True)
    p.add_argument("--nmax", type=_positive_int, default=6)
    _add_common(p, "breakpoints")
    p.set_defaults(fn=cmd_entropy_map)

    p = sub.add_parser("entropy-rel", help="orbit-growth entropy of a relation")
    p.add_argument("--f", type=_map_spec, required=True)
    p.add_argument("--g", type=_map_spec, default=None)
    p.add_argument("--mode", choices=["graph", "param", "invcomp"], default="param")
    p.add_argument("--power", type=_positive_int, default=1)
    p.add_argument("--eps", type=_positive_rat_list, default=[Fraction(1, 8), Fraction(1, 16)])
    p.add_argument("--nmax", type=_positive_int, default=4)
    p.add_argument("--grid", type=_positive_rat, default=Fraction(1, 32))
    _add_common(p, "orbits")
    p.set_defaults(fn=cmd_entropy_rel)

    p = sub.add_parser("invlim", help="diagonal-map entropy estimates on a truncated inverse limit")
    p.add_argument("--system", choices=["shift", "diag"], default="shift")
    p.add_argument("--f", type=_map_spec, required=True)
    p.add_argument("--g", type=_map_spec, default=None)
    p.add_argument("--depth", type=_positive_int, default=8)
    p.add_argument("--nmax", type=_positive_int, default=10)
    p.add_argument("--eps", type=_positive_rat, default=Fraction(1, 16))
    p.add_argument("--grid", type=_positive_rat, default=Fraction(1, 256))
    _add_common(p)
    p.set_defaults(fn=cmd_invlim)

    p = sub.add_parser("appendix", help="blockwise bounds for the dyadic-block system")
    p.add_argument("--s", type=_slope, default="2")
    p.add_argument("--nseq", type=_tent_params, required=True)
    p.add_argument("--kmax", type=_positive_int, default=3)
    p.add_argument("--kbranch", type=_positive_int, default=5)
    _add_common(p, "arcs")
    p.set_defaults(fn=cmd_appendix)

    return ap


def _config_token(key: str, value) -> str:
    if isinstance(value, list):
        value = ",".join(str(v) for v in value)
    return f"--{key.replace('_', '-')}={value}"


def _apply_config(ap: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv.  Entries of a --config JSON file are handed to the same
    parser as flags placed right after the subcommand, before argv's own,
    so they are converted and validated exactly like flags, they can supply
    a required flag, and an explicit flag wins.  A first pass looks only
    for --config, so it enforces no required flag."""
    first = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    first.add_argument("--config")
    try:
        path = first.parse_known_args(argv)[0].config
    except argparse.ArgumentError:  # e.g. --config without a file: ap reports it
        path = None
    if not path or argv[0].startswith("-"):
        return ap.parse_args(argv)
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        ap.error(f"config file: {err}")
    if not isinstance(config, dict):
        ap.error("config file: expected a JSON object")
    tokens = [_config_token(key, value) for key, value in config.items()]
    return ap.parse_args([argv[0], *tokens, *argv[1:]])


def _check_usage(args: argparse.Namespace) -> None:
    """The usage errors that involve more than one flag; each shows the
    subcommand's usage.  A map is a usage error to leave out where it is
    used: each map of `branches` needs its spec or its tent parameter, and
    --g is needed wherever the second map is used.  `bracket` needs
    max(--n, --m) >= 3, or its level-1 horseshoe would have fewer than 2
    intervals, and `appendix --kmax` can reach only the levels that
    --nseq defines."""
    if args.command == "bracket" and max(args.n, args.m) < 3:
        args.parser.error(f"max(--n, --m) must be at least 3, got --n {args.n} --m {args.m}")
    if args.command == "appendix" and args.kmax > len(args.nseq):
        args.parser.error(f"--kmax {args.kmax} exceeds the {len(args.nseq)} entries of --nseq")
    if args.command == "branches":
        missing = [
            f"--{spec} or --{param}"
            for spec, param in (("f", "m"), ("g", "n"))
            if not getattr(args, spec) and getattr(args, param) is None
        ]
        if missing:
            args.parser.error(f"branches needs {' and '.join(missing)}")
        return
    mode, system = getattr(args, "mode", "graph"), getattr(args, "system", "shift")
    if getattr(args, "g", None) is None and (mode != "graph" or system == "diag"):
        used = f"--mode {mode}" if mode != "graph" else f"--system {system}"
        args.parser.error(f"{args.command} {used} needs the second map --g")


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = _apply_config(ap, list(sys.argv[1:] if argv is None else argv))
    _check_usage(args)
    try:
        return args.fn(args)
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports, not raises
        out = Path(getattr(args, "out", "plent-out"))
        out.mkdir(parents=True, exist_ok=True)
        report = {"command": args.command, "error": type(err).__name__, "message": str(err)}
        for key in ("partial_size", "partial_level"):  # the size of a cap's partial result
            if getattr(err, key, None) is not None:
                report[key] = getattr(err, key)
        (out / "failure.json").write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
