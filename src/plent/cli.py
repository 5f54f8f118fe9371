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

from . import serialize
from .blocks import appendix_system, level_report
from .branch import branch_counts
from .entropy import (
    bracket_theorem_main,
    entropy_estimate,
    find_horseshoe,
    verify_horseshoe,
)
from .errors import ParseError
from .families import parse_family
from .invlim import DiagonalSystem, check_diagonal_compat, entropy_estimate_diagonal
from .plmap import entropy_lap_growth
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


def _positive_rat_list(text: str) -> list[Fraction]:
    return [_positive_rat(t) for t in text.split(",")]


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


def _build_relation(args) -> PLRelation:
    f = parse_family(args.f)
    if args.mode == "graph":
        rel = graph_of(f)
    elif args.mode == "param":
        rel = param_graph(f, parse_family(args.g))
    elif args.mode == "invcomp":
        rel = compose_rel(inverse_rel(graph_of(f)), graph_of(parse_family(args.g)))
    else:
        raise ValueError(f"unknown relation mode {args.mode!r}")
    if args.power > 1:
        rel = rel_power(rel, args.power)
    return rel


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(serialize.dumps(payload) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_commute_check(args) -> int:
    f, g = parse_family(args.f), parse_family(args.g)
    equal, lhs, rhs = strong_commutation_relations(f, g)
    out = _out_dir(args)
    _write_json(
        out / "commute.json",
        {
            "f": args.f,
            "g": args.g,
            "strongly_commutes": equal,
            "g_after_f_inverse": serialize.relation_to_json(lhs),
            "f_inverse_after_g": serialize.relation_to_json(rhs),
        },
    )
    return 0 if equal else 1


def cmd_branches(args) -> int:
    f = parse_family(args.f) if args.f else parse_family(f"tent:{args.m}")
    g = parse_family(args.g) if args.g else parse_family(f"tent:{args.n}")
    rows = branch_counts(f, g, args.kmax, cap_arcs=args.cap_arcs)
    _write_csv(
        _out_dir(args) / "branches.csv",
        ["k", "count", "log_growth"],
        [(k, c, f"{h:.10f}") for k, c, h in rows],
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
            "bound": cert.bound,
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
            "target": report.target,
            "lower": [[k, v] for k, v in report.lower],
            "upper": [[k, v] for k, v in report.upper],
            "counts": [[k, c] for k, c in report.counts],
            "certs": [
                {"k": c.k, "n": c.n, "bound": c.bound} for c in report.certs
            ],
        },
    )
    return 0


def cmd_entropy_map(args) -> int:
    f = parse_family(args.f)
    growth = entropy_lap_growth(f, args.nmax, cap_breakpoints=args.cap_breakpoints)
    rows = [(i + 1, f"{t:.10f}") for i, t in enumerate(growth.terms)]
    out = _out_dir(args)
    _write_csv(out / "lap_growth.csv", ["n", "estimate"], rows)
    _write_json(out / "lap_growth.json", {"exact": growth.exact, "terms": list(growth.terms)})
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
    f = parse_family(args.f)
    if args.system == "shift":
        sys_ = DiagonalSystem.shift(f)
    else:
        sys_ = DiagonalSystem.constant(f, parse_family(args.g))
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
        rep = level_report(args.nseq, args.s, k, k_branch=args.kbranch)
        target = max(math.log(float(Fraction(args.s))), math.log(rep.n_k))
        slack = math.log(rep.rows[0].k_branch + 1) / rep.rows[0].k_branch
        level_ok = rep.lower >= target - 1e-12 and rep.upper <= target + slack + 1e-12
        ok = ok and level_ok
        for r in rep.rows:
            rows.append(
                (k, rep.n_k, r.block, r.lower_kind, f"{r.lower:.10f}", f"{r.upper:.10f}", r.k_branch)
            )
    out = _out_dir(args)
    _write_csv(
        out / "appendix.csv",
        ["k", "n_k", "block", "lower_kind", "lower", "upper", "k_branch"],
        rows,
    )
    _write_json(out / "appendix.json", {"compatible": compat, "bounds_ok": ok})
    return 0 if ok else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    """The flags every subcommand takes; the parser itself is kept in the
    namespace so that usage errors found after parsing print its usage."""
    p.add_argument("--out", default="plent-out", help="artifact directory")
    p.add_argument("--config", default=None, help="JSON config file with defaults")
    p.add_argument("--cap-breakpoints", type=_positive_int, default=10**6, dest="cap_breakpoints")
    p.add_argument("--cap-orbits", type=_positive_int, default=200_000, dest="cap_orbits")
    p.add_argument("--cap-arcs", type=_positive_int, default=10**6, dest="cap_arcs")
    p.set_defaults(parser=p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="plent")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("commute-check", help="strong-commutation test with witness")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_commute_check)

    p = sub.add_parser("branches", help="branch family counts")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--kmax", type=_positive_int, default=6)
    _add_common(p)
    p.set_defaults(fn=cmd_branches)

    p = sub.add_parser("horseshoe", help="search for an exact horseshoe certificate")
    p.add_argument("--f", required=True)
    p.add_argument("--g", default=None)
    p.add_argument("--mode", choices=["graph", "param", "invcomp"], default="param")
    p.add_argument("--power", type=_positive_int, default=1)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_horseshoe)

    p = sub.add_parser("bracket", help="entropy bracket for a coprime tent pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kmax", type=_positive_int, default=6)
    _add_common(p)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("entropy-map", help="lap-growth entropy of a PL map")
    p.add_argument("--f", required=True)
    p.add_argument("--nmax", type=_positive_int, default=6)
    _add_common(p)
    p.set_defaults(fn=cmd_entropy_map)

    p = sub.add_parser("entropy-rel", help="orbit-growth entropy of a relation")
    p.add_argument("--f", required=True)
    p.add_argument("--g", default=None)
    p.add_argument("--mode", choices=["graph", "param", "invcomp"], default="param")
    p.add_argument("--power", type=_positive_int, default=1)
    p.add_argument("--eps", type=_positive_rat_list, default=[Fraction(1, 8), Fraction(1, 16)])
    p.add_argument("--nmax", type=_positive_int, default=4)
    p.add_argument("--grid", type=_positive_rat, default=Fraction(1, 32))
    _add_common(p)
    p.set_defaults(fn=cmd_entropy_rel)

    p = sub.add_parser("invlim", help="diagonal-map entropy estimates on a truncated inverse limit")
    p.add_argument("--system", choices=["shift", "diag"], default="shift")
    p.add_argument("--f", required=True)
    p.add_argument("--g", default=None)
    p.add_argument("--depth", type=_positive_int, default=8)
    p.add_argument("--nmax", type=_positive_int, default=10)
    p.add_argument("--eps", type=_positive_rat, default=Fraction(1, 16))
    p.add_argument("--grid", type=_positive_rat, default=Fraction(1, 256))
    _add_common(p)
    p.set_defaults(fn=cmd_invlim)

    p = sub.add_parser("appendix", help="blockwise bounds for the dyadic-block system")
    p.add_argument("--s", default="2")
    p.add_argument("--nseq", type=_int_list, required=True)
    p.add_argument("--kmax", type=_positive_int, default=3)
    p.add_argument("--kbranch", type=_positive_int, default=5)
    _add_common(p)
    p.set_defaults(fn=cmd_appendix)

    return ap


def _config_token(key: str, value) -> str:
    if isinstance(value, list):
        value = ",".join(str(v) for v in value)
    return f"--{key.replace('_', '-')}={value}"


def _apply_config(ap: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv.  Entries of a --config JSON file are handed to the same
    parser as flags placed before argv's own, so they are converted and
    validated exactly like flags, and an explicit flag wins."""
    args = ap.parse_args(argv)
    if not args.config:
        return args
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ParseError(f"config file: {err}") from err
    if not isinstance(config, dict):
        raise ParseError("config file: expected a JSON object")
    at = argv.index(args.command) + 1
    tokens = [_config_token(key, value) for key, value in config.items()]
    return ap.parse_args([*argv[:at], *tokens, *argv[at:]])


def _require_maps(args: argparse.Namespace) -> None:
    """A map is a usage error to leave out where it is used: each map of
    `branches` needs its spec or its tent parameter, and --g is needed
    wherever the second map is used.  The error shows the subcommand's
    usage."""
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
    _require_maps(args)
    try:
        return args.fn(args)
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports, not raises
        out = Path(getattr(args, "out", "plent-out"))
        out.mkdir(parents=True, exist_ok=True)
        report = {"command": args.command, "error": type(err).__name__, "message": str(err)}
        (out / "failure.json").write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
