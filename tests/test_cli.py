"""End-to-end runs of the command-line interface."""

import csv
import hashlib
import json
import math
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from plent.cli import build_parser, main
from plent.plmap import Bound

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, gate  # noqa: E402


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_json(tmp_path, name):
    return json.loads((Path(tmp_path) / name).read_text())


def read_csv(tmp_path, name):
    with open(Path(tmp_path) / name, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("workload", WORKLOADS.values(), ids=WORKLOADS.keys())
def test_benchmark_workload_artifacts_are_byte_identical(tmp_path, workload):
    """Each benchmark job, run in process, passes the benchmark's gate: exit
    0, exactly the recorded artifacts with their SHA-256 digests, and the
    known answer."""
    assert gate(workload, run(tmp_path, *workload.argv), False, tmp_path) == []


def test_commute_check_coprime_tents(tmp_path):
    assert run(tmp_path, "commute-check", "--f", "tent:2", "--g", "tent:3") == 0
    payload = read_json(tmp_path, "commute.json")
    assert payload["strongly_commutes"] is True


def test_commute_json_is_pinned(tmp_path):
    assert run(tmp_path, "commute-check", "--f", "tent:2", "--g", "tent:3") == 0
    digest = hashlib.sha256((tmp_path / "commute.json").read_bytes()).hexdigest()
    assert digest == "b9db28cae173daee8aaa934106edd282c3c207e03677381045a1daff441b5f29"


def test_commute_check_failure_exits_one_with_witness(tmp_path):
    assert run(tmp_path, "commute-check", "--f", "tent:6", "--g", "tent:4") == 1
    payload = read_json(tmp_path, "commute.json")
    assert payload["strongly_commutes"] is False
    assert "g_after_f_inverse" in payload and "f_inverse_after_g" in payload


def test_commute_check_of_a_plateau_with_itself_is_refused_as_a_rectangle(tmp_path):
    assert run(tmp_path, "commute-check", "--f", "plateau", "--g", "plateau") == 2
    assert read_json(tmp_path, "failure.json") == {
        "command": "commute-check",
        "error": "UnsupportedRelationError",
        "message": "composition produces a full rectangle ([1/3, 2/3] x [1/3, 2/3]); "
        "rectangle fibers are outside the finite-arc model",
    }


def test_branches_csv(tmp_path):
    assert run(tmp_path, "branches", "--n", "3", "--m", "2", "--kmax", "4") == 0
    rows = read_csv(tmp_path, "branches.csv")
    assert rows[0] == ["k", "count", "log_growth"]
    counts = [int(r[1]) for r in rows[1:]]
    assert counts == [4, 14, 46, 146]


def test_horseshoe_subcommand(tmp_path):
    code = run(
        tmp_path, "horseshoe",
        "--f", "tent:2", "--g", "tent:2", "--mode", "invcomp", "--n", "2",
    )
    assert code == 0
    payload = read_json(tmp_path, "horseshoe.json")
    assert payload["found"] and payload["reverified"]
    assert len(payload["intervals"]) == 2


def test_horseshoe_not_found_exits_one(tmp_path):
    code = run(
        tmp_path, "horseshoe",
        "--f", "tent:2", "--g", "tent:2", "--mode", "invcomp", "--n", "40",
    )
    assert code == 1
    assert read_json(tmp_path, "horseshoe.json")["found"] is False


def test_horseshoe_of_a_map_graph_and_of_its_power(tmp_path):
    """--mode graph needs no --g, and --power 2 searches the graph of
    T3 o T3 = T9: a 5-horseshoe, which the graph of T3 has not."""
    graph = ["horseshoe", "--f", "tent:3", "--mode", "graph"]
    assert run(tmp_path / "T3", *graph, "--n", "2") == 0
    assert read_json(tmp_path / "T3", "horseshoe.json")["reverified"]
    assert run(tmp_path / "T3-5", *graph, "--n", "5") == 1
    assert run(tmp_path / "T3^2", *graph, "--power", "2", "--n", "5") == 0
    assert run(tmp_path / "T9", "horseshoe", "--f", "tent:9", "--mode", "graph", "--n", "5") == 0
    power = (tmp_path / "T3^2" / "horseshoe.json").read_bytes()
    assert power == (tmp_path / "T9" / "horseshoe.json").read_bytes()
    assert json.loads(power)["reverified"]


def test_bracket_subcommand(tmp_path):
    assert run(tmp_path, "bracket", "--n", "3", "--m", "2", "--kmax", "3") == 0
    payload = read_json(tmp_path, "bracket.json")
    assert payload["target"] == pytest.approx(math.log(3))
    lower = payload["lower"][-1][1]
    upper = payload["upper"][-1][1]
    assert lower <= math.log(3) <= upper


def test_bracket_json_to_level_8_is_pinned(tmp_path):
    assert run(tmp_path, "bracket", "--n", "3", "--m", "2", "--kmax", "8") == 0
    digest = hashlib.sha256((tmp_path / "bracket.json").read_bytes()).hexdigest()
    assert digest == "7ca00ade2a1d876fc3ea4d58bd92daf2324789408967b4a8ef0f59e5dbf92f2c"


def test_bracket_without_a_horseshoe_fails_fast_at_its_level(tmp_path):
    start = time.perf_counter()
    assert run(tmp_path, "bracket", "--n", "2", "--m", "3", "--kmax", "4") == 2
    assert time.perf_counter() - start < 1
    assert [p.name for p in tmp_path.iterdir()] == ["failure.json"]
    assert read_json(tmp_path, "failure.json") == {
        "command": "bracket",
        "error": "CertificationError",
        "message": "no 2-horseshoe found at level k=1",
    }


def test_a_count_past_the_gap_fails_bracket_with_a_certification_error(tmp_path, monkeypatch):
    import plent.entropy

    real = plent.entropy.branch_counts

    def past_the_gap(f, g, k_max, cap_arcs=None):
        rows = real(f, g, k_max, cap_arcs=cap_arcs)
        return rows[:-1] + [Bound(k_max, (k_max + 1) * 3**k_max + 1, "certified")]

    monkeypatch.setattr(plent.entropy, "branch_counts", past_the_gap)
    assert run(tmp_path, "bracket", "--n", "3", "--m", "2", "--kmax", "2") == 2
    assert read_json(tmp_path, "failure.json") == {
        "command": "bracket",
        "error": "CertificationError",
        "message": "upper bound misses the (log(k+1))/k gap at k=2",
    }


def test_entropy_map_subcommand(tmp_path):
    assert run(tmp_path, "entropy-map", "--f", "slope:3/2", "--nmax", "3") == 0
    payload = read_json(tmp_path, "lap_growth.json")
    assert payload["exact"] == pytest.approx(math.log(1.5))


def test_entropy_rel_subcommand(tmp_path):
    code = run(
        tmp_path, "entropy-rel",
        "--f", "tent:2", "--g", "tent:3",
        "--nmax", "2", "--grid", "1/16", "--eps", "1/8",
    )
    assert code == 0
    rows = read_csv(tmp_path, "entropy_rel.csv")
    assert rows[0] == ["n", "eps", "grid", "s_count", "r_count", "estimate"]
    assert len(rows) == 3


def test_entropy_rel_of_a_map_graph_power_is_that_of_the_composed_map(tmp_path):
    args = ["entropy-rel", "--mode", "graph", "--nmax", "2"]
    assert run(tmp_path / "T3^2", *args, "--f", "tent:3", "--power", "2") == 0
    assert run(tmp_path / "T9", *args, "--f", "tent:9") == 0
    assert run(tmp_path / "T3", *args, "--f", "tent:3") == 0
    power = read_csv(tmp_path / "T3^2", "entropy_rel.csv")
    assert power == read_csv(tmp_path / "T9", "entropy_rel.csv")
    assert power != read_csv(tmp_path / "T3", "entropy_rel.csv")


def test_invlim_subcommand(tmp_path):
    code = run(
        tmp_path, "invlim",
        "--system", "shift", "--f", "tent:2",
        "--depth", "4", "--nmax", "3", "--grid", "1/32",
    )
    assert code == 0
    rows = read_csv(tmp_path, "invlim.csv")
    assert rows[0][0] == "n"
    assert len(rows) == 4


def test_an_incompatible_diagonal_system_exits_one_with_a_report(tmp_path):
    code = run(
        tmp_path, "invlim",
        "--system", "diag", "--f", "tent:2", "--g", "plateau", "--depth", "3", "--nmax", "2",
    )
    assert code == 1
    assert [p.name for p in tmp_path.iterdir()] == ["failure.json"]
    assert read_json(tmp_path, "failure.json") == {"error": "incompatible diagonal system"}


def test_invlim_diag_csv_is_pinned(tmp_path):
    code = run(
        tmp_path, "invlim",
        "--system", "diag", "--f", "tent:2", "--g", "tent:3",
        "--depth", "3", "--nmax", "4", "--grid", "1/64",
    )
    assert code == 0
    digest = hashlib.sha256((Path(tmp_path) / "invlim.csv").read_bytes()).hexdigest()
    assert digest == "ff67ffee7290bfd9063bf380a6bc5aae84edaf38e193039ee8f477aa3accb662"


def test_entropy_rel_csv_of_an_interval_fiber_relation_is_pinned(tmp_path):
    """plateau^{-1} o T2 has vertical arcs, so its orbits reach interval
    fibers and the grid multiples inside them."""
    code = run(
        tmp_path, "entropy-rel",
        "--f", "plateau", "--g", "tent:2", "--mode", "invcomp",
        "--nmax", "4", "--grid", "1/32", "--eps", "1/8,1/16",
    )
    assert code == 0
    digest = hashlib.sha256((Path(tmp_path) / "entropy_rel.csv").read_bytes()).hexdigest()
    assert digest == "a778f9a5024fea5c6532880c3a9f6850d039c68a588f5f0efb77678e31f77c73"


def test_appendix_subcommand(tmp_path):
    code = run(
        tmp_path, "appendix",
        "--s", "2", "--nseq", "2,5", "--kmax", "1", "--kbranch", "4",
    )
    assert code == 0
    payload = read_json(tmp_path, "appendix.json")
    assert payload["compatible"] and payload["bounds_ok"]


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_an_appendix_block_one_past_its_edge_fails_the_bounds(tmp_path, monkeypatch, side):
    """At k = 1 of --s 2 --nseq 2,5 the target is log 2.  Every lower bound
    is set just below it, or one block's upper bound just past
    log 2 + (1/40) log 41; each is within 1e-12 of its edge in floats."""
    import plent.cli

    real = plent.cli.level_report

    def past_an_edge(*args, **kwargs):
        rep = real(*args, **kwargs)
        if side == "lower":
            below = Bound(1, 2 - F(1, 10**15), "exact")
            rows = [r if r.lower is None else r._replace(lower=below) for r in rep.rows]
        else:
            past = Bound(40, 41 * 2**40 + 1, "certified")
            rows = [rep.rows[0]._replace(upper=past), *rep.rows[1:]]
        return rep._replace(rows=tuple(rows))

    monkeypatch.setattr(plent.cli, "level_report", past_an_edge)
    code = run(tmp_path, "appendix", "--s", "2", "--nseq", "2,5", "--kmax", "1", "--kbranch", "4")
    assert code == 1
    assert read_json(tmp_path, "appendix.json") == {"compatible": True, "bounds_ok": False}


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "m": 2, "kmax": 5}))
    out = tmp_path / "out"
    code = main([
        "branches", "--config", str(cfg), "--kmax", "2", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out, "branches.csv")
    assert len(rows) == 3  # header + k=1,2: the explicit flag wins


@pytest.mark.parametrize(
    "command, config, artifact",
    [
        ("appendix", {"nseq": "2,5", "kmax": 1}, "appendix.csv"),
        ("bracket", {"n": 3, "m": 2, "kmax": 2}, "bracket.json"),
        ("horseshoe", {"f": "tent:2", "g": "tent:3", "n": 2}, "horseshoe.json"),
        ("entropy-map", {"f": "tent:3", "nmax": 2}, "lap_growth.csv"),
        ("commute-check", {"f": "tent:2", "g": "tent:3"}, "commute.json"),
        ("invlim", {"f": "tent:2", "depth": 3, "nmax": 2}, "invlim.csv"),
    ],
)
def test_config_supplies_required_flags(tmp_path, command, config, artifact):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    flags = [f"--{key}={value}" for key, value in config.items()]
    assert main([command, *flags, "--out", str(tmp_path / "flags")]) == 0
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "config")]) == 0
    assert (tmp_path / "config" / artifact).read_bytes() == (tmp_path / "flags" / artifact).read_bytes()


def test_an_explicit_flag_wins_over_a_required_flag_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nseq": "2,5,2", "kmax": 3}))
    assert main(["appendix", "--config", str(cfg), "--nseq", "2,5", "--kmax", "1", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path, "appendix.csv")
    assert {row[0] for row in rows[1:]} == {"1"}
    assert {row[1] for row in rows[1:]} == {"2"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--config", "CFG"], "the following arguments are required: --nseq"),
        (["--nseq", "2,5", "--config"], "argument --config: expected one argument"),
    ],
)
def test_a_required_flag_in_neither_argv_nor_config_is_a_usage_error(tmp_path, argv, message, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kmax": 1}))
    argv = [str(cfg) if a == "CFG" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(["appendix", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: plent appendix ")
    assert message in err


@pytest.mark.parametrize("eps", ["1/8,1/16", ["1/8", "1/16"]])
def test_config_values_go_through_the_flag_parser(tmp_path, eps):
    args = ["entropy-rel", "--f", "tent:2", "--g", "tent:3", "--nmax", "2", "--grid", "1/16"]
    assert main([*args, "--eps", "1/8,1/16", "--out", str(tmp_path / "flags")]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": eps}))
    out = tmp_path / "config"
    assert main([*args, "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "entropy_rel.csv").read_text() == (tmp_path / "flags" / "entropy_rel.csv").read_text()


@pytest.mark.parametrize("config", [{"kmax": "two"}, {"no_such_option": 1}])
def test_bad_config_values_are_rejected_like_bad_flags(tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["branches", "--n", "3", "--m", "2", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text", [None, "{bad", "[1,2]"], ids=["missing", "invalid-json", "not-an-object"]
)
def test_a_broken_config_file_is_a_usage_error(tmp_path, text, capsys):
    """A config file that is missing, is not JSON or is not a JSON object
    exits 2 with a message on stderr and writes no failure.json, like a bad
    value inside the file."""
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["branches", "--n", "3", "--m", "2", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert "config file" in capsys.readouterr().err
    assert not out.exists()


def test_failures_produce_report_and_exit_two(tmp_path):
    # the specs parse, but their curve has a flat arc, so no family exists
    code = run(tmp_path, "branches", "--f", "plateau", "--g", "tent:2", "--kmax", "2")
    assert code == 2
    payload = read_json(tmp_path, "failure.json")
    assert payload["error"] == "InvalidFamilyError"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("which", ["--f", "--g"])
@pytest.mark.parametrize(
    "spec",
    [
        "tent:x",
        "mystery:3",
        "tent:0",
        "sfold:4",
        "affine:1/2",
        # over the default breakpoint cap: refused before anything is built
        "tent:1000000000",
        "gfold:1000000001",
        "slope:1000000000",
    ],
)
def test_a_map_spec_that_does_not_parse_is_a_usage_error(tmp_path, spec, which, source, capsys):
    maps = {"--f": "tent:2", "--g": "tent:3", which: spec}
    if source == "flag":
        argv = [token for flag, value in maps.items() for token in (flag, value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: value for flag, value in maps.items()}))
        argv = ["--config", str(cfg)]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["commute-check", *argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: plent commute-check ")
    assert f"argument {which}: " in err and repr(spec) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy-rel", "--f", "tent:2", "--g", "tent:3", "--eps", "0"],
        ["entropy-rel", "--f", "tent:2", "--g", "tent:3", "--eps", "1/8,0"],
        ["entropy-rel", "--f", "tent:2", "--g", "tent:3", "--eps=-1/8"],
        ["entropy-rel", "--f", "tent:2", "--g", "tent:3", "--grid", "0"],
        ["invlim", "--f", "tent:2", "--grid", "0"],
        ["invlim", "--f", "tent:2", "--eps=-1/16"],
        ["invlim", "--f", "tent:2", "--eps", "x"],
        ["appendix", "--nseq", "2,5", "--s", "abc"],
        ["appendix", "--nseq", "2,5", "--s", "0"],
    ],
)
def test_eps_and_grid_must_be_positive_rationals(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    assert "positive rational" in capsys.readouterr().err
    assert not (tmp_path / "failure.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["invlim", "--f", "tent:2", "--nmax", "0"],
        ["invlim", "--f", "tent:2", "--depth", "0"],
        ["entropy-rel", "--f", "tent:2", "--g", "tent:3", "--cap-orbits", "0"],
        ["entropy-rel", "--f", "tent:2", "--g", "tent:3", "--nmax", "0"],
        ["entropy-rel", "--f", "tent:2", "--g", "tent:3", "--power", "0"],
        ["entropy-map", "--f", "tent:2", "--nmax=-1"],
        ["entropy-map", "--f", "tent:2", "--cap-breakpoints", "x"],
        ["branches", "--n", "3", "--m", "2", "--kmax", "0"],
        ["branches", "--n", "3", "--m", "2", "--cap-arcs", "0"],
        ["bracket", "--n", "3", "--m", "2", "--kmax", "0"],
        ["horseshoe", "--f", "tent:2", "--mode", "graph", "--n", "2", "--power", "0"],
        ["appendix", "--nseq", "2,5", "--kmax", "0"],
        ["appendix", "--nseq", "2,5", "--kbranch", "0"],
        ["bracket", "--n", "0", "--m", "2"],
        ["bracket", "--n", "3", "--m=-2"],
        ["branches", "--n", "x", "--m", "3"],
        ["branches", "--n", "3", "--m", "0"],
        ["horseshoe", "--f", "tent:2", "--mode", "graph", "--n", "0"],
        ["appendix", "--nseq", "0,5"],
        ["appendix", "--nseq", "2,x"],
    ],
)
def test_count_flags_must_be_positive_integers(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_horseshoe_needs_at_least_two_intervals(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "horseshoe", "--f", "tent:2", "--mode", "graph", "--n", "1")
    assert exc.value.code == 2
    assert "at least 2 intervals" in capsys.readouterr().err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


@pytest.mark.parametrize("n, m", [("2", "1"), ("1", "1"), ("1", "2")])
def test_bracket_needs_a_tent_parameter_of_at_least_three(tmp_path, n, m, capsys):
    # else the level-1 horseshoe size (max(n, m) + 1) // 2 is below 2
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "bracket", "--n", n, "--m", m)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: plent bracket ")
    assert "max(--n, --m) must be at least 3" in err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["--nseq", "1,5"], {}, "each entry of --nseq must be at least 2"),
        (["--nseq", "2,5"], {"nseq": [2, 1]}, "each entry of --nseq must be at least 2"),
        (["--nseq", "2,5", "--s", "1/2"], {}, "--s must be at least 1"),
        (["--nseq", "2,5"], {"s": "2/3"}, "--s must be at least 1"),
        (["--kmax", "3", "--nseq", "2"], {}, "--kmax 3 exceeds the 1 entries of --nseq"),
        (["--nseq", "2"], {"kmax": 2}, "--kmax 2 exceeds the 1 entries of --nseq"),
    ],
)
def test_appendix_inputs_the_system_cannot_take_are_usage_errors(
    tmp_path, argv, config, message, capsys
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["appendix", *argv, "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: plent appendix ")
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [("invlim", {"nmax": 0}), ("invlim", {"depth": -2}), ("entropy-rel", {"cap_orbits": "1/2"})],
)
def test_config_counts_must_be_positive_integers(tmp_path, command, config, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    maps = ["--f", "tent:2"] + (["--g", "tent:3"] if command == "entropy-rel" else [])
    with pytest.raises(SystemExit) as exc:
        main([command, *maps, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_grid_must_be_positive(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 0}))
    with pytest.raises(SystemExit) as exc:
        main(["invlim", "--f", "tent:2", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["horseshoe", "--f", "tent:2", "--n", "2"],
        ["horseshoe", "--f", "tent:2", "--mode", "invcomp", "--n", "2"],
        ["entropy-rel", "--f", "tent:2"],
        ["invlim", "--system", "diag", "--f", "tent:2"],
    ],
)
def test_a_second_map_is_required_where_it_is_used(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    assert "--g" in capsys.readouterr().err
    assert not (tmp_path / "failure.json").exists()


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["branches", "--n", "3", "--kmax", "2"], "--f or --m"),
        (["branches", "--f", "tent:2", "--kmax", "2"], "--g or --n"),
    ],
)
def test_branches_needs_both_maps(tmp_path, argv, missing, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert missing in err
    assert err.startswith("usage: plent branches ")
    assert not (tmp_path / "failure.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["branches", "--n", "3", "--m", "2", "--kmax", "4"],
        ["bracket", "--n", "3", "--m", "2", "--kmax", "4"],
    ],
)
def test_arc_cap_is_cap_arcs_not_cap_orbits(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path / "orbits", *argv, "--cap-orbits", "20")
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap-orbits 20" in capsys.readouterr().err
    assert not (tmp_path / "orbits").exists()
    assert run(tmp_path / "arcs", *argv, "--cap-arcs", "20") == 2
    failure = read_json(tmp_path / "arcs", "failure.json")
    assert failure["error"] == "ResourceError"
    assert "cap of 20 arcs" in failure["message"]


def test_arc_cap_failure_reports_the_size_of_the_partial_family(tmp_path):
    # 7, 41, 223 and then 1169 arcs: the cap of 1000 fires at level 4
    assert run(tmp_path, "branches", "--n", "5", "--m", "3", "--kmax", "6", "--cap-arcs", "1000") == 2
    assert read_json(tmp_path, "failure.json") == {
        "command": "branches",
        "error": "ResourceError",
        "message": "branch family exceeds cap of 1000 arcs",
        "partial_size": 1001,
        "partial_level": 4,
    }


def test_appendix_caps_the_arcs_of_its_block_families(tmp_path):
    # block 1's family has 3, 7 and then 15 arcs: the cap of 10 fires at
    # level 3 (block 2's reaches 64 at level 5)
    argv = ["appendix", "--nseq", "2,5", "--kmax", "1", "--kbranch", "5"]
    assert run(tmp_path / "uncapped", *argv) == 0
    assert run(tmp_path / "capped", *argv, "--cap-arcs", "10") == 2
    assert read_json(tmp_path / "capped", "failure.json") == {
        "command": "appendix",
        "error": "ResourceError",
        "message": "branch family exceeds cap of 10 arcs",
        "partial_size": 11,
        "partial_level": 3,
    }


# the minimal valid argv of each subcommand, and the caps that it reads
SUBCOMMANDS = {
    "commute-check": (["--f", "tent:2", "--g", "tent:3"], set()),
    "branches": (["--n", "3", "--m", "2"], {"arcs"}),
    "horseshoe": (["--f", "tent:2", "--g", "tent:3", "--n", "2"], set()),
    "bracket": (["--n", "3", "--m", "2"], {"arcs", "breakpoints"}),
    "entropy-map": (["--f", "tent:2"], {"breakpoints"}),
    "entropy-rel": (["--f", "tent:2", "--g", "tent:3"], {"orbits"}),
    "invlim": (["--f", "tent:2"], set()),
    "appendix": (["--nseq", "2,5"], {"arcs"}),
}


def test_each_cap_flag_is_taken_only_where_it_is_read(tmp_path, capsys):
    ap = build_parser()
    taken = 0
    for command, (argv, caps) in SUBCOMMANDS.items():
        for cap in ("arcs", "breakpoints", "orbits"):
            flag = [f"--cap-{cap}", "7"]
            if cap in caps:
                assert getattr(ap.parse_args([command, *argv, *flag]), f"cap_{cap}") == 7
                taken += 1
                continue
            with pytest.raises(SystemExit):
                ap.parse_args([command, *argv, *flag])
            assert f"unrecognized arguments: --cap-{cap} 7" in capsys.readouterr().err
    assert taken == 6


def test_breakpoint_cap_failure_reports_the_terms_computed(tmp_path):
    # tent(3)^4 has 82 breakpoints, over the cap of 50, after 3 terms
    assert run(tmp_path, "entropy-map", "--f", "tent:3", "--nmax", "8", "--cap-breakpoints", "50") == 2
    failure = read_json(tmp_path, "failure.json")
    assert failure["error"] == "ResourceError"
    assert failure["partial_size"] == 3


def test_bracket_caps_the_breakpoints_of_its_iterates(tmp_path):
    # tent(3)^4 has 82 breakpoints, over the cap of 50
    argv = ["bracket", "--n", "3", "--m", "2", "--kmax", "6"]
    assert run(tmp_path, *argv, "--cap-breakpoints", "50") == 2
    failure = read_json(tmp_path, "failure.json")
    assert failure["error"] == "ResourceError"
    assert "(cap 50)" in failure["message"]


def test_orbit_cap_writes_the_same_failure_report(tmp_path):
    # 513 orbits of length 5 start on the 1/32 grid, over the cap of 500;
    # the cap fires at the 501st
    argv = ["entropy-rel", "--f", "tent:2", "--g", "tent:3", "--grid", "1/32", "--nmax", "6"]
    assert run(tmp_path, *argv, "--cap-orbits", "500") == 2
    assert [p.name for p in tmp_path.iterdir()] == ["failure.json"]
    assert read_json(tmp_path, "failure.json") == {
        "command": "entropy-rel",
        "error": "ResourceError",
        "message": "orbit count exceeds cap 500",
        "partial_size": 501,
    }
    digest = hashlib.sha256((tmp_path / "failure.json").read_bytes()).hexdigest()
    assert digest == "906c0f62fdd6bd15210aa0c24a63276f7f38ba58474e0b215839c5d0c21166f1"
