"""End-to-end runs of the command-line interface."""

import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from plent.cli import main


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def read_json(tmp_path, name):
    return json.loads((Path(tmp_path) / name).read_text())


def read_csv(tmp_path, name):
    with open(Path(tmp_path) / name, newline="") as fh:
        return list(csv.reader(fh))


def test_commute_check_coprime_tents(tmp_path):
    assert run(tmp_path, "commute-check", "--f", "tent:2", "--g", "tent:3") == 0
    payload = read_json(tmp_path, "commute.json")
    assert payload["strongly_commutes"] is True


def test_commute_check_failure_exits_one_with_witness(tmp_path):
    assert run(tmp_path, "commute-check", "--f", "tent:6", "--g", "tent:4") == 1
    payload = read_json(tmp_path, "commute.json")
    assert payload["strongly_commutes"] is False
    assert "g_after_f_inverse" in payload and "f_inverse_after_g" in payload


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


def test_bracket_subcommand(tmp_path):
    assert run(tmp_path, "bracket", "--n", "3", "--m", "2", "--kmax", "3") == 0
    payload = read_json(tmp_path, "bracket.json")
    assert payload["target"] == pytest.approx(math.log(3))
    lower = payload["lower"][-1][1]
    upper = payload["upper"][-1][1]
    assert lower <= math.log(3) <= upper


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


def test_invlim_diag_csv_is_pinned(tmp_path):
    code = run(
        tmp_path, "invlim",
        "--system", "diag", "--f", "tent:2", "--g", "tent:3",
        "--depth", "3", "--nmax", "4", "--grid", "1/64",
    )
    assert code == 0
    digest = hashlib.sha256((Path(tmp_path) / "invlim.csv").read_bytes()).hexdigest()
    assert digest == "ff67ffee7290bfd9063bf380a6bc5aae84edaf38e193039ee8f477aa3accb662"


def test_appendix_subcommand(tmp_path):
    code = run(
        tmp_path, "appendix",
        "--s", "2", "--nseq", "2,5", "--kmax", "1", "--kbranch", "4",
    )
    assert code == 0
    payload = read_json(tmp_path, "appendix.json")
    assert payload["compatible"] and payload["bounds_ok"]


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


def test_failures_produce_report_and_exit_two(tmp_path):
    code = run(tmp_path, "entropy-map", "--f", "mystery:9")
    assert code == 2
    payload = read_json(tmp_path, "failure.json")
    assert "error" in payload


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
        ["invlim", "--f", "tent:2", "--cap-orbits", "0"],
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
    ],
)
def test_count_flags_must_be_positive_integers(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


@pytest.mark.parametrize("config", [{"nmax": 0}, {"depth": -2}, {"cap_orbits": "1/2"}])
def test_config_counts_must_be_positive_integers(tmp_path, config, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["invlim", "--f", "tent:2", "--config", str(cfg), "--out", str(tmp_path / "out")])
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
def test_arc_cap_is_cap_arcs_not_cap_orbits(tmp_path, argv):
    assert run(tmp_path / "orbits", *argv, "--cap-orbits", "20") == 0
    assert run(tmp_path / "arcs", *argv, "--cap-arcs", "20") == 2
    failure = read_json(tmp_path / "arcs", "failure.json")
    assert failure["error"] == "ResourceError"
    assert "cap of 20 arcs" in failure["message"]


def test_bracket_caps_the_breakpoints_of_its_iterates(tmp_path):
    # tent(3)^4 has 82 breakpoints, over the cap of 50
    argv = ["bracket", "--n", "3", "--m", "2", "--kmax", "6"]
    assert run(tmp_path, *argv, "--cap-breakpoints", "50") == 2
    failure = read_json(tmp_path, "failure.json")
    assert failure["error"] == "ResourceError"
    assert "(cap 50)" in failure["message"]
