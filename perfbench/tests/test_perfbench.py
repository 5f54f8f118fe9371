"""Tests of the benchmark itself: the correctness gate, the job runner, the
tracer's wrappers and the names of the metrics it prints."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from cli_job import CALIBRATION_PERIOD_S, NOMINAL_SLICE_S  # noqa: E402
from jobs import JobResult, run_job  # noqa: E402
from run import Job, end_to_end  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, gate  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _run_appendix(tmp_path: Path, argv: list[str] | None = None):
    workload = WORKLOADS["appendix-2525"]
    out = tmp_path / "out"
    cli = [sys.executable, str(BENCH / "cli_job.py"), str(tmp_path / "record.json"), "--",
           *workload.argv, "--out", str(out)]
    result = run_job(argv or cli, tmp_path, ENV, timeout=60)
    return workload, result, out


def test_tampered_artifact_fails_the_gate(tmp_path):
    workload, result, out = _run_appendix(tmp_path)
    assert result.cpu_s > 0
    assert gate(workload, result.returncode, result.timed_out, out) == []
    table = out / "appendix.csv"
    table.write_bytes(table.read_bytes().replace(b"horseshoe", b"Horseshoe", 1))
    assert gate(workload, 0, False, out) == ["appendix.csv: digest mismatch"]
    (out / "appendix.json").write_text(json.dumps({"bounds_ok": False, "compatible": True}))
    problems = gate(workload, 0, False, out)
    assert "appendix.json: digest mismatch" in problems
    assert "appendix: bounds_ok and compatible are not both true" in problems
    (out / "failure.json").write_text("{}")
    assert gate(workload, 0, False, out)[0].startswith("artifacts ")


def test_nonzero_exit_fails_the_gate(tmp_path):
    workload, result, out = _run_appendix(tmp_path, [sys.executable, "-c", "raise SystemExit(3)"])
    assert result.returncode == 3
    assert gate(workload, result.returncode, result.timed_out, out) == ["exit code 3"]


def test_hung_job_is_killed_and_fails_the_gate(tmp_path):
    result = run_job([sys.executable, "-c", "import time; time.sleep(60)"], tmp_path, ENV, timeout=0.5)
    assert result.timed_out and result.wall_s < 10
    workload = WORKLOADS["appendix-2525"]
    assert gate(workload, result.returncode, result.timed_out, tmp_path / "out") == ["timed out"]


def test_peak_memory_is_the_jobs_own_not_its_spawners(tmp_path):
    ballast = bytearray(96 << 20)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # make the pages resident
    argv = ["horseshoe", "--f", "tent:2", "--g", "tent:2", "--mode", "invcomp", "--n", "2"]
    cli = [sys.executable, str(BENCH / "cli_job.py"), str(tmp_path / "record.json"), "--",
           *argv, "--out", str(tmp_path / "out")]
    assert run_job(cli, tmp_path, ENV, timeout=60).returncode == 0
    record = json.loads((tmp_path / "record.json").read_text())
    assert 1 < record["peak_kib"] / 1024 < 64 and record["trace"] is None


def test_times_are_scaled_by_the_calibration_slices(tmp_path):
    workload, result, out = _run_appendix(tmp_path)
    calibration = json.loads((tmp_path / "record.json").read_text())["calibration"]
    # one slice before the job and one every period while it runs
    periods = result.wall_s / CALIBRATION_PERIOD_S
    assert 1 + periods / 2 < calibration["slices"] < 2 + periods
    assert 0 < calibration["cpu_s"] < result.cpu_s / 4

    def job(own_wall_s, own_cpu_s, slowdown):
        spent = 10 * slowdown * NOMINAL_SLICE_S
        result = JobResult(own_wall_s + spent, own_cpu_s + spent, 0, False)
        return Job(workload, False, result, [], 30.0, {"slices": 10, "wall_s": spent, "cpu_s": spent}, None)

    # medians: the job took 4 s on its own on a host at a quarter of nominal speed
    jobs = [job(2.0, 1.8, 2), job(4.0, 3.6, 4), job(9.0, 9.0, 4)]
    metrics = end_to_end(jobs, [0.1, 0.3, 0.2])
    assert metrics["job_s"] == pytest.approx(4.0 / 4)
    assert metrics["cpu_s"] == pytest.approx(3.6 / 4)
    assert metrics["peak_rss_mb"] == 30.0 and metrics["setup_s"] == 0.2


@pytest.mark.parametrize(
    "workload, name, text, problem",
    [
        ("branches-53", "branches.csv",
         "k,count,log_growth\n1,7,1.9459101491\n2,7,0.9729550745\n",
         "branches: counts do not strictly increase"),
        ("bracket-32", "bracket.json",
         json.dumps({"lower": [[1, 0.5]], "upper": [[1, 1.0]]}),
         "bracket: k=1 does not bracket log 3"),
        ("orbits-23", "entropy_rel.csv",
         "n,eps,grid,s_count,r_count,estimate\n1,1/8,1/32,7,4,1.5\n",
         "orbits: n=1 eps=1/8 estimate != log(s)/n"),
        ("invlim-shift", "invlim.csv",
         "n,eps,s_count,estimate,tail_bound\n" + "".join(f"{n},1/16,2,0.9,1/256\n" for n in range(1, 9)),
         "invlim: last estimate 0.9 outside [log 2 - 0.2, log 2 + 0.05]"),
    ],
)
def test_known_answers_reject_wrong_numbers(tmp_path, workload, name, text, problem):
    (tmp_path / name).write_text(text)
    assert problem in WORKLOADS[workload].known_answer(tmp_path)


def _namespaces() -> dict:
    import plent.plmap

    state = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "plent" or name.startswith("plent.")
        for attr, value in vars(module).items()
    }
    state["PLMap.__call__"] = plent.plmap.PLMap.__dict__["__call__"]
    return state


def test_tracer_wraps_every_namespace_and_restores_it(tmp_path):
    import plent.cli

    before = _namespaces()
    looked_up = [
        ("plent.entropy", "verify_horseshoe"),
        ("plent.cli", "verify_horseshoe"),
        ("plent.invlim", "separated_count"),
        ("plent.branch", "chain"),
        ("plent.relation", "compose"),
        ("plent", "find_horseshoe"),
    ]
    with Tracer() as tracer:
        for module, attr in looked_up:
            assert getattr(sys.modules[module], attr).__wrapped__ is before[(module, attr)]
        argv = ["horseshoe", "--f", "tent:2", "--g", "tent:2", "--mode", "invcomp", "--n", "2"]
        assert plent.cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert _namespaces() == before
    # once inside find_horseshoe, once more by the CLI to re-verify
    assert tracer.functions["entropy.verify_horseshoe"].calls >= 2
    assert tracer.functions["cli.main"].calls == 1


def test_tracer_restores_after_an_error():
    import plent.entropy
    from plent.relation import param_graph
    from plent.families import tent

    rel = param_graph(tent(2), tent(3))
    before = _namespaces()
    with pytest.raises(ValueError), Tracer() as tracer:
        plent.entropy.find_horseshoe(rel, 1)
    assert _namespaces() == before
    assert tracer.functions["entropy.find_horseshoe"].errors == 1


def test_traced_counts_match_the_artifact(tmp_path):
    import plent.cli

    with Tracer() as tracer:
        assert plent.cli.main(["branches", "--n", "3", "--m", "2", "--kmax", "4", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "branches.csv").read_text().splitlines()[1:]
    counts = [int(row.split(",")[1]) for row in rows]
    assert tracer.counts["branch.arcs_out"] == sum(counts[1:])
    assert tracer.counts["branch.chains_tried"] == sum(counts[0] * c for c in counts[:-1])


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "appendix-2525", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bracket-32", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
