"""Benchmark of the plent CLI: one client, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; plent is imported from ./src.  Every
job is a fresh interpreter that runs the plent CLI through cli_job.py (a
closed loop with one client), and every job must pass the correctness gate
in workloads.py.  Jobs run in rounds until the next round would end after
S seconds; at least one round always runs.

--trace 0 reports the end-to-end metrics: wall time, CPU time and peak
memory per job, and the set-up time of a fresh interpreter that imports
plent.cli and builds its parser, each the median over the run's samples.
Wall and CPU time, set-up time too, are scaled by the calibration slices
that cli_job.py interleaves with the job: the job's own time (its time
less that of the slices) times NOMINAL_SLICE_S over the slices' mean time.  So they read
as seconds on a host as fast as the one the benchmark was written on,
and the host's speed swings, which move a run's raw median by more than
a real change would, drop out.  The raw medians are printed as well.

--trace 1 pairs every untraced job with a traced one and reports the
per-layer metrics of the traced jobs.  ``--workload all`` runs every
workload, round by round.

The inputs are fixed instances, so the seed only sets the order in which
the jobs of one round run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from cli_job import NOMINAL_SLICE_S
from jobs import JobResult, run_job
from tracer import PER_LAYER_UNITS, layer_metrics
from workloads import WORKLOADS, Workload, gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"job_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PROBES = 11
JOB_TIMEOUT_S = 90.0
# every job is killed by this time, so a run ends well inside 180 s
RUN_DEADLINE_S = 165.0


@dataclass(frozen=True)
class Job:
    """One finished job: its measurements, gate verdict, calibration and trace."""

    workload: Workload
    traced: bool
    result: JobResult
    problems: list[str]
    # these three only for a job that passed the gate
    peak_rss_mb: float | None
    calibration: dict | None  # slices, wall_s, cpu_s; untraced jobs only
    trace: dict | None  # traced jobs only


class Bench:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PLENT_THREADS", None)  # jobs run single-threaded

    def _timeout(self) -> float:
        return min(JOB_TIMEOUT_S, self.deadline - time.perf_counter())

    def setup_seconds(self) -> list[float]:
        """Scaled wall time of fresh interpreters that import plent.cli and
        build its parser; the first, which byte-compiles the sources, is not
        kept."""
        times = []
        for _ in range(SETUP_PROBES + 1):
            probe = Path(tempfile.mkdtemp(dir=self.work))
            argv = [sys.executable, str(HERE / "cli_job.py"), str(probe / "record.json"), "--setup"]
            result = run_job(argv, probe, self.env, self._timeout())
            if result.returncode != 0 or result.timed_out:
                raise SystemExit(f"cannot import plent.cli from {SRC}:\n" + (probe / "stderr.txt").read_text())
            cal = json.loads((probe / "record.json").read_text())["calibration"]
            shutil.rmtree(probe)
            times.append(scaled(result.wall_s - cal["wall_s"], cal["slices"], cal["wall_s"]))
        return times[1:]

    def run(self, workload: Workload, traced: bool) -> Job:
        job_dir = Path(tempfile.mkdtemp(dir=self.work))
        out = job_dir / "out"
        record = job_dir / "record.json"
        argv = [sys.executable, str(HERE / "cli_job.py"), str(record), *(["--trace"] if traced else []),
                "--", *workload.argv, "--out", str(out)]
        result = run_job(argv, job_dir, self.env, self._timeout())
        problems = gate(workload, result.returncode, result.timed_out, out)
        peak_rss_mb = calibration = trace = None
        if not problems:
            doc = json.loads(record.read_text())
            peak_rss_mb, calibration, trace = doc["peak_kib"] / 1024, doc["calibration"], doc["trace"]
        else:
            stderr = (job_dir / "stderr.txt").read_text()[-2000:]
            print(f"job failed: {workload.name} traced={traced}: {problems}\n{stderr}", file=sys.stderr)
        shutil.rmtree(job_dir)
        return Job(workload, traced, result, problems, peak_rss_mb, calibration, trace)


def measure(bench: Bench, workloads: list[Workload], seed: int, seconds: float, traced: bool) -> list[Job]:
    rng = random.Random(seed)
    start = time.perf_counter()
    jobs: list[Job] = []
    while True:
        round_start = time.perf_counter()
        order = [(w, t) for w in workloads for t in ((False, True) if traced else (False,))]
        rng.shuffle(order)
        jobs += [bench.run(w, t) for w, t in order]
        now = time.perf_counter()
        if now + (now - round_start) > min(start + seconds, bench.deadline):
            return jobs


def scaled(own_s: float, slices: int, slices_s: float) -> float:
    """own_s on a host that runs a calibration slice in NOMINAL_SLICE_S."""
    return own_s * NOMINAL_SLICE_S * slices / slices_s


def own_times(job: Job) -> tuple[float, float]:
    """Wall and CPU seconds of an untraced job, less its calibration slices."""
    cal = job.calibration
    return job.result.wall_s - cal["wall_s"], job.result.cpu_s - cal["cpu_s"]


def end_to_end(jobs: list[Job], setup: list[float]) -> dict[str, float]:
    passed = [j for j in jobs if not j.traced and not j.problems]
    if not passed:
        return {"setup_s": statistics.median(setup)}
    wall, cpu = [], []
    for job in passed:
        own_wall, own_cpu = own_times(job)
        cal = job.calibration
        wall.append(scaled(own_wall, cal["slices"], cal["wall_s"]))
        cpu.append(scaled(own_cpu, cal["slices"], cal["cpu_s"]))
    return {
        "job_s": statistics.median(wall),
        "cpu_s": statistics.median(cpu),
        "peak_rss_mb": statistics.median(j.peak_rss_mb for j in passed),
        "setup_s": statistics.median(setup),
    }


def raw_medians(jobs: list[Job]) -> dict[str, float]:
    """Medians of the untraced jobs that passed, as measured."""
    passed = [j for j in jobs if not j.traced and not j.problems]
    return {
        "job_s": statistics.median(own_times(j)[0] for j in passed),
        "cpu_s": statistics.median(own_times(j)[1] for j in passed),
        "calibration_slice_s": statistics.median(j.calibration["wall_s"] / j.calibration["slices"] for j in passed),
    } if passed else {}


def per_layer(jobs: list[Job]) -> dict[str, float]:
    traces = [layer_metrics(j.trace) for j in jobs if j.trace is not None]
    if not traces:  # every traced job failed the gate
        return {}
    out = {name: statistics.median(t[name] for t in traces) for name in traces[0]}
    untraced = [own_times(j)[0] for j in jobs if not j.traced and not j.problems]
    if untraced:
        traced_s = statistics.median(j.result.wall_s for j in jobs if j.trace is not None)
        out["trace.overhead_ratio"] = traced_s / statistics.median(untraced) - 1
    return out


def plent_commit() -> str | None:
    """HEAD of the source tree's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "plent").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "plent_commit": plent_commit(),
        "plent_src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def report(workload: str, jobs: list[Job], setup: list[float], traced: bool) -> dict:
    """Print one line per metric and return the metrics object."""
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    values = per_layer(jobs) if traced else end_to_end(jobs, setup)
    failed = sum(1 for j in jobs if j.problems)
    print(f"{workload}  jobs={len(jobs)}  failed_share={failed / len(jobs):.4f}  setup_probes={len(setup)}")
    for name, value in raw_medians(jobs).items():
        print(f"{workload}  raw {name} = {value:.6g} s")
    metrics = {}
    for name, unit in units.items():
        if name in values:
            print(f"{workload}  {name} = {values[name]:.6g} {unit}")
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "plent" / "cli.py").is_file():
        print(f"no plent sources under {SRC}", file=sys.stderr)
        return 2
    # a terminated run still kills and reaps its job and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + RUN_DEADLINE_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        bench = Bench(work, deadline)
        setup = bench.setup_seconds()
        jobs = measure(bench, [WORKLOADS[n] for n in names], args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work)
    print(json.dumps({"env": environment(args)}))
    metrics = {n: report(n, [j for j in jobs if j.workload.name == n], setup, bool(args.trace)) for n in names}
    failed = sum(1 for j in jobs if j.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics[args.workload] if args.workload in metrics else metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
