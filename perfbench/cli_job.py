"""One plent CLI job, run in this process as ``python -m plent.cli`` runs it,
that writes a record of how it ran:

    PYTHONPATH=src python3 perfbench/cli_job.py RECORD.json [--trace] -- PLENT-ARGS...

With --setup in place of a job it only imports plent.cli and builds its
parser.  The record holds:

* ``peak_kib``: the process's peak resident memory, ``VmHWM``, which starts
  afresh when the process execs.  The ``ru_maxrss`` that the parent gets
  from ``wait4`` does not: it starts at the peak of the process that
  spawned the job, and the benchmark's own peak can exceed a small job's.
* ``calibration``: the count and the summed wall and CPU seconds of the
  calibration slices.  The speed of a vCPU on a shared host swings by 20 %
  and more from one second to the next.  So an untraced job runs one
  slice, a fixed loop of exact-fraction arithmetic, before it starts and
  one every CALIBRATION_PERIOD_S while it runs (and so does --setup); the
  slices see the host as the job sees it, and their mean time tells how
  fast the host ran the job.
* ``trace``: with --trace, the per-layer trace of `tracer.Tracer`.  A traced
  job runs no calibration slices.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from fractions import Fraction

USAGE = "usage: cli_job.py RECORD.json (--setup | [--trace] -- PLENT-ARGS...)"
CALIBRATION_PERIOD_S = 0.05
# median time of calibration_slice on the 2-vCPU Xeon VM the benchmark was
# written on, so that scaled times read close to the seconds measured there
NOMINAL_SLICE_S = 0.0047


def calibration_slice() -> None:
    """About 5 ms of exact-fraction arithmetic, plent's own kind of work."""
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)


class Calibration:
    def __init__(self):
        self.slices = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def run_slice(self, *signal_args) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        calibration_slice()
        self.wall_s += time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0
        self.slices += 1


def peak_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    record_path, rest = argv[0] if argv else None, argv[1:]
    mode = rest.pop(0) if rest[:1] in (["--setup"], ["--trace"]) else None
    if record_path is None or (rest if mode == "--setup" else rest[:1] != ["--"]):
        raise SystemExit(USAGE)
    cli_args = rest[1:]
    calibration = trace = None
    if mode == "--trace":
        import plent.cli
        from tracer import Tracer

        with Tracer() as tracer:
            code = plent.cli.main(cli_args)
        trace = tracer.to_json()
    else:
        calibration = Calibration()
        calibration.run_slice()
        signal.signal(signal.SIGALRM, calibration.run_slice)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        try:
            import plent.cli

            if mode == "--setup":
                plent.cli.build_parser()
                code = 0
            else:
                code = plent.cli.main(cli_args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        calibration = vars(calibration)
    with open(record_path, "w") as fh:
        json.dump({"peak_kib": peak_kib(), "calibration": calibration, "trace": trace}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
