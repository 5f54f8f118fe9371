"""Run one child process and measure it: wall time and CPU time.

The child is reaped with ``wait4`` so its own resource usage comes back
with its exit status; a pidfd lets the parent wait with a timeout and kill
the child without racing against pid reuse.
"""

from __future__ import annotations

import contextlib
import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class JobResult:
    wall_s: float  # spawn to exit
    cpu_s: float  # user + system time of the child
    returncode: int
    timed_out: bool


def _kill(pidfd: int) -> None:
    with contextlib.suppress(ProcessLookupError):  # already exited
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)


def run_job(argv: list[str], cwd: Path, env: dict[str, str], timeout: float) -> JobResult:
    """Run argv to completion in cwd, killing it after `timeout` seconds.

    The child's stdout and stderr go to files in cwd.
    """
    with (cwd / "stdout.txt").open("wb") as out, (cwd / "stderr.txt").open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    reaped = False
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        if not ready:
            _kill(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        reaped = True
    finally:
        if not reaped:  # interrupted: leave no child behind
            _kill(pidfd)
            os.wait4(proc.pid, 0)
        os.close(pidfd)
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        returncode=proc.returncode,
        timed_out=not ready,
    )
