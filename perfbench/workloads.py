"""The benchmark's workloads and the correctness gate every job must pass.

Each workload is one fixed `plent` CLI job, scaled down from the full-size
ROADMAP jobs to 2-5 s, so that a run holds enough jobs for a steady
median, but still dominated by the same layer:

* ``branches-53``   branch chaining on the all-affine path (``next_family``)
* ``bracket-32``    horseshoe verification plus iterated-map relations
* ``orbits-23``     all-pairs separated/spanning orbit counts
* ``invlim-shift``  point-by-point diagonal maps on a truncated inverse limit
* ``appendix-2525`` generic (non-affine) branch chaining on dyadic blocks

A job passes the gate when it exits 0, every artifact it writes matches the
SHA-256 digest recorded for it, and its numbers satisfy a known answer
computed here from first principles rather than by plent's own code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _close(printed: str, exact: float) -> bool:
    # the CLI prints estimates with 10 decimals
    return abs(float(printed) - exact) <= 1e-10


def _check_bracket(out: Path) -> list[str]:
    doc = json.loads((out / "bracket.json").read_text())
    target = math.log(3)
    lower, upper = dict(doc["lower"]), dict(doc["upper"])
    problems = []
    if sorted(lower) != list(range(1, 7)) or sorted(upper) != list(range(1, 7)):
        problems.append("bracket: levels are not k = 1..6")
    for k in sorted(set(lower) & set(upper)):
        if not lower[k] <= target <= upper[k]:
            problems.append(f"bracket: k={k} does not bracket log 3")
        if upper[k] > target + math.log(k + 1) / k:
            problems.append(f"bracket: k={k} upper bound misses the log(k+1)/k gap")
    return problems


def _check_branches(out: Path) -> list[str]:
    rows = _read_csv(out / "branches.csv")
    problems = []
    if [int(r["k"]) for r in rows] != list(range(1, 7)):
        problems.append("branches: levels are not k = 1..6")
    counts = [int(r["count"]) for r in rows]
    if any(b <= a for a, b in zip(counts, counts[1:])):
        problems.append("branches: counts do not strictly increase")
    for r in rows:
        k, count = int(r["k"]), int(r["count"])
        if count > (k + 1) * 5**k:
            problems.append(f"branches: k={k} count exceeds (k+1)*5^k")
        if not _close(r["log_growth"], math.log(count) / k):
            problems.append(f"branches: k={k} log_growth != log(count)/k")
    return problems


def _check_orbits(out: Path) -> list[str]:
    rows = _read_csv(out / "entropy_rel.csv")
    problems = []
    want = [(n, eps) for n in range(1, 5) for eps in (Fraction(1, 8), Fraction(1, 16))]
    if [(int(r["n"]), Fraction(r["eps"])) for r in rows] != want:
        problems.append("orbits: rows are not one per (n, eps)")
    for r in rows:
        n, s = int(r["n"]), int(r["s_count"])
        if not _close(r["estimate"], math.log(s) / n if s > 1 else 0.0):
            problems.append(f"orbits: n={n} eps={r['eps']} estimate != log(s)/n")
    return problems


def _check_invlim(out: Path) -> list[str]:
    rows = _read_csv(out / "invlim.csv")
    if [int(r["n"]) for r in rows] != list(range(1, 9)):
        return ["invlim: rows are not n = 1..8"]
    last = float(rows[-1]["estimate"])
    if not math.log(2) - 0.2 <= last <= math.log(2) + 0.05:
        return [f"invlim: last estimate {last} outside [log 2 - 0.2, log 2 + 0.05]"]
    return []


def _check_appendix(out: Path) -> list[str]:
    doc = json.loads((out / "appendix.json").read_text())
    if doc.get("bounds_ok") is not True or doc.get("compatible") is not True:
        return ["appendix: bounds_ok and compatible are not both true"]
    return []


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # plent CLI arguments, without --out
    digests: dict[str, str]  # artifact file name -> SHA-256 of its bytes
    known_answer: Callable[[Path], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "branches-53",
            ("branches", "--n", "5", "--m", "3", "--kmax", "6"),
            {"branches.csv": "7405c2d3613e9f04a8d84cdc02992f5675e15454279e3ca507a3ba29221d1d27"},
            _check_branches,
        ),
        Workload(
            "bracket-32",
            ("bracket", "--n", "3", "--m", "2", "--kmax", "6"),
            {"bracket.json": "0791974024ba609fdd1873bf628666bb47c1fe735bc1afb0f66d366cf4834216"},
            _check_bracket,
        ),
        Workload(
            "orbits-23",
            ("entropy-rel", "--f", "tent:2", "--g", "tent:3", "--nmax", "4",
             "--grid", "1/32", "--eps", "1/8,1/16"),
            {"entropy_rel.csv": "b18844a6e39fc856c935cefa0a301b6b26864cdad38c858b5b5397d11a72ab39"},
            _check_orbits,
        ),
        Workload(
            "invlim-shift",
            ("invlim", "--system", "shift", "--f", "tent:2", "--depth", "4",
             "--nmax", "8", "--eps", "1/16", "--grid", "1/256"),
            {"invlim.csv": "f59fa3b532389320278a9163dbcec6929f232a90a92c32a5fbe0c93bbaa41407"},
            _check_invlim,
        ),
        Workload(
            "appendix-2525",
            ("appendix", "--s", "2", "--nseq", "2,5,2,5", "--kmax", "3", "--kbranch", "5"),
            {
                "appendix.csv": "c0e20a368529f0c035de383636c904a7d500f3d3fe5e638de9ddad7f76104e8a",
                "appendix.json": "a6898054ac9d8a16887783b315d2a0b655b74b2d7e1cdb5fc1d70f7628929ce3",
            },
            _check_appendix,
        ),
    )
}


def gate(workload: Workload, returncode: int, timed_out: bool, out: Path) -> list[str]:
    """Every reason the job fails; an empty list means it passed."""
    if timed_out:
        return ["timed out"]
    if returncode != 0:
        return [f"exit code {returncode}"]
    written = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    if written != sorted(workload.digests):
        return [f"artifacts {written}, expected {sorted(workload.digests)}"]
    problems = [
        f"{name}: digest mismatch"
        for name, digest in workload.digests.items()
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
    ]
    try:
        problems += workload.known_answer(out)
    except (OSError, ValueError, KeyError, TypeError) as err:
        problems.append(f"unreadable artifact: {type(err).__name__}: {err}")
    return problems
