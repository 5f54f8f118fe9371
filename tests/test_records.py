"""The package's records: immutable, validated where a field can be wrong,
picklable, ordered and hashed as the tuples of their fields, and cheap to
import."""

import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from plent.blocks import BlockRow, LevelReport
from plent.branch import _Lattice
from plent.entropy import BracketReport, EstimateRow, HorseshoeCert, OrbitSet
from plent.invlim import DiagonalEstimateRow, TruncatedPoint
from plent.plmap import Bound, Interval, LapGrowth, PLMap
from plent.families import tent
from plent.relation import DEC, HOR, INC, VER, MonotoneArc, param_graph, rel_equals

SRC = Path(__file__).resolve().parents[1] / "src"

HALVES = (Interval(F(0), F(1, 2)), Interval(F(1, 2), F(1)))
ARC = MonotoneArc.from_map(PLMap([(0, 0), (F(1, 2), F(1, 3)), (1, 1)]))
CERT = HorseshoeCert(HALVES)
BOUND = Bound(1, 2, "certified", CERT)
ROW = BlockRow(2, HALVES[1], BOUND, Bound(5, 64, "certified"))

# one instance of every record, with a field to try to overwrite
RECORDS = {
    "Interval": (HALVES[0], "lo"),
    "LapGrowth": (LapGrowth((0.5, 0.25), Bound(1, F(3, 2), "exact")), "exact"),
    "MonotoneArc": (ARC, "kind"),
    "MonotoneArc.vertical": (MonotoneArc.vertical(F(1, 3), HALVES[1]), "ys"),
    "_Lattice": (_Lattice(2, 3, [(0, 2, 0, 3)]), "dx"),
    "OrbitSet": (OrbitSet(1, F(1, 2), ((F(0),), (F(1, 2),))), "orbits"),
    "EstimateRow": (EstimateRow(1, F(1, 8), F(1, 32), 2, 2, math.log(2)), "estimate"),
    "HorseshoeCert": (CERT, "intervals"),
    "Bound": (BOUND, "base"),
    "BracketReport": (
        BracketReport(3, 2, Bound(1, 3, "theorem"), (BOUND,), (Bound(1, 4, "certified"),)),
        "target",
    ),
    "TruncatedPoint": (TruncatedPoint((F(1, 2), F(1, 4))), "coords"),
    "DiagonalEstimateRow": (DiagonalEstimateRow(1, F(1, 16), 2, 0.69, F(1, 256)), "tail_bound"),
    "BlockRow": (ROW, "lower"),
    "LevelReport": (LevelReport(1, 2, (ROW,)), "rows"),
}


@pytest.mark.parametrize("record,field", RECORDS.values(), ids=RECORDS.keys())
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    # a validated record's public class must not grow a __dict__
    with pytest.raises(AttributeError):
        record.note = "extra"


@pytest.mark.parametrize("record", [r for r, _ in RECORDS.values()], ids=RECORDS.keys())
def test_records_survive_a_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record
    assert repr(back) == repr(record)


def test_a_pickled_relation_has_the_same_arcs():
    rel = param_graph(tent(2), tent(3))
    back = pickle.loads(pickle.dumps(rel))
    assert type(back) is type(rel)
    assert back.arcs == rel.arcs and rel_equals(back, rel)
    with pytest.raises(AttributeError):
        back.arcs = ()


def test_a_pickled_map_is_the_same_canonical_map():
    f = PLMap([(0, 0), (F(1, 3), F(1, 3)), (F(1, 2), F(1, 2)), (1, 0)])
    back = pickle.loads(pickle.dumps(f))
    assert back == f and back.breakpoints == f.breakpoints
    with pytest.raises(AttributeError):
        back.breakpoints = ()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Interval(F(1, 2), F(1, 4)),
        lambda: Interval(F(-1, 4), F(1, 2)),
        lambda: Interval(F(1, 2), F(5, 4)),
        lambda: MonotoneArc(INC, homeo=PLMap([(0, 1), (1, 0)])),
        lambda: MonotoneArc(DEC, homeo=PLMap([(0, 0), (1, 1)])),
        lambda: MonotoneArc(HOR, homeo=PLMap([(0, 0), (1, 1)])),
        lambda: MonotoneArc(INC, homeo=PLMap([(0, 0), (1, 1)]), x=F(0)),
        lambda: MonotoneArc(INC),
        lambda: MonotoneArc(VER, x=F(1, 2)),
        lambda: MonotoneArc(VER, homeo=PLMap([(0, 0), (1, 1)]), x=F(0), ys=HALVES[0]),
        lambda: MonotoneArc("zigzag", homeo=PLMap([(0, 0), (1, 1)])),
        lambda: TruncatedPoint(()),
        lambda: Bound(0, 2, "certified"),
        lambda: Bound(1, F(1, 2), "certified"),
        lambda: Bound(1, 2, "heuristic"),
    ],
)
def test_validated_records_reject_bad_fields(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: HALVES[0]._replace(hi=F(2)),
        lambda: Interval._make((F(1), F(0))),
        lambda: ARC._replace(kind=DEC),
        lambda: MonotoneArc._make((VER, None, F(1, 2), None)),
        lambda: RECORDS["TruncatedPoint"][0]._replace(coords=()),
        lambda: TruncatedPoint._make(((),)),
        lambda: BOUND._replace(k=0),
    ],
    ids=["Interval._replace", "Interval._make", "MonotoneArc._replace", "MonotoneArc._make",
         "TruncatedPoint._replace", "TruncatedPoint._make", "Bound._replace"],
)
def test_replace_and_make_check_the_fields(build):
    with pytest.raises(ValueError):
        build()


def test_replace_and_make_build_the_same_record():
    assert HALVES[0]._replace(lo=F(1, 2), hi=F(1)) == HALVES[1]
    assert type(Interval._make((F(0), F(1, 2)))) is Interval
    assert MonotoneArc._make(ARC) == ARC
    assert TruncatedPoint._make(((F(1, 2), F(1, 4)),)) == RECORDS["TruncatedPoint"][0]


def test_validated_records_take_their_fields_by_keyword():
    assert Interval(hi=F(1), lo=F(1, 2)) == HALVES[1]
    assert MonotoneArc(kind=VER, x=F(1, 3), ys=HALVES[1]) == RECORDS["MonotoneArc.vertical"][0]
    assert TruncatedPoint(coords=(F(1, 2), F(1, 4))).depth == 1


def test_intervals_sort_by_lower_then_upper_end():
    rng = random.Random(1313)
    ends = [F(k, 12) for k in range(13)]
    for _ in range(200):
        ivs = [Interval(*sorted(rng.sample(ends, 2))) for _ in range(rng.randint(1, 9))]
        ivs += [Interval(iv.lo, iv.lo) for iv in ivs[:2]]  # ties on lo
        want = sorted(ivs, key=lambda iv: (iv.lo, iv.hi))
        assert sorted(ivs) == want
        assert min(ivs) == want[0] and max(ivs) == want[-1]
        assert all((a < b) == ((a.lo, a.hi) < (b.lo, b.hi)) for a, b in zip(ivs, ivs[1:]))


@pytest.mark.parametrize(
    "record,fields",
    [
        (HALVES[0], ("lo", "hi")),
        (ARC, ("kind", "homeo", "x", "ys")),
        (RECORDS["TruncatedPoint"][0], ("coords",)),
    ],
    ids=["Interval", "MonotoneArc", "TruncatedPoint"],
)
def test_records_hash_as_the_tuple_of_their_fields(record, fields):
    """So sets and dicts of records keep their iteration order."""
    assert hash(record) == hash(tuple(getattr(record, name) for name in fields))


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import plent.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
